import itertools
from fractions import Fraction

import pytest

from wftas import checker, expectation
from wftas.checker import Model
from wftas.core import RegValue
from wftas.protocol import Move, ProcState as S


def test_values_match_table(solve0):
    assert expectation.verify_values(solve0) == []


def test_known_values(solve0):
    v = solve0.values
    assert v[(S.RST, S.RST)] == 10
    assert v[(S.TST1, S.RST)] == 11
    assert v[(S.HE, S.TST1)] == 5
    assert v[(S.CHOOSE, S.RST)] == 3
    assert solve0.max_value == 11
    assert min(v.values()) == 1


def test_tst0_row_all_one(solve0):
    for (s0, _), val in solve0.values.items():
        if s0 is S.TST0:
            assert val == 1


def test_process_swap_symmetry(solve0):
    other = expectation.solve(1)
    for (s0, s1), val in solve0.values.items():
        assert other.values[(s1, s0)] == val


def test_one_step_consistency(solve0):
    assert expectation.one_step_consistency(solve0) == []


def test_policy_schedules_valid_pid(solve0):
    assert set(solve0.policy.values()) <= {0, 1}
    assert set(solve0.policy) == set(solve0.values)


def test_loop_probability_bounds():
    assert expectation.loop_probability_check() == []


def test_loop_probability_values():
    lp = expectation.loop_probabilities()
    assert lp.values[(S.CHOOSE, S.CHOOSE)] == Fraction(1, 2)
    assert lp.values[(S.CHOOSE, S.RST)] == 0
    assert all(v <= Fraction(1, 2) for c, v in lp.values.items()
               if c[0] is S.CHOOSE)


def test_expected_choose_visits():
    ev = expectation.expected_choose_visits()
    assert ev.max_value == 2


@pytest.mark.parametrize("tracked", [0, 1])
@pytest.mark.parametrize("solver, branch_fn_for", [
    (expectation.solve, expectation._access_cost),
    (expectation.loop_probabilities, expectation._choose_entry_reward),
    (expectation.expected_choose_visits, expectation._choose_visit_cost),
])
def test_evaluate_policy_reproduces_solve(solver, branch_fn_for, tracked):
    r = solver(tracked)
    assert expectation.evaluate_policy(r.policy, branch_fn_for, tracked).values == r.values


def test_untracked_only_policy_is_improper():
    m = checker.model()
    untracked = {c: 1 for c in m.configs}
    with pytest.raises(expectation.NonConvergence):
        expectation.evaluate_policy(untracked, expectation._access_cost, 0)
    # The elimination alone also reports it, as a zero pivot.
    acts = expectation._actions(m, expectation._access_cost(0))
    with pytest.raises(expectation.NonConvergence):
        expectation._evaluate(m, acts, [1] * len(m))


def test_exact_value_beyond_2_pow_20():
    # c0 -> c1 -> ... -> c21, each step surviving with probability 1/2;
    # only c21 pays, 1.  The value at c0 is 2**-21, whose denominator a
    # snap to denominators <= 2**20 cannot represent.
    configs = list(itertools.product(S, repeat=2))[:22]

    def move(finishes):
        return Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), finishes)

    survive, stop, pay = move(False), move(True), move(True)
    branches = []
    for i in range(21):
        branches += [((i + 1, True, survive), (i, False, stop)), ()]
    branches += [((21, None, pay),), ()]
    m = Model(tuple(configs), {c: i for i, c in enumerate(configs)}, tuple(branches))

    def branch_fn(pid, mv):
        return (1 if mv is pay else 0, mv.finishes)

    values = expectation._evaluate(m, expectation._actions(m, branch_fn), [0] * 22)
    assert values[0] == Fraction(1, 2**21)
    assert values[21] == 1
