import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


SOLVERS = [
    (expectation.solve, expectation._access_cost),
    (expectation.loop_probabilities, expectation._choose_entry_reward),
    (expectation.expected_choose_visits, expectation._choose_visit_cost),
]


@pytest.mark.parametrize("tracked", [0, 1])
@pytest.mark.parametrize("solver, branch_fn_for", SOLVERS)
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


@functools.cache
def exact_only(branch_fn_for, tracked):
    """Oracle: policy iteration in exact rationals alone, from the
    all-tracked policy, then the certificate."""
    m = checker.model()
    acts = expectation._actions(m, branch_fn_for(tracked))
    policy = [tracked] * len(m)
    rounds = 0
    while True:
        values = expectation._evaluate(m, acts, policy)
        rounds += 1
        stable = True
        for i, pid in enumerate(policy):
            if expectation._q_value(acts[2 * i + 1 - pid], values) > values[i]:
                policy[i] = 1 - pid
                stable = False
        if stable:
            return expectation._certify(m, acts, values, rounds, tracked)


@pytest.mark.parametrize("tracked", [0, 1])
@pytest.mark.parametrize("solver, branch_fn_for", SOLVERS)
def test_float_search_matches_exact_only_oracle(solver, branch_fn_for, tracked):
    r = solver(tracked)
    oracle = exact_only(branch_fn_for, tracked)
    assert r.values == oracle.values
    assert r.policy == oracle.policy
    # The float policy needs no exact improvement round.
    assert r.iterations == 1
    assert oracle.iterations > 1


def test_float_search_failure_falls_back_to_all_tracked(monkeypatch):
    def improper(m, acts, tracked):
        raise expectation.NonConvergence("float pivot vanished")

    monkeypatch.setattr(expectation, "_float_policy", improper)
    assert expectation.solve(0) == exact_only(expectation._access_cost, 0)


@st.composite
def start_policies(draw):
    """A start for the exact loop: all-tracked, all-untracked, a
    solver's policy or random bits, with some configurations flipped."""
    n = len(checker.model())
    base = draw(st.sampled_from(["tracked", "untracked", "optimal", "random"]))
    solver, branch_fn_for = draw(st.sampled_from(SOLVERS))
    tracked = draw(st.integers(0, 1))
    if base == "random":
        policy = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif base == "optimal":
        policy = list(solver(tracked).policy.values())
    else:
        policy = [tracked if base == "tracked" else 1 - tracked] * n
    for i in draw(st.sets(st.integers(0, n - 1), max_size=12)):
        policy[i] = 1 - policy[i]
    return solver, branch_fn_for, tracked, policy


@settings(max_examples=60, deadline=None)
@given(start_policies())
def test_exact_finish_is_independent_of_its_start(case):
    # Whatever policy the float search hands over, the exact loop ends at
    # the same certified result; an improper start is replaced by the
    # all-tracked start, so the run is the exact-only oracle's.
    solver, branch_fn_for, tracked, start = case
    m = checker.model()
    acts = expectation._actions(m, branch_fn_for(tracked))
    r = expectation._exact_policy_iteration(m, acts, start, tracked)
    ref = solver(tracked)
    assert r.values == ref.values
    assert r.policy == ref.policy
    try:
        expectation._policy_properness(m, acts, start)
    except expectation.NonConvergence:
        assert r == exact_only(branch_fn_for, tracked)
