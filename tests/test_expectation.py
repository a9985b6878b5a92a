import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import checker, expectation, search
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


def one_step_consistency(result):
    """The decrement argument, for `result` = solve(0): scheduling P0
    never pays more than the current value predicts, with equality when
    the optimal adversary schedules it."""
    problems = []
    m = checker.model()
    acts = expectation._actions(m, expectation._access_cost, 0)
    values = [result.values[c] for c in m.configs]
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    for i, c in enumerate(m.configs):
        q2 = expectation._q2(acts[i][0], nums, den)
        q = Fraction(q2, 2 * den)
        if q2 > 2 * nums[i]:
            problems.append(f"{checker._cfg_name(c)}: tracked step pays {q} > value {values[i]}")
        if result.policy[c] == 0 and q2 != 2 * nums[i]:
            problems.append(
                f"{checker._cfg_name(c)}: optimal tracked step pays {q} != value {values[i]}"
            )
    return problems


def test_one_step_consistency(solve0):
    assert one_step_consistency(solve0) == []


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
@pytest.mark.parametrize("solver, objective", SOLVERS)
def test_evaluate_policy_reproduces_solve(solver, objective, tracked):
    r = solver(tracked)
    assert expectation.evaluate_policy(r.policy, objective, tracked).values == r.values


def test_untracked_only_policy_is_improper():
    m = checker.model()
    untracked = {c: 1 for c in m.configs}
    with pytest.raises(expectation.NonConvergence):
        expectation.evaluate_policy(untracked, expectation._access_cost, 0)
    # The elimination alone also reports it, as a zero pivot.
    acts = expectation._actions(m, expectation._access_cost, 0)
    with pytest.raises(expectation.NonConvergence):
        expectation._component_values(m, acts, [1] * len(m), improve=False)


@pytest.mark.parametrize("objective, config", [
    (expectation._access_cost, "(he,rst)"),
    (expectation._choose_entry_reward, "(notme,tst1)"),
    (expectation._choose_visit_cost, "(he,rst)"),
])
def test_untracked_only_policy_names_its_zero_pivot(objective, config):
    # The configuration the all-untracked policy is reported improper at
    # stays the same whatever order the elimination visits rows in.
    m = checker.model()
    acts = expectation._actions(m, objective, 0)
    message = rf"^policy is improper at {re.escape(config)}$"
    with pytest.raises(expectation.NonConvergence, match=message):
        expectation._component_values(m, acts, [1] * len(m), improve=False)


def test_evaluate_policy_rejects_entries_other_than_a_pid(solve0):
    m = checker.model()
    c = m.configs[5]
    bad = dict(solve0.policy)
    bad[c] = 2
    with pytest.raises(ValueError, match=rf"schedules 2 at {re.escape(checker._cfg_name(c))}"):
        expectation.evaluate_policy(bad, expectation._access_cost, 0)


def test_evaluate_policy_rejects_missing_configuration(solve0):
    c = checker.model().configs[7]
    partial = {k: pid for k, pid in solve0.policy.items() if k != c}
    with pytest.raises(ValueError, match=rf"no entry for {re.escape(checker._cfg_name(c))}"):
        expectation.evaluate_policy(partial, expectation._access_cost, 0)


def test_solve_results_are_shared():
    assert expectation.solve(0) is expectation.solve(0)
    assert expectation.loop_probabilities(1) is expectation.loop_probabilities(1)
    assert expectation.solve(0) is not expectation.solve(1)


def components(acts):
    """`search.components` of the solver's graph: an edge for every
    non-absorbing branch of every action."""
    return search.components([[d for a in actions for d, _ in a[1]] for actions in acts])


def assert_sinks_first(comps, acts):
    """Every non-absorbing branch of every action leads into its own
    component or an earlier one, and the components partition the ids."""
    where = {i: k for k, comp in enumerate(comps) for i in comp}
    assert sorted(where) == list(range(len(acts)))
    assert sum(map(len, comps)) == len(where)
    for i, k in where.items():
        for a in acts[i]:
            for d, _ in a[1]:
                assert where[d] <= k


@pytest.mark.parametrize("objective, count, largest", [
    (expectation._access_cost, 52, 33),
    (expectation._choose_entry_reward, 82, 3),
    (expectation._choose_visit_cost, 52, 33),
])
def test_components_listed_sinks_first(objective, count, largest):
    m = checker.model()
    for tracked in (0, 1):
        acts = expectation._actions(m, objective, tracked)
        comps = components(acts)
        assert_sinks_first(comps, acts)
        assert (len(comps), max(map(len, comps))) == (count, largest)


def test_exact_value_beyond_2_pow_20():
    # c0 -> c1 -> ... -> c21, each step surviving with probability 1/2;
    # only c21 pays, 1.  The value at c0 is 2**-21, whose denominator a
    # snap to denominators <= 2**20 cannot represent.  P1, the other
    # pid, has one branch, a self loop that pays 0 and never absorbs;
    # the policy never schedules it.  The solver reads neither the
    # branches' fields nor the ops, so they are left empty.
    configs = list(itertools.product(S, repeat=2))[:22]

    def move(finishes):
        return Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), finishes)

    survive, stop, pay = move(False), move(True), move(True)
    branches = []
    for i in range(21):
        branches += [((i + 1, (), survive), (i, (), stop)), ((i, (), stop),)]
    branches += [((21, (), pay),), ((21, (), stop),)]
    m = Model(tuple(configs), {c: i for i, c in enumerate(configs)}, tuple(branches), ())

    def objective(mv):
        return (1 if mv is pay else 0, mv.finishes)

    acts = expectation._actions(m, objective, 0)
    comps = components(acts)
    assert_sinks_first(comps, acts)
    assert comps == [[i] for i in reversed(range(22))]
    nums, den, _ = expectation._component_values(m, acts, [0] * 22, improve=False)
    assert Fraction(nums[0], den) == Fraction(1, 2**21)
    assert Fraction(nums[21], den) == 1


# Hand-built models for the elimination: P0's branches per configuration
# as (destination id, move); P1 has one branch, a self-loop that pays 0
# and never absorbs, which the policy never schedules.  Every access of
# P0 pays 1 but a `stop`, and `pay` and `stop` absorb.
_LOOP = Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), False)
_PAY = Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), True)
_STOP = Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), True)


def _pay_but_stop(move):
    return (0 if move is _STOP else 1, move.finishes)


def hand_model(p0_branches):
    configs = list(itertools.product(S, repeat=2))[:len(p0_branches)]
    branches = []
    for i, p0 in enumerate(p0_branches):
        branches += [tuple((d, (), mv) for d, mv in p0), ((i, (), _STOP),)]
    return Model(tuple(configs), {c: i for i, c in enumerate(configs)}, tuple(branches), ())


def hand_values(m):
    """The values of action 0 everywhere as Fractions, and the solver's
    numerators over their denominator."""
    acts = expectation._actions(m, _pay_but_stop, 0)
    nums, den, _ = expectation._component_values(m, acts, [0] * len(m), improve=False)
    return ref_evaluate(m, ref_actions(m, _pay_but_stop, 0), [0] * len(m)), nums, den


def test_one_configuration_component_with_coin_self_loop():
    # c1 absorbs at once, paying on heads only: 1/2.  c0's coin loops on
    # heads (doubled weight 1) and goes to c1 on tails, paying 1 both
    # ways: v0 = 1 + v0/2 + v1/2 = 5/2, one division by 2 - 1.
    m = hand_model([[(0, _LOOP), (1, _LOOP)], [(1, _PAY), (1, _STOP)]])
    comps = components(expectation._actions(m, _pay_but_stop, 0))
    assert comps == [[1], [0]]
    ref, nums, den = hand_values(m)
    assert ref == [Fraction(5, 2), Fraction(1, 2)]
    assert (nums, den) == ([5, 1], 2)


def test_one_configuration_component_with_weight_2_self_loop_is_improper():
    # c1's one branch loops on itself: 2 - 2 = 0 is no pivot.
    m = hand_model([[(1, _LOOP)], [(1, _LOOP)]])
    with pytest.raises(expectation.NonConvergence, match=r"^policy is improper at \(rst,tst0\)$"):
        hand_values(m)
    with pytest.raises(expectation.NonConvergence):
        ref_evaluate(m, ref_actions(m, _pay_but_stop, 0), [0, 0])


@pytest.mark.parametrize("back", [1, 2])
def test_three_configuration_cycle_fill_in(back):
    # c0 -> c1 -> c2 -> c0.  Clearing column 0 from c2's row fills in
    # the column of c1, whose pivot clears it again.  c2 returns to c0
    # with doubled weight `back`: with 1 (a coin whose tails pays and
    # absorbs) the values are 6, 5, 4; with 2, clearing the fill-in
    # cancels c2's diagonal to zero, a zero pivot, as the Fraction
    # elimination finds.
    c2 = [(0, _LOOP), (2, _PAY)] if back == 1 else [(0, _LOOP)]
    m = hand_model([[(1, _LOOP)], [(2, _LOOP)], c2])
    acts = expectation._actions(m, _pay_but_stop, 0)
    eqs = [(2, [(1, 2)]), (2, [(2, 2)]), (2, [(0, back)])]
    assert [(a[0][0], [(d, w) for d, w in a[0][1]]) for a in acts] == eqs
    if back == 2:
        message = r"^policy is improper at \(rst,notme\)$"
        with pytest.raises(expectation.NonConvergence, match=message):
            expectation._evaluate(m, [0, 1, 2], eqs)
        with pytest.raises(expectation.NonConvergence):
            ref_evaluate(m, ref_actions(m, _pay_but_stop, 0), [0, 0, 0])
        return
    nums, den = expectation._evaluate(m, [0, 1, 2], eqs)
    ref = ref_evaluate(m, ref_actions(m, _pay_but_stop, 0), [0, 0, 0])
    assert ref == [6, 5, 4]
    assert [Fraction(x, den) for x in nums] == ref
    ref_vals, nums, den = hand_values(m)
    assert [Fraction(x, den) for x in nums] == ref_vals


def test_actions_reject_other_branch_counts():
    # Doubled weights 2 // len(branches) are exact only for one branch or
    # a coin read's two.
    configs = list(itertools.product(S, repeat=2))[:1]
    mv = Move("r", RegValue.RST, S.RST, "rst", "rst", ((), ()), True)
    for n in (0, 3):
        m = Model(tuple(configs), {configs[0]: 0}, (((0, (), mv),), ((0, (), mv),) * n), ())
        with pytest.raises(ValueError, match=f"P1 has {n} branches"):
            expectation._actions(m, lambda move: (1, move.finishes), 0)


# The reference: the same policy iteration and certificate in Fractions,
# with one Gaussian elimination per policy.

_PROB = (None, Fraction(1), Fraction(1, 2))  # of each branch, by their number


def ref_actions(m, objective, tracked):
    """Per configuration, its actions in Fractions: the tracked pid's,
    then the other pid's, whose accesses pay 0 and never absorb."""
    out = []
    for i in range(len(m)):
        actions = []
        for pid in (tracked, 1 - tracked):
            branches = m.branches[2 * i + pid]
            p = _PROB[len(branches)]
            reward = Fraction(0)
            succ = []
            exits = False
            for d, _, move in branches:
                r, absorbing = objective(move) if pid == tracked else (0, False)
                reward += p * r
                if absorbing:
                    exits = True
                else:
                    succ.append((d, p))
            actions.append((reward, tuple(succ), exits))
        out.append(tuple(actions))
    return out


def ref_q_value(action, v):
    reward, succ, _ = action
    return reward + sum(p * v[d] for d, p in succ)


def ref_evaluate(m, acts, policy):
    """v = r + P·v by sparse Gaussian elimination over Fractions, for
    `policy`, an action index per configuration."""
    n = len(m)
    rows, rhs = [], []
    cols = [set() for _ in range(n)]
    for i in range(n):
        reward, succ, _ = acts[i][policy[i]]
        row = {i: Fraction(1)}
        for d, p in succ:
            row[d] = row.get(d, 0) - p
        row = {j: a for j, a in row.items() if a}
        for j in row:
            cols[j].add(i)
        rows.append(row)
        rhs.append(reward)
    for k in range(n):
        row = rows[k]
        pivot = row.get(k)
        if pivot is None:
            raise expectation.NonConvergence(f"policy is improper at {m.configs[k]}")
        for d in cols[k]:
            other = rows[d]
            if d <= k or k not in other:
                continue
            f = other.pop(k) / pivot
            for x, b in row.items():
                if x == k:
                    continue
                y = other.get(x, 0) - f * b
                if y:
                    other[x] = y
                    cols[x].add(d)
                else:
                    del other[x]
            rhs[d] -= f * rhs[k]
    values = [Fraction(0)] * n
    for k in reversed(range(n)):
        acc = rhs[k]
        for x, b in rows[k].items():
            if x != k:
                acc -= b * values[x]
        values[k] = acc / rows[k][k]
    return values


def ref_certify(m, acts, values, iterations, tracked):
    policy = []
    for i, v in enumerate(values):
        q_tracked = ref_q_value(acts[i][0], values)
        q_other = ref_q_value(acts[i][1], values)
        policy.append(0 if q_tracked >= q_other else 1)
        if v != max(q_tracked, q_other):
            raise expectation.NonConvergence(f"not a Bellman fixed point at {m.configs[i]}")
    expectation._policy_properness(m, acts, policy)
    pids = (tracked, 1 - tracked)
    return expectation.SolveResult(
        dict(zip(m.configs, values)), dict(zip(m.configs, (pids[a] for a in policy))), iterations
    )


@functools.cache
def exact_only(objective, tracked):
    """Oracle: policy iteration in Fractions from the all-tracked
    policy (action 0 everywhere), then the certificate."""
    m = checker.model()
    acts = ref_actions(m, objective, tracked)
    policy = [0] * len(m)
    rounds = 0
    while True:
        values = ref_evaluate(m, acts, policy)
        rounds += 1
        stable = True
        for i, a in enumerate(policy):
            if ref_q_value(acts[i][1 - a], values) > values[i]:
                policy[i] = 1 - a
                stable = False
        if stable:
            return ref_certify(m, acts, values, rounds, tracked)


# The most exact evaluations one component needs, per solver; the
# oracle's whole-model policy iteration takes 8, 9 and 9 rounds.
COMPONENT_EVALUATIONS = {
    expectation.solve: 7,
    expectation.loop_probabilities: 3,
    expectation.expected_choose_visits: 7,
}


@pytest.mark.parametrize("tracked", [0, 1])
@pytest.mark.parametrize("solver, objective", SOLVERS)
def test_solver_matches_exact_only_oracle(solver, objective, tracked):
    # Values and policy, and the number of exact evaluations.
    r = solver(tracked)
    oracle = exact_only(objective, tracked)
    assert r.values == oracle.values
    assert r.policy == oracle.policy
    assert r.iterations == COMPONENT_EVALUATIONS[solver]


@st.composite
def start_policies(draw):
    """A policy, an action index per configuration: all-tracked,
    all-untracked, a solver's policy or random bits, with some
    configurations flipped."""
    n = len(checker.model())
    base = draw(st.sampled_from(["tracked", "untracked", "optimal", "random"]))
    solver, objective = draw(st.sampled_from(SOLVERS))
    tracked = draw(st.integers(0, 1))
    if base == "random":
        policy = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif base == "optimal":
        policy = [0 if pid == tracked else 1 for pid in solver(tracked).policy.values()]
    else:
        policy = [0 if base == "tracked" else 1] * n
    for i in draw(st.sets(st.integers(0, n - 1), max_size=12)):
        policy[i] = 1 - policy[i]
    return solver, objective, tracked, policy


@settings(max_examples=60, deadline=None)
@given(start_policies())
def test_integer_evaluation_matches_fraction_reference(case):
    # A proper policy gets the reference's values; an improper one makes
    # both eliminations raise.
    _, objective, tracked, policy = case
    m = checker.model()
    acts = expectation._actions(m, objective, tracked)
    ref_acts = ref_actions(m, objective, tracked)
    try:
        expectation._policy_properness(m, acts, policy)
    except expectation.NonConvergence:
        with pytest.raises(expectation.NonConvergence):
            expectation._component_values(m, acts, policy, improve=False)
        with pytest.raises(expectation.NonConvergence):
            ref_evaluate(m, ref_acts, policy)
        return
    nums, den, _ = expectation._component_values(m, acts, policy, improve=False)
    assert den > 0
    assert [Fraction(x, den) for x in nums] == ref_evaluate(m, ref_acts, policy)


@pytest.mark.parametrize("delta", [1, -1])
def test_certify_rejects_values_off_the_fixed_point(solve0, delta):
    # The solved numerators of solve(0) certify, to solve(0)'s policy;
    # each one moved by +-1 is no longer a Bellman fixed point, but for
    # one: P1 in tst1 reading choose loops on itself for free, so
    # (tohe,tst1) raised by 1 is a fixed point through that loop, and
    # only the properness check rejects it.
    m = checker.model()
    acts = expectation._actions(m, expectation._access_cost, 0)
    values = [solve0.values[c] for c in m.configs]
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    assert expectation._certify(m, acts, nums, den) == list(solve0.policy.values())
    for i in range(len(m)):
        moved = list(nums)
        moved[i] += delta
        if delta == 1 and m.configs[i] == (S.TOHE, S.TST1):
            message = r"^policy is improper from \(tohe,tst1\)$"
        else:
            message = r"^values are not a Bellman fixed point at \("
        with pytest.raises(expectation.NonConvergence, match=message):
            expectation._certify(m, acts, moved, den)


def test_certify_breaks_ties_toward_action_0():
    # One configuration whose two actions each absorb at once with
    # reward 1: both are worth the value 1, and the tie goes to action 0.
    # Against a richer action 1, action 1 is certified.
    config = (S.RST, S.RST)
    m = Model((config,), {config: 0}, ((), ()), ())
    tie = ((2, (), True), (2, (), True))
    assert expectation._certify(m, [tie], [1], 1) == [0]
    richer = ((2, (), True), (4, (), True))
    assert expectation._certify(m, [richer], [2], 1) == [1]
