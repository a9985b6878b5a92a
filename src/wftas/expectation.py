"""Worst-case expected access counts under the adaptive adversary.

Solves, over the 98-configuration graph, the maximizing Markov decision
problem "expected number of accesses the tracked process needs to finish
its current (or, when idle, next) operation, against the adversary that
schedules to maximize that number".  Two further quantities share the
same machinery: the maximal probability of the tracked process looping
back through CHOOSE before finishing, and the maximal expected number of
CHOOSE entries per operation.

The policy is found in floats, then evaluated and certified in exact
rationals.  A fixed policy is evaluated by solving its linear system
v = r + P·v with one sparse Gaussian elimination, over floats or over
Fractions; a zero pivot means the policy is improper (some configuration
never reaches absorption).  Policy iteration starts from the proper
policy "always schedule the tracked process": a configuration switches
to the other process only when that raises its value, until no
configuration switches.  The loop runs in floats first, counting only
gains above 1e-9 relative, and its policy seeds the same loop over
Fractions, which counts every strict gain (an improper float policy is
replaced by the all-tracked start).  So the floats only choose where
the exact loop starts, and the exact values normally need one
evaluation.  The result is then certified independently: the policy is
re-extracted greedily from the exact values (ties broken toward
scheduling the tracked process), the values must be exactly the fixed
point of the optimal Bellman operator, and the policy must be proper.
A proper policy's affine operator has a unique fixed point, so the
values are exactly the optimal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .checker import Config, Model, _cfg_name, model
from .protocol import Move, ProcState

# perfbench's tracer times the model accessor under this name.
edge_map = model

# (acting pid, move) -> (reward on taking this branch, branch is absorbing)
BranchFn = Callable[[int, Move], tuple[int, bool]]

# Scheduling pid in configuration id, at 2 * id + pid: the expected reward,
# the non-absorbing branches as (destination id, probability), and
# whether some branch absorbs.  The numbers are Fractions, or floats in
# the float policy search.
Action = tuple[Fraction, tuple[tuple[int, Fraction], ...], bool]

# The float policy search switches a configuration only on a gain above
# this, relative to its value (absolute below 1), for at most len(m) rounds.
_FLOAT_GAIN = 1e-9

_PROB = (None, Fraction(1), Fraction(1, 2))  # of each branch, by their number


class NonConvergence(Exception):
    """A policy is improper or exact certification failed — a modeling bug."""


@dataclass(frozen=True)
class SolveResult:
    """Certified exact solution of one maximizing fixed point."""

    values: dict[Config, Fraction]
    policy: dict[Config, int]
    iterations: int  # exact policy evaluations (float search rounds excluded)

    @property
    def max_value(self) -> Fraction:
        return max(self.values.values())


def _actions(m: Model, branch_fn: BranchFn) -> list[Action]:
    out: list[Action] = []
    for k, branches in enumerate(m.branches):
        p = _PROB[len(branches)]
        reward = Fraction(0)
        succ = []
        exits = False
        for d, _, move in branches:
            r, absorbing = branch_fn(k % 2, move)
            reward += p * r
            if absorbing:
                exits = True
            else:
                succ.append((d, p))
        out.append((reward, tuple(succ), exits))
    return out


def _q_value(action: Action, v: list[Fraction]) -> Fraction:
    """Expected value of an action, under the value estimate v."""
    reward, succ, _ = action
    return reward + sum(p * v[d] for d, p in succ)


def _evaluate(m: Model, acts: list[Action], policy: list[int]) -> list[Fraction]:
    """Values of a fixed policy: v = r + P·v by sparse Gaussian
    elimination, one unknown per configuration id, in the number type of
    `acts` (exact over Fractions)."""
    n = len(m)
    # rows[i] holds the nonzero coefficients of (I - P) in row i, and
    # cols[j] the rows that have (or had) a nonzero in column j.
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    cols: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        reward, succ, _ = acts[2 * i + policy[i]]
        row = {i: 1}
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
            # I - P is singular: the policy never leaves some closed set
            # of configurations.
            raise NonConvergence(f"policy is improper at {_cfg_name(m.configs[k])}")
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
    values: list[Fraction] = [0] * n
    for k in reversed(range(n)):
        acc = rhs[k]
        for x, b in rows[k].items():
            if x != k:
                acc -= b * values[x]
        values[k] = acc / rows[k][k]
    return values


def _certify(
    m: Model, acts: list[Action], values: list[Fraction], iterations: int, tracked: int
) -> SolveResult:
    # Greedy policy; ties go to the tracked process so that the policy
    # keeps making progress toward absorption (a solo process always
    # finishes its operation).
    policy: list[int] = []
    for i, v in enumerate(values):
        q_tracked = _q_value(acts[2 * i + tracked], values)
        q_other = _q_value(acts[2 * i + 1 - tracked], values)
        policy.append(tracked if q_tracked >= q_other else 1 - tracked)
        # Optimal Bellman fixed point, exactly.
        if v != max(q_tracked, q_other):
            raise NonConvergence(
                f"values are not a Bellman fixed point at {_cfg_name(m.configs[i])}"
            )
    # Properness: under the policy some absorbing branch is reachable
    # from every configuration, hence absorption is almost sure and the
    # policy's affine operator has a unique fixed point.
    _policy_properness(m, acts, policy)
    return SolveResult(dict(zip(m.configs, values)), dict(zip(m.configs, policy)), iterations)


def _policy_properness(m: Model, acts: list[Action], policy: list[int]) -> None:
    # Live: the scheduled access can absorb, or lead to a live configuration.
    live = [acts[2 * i + pid][2] for i, pid in enumerate(policy)]
    grew = True
    while grew:
        grew = False
        for i, pid in enumerate(policy):
            if not live[i] and any(live[d] for d, _ in acts[2 * i + pid][1]):
                live[i] = grew = True
    if not all(live):
        raise NonConvergence(f"policy is improper from {_cfg_name(m.configs[live.index(False)])}")


def evaluate_policy(
    policy: dict[Config, int],
    branch_fn_for: Callable[[int], BranchFn],
    tracked: int = 0,
) -> SolveResult:
    """Certified exact value of a *fixed* scheduling policy: the
    properness check, then one exact evaluation."""
    m = model()
    acts = _actions(m, branch_fn_for(tracked))
    ids = [policy[c] for c in m.configs]
    _policy_properness(m, acts, ids)
    values = _evaluate(m, acts, ids)
    return SolveResult(dict(zip(m.configs, values)), dict(zip(m.configs, ids)), 1)


def _float_policy(m: Model, acts: list[Action], tracked: int) -> list[int]:
    """Policy iteration in floats from the all-tracked policy: only a
    starting point for the exact loop, which re-checks every choice."""
    facts = [
        (float(reward), tuple((d, float(p)) for d, p in succ), exits)
        for reward, succ, exits in acts
    ]
    policy = [tracked] * len(m)
    for _ in range(len(m)):
        values = _evaluate(m, facts, policy)
        stable = True
        for i, pid in enumerate(policy):
            v = values[i]
            if _q_value(facts[2 * i + 1 - pid], values) - v > _FLOAT_GAIN * max(abs(v), 1.0):
                policy[i] = 1 - pid
                stable = False
        if stable:
            break
    return policy


def _exact_policy_iteration(
    m: Model, acts: list[Action], start: list[int], tracked: int
) -> SolveResult:
    """Exact policy iteration from `start`, or from the all-tracked
    policy when `start` is improper, then the certificate.

    Improving a proper policy keeps it proper: in a closed set that
    never absorbs, the tracked process takes no step (it would finish
    with probability 1), so no reward is paid there and no switch into
    it strictly gains."""
    try:
        _policy_properness(m, acts, start)
        policy = list(start)
    except NonConvergence:
        # Scheduling only the tracked process is proper: a solo process
        # always finishes its operation.
        policy = [tracked] * len(m)
    rounds = 0
    while True:
        values = _evaluate(m, acts, policy)
        rounds += 1
        stable = True
        for i, pid in enumerate(policy):
            if _q_value(acts[2 * i + 1 - pid], values) > values[i]:
                policy[i] = 1 - pid
                stable = False
        if stable:
            return _certify(m, acts, values, rounds, tracked)


def _solve_mdp(branch_fn_for: Callable[[int], BranchFn], tracked: int) -> SolveResult:
    m = model()
    acts = _actions(m, branch_fn_for(tracked))
    try:
        start = _float_policy(m, acts, tracked)
    except NonConvergence:
        start = [tracked] * len(m)
    return _exact_policy_iteration(m, acts, start, tracked)


def _access_cost(tracked: int) -> BranchFn:
    def branch(pid: int, move: Move) -> tuple[int, bool]:
        if pid != tracked:
            return (0, False)
        return (1, move.finishes)

    return branch


def _choose_entry_reward(tracked: int) -> BranchFn:
    def branch(pid: int, move: Move) -> tuple[int, bool]:
        if pid != tracked:
            return (0, False)
        if move.post is ProcState.CHOOSE:
            return (1, True)  # success: absorbed with reward 1
        return (0, move.finishes)

    return branch


def _choose_visit_cost(tracked: int) -> BranchFn:
    def branch(pid: int, move: Move) -> tuple[int, bool]:
        if pid != tracked:
            return (0, False)
        return (1 if move.post is ProcState.CHOOSE else 0, move.finishes)

    return branch


def solve(tracked: int = 0) -> SolveResult:
    """Worst-case expected remaining accesses of the tracked process.

    For every reachable configuration: the expected number of accesses
    the tracked process performs until its current operation (or, from
    an idle state, the operation it is invoked with next) finishes,
    maximized over adaptive schedules; coin reads average their two
    outcomes with probability 1/2 each.
    """
    return _solve_mdp(_access_cost, tracked)


def loop_probabilities(tracked: int = 0) -> SolveResult:
    """Maximal probability that the tracked process enters CHOOSE before
    its current operation finishes."""
    return _solve_mdp(_choose_entry_reward, tracked)


def expected_choose_visits(tracked: int = 0) -> SolveResult:
    """Maximal expected number of CHOOSE entries before the tracked
    process finishes its current operation."""
    return _solve_mdp(_choose_visit_cost, tracked)


def one_step_consistency(result: SolveResult) -> list[str]:
    """The decrement argument, for `result` = solve(0): scheduling P0
    never pays more than the current value predicts, with equality when
    the optimal adversary schedules it."""
    problems: list[str] = []
    m = model()
    acts = _actions(m, _access_cost(0))
    values = [result.values[c] for c in m.configs]
    for i, c in enumerate(m.configs):
        q = _q_value(acts[2 * i], values)
        if q > values[i]:
            problems.append(f"{_cfg_name(c)}: tracked step pays {q} > value {values[i]}")
        if result.policy[c] == 0 and q != values[i]:
            problems.append(
                f"{_cfg_name(c)}: optimal tracked step pays {q} != value {values[i]}"
            )
    return problems


def loop_probability_check() -> list[str]:
    """Analytic loop geometry, for P0: the return-to-CHOOSE probability
    is at most 1/2 from every configuration with P0 in CHOOSE (exactly
    1/2 at (choose,choose), 0 at (choose,rst)), and the expected number
    of CHOOSE entries per operation is at most 2."""
    problems: list[str] = []
    loops = loop_probabilities()
    half = Fraction(1, 2)
    for c, p in loops.values.items():
        if c[0] is ProcState.CHOOSE and p > half:
            problems.append(
                f"{_cfg_name(c)}: return probability {p} > 1/2"
            )
    both_choose = (ProcState.CHOOSE, ProcState.CHOOSE)
    if loops.values[both_choose] != half:
        problems.append(
            f"(choose,choose): return probability {loops.values[both_choose]} != 1/2"
        )
    solo = (ProcState.CHOOSE, ProcState.RST)
    if loops.values[solo] != 0:
        problems.append(
            f"(choose,rst): return probability {loops.values[solo]} != 0"
        )
    visits = expected_choose_visits()
    worst = visits.max_value
    if worst > 2:
        problems.append(f"expected CHOOSE visits {worst} > 2")
    return problems


def verify_values(result: SolveResult, table=None) -> list[str]:
    """Diff `result`, a solve(0), against the golden table's
    expected-access numbers."""
    from .goldens import load_golden_table

    if table is None:
        table = load_golden_table()
    problems: list[str] = []
    for c, v in result.values.items():
        key = (c[0].value, c[1].value)
        cell = table.cells.get(key)
        if cell is None:
            problems.append(f"cell {key}: reachable but '*' in table")
            continue
        if v != cell.expected:
            problems.append(f"cell {key}: computed {v} != table {cell.expected}")
    for key in table.reachable_cells():
        if (ProcState(key[0]), ProcState(key[1])) not in result.values:
            problems.append(f"cell {key}: in table but not reachable")
    return problems
