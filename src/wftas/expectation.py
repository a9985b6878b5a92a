"""Worst-case expected access counts under the adaptive adversary.

Solves, over the 98-configuration graph, the maximizing Markov decision
problem "expected number of accesses the tracked process needs to finish
its current (or, when idle, next) operation, against the adversary that
schedules to maximize that number".  Two further quantities share the
same machinery: the maximal probability of the tracked process looping
back through CHOOSE before finishing, and the maximal expected number of
CHOOSE entries per operation.

Everything is computed in exact rationals by policy iteration.  A fixed
policy is evaluated by solving its linear system v = r + P·v with
Gaussian elimination over Fractions; a zero pivot means the policy is
improper (some configuration never reaches absorption).  Starting from
the proper policy "always schedule the tracked process", a configuration
switches to the other process only when that strictly raises its value,
until no configuration switches.  The result is then certified
independently: the policy is re-extracted greedily from the values
(ties broken toward scheduling the tracked process), the values must be
exactly the fixed point of the optimal Bellman operator, and the policy
must be proper.  A proper policy's affine operator has a unique fixed
point, so the values are exactly the optimal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .checker import Config, Edge, _cfg_name, edge_map
from .protocol import ProcState

# (reward on taking this branch, branch is absorbing)
BranchFn = Callable[[Edge], tuple[int, bool]]


class NonConvergence(Exception):
    """A policy is improper or exact certification failed — a modeling bug."""


@dataclass(frozen=True)
class SolveResult:
    """Certified exact solution of one maximizing fixed point."""

    values: dict[Config, Fraction]
    policy: dict[Config, int]
    iterations: int  # exact policy evaluations (policy-improvement rounds)

    @property
    def max_value(self) -> Fraction:
        return max(self.values.values())


def _q_value(edges, pid: int, branch_fn: BranchFn, v) -> Fraction:
    """Expected value of scheduling `pid`, under the value estimate v."""
    q = Fraction(0)
    for e in edges:
        if e.pid != pid:
            continue
        reward, absorbing = branch_fn(e)
        q += e.prob * (reward + (0 if absorbing else v[e.dst]))
    return q


def _evaluate(
    emap: dict[Config, tuple[Edge, ...]],
    branch_fn: BranchFn,
    policy: dict[Config, int],
) -> dict[Config, Fraction]:
    """Exact values of a fixed policy: v = r + P·v by sparse Gaussian
    elimination over Fractions, one unknown per configuration."""
    # rows[c] holds the coefficients of (I - P) for configuration c.
    rows: dict[Config, dict[Config, Fraction]] = {}
    rhs: dict[Config, Fraction] = {}
    for c, edges in emap.items():
        row = {c: Fraction(1)}
        r = Fraction(0)
        for e in edges:
            if e.pid != policy[c]:
                continue
            reward, absorbing = branch_fn(e)
            r += e.prob * reward
            if not absorbing:
                row[e.dst] = row.get(e.dst, 0) - e.prob
        rows[c] = {d: a for d, a in row.items() if a}
        rhs[c] = r
    order = list(emap)
    for k, c in enumerate(order):
        row = rows[c]
        pivot = row.get(c)
        if pivot is None:
            # I - P is singular: the policy never leaves some closed set
            # of configurations.
            raise NonConvergence(f"policy is improper at {_cfg_name(c)}")
        for d in order[k + 1:]:
            other = rows[d]
            a = other.get(c)
            if a is None:
                continue
            f = a / pivot
            for x, b in row.items():
                y = other.get(x, 0) - f * b
                if y:
                    other[x] = y
                else:
                    del other[x]
            rhs[d] -= f * rhs[c]
    values: dict[Config, Fraction] = {}
    for c in reversed(order):
        row = rows[c]
        acc = rhs[c]
        for x, b in row.items():
            if x != c:
                acc -= b * values[x]
        values[c] = acc / row[c]
    return {c: values[c] for c in order}


def _certify(
    emap: dict[Config, tuple[Edge, ...]],
    branch_fn: BranchFn,
    values: dict[Config, Fraction],
    iterations: int,
    tracked: int,
) -> SolveResult:
    # Greedy policy; ties go to the tracked process so that the policy
    # keeps making progress toward absorption (a solo process always
    # finishes its operation).
    policy: dict[Config, int] = {}
    for c, edges in emap.items():
        q_tracked = _q_value(edges, tracked, branch_fn, values)
        q_other = _q_value(edges, 1 - tracked, branch_fn, values)
        policy[c] = tracked if q_tracked >= q_other else 1 - tracked
        # Optimal Bellman fixed point, exactly.
        if values[c] != max(q_tracked, q_other):
            raise NonConvergence(
                f"values are not a Bellman fixed point at {_cfg_name(c)}"
            )
    # Properness: under the policy some absorbing branch is reachable
    # from every configuration, hence absorption is almost sure and the
    # policy's affine operator has a unique fixed point.
    _policy_properness(emap, branch_fn, policy)
    return SolveResult(values=values, policy=policy, iterations=iterations)


def _policy_properness(emap, branch_fn, policy) -> None:
    for start in emap:
        seen = {start}
        stack = [start]
        live = False
        while stack and not live:
            c = stack.pop()
            for e in emap[c]:
                if e.pid != policy[c]:
                    continue
                if branch_fn(e)[1]:
                    live = True
                    break
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        if not live:
            raise NonConvergence(
                f"policy is improper from {_cfg_name(start)}"
            )


def evaluate_policy(
    policy: dict[Config, int],
    branch_fn_for: Callable[[int], BranchFn],
    tracked: int = 0,
) -> SolveResult:
    """Certified exact value of a *fixed* scheduling policy: the
    properness check, then one exact evaluation."""
    emap = edge_map()
    branch_fn = branch_fn_for(tracked)
    _policy_properness(emap, branch_fn, policy)
    values = _evaluate(emap, branch_fn, policy)
    return SolveResult(values=values, policy=dict(policy), iterations=1)


def _solve_mdp(
    branch_fn_for: Callable[[int], BranchFn],
    tracked: int,
) -> SolveResult:
    emap = edge_map()
    branch_fn = branch_fn_for(tracked)
    # Scheduling only the tracked process is proper: a solo process
    # always finishes its operation.
    policy = {c: tracked for c in emap}
    rounds = 0
    while True:
        values = _evaluate(emap, branch_fn, policy)
        rounds += 1
        stable = True
        for c, edges in emap.items():
            other = 1 - policy[c]
            if _q_value(edges, other, branch_fn, values) > values[c]:
                policy[c] = other
                stable = False
        if stable:
            return _certify(emap, branch_fn, values, rounds, tracked)


def _access_cost(tracked: int) -> BranchFn:
    def branch(e: Edge) -> tuple[int, bool]:
        if e.pid != tracked:
            return (0, False)
        return (1, e.finishes)

    return branch


def _choose_entry_reward(tracked: int) -> BranchFn:
    def branch(e: Edge) -> tuple[int, bool]:
        if e.pid != tracked:
            return (0, False)
        if e.dst[tracked] is ProcState.CHOOSE:
            return (1, True)  # success: absorbed with reward 1
        return (0, e.finishes)

    return branch


def _choose_visit_cost(tracked: int) -> BranchFn:
    def branch(e: Edge) -> tuple[int, bool]:
        if e.pid != tracked:
            return (0, False)
        return (1 if e.dst[tracked] is ProcState.CHOOSE else 0, e.finishes)

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
    emap = edge_map()
    branch_fn = _access_cost(0)
    for c, edges in emap.items():
        q = _q_value(edges, 0, branch_fn, result.values)
        if q > result.values[c]:
            problems.append(
                f"{_cfg_name(c)}: tracked step pays {q} > "
                f"value {result.values[c]}"
            )
        if result.policy[c] == 0 and q != result.values[c]:
            problems.append(
                f"{_cfg_name(c)}: optimal tracked step pays "
                f"{q} != value {result.values[c]}"
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
