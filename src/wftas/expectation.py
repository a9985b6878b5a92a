"""Worst-case expected access counts under the adaptive adversary.

Solves, over the 98-configuration graph, the maximizing Markov decision
problem "expected number of accesses the tracked process needs to finish
its current (or, when idle, next) operation, against the adversary that
schedules to maximize that number".  Two further quantities share the
same machinery: the maximal probability of the tracked process looping
back through CHOOSE before finishing, and the maximal expected number of
CHOOSE entries per operation.

Every branch has probability 1 or 1/2, so twice each policy equation,
2·v = 2·r + 2P·v, has integer coefficients, and the solver works in
Python ints throughout.

The solver works one strongly connected component at a time
(topological value iteration, Dai & Goldsmith 2007, run as exact policy
iteration).  The graph has an edge for every non-absorbing branch of
every action, and `search.components` (Tarjan's algorithm) lists
its components sinks first, so every such branch leads into its own
component or an earlier one.  A component's rows are solved with the
values of the earlier components held fixed on the right-hand side, by
one fraction-free sparse elimination, each updated row divided by its
gcd.  The elimination keeps, per column, the list of rows below the
pivot that hold a nonzero there, so a pivot visits only the rows it
clears; a one-configuration component, all of whose inner branches are
self-loops, is one division.  The component's values, numerators over
one denominator, join the common denominator of the values found so far
through lcm.  A zero pivot means the policy is improper (some
configuration never reaches absorption).

Each configuration offers a tuple of actions: action 0 schedules the
tracked process, action 1 the other one.  A policy is an action index
per configuration; only `_solve_mdp` and `evaluate_policy` map indices
to pids.  Policy iteration runs inside each component, from the policy
"always take action 0": a configuration switches action only when that
strictly raises its value, until no configuration of the component
switches.  The start is proper, since a solo tracked process always
finishes its operation, so it leaves the component or absorbs; and a
strict improvement keeps a proper policy proper: in a closed set that
never absorbs, the tracked process takes no step (it would finish with
probability 1), so no reward is paid there and no switch into it
strictly gains.

The result is then certified independently, on the whole model: the
policy is re-extracted greedily from the exact values (ties broken
toward action 0), the values must be exactly the fixed point of the
optimal Bellman operator, and the policy must be proper.  A proper
policy's affine operator has a unique fixed point, so the values are
exactly the optimal values.  Fractions are built once, for the result.

Each objective is solved once per process and tracked pid: `solve`,
`loop_probabilities` and `expected_choose_visits` return one shared
`SolveResult` per tracked pid, which callers must not modify (as with
`model()`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple

from .checker import Config, Model, _cfg_name, model
from .protocol import Move, ProcState
from .search import components, explore

# perfbench's tracer times the model accessor under this name.
edge_map = model

# An objective: the reward of one access of the tracked process, given
# its Move, and whether that access absorbs.  The other process's
# accesses pay 0 and never absorb.
Objective = Callable[[Move], tuple[int, bool]]

# Scheduling one pid in a configuration, doubled: twice the expected
# reward, the non-absorbing branches as (destination id, twice the
# branch's probability: 1 or 2), and whether some branch absorbs.
Action = tuple[int, tuple[tuple[int, int], ...], bool]


class NonConvergence(Exception):
    """A policy is improper or exact certification failed — a modeling bug."""


class SolveResult(NamedTuple):
    """Certified exact solution of one maximizing fixed point."""

    values: dict[Config, Fraction]
    policy: dict[Config, int]
    # Exact policy evaluations of the component that needed the most
    # (policy iteration runs one component at a time); 1 for
    # `evaluate_policy`.
    iterations: int

    @property
    def max_value(self) -> Fraction:
        return max(self.values.values())


def _actions(m: Model, objective: Objective, tracked: int) -> list[tuple[Action, ...]]:
    """Per configuration id, its actions: scheduling the tracked pid
    (action 0), then the other pid (action 1)."""
    out: list[tuple[Action, ...]] = []
    for i in range(len(m)):
        actions = []
        for pid in (tracked, 1 - tracked):
            branches = m.branches[2 * i + pid]
            if len(branches) not in (1, 2):
                config = _cfg_name(m.configs[i])
                raise ValueError(f"{config}: P{pid} has {len(branches)} branches, not 1 or 2")
            w = 2 // len(branches)
            reward = 0
            succ = []
            exits = False
            for d, _, move in branches:
                r, absorbing = objective(move) if pid == tracked else (0, False)
                reward += w * r
                if absorbing:
                    exits = True
                else:
                    succ.append((d, w))
            actions.append((reward, tuple(succ), exits))
        out.append(tuple(actions))
    return out


def _q2(action: Action, nums: list[int], den: int) -> int:
    """Twice the expected value of an action, times `den`, under the
    values nums[i] / den."""
    reward, succ, _ = action
    q = reward * den
    for d, w in succ:
        q += w * nums[d]
    return q


# The equation of one configuration of a component under one action:
# twice the action's reward plus its branches into earlier components,
# times the common denominator of their values, and its branches inside
# the component as (index in the component, twice the probability).
Equation = tuple[int, list[tuple[int, int]]]


def _evaluate(m: Model, comp: list[int], eqs: list[Equation]) -> tuple[list[int], int]:
    """The values of the configurations `comp`, one equation each in
    `eqs`, times the denominator the equations were scaled by: 2·u -
    2P·u = rhs by fraction-free sparse elimination over ints, returned
    as numerators over one positive denominator."""
    n = len(comp)
    if n == 1:
        # Every branch is a self-loop: (2 - s)·u = outer, where s is the
        # doubled probability of staying.
        outer, inner = eqs[0]
        p = 2
        for _, w in inner:
            p -= w
        if not p:
            raise NonConvergence(f"policy is improper at {_cfg_name(m.configs[comp[0]])}")
        g = gcd(outer, p)
        return [outer // g], p // g
    # rows[j] holds the coefficients of 2(I - P) in row j, and below[x]
    # the rows under row x that have (or had) a nonzero in column x.
    # The off-diagonal weights are all negative, so only a diagonal can
    # cancel; a zero is kept as an entry.
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    below: list[list[int]] = [[] for _ in range(n)]
    for j, (outer, inner) in enumerate(eqs):
        row = {j: 2}
        for x, w in inner:
            a = row.get(x)
            if a is None:
                row[x] = -w
                if x < j:
                    below[x].append(j)
            else:
                row[x] = a - w
        rows.append(row)
        rhs.append(outer)
    # pivots[k] is row k's diagonal, which the elimination takes out of
    # the row.
    pivots: list[int] = []
    for k in range(n):
        row = rows[k]
        pivot = row.pop(k)
        if not pivot:
            # I - P is singular: the policy never leaves some closed set
            # of configurations.
            raise NonConvergence(f"policy is improper at {_cfg_name(m.configs[comp[k]])}")
        pivots.append(pivot)
        for d in below[k]:
            other = rows[d]
            # other := pivot * other - f * row, which clears column k.
            f = other.pop(k)
            for x in other:
                other[x] *= pivot
            for x, b in row.items():
                a = other.get(x)
                if a is None:
                    other[x] = -f * b
                    if x < d:
                        below[x].append(d)
                else:
                    other[x] = a - f * b
            r = pivot * rhs[d] - f * rhs[k]
            g = gcd(r, *other.values())
            if g > 1:
                for x in other:
                    other[x] //= g
                r //= g
            rhs[d] = r
    # Back substitution, keeping every value found so far over den.
    # Every pivot is positive: each row keeps a diagonal >= 0,
    # off-diagonals <= 0 and a row sum >= 0 under an update by a positive
    # pivot, so a nonzero diagonal is positive.
    nums = [0] * n
    den = 1
    for k in reversed(range(n)):
        t = rhs[k] * den
        for x, b in rows[k].items():
            t -= b * nums[x]
        p = pivots[k]
        g = gcd(t, p)
        p //= g
        if p > 1:
            den *= p
            for x in range(k + 1, n):
                nums[x] *= p
        nums[k] = t // g
    return nums, den


def _component_values(
    m: Model, acts: list[tuple[Action, ...]], policy: list[int], improve: bool
) -> tuple[list[int], int, int]:
    """Values of `policy`, an action index per configuration, as
    numerators over one positive common denominator, solved component by
    component, sinks first, and the most exact evaluations any one
    component needed.

    With `improve`, each component runs policy iteration from the
    entries of `policy`, which it updates in place: a configuration
    switches to the first other action that strictly raises its
    value."""
    nums = [0] * len(m)
    den = 1
    most = 0
    succ = [[d for _, branches, _ in actions for d, _ in branches] for actions in acts]
    for comp in components(succ):
        local = {i: j for j, i in enumerate(comp)}
        # eqs[j][a]: taking action a in comp[j].
        eqs: list[list[Equation]] = []
        for i in comp:
            eqs.append([])
            for reward, branches, _ in acts[i]:
                outer = reward * den
                inner = []
                for d, w in branches:
                    j = local.get(d)
                    if j is None:
                        outer += w * nums[d]
                    else:
                        inner.append((j, w))
                eqs[-1].append((outer, inner))
        evaluations = 0
        while True:
            t, p = _evaluate(m, comp, [eqs[j][policy[i]] for j, i in enumerate(comp)])
            evaluations += 1
            if not improve:
                break
            # Twice an action's value, times p * den, against 2 * t[j].
            stable = True
            for j, i in enumerate(comp):
                current = policy[i]
                for a, (outer, inner) in enumerate(eqs[j]):
                    if a == current:
                        continue
                    q = p * outer
                    for x, w in inner:
                        q += w * t[x]
                    if q > 2 * t[j]:
                        policy[i] = a
                        stable = False
                        break
            if stable:
                break
        most = max(most, evaluations)
        # The value of comp[j] is t[j] / (p * den); join the common
        # denominator.
        g = gcd(p * den, *t)
        cden = p * den // g
        joint = lcm(den, cden)
        if joint != den:
            f = joint // den
            nums = [x * f for x in nums]
            den = joint
        f = joint // cden
        for j, i in enumerate(comp):
            nums[i] = t[j] // g * f
    return nums, den, most


def _result(
    m: Model, nums: list[int], den: int, pids: list[int], iterations: int
) -> SolveResult:
    values = [Fraction(x, den) for x in nums]
    return SolveResult(dict(zip(m.configs, values)), dict(zip(m.configs, pids)), iterations)


def _certify(m: Model, acts: list[tuple[Action, ...]], nums: list[int], den: int) -> list[int]:
    """The greedy policy of the values nums[i] / den, once they are
    certified optimal.  Ties go to action 0, so that the policy keeps
    making progress toward absorption: action 0 schedules the process
    whose operation is priced, and run solo it always finishes."""
    policy: list[int] = []
    for i, num in enumerate(nums):
        q = [_q2(action, nums, den) for action in acts[i]]
        best = max(q)
        policy.append(q.index(best))
        # Optimal Bellman fixed point, exactly.
        if 2 * num != best:
            raise NonConvergence(
                f"values are not a Bellman fixed point at {_cfg_name(m.configs[i])}"
            )
    # Properness: under the policy some absorbing branch is reachable
    # from every configuration, hence absorption is almost sure and the
    # policy's affine operator has a unique fixed point.
    _policy_properness(m, acts, policy)
    return policy


def _policy_properness(m: Model, acts: list[tuple[Action, ...]], policy: list[int]) -> None:
    # Live: the scheduled access can absorb, or lead to a live
    # configuration; a backward search from those that absorb.
    preds: list[list[tuple[int, int]]] = [[] for _ in range(len(m))]
    for i, a in enumerate(policy):
        for d, _ in acts[i][a][1]:
            preds[d].append((a, i))
    live = explore((i for i, a in enumerate(policy) if acts[i][a][2]), preds.__getitem__)
    if len(live) < len(m):
        dead = next(i for i in range(len(m)) if i not in live)
        raise NonConvergence(f"policy is improper from {_cfg_name(m.configs[dead])}")


def evaluate_policy(
    policy: dict[Config, int], objective: Objective, tracked: int = 0
) -> SolveResult:
    """Certified exact value of a *fixed* scheduling policy: the
    properness check, then one exact evaluation per component.

    Raises ValueError, naming the configuration, when `policy` has no
    entry for a reachable configuration or an entry other than 0 or 1."""
    m = model()
    acts = _actions(m, objective, tracked)
    pids: list[int] = []
    for c in m.configs:
        pid = policy.get(c)
        if pid is None:
            raise ValueError(f"policy has no entry for {_cfg_name(c)}")
        if not (isinstance(pid, int) and pid in (0, 1)):
            raise ValueError(f"policy schedules {pid!r} at {_cfg_name(c)}, not 0 or 1")
        pids.append(pid)
    chosen = [0 if pid == tracked else 1 for pid in pids]
    _policy_properness(m, acts, chosen)
    nums, den, _ = _component_values(m, acts, chosen, improve=False)
    return _result(m, nums, den, pids, 1)


# Three objectives, each with tracked 0 or 1: at most six entries.
@functools.cache
def _solve_mdp(objective: Objective, tracked: int) -> SolveResult:
    """Exact policy iteration, one component at a time from action 0
    everywhere, then the certificate on the whole model."""
    m = model()
    acts = _actions(m, objective, tracked)
    nums, den, most = _component_values(m, acts, [0] * len(m), improve=True)
    pids = (tracked, 1 - tracked)
    return _result(m, nums, den, [pids[a] for a in _certify(m, acts, nums, den)], most)


def _access_cost(move: Move) -> tuple[int, bool]:
    return (1, move.finishes)


def _choose_entry_reward(move: Move) -> tuple[int, bool]:
    if move.post is ProcState.CHOOSE:
        return (1, True)  # success: absorbed with reward 1
    return (0, move.finishes)


def _choose_visit_cost(move: Move) -> tuple[int, bool]:
    return (1 if move.post is ProcState.CHOOSE else 0, move.finishes)


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
