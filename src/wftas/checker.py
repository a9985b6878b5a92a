"""Exhaustive verification of the two-process system.

Enumerates the configurations (pairs of chart states) reachable from
(rst, rst), propagates representative sets of FA4 states over the
configuration graph, and compares the result cell by cell against the
golden table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import protocol
from .automata import (
    B_EVENT_ID,
    Fa2State,
    Fa3State,
    LabelAssignment,
    NoConsistentBijection,
    assign_labels,
    fa3_build,
)
from .goldens import GoldenTable, STATE_ORDER, load_golden_table
from .protocol import GROUP, IDLE_OP, Move, ProcState

Config = tuple[ProcState, ProcState]

INITIAL_CONFIG: Config = (ProcState.RST, ProcState.RST)

StepFn = Callable[..., ProcState]

# (destination id, coin, Move) of one outcome of a scheduled access.
Branch = tuple[int, Optional[bool], Move]


@dataclass(frozen=True, eq=False)
class Model:
    """The reachable configuration graph of one step function on ids:
    `configs[i]` is configuration i ((rst, rst) is 0), `index` maps back,
    and `branches[2 * i + pid]` are the outcomes of scheduling pid in it,
    each of probability 1 / their number (a coin read has two, heads
    first; the access's B-events are `move.events[pid]`).  Idle
    processes are deemed invoked: RST/TST1 start a test-and-set, TST0
    its reset."""

    configs: tuple[Config, ...]
    index: dict[Config, int]
    branches: tuple[tuple[Branch, ...], ...]

    def __len__(self) -> int:
        return len(self.configs)


def model(step_fn: StepFn = protocol.step) -> Model:
    """The model of `step_fn`, compiled from `protocol.compile_chart`
    on first use and shared by every caller, who must not modify it."""
    return _model(step_fn)


# Cached on the step function alone, so that `model()` and
# `model(protocol.step)` share one entry.
@functools.cache
def _model(step_fn: StepFn) -> Model:
    chart = protocol.compile_chart(step_fn)

    def successors(config: Config, pid: int):
        other = config[1 - pid]
        for coin, move in protocol.branches(chart, config[pid], GROUP[other]):
            yield ((move.post, other) if pid == 0 else (other, move.post)), coin, move

    index: dict[Config, int] = {}
    frontier = [INITIAL_CONFIG]
    while frontier:
        config = frontier.pop()
        if config not in index:
            index[config] = len(index)
            for pid in (0, 1):
                frontier.extend(dst for dst, _, _ in successors(config, pid))
    branches = tuple(
        tuple((index[dst], coin, move) for dst, coin, move in successors(c, pid))
        for c in index
        for pid in (0, 1)
    )
    return Model(tuple(index), index, branches)


Step = tuple[str, bool, tuple[tuple[int, tuple], ...]]


@functools.cache
def step_table() -> tuple[Step, ...]:
    """`model()`'s branches compiled once for making and checking
    accesses.  Entry `[2 * id + pid]` holds the operation pid's access
    there belongs to, whether the access starts it, and per branch the
    destination id and the access's fields from `reg` to `events`.

    A reset takes one access, so the operation is a function of the
    configuration: the one pid's idle state starts (`IDLE_OP`), else its
    tas.  An access finishes it exactly when it enters an idle state;
    the compiler checks that against every branch's `Move.finishes`."""
    m = model()
    table = []
    for i, c in enumerate(m.configs):
        for pid in (0, 1):
            rows = []
            for d, coin, move in m.branches[2 * i + pid]:
                if move.finishes != (move.post in IDLE_OP):
                    raise AssertionError(
                        f"{move.pre_name} -> {move.post_name}: finishes={move.finishes}"
                    )
                reg = pid if move.action == "w" else 1 - pid
                rows.append((d, (reg, move.action, move.value, coin, move.pre_name,
                                 move.post_name, move.events[pid])))
            table.append((IDLE_OP.get(c[pid], "tas"), c[pid] in IDLE_OP, tuple(rows)))
    return tuple(table)


def forward_families(m: Model) -> dict[Config, set[frozenset[Fa3State]]]:
    """Canonical FA4 state sets per configuration, one per history class.

    Propagating the FA4 subset construction over the configuration graph
    is path dependent: different access sequences reaching the same
    configuration can leave FA4 in different sets of states.  This
    returns, for each reachable configuration, every distinct canonical
    set that some history produces, found by walking (configuration,
    FA4 DFA state) pairs; the rejecting DFA state -1 is the empty set.
    """
    fa3 = fa3_build()
    dfa = fa3.fa4_dfa
    fam: dict[int, set[int]] = {0: {0}}
    frontier = [(0, 0)]
    while frontier:
        c, q = frontier.pop()
        for pid in (0, 1):
            for d, _, move in m.branches[2 * c + pid]:
                r = q
                for ev in move.events[pid]:
                    if r >= 0:
                        r = dfa[r][B_EVENT_ID[ev.kind, pid]]
                if r not in fam.setdefault(d, set()):
                    fam[d].add(r)
                    frontier.append((d, r))
    return {
        m.configs[c]: {fa3.fa4_sets[q] if q >= 0 else frozenset() for q in qs}
        for c, qs in fam.items()
    }


def _outcomes(m: Model, c: int, pid: int, actors: tuple[int, ...]) -> set[int]:
    """Return values of pid's pending operation from configuration id
    `c` over every schedule of `actors` and every coin outcome, cut
    short once both are found."""
    seen = {c}
    stack = [c]
    out: set[int] = set()
    while stack and out != {0, 1}:
        c = stack.pop()
        for actor in actors:
            for d, _, move in m.branches[2 * c + actor]:
                ret = None
                if actor == pid and move.finishes:
                    ret = protocol.returns_value(move.post)
                if ret is not None:
                    out.add(ret)
                elif d not in seen:
                    seen.add(d)
                    stack.append(d)
    return out


def op_outcomes(m: Model, c: int, pid: int) -> frozenset[int]:
    """Possible return values of pid's pending operation from
    configuration id `c`.

    Explores every schedule and coin outcome and collects the value the
    operation in progress eventually returns.  Meaningful only when pid
    is mid-operation (not in an idle chart state).
    """
    return frozenset(_outcomes(m, c, pid, (0, 1)))


def solo_returns_one(m: Model, c: int, pid: int) -> bool:
    """Can pid's pending operation, from configuration id `c`, return 1
    with the peer never scheduled?"""
    return 1 in _outcomes(m, c, pid, (pid,))


_IDLE_CLAIM = {
    ProcState.RST: Fa2State.I1,
    ProcState.TST0: Fa2State.I0,
    ProcState.TST1: Fa2State.I1,
}


def _claim_compatible(x: Fa3State, c: int, m: Model) -> bool:
    """Is the occurrence bookkeeping of x consistent with the futures of
    configuration id `c`?

    Idle processes must be recorded idle with the matching last return
    value.  For a process mid-operation: the undecided component S
    requires both return values to still be possible; a booked tas0
    (component T0) requires return value 0 to be possible; a booked tas1
    (component T1) requires that the operation can return 1 even if the
    peer is never scheduled again, since only then is the occurrence
    forced to predate the remaining future.
    """
    for pid, p in enumerate((x.p0, x.p1)):
        s = m.configs[c][pid]
        idle = _IDLE_CLAIM.get(s)
        if idle is not None:
            if p is not idle:
                return False
            continue
        if p in (Fa2State.I0, Fa2State.I1):
            return False
        if p is Fa2State.S:
            if op_outcomes(m, c, pid) != {0, 1}:
                return False
        elif p is Fa2State.T0:
            if 0 not in op_outcomes(m, c, pid):
                return False
        elif p is Fa2State.T1:
            if not solo_returns_one(m, c, pid):
                return False
    return True


def representative_sets(
    step_fn: StepFn = protocol.step,
) -> dict[Config, frozenset[Fa3State]]:
    """The representative FA4 state set of every reachable configuration.

    A state belongs to the set of a configuration iff

      * FA4 can be in it after *every* access sequence reaching the
        configuration (the meet over history classes), and
      * its occurrence bookkeeping is consistent with the possible
        futures of the configuration (see `_claim_compatible`),

    closed under canonicalization (epsilon-closure minus states with only
    epsilon-moves).  The result is history-independent by construction
    and may contain empty sets if `step_fn` deviates from the chart.
    """
    fa3 = fa3_build()
    m = model(step_fn)
    rep: dict[Config, frozenset[Fa3State]] = {}
    for c, sets in forward_families(m).items():
        meet = frozenset.intersection(*sets)
        i = m.index[c]
        rep[c] = fa3.canonical(x for x in meet if _claim_compatible(x, i, m))
    return rep


@dataclass
class CheckReport:
    reachable_count: int = 0
    verified_cells: int = 0
    verified_unreachable: int = 0
    mismatches: list[str] = field(default_factory=list)
    labels: Optional[LabelAssignment] = None
    rep_sets: dict[Config, frozenset[Fa3State]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _cfg_name(c: Config) -> str:
    return f"({c[0].value},{c[1].value})"


def _cfg_key(c: Config) -> tuple[int, int]:
    return (STATE_ORDER.index(c[0].value), STATE_ORDER.index(c[1].value))


def verify_against_table(
    table: Optional[GoldenTable] = None,
    step_fn: StepFn = protocol.step,
) -> CheckReport:
    """Cell-by-cell comparison of the computed system against the table."""
    if table is None:
        table = load_golden_table()
    report = CheckReport()
    rep = representative_sets(step_fn)
    report.rep_sets = rep
    report.reachable_count = len(rep)
    for c in sorted(rep, key=_cfg_key):
        if not rep[c]:
            report.mismatches.append(
                f"config {_cfg_name(c)} has an empty representative set"
            )

    reach_keys = {(c[0].value, c[1].value) for c in rep}
    golden_reach = set(table.reachable_cells())
    for key in sorted(golden_reach - reach_keys):
        report.mismatches.append(f"cell {key}: in table but not reachable")
    for key in sorted(reach_keys - golden_reach):
        report.mismatches.append(f"cell {key}: reachable but '*' in table")

    # Solve the letter bijection from the table plus the computed sets.
    cells = {
        (ProcState(r), ProcState(c)): cell.letters
        for (r, c), cell in table.reachable_cells().items()
        if (ProcState(r), ProcState(c)) in rep
    }
    try:
        labels = assign_labels(cells, rep)
        report.labels = labels
    except NoConsistentBijection as exc:
        report.mismatches.append(f"label bijection failed: {exc}")
        return report

    inv = {v: k for k, v in labels.mapping.items()}
    for c in sorted(rep, key=_cfg_key):
        key = (c[0].value, c[1].value)
        cell = table.cells.get(key)
        if cell is None:
            continue  # already reported above
        got = {inv.get(s) for s in rep[c]}
        if None in got or got != set(cell.letters):
            report.mismatches.append(
                f"cell {key}: table letters {''.join(sorted(cell.letters))} "
                f"!= computed {sorted(map(str, got))}"
            )
        else:
            report.verified_cells += 1
    report.verified_unreachable = sum(
        1 for key in table.unreachable_keys()
        if (ProcState(key[0]), ProcState(key[1])) not in rep
    )

    # Semantic mirror symmetry of the computed sets.
    for c in sorted(rep, key=_cfg_key):
        S = rep[c]
        mc = (c[1], c[0])
        if mc not in rep:
            report.mismatches.append(f"mirror of {_cfg_name(c)} unreachable")
            continue
        if frozenset(s.mirror() for s in S) != rep[mc]:
            report.mismatches.append(
                f"mirror symmetry broken between {_cfg_name(c)} and {_cfg_name(mc)}"
            )
    return report


def claim_induction_check(
    rep: dict[Config, frozenset[Fa3State]],
    step_fn: StepFn = protocol.step,
) -> list[str]:
    """Edge-wise induction over the representative sets `rep` of
    `step_fn`: every state in the successor's set must be reachable from
    some state of the predecessor's set via the access's B-events plus
    epsilon-moves."""
    fa3 = fa3_build()
    m = model(step_fn)
    problems: list[str] = []
    for c in sorted(rep, key=_cfg_key):
        i = m.index[c]
        for pid in (0, 1):
            for d, _, move in m.branches[2 * i + pid]:
                T = rep[c]
                for ev in move.events[pid]:
                    T = fa3.fa4_step(T, ev)
                T = fa3.canonical(T)
                dst = m.configs[d]
                for y in rep[dst]:
                    if y not in T:
                        problems.append(
                            f"{_cfg_name(c)} -> {_cfg_name(dst)}: state {y!r} "
                            f"not derivable"
                        )
    return problems
