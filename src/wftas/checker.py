"""Exhaustive verification of the two-process system.

Enumerates the configurations (pairs of chart states) reachable from
(rst, rst), propagates representative sets of FA4 states over the
configuration graph, and compares the result cell by cell against the
golden table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import protocol
from .automata import (
    Fa2State,
    Fa3,
    Fa3State,
    LabelAssignment,
    NoConsistentBijection,
    assign_labels,
    fa3_build,
)
from .core import Event
from .goldens import GoldenTable, STATE_ORDER, load_golden_table
from .protocol import GROUP, ProcState

Config = tuple[ProcState, ProcState]

INITIAL_CONFIG: Config = (ProcState.RST, ProcState.RST)

StepFn = Callable[..., ProcState]


@dataclass(frozen=True)
class Edge:
    """One scheduled access in the configuration graph.

    `prob` is the probability of this branch given that `pid` is
    scheduled (1, or 1/2 for each outcome of a coin-resolving read).
    """

    src: Config
    dst: Config
    pid: int
    coin: Optional[bool]
    prob: Fraction
    events: tuple[Event, ...]
    finishes: bool  # the access finishes pid's current operation


def edge_map(
    step_fn: StepFn = protocol.step,
) -> dict[Config, tuple[Edge, ...]]:
    """Outgoing scheduled-access branches for every reachable configuration.

    The one walk that calls `step_fn`; every other query in this module
    is a lookup in its result.  Idle processes are deemed invoked:
    RST/TST1 start a test-and-set, TST0 starts its reset.
    """
    out: dict[Config, tuple[Edge, ...]] = {}
    frontier = [INITIAL_CONFIG]
    while frontier:
        config = frontier.pop()
        if config in out:
            continue
        edges: list[Edge] = []
        for pid in (0, 1):
            s = config[pid]
            kind = protocol.enabled_access(s)
            branches: list[tuple[Optional[bool], ProcState, Fraction]] = []
            if kind[0] == "w":
                branches.append((None, step_fn(s), Fraction(1)))
            else:
                observed = GROUP[config[1 - pid]]
                if protocol.needs_coin(s, observed):
                    branches.append((True, step_fn(s, observed, True), Fraction(1, 2)))
                    branches.append((False, step_fn(s, observed, False), Fraction(1, 2)))
                else:
                    branches.append((None, step_fn(s, observed), Fraction(1)))
            for coin, post, prob in branches:
                dst = (post, config[1]) if pid == 0 else (config[0], post)
                try:
                    events = protocol.classify(s, post, pid)
                except protocol.IllegalTransition:
                    # Mutated step functions can leave the legal chart; such
                    # transitions carry no B-events.
                    events = ()
                edges.append(
                    Edge(
                        src=config,
                        dst=dst,
                        pid=pid,
                        coin=coin,
                        prob=prob,
                        events=events,
                        finishes=protocol.finishes_op(s, post)
                        if (s, post) in protocol.LEGAL_TRANSITIONS
                        else False,
                    )
                )
        out[config] = tuple(edges)
        for e in edges:
            if e.dst not in out:
                frontier.append(e.dst)
    return out


def _fa4_after(
    fa3: Fa3, S: frozenset[Fa3State], e: Edge
) -> frozenset[Fa3State]:
    """Canonical FA4 set after the B-events of access e, starting from S.

    Interior (event-free) accesses still re-canonicalize.
    """
    for ev in e.events:
        S = fa3.fa4_step(S, ev)
    return fa3.canonical(S)


def forward_families(
    emap: dict[Config, tuple[Edge, ...]],
) -> dict[Config, set[frozenset[Fa3State]]]:
    """Canonical FA4 state sets per configuration, one per history class.

    Propagating the FA4 subset construction over the configuration graph
    is path dependent: different access sequences reaching the same
    configuration can leave FA4 in different sets of states.  This
    returns, for each reachable configuration, every distinct canonical
    set that some history produces.
    """
    fa3 = fa3_build()
    fam: dict[Config, set[frozenset[Fa3State]]] = {
        INITIAL_CONFIG: {fa3.fa4_initial()}
    }
    frontier: list[tuple[Config, frozenset[Fa3State]]] = [
        (INITIAL_CONFIG, fa3.fa4_initial())
    ]
    while frontier:
        c, S = frontier.pop()
        for e in emap[c]:
            T = _fa4_after(fa3, S, e)
            if T not in fam.setdefault(e.dst, set()):
                fam[e.dst].add(T)
                frontier.append((e.dst, T))
    return fam


def op_outcomes(
    emap: dict[Config, tuple[Edge, ...]],
    config: Config,
    pid: int,
) -> frozenset[int]:
    """Possible return values of pid's pending operation from here.

    Explores every schedule and coin outcome and collects the value the
    operation in progress eventually returns.  Meaningful only when pid
    is mid-operation (not in an idle chart state).
    """
    seen = {config}
    stack = [config]
    out: set[int] = set()
    while stack and out != {0, 1}:
        c = stack.pop()
        for e in emap[c]:
            finished = None
            for ev in e.events:
                if ev.pid == pid and ev.kind == "fTas0":
                    finished = 0
                elif ev.pid == pid and ev.kind == "fTas1":
                    finished = 1
            if finished is not None:
                out.add(finished)
                continue
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return frozenset(out)


def solo_returns_one(
    emap: dict[Config, tuple[Edge, ...]],
    config: Config,
    pid: int,
) -> bool:
    """Can pid's pending operation return 1 with the peer never scheduled?"""
    seen = {config}
    stack = [config]
    while stack:
        c = stack.pop()
        for e in emap[c]:
            if e.pid != pid:
                continue
            if any(ev.pid == pid and ev.kind == "fTas1" for ev in e.events):
                return True
            if any(ev.pid == pid and ev.kind == "fTas0" for ev in e.events):
                continue
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


_IDLE_CLAIM = {
    ProcState.RST: Fa2State.I1,
    ProcState.TST0: Fa2State.I0,
    ProcState.TST1: Fa2State.I1,
}


def _claim_compatible(
    x: Fa3State,
    config: Config,
    emap: dict[Config, tuple[Edge, ...]],
) -> bool:
    """Is the occurrence bookkeeping of x consistent with the futures of
    the configuration?

    Idle processes must be recorded idle with the matching last return
    value.  For a process mid-operation: the undecided component S
    requires both return values to still be possible; a booked tas0
    (component T0) requires return value 0 to be possible; a booked tas1
    (component T1) requires that the operation can return 1 even if the
    peer is never scheduled again, since only then is the occurrence
    forced to predate the remaining future.
    """
    for pid, p in enumerate((x.p0, x.p1)):
        s = config[pid]
        idle = _IDLE_CLAIM.get(s)
        if idle is not None:
            if p is not idle:
                return False
            continue
        if p in (Fa2State.I0, Fa2State.I1):
            return False
        if p is Fa2State.S:
            if op_outcomes(emap, config, pid) != {0, 1}:
                return False
        elif p is Fa2State.T0:
            if 0 not in op_outcomes(emap, config, pid):
                return False
        elif p is Fa2State.T1:
            if not solo_returns_one(emap, config, pid):
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
    emap = edge_map(step_fn)
    rep: dict[Config, frozenset[Fa3State]] = {}
    for c, sets in forward_families(emap).items():
        meet = frozenset.intersection(*sets)
        kept = frozenset(x for x in meet if _claim_compatible(x, c, emap))
        rep[c] = fa3.canonical(kept)
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
    for key in sorted(set(table.unreachable_keys()) & reach_keys):
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


def claim_induction_check(rep: dict[Config, frozenset[Fa3State]]) -> list[str]:
    """Edge-wise induction over the representative sets `rep`: every
    state in the successor's set must be reachable from some state of
    the predecessor's set via the access's B-events plus epsilon-moves."""
    fa3 = fa3_build()
    emap = edge_map()
    problems: list[str] = []
    for c in sorted(rep, key=_cfg_key):
        for e in emap[c]:
            T = _fa4_after(fa3, rep[c], e)
            for y in rep[e.dst]:
                if y not in T:
                    problems.append(
                        f"{_cfg_name(c)} -> {_cfg_name(e.dst)}: state {y!r} "
                        f"not derivable"
                    )
    return problems
