"""Exhaustive verification of the two-process system.

Enumerates the configurations (pairs of chart states) reachable from
(rst, rst), propagates representative sets of FA4 states over the
configuration graph, and compares the result cell by cell against the
golden table.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

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
from .search import explore

Config = tuple[ProcState, ProcState]

INITIAL_CONFIG: Config = (ProcState.RST, ProcState.RST)

StepFn = Callable[..., ProcState]

# (destination id, fields, Move) of one outcome of a scheduled access:
# `fields` are what the access records from `reg` to `events`, the coin
# being `fields[3]`; every `Access` that takes the branch holds this tuple.
Branch = tuple[int, tuple, Move]


class Model:
    """The reachable configuration graph of one chart on ids:
    `configs[i]` is configuration i, numbered breadth-first from
    (rst, rst) = 0, `index` maps back, and `branches[2 * i + pid]` are
    the outcomes of scheduling pid in it, each a `Branch` of probability
    1 / their number (a coin read has two, heads first).  `ops[2 * i + pid]` is
    (op, starts): the operation pid's access belongs to and whether it
    starts it.  Idle processes are deemed invoked: RST/TST1 start a
    test-and-set, TST0 its reset.  A reset takes one access, so the
    operation is a function of the configuration, and an access finishes
    it exactly when it enters an idle state (`Move.finishes`)."""

    __slots__ = ("configs", "index", "branches", "ops")

    def __init__(self, configs: tuple[Config, ...], index: dict[Config, int],
                 branches: tuple[tuple[Branch, ...], ...],
                 ops: tuple[tuple[str, bool], ...]) -> None:
        self.configs = configs
        self.index = index
        self.branches = branches
        self.ops = ops

    def __len__(self) -> int:
        return len(self.configs)


@functools.cache
def model() -> Model:
    """The model of `protocol.CHART`, compiled on first use and shared
    by every caller, who must not modify it."""
    return compile_model(protocol.CHART)


def compile_model(chart: protocol.Chart) -> Model:
    """The model of `chart`, compiled afresh on every call; the
    mutation checks compile each mutant chart with it."""

    def successors(config: Config, pid: int):
        other = config[1 - pid]
        for coin, move in protocol.branches(chart, config[pid], GROUP[other]):
            fields = (pid if move.action == "w" else 1 - pid, move.action, move.value, coin,
                      move.pre_name, move.post_name, move.events[pid])
            yield ((move.post, other) if pid == 0 else (other, move.post)), fields, move

    # Each reached configuration's successors, per pid, kept for its branches.
    succ: dict[Config, tuple[tuple, tuple]] = {}

    def expand(c: Config):
        succ[c] = out = (tuple(successors(c, 0)), tuple(successors(c, 1)))
        return ((pid, d) for pid in (0, 1) for d, _, _ in out[pid])

    index = {c: i for i, c in enumerate(explore([INITIAL_CONFIG], expand))}
    branches = tuple(
        tuple((index[dst], fields, move) for dst, fields, move in succ[c][pid])
        for c in index
        for pid in (0, 1)
    )
    ops = tuple((IDLE_OP.get(c[pid], "tas"), c[pid] in IDLE_OP) for c in index for pid in (0, 1))
    return Model(tuple(index), index, branches, ops)


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

    def successors(state):
        c, q = state
        for pid in (0, 1):
            for d, _, move in m.branches[2 * c + pid]:
                r = q
                for ev in move.events[pid]:
                    if r >= 0:
                        r = dfa[r][B_EVENT_ID[ev]]
                yield pid, (d, r)

    fam: dict[int, set[int]] = {}
    for c, q in explore([(0, 0)], successors):
        fam.setdefault(c, set()).add(q)
    return {
        m.configs[c]: {fa3.fa4_sets[q] if q >= 0 else frozenset() for q in qs}
        for c, qs in fam.items()
    }


def _outcomes(m: Model, pid: int, actors: tuple[int, ...]) -> list[set[int]]:
    """Per configuration id, the return values of pid's pending
    operation over every schedule of `actors` and every coin outcome:
    per value, one backward search from the configurations where an
    access of pid finishes with it, along every other branch."""
    preds: list[list[tuple[int, int]]] = [[] for _ in range(len(m))]
    finish: tuple[list[int], list[int]] = ([], [])
    for c in range(len(m)):
        for actor in actors:
            for d, _, move in m.branches[2 * c + actor]:
                ret = protocol.returns_value(move.post) if actor == pid and move.finishes else None
                if ret is None:
                    preds[d].append((actor, c))
                else:
                    finish[ret].append(c)
    out: list[set[int]] = [set() for _ in range(len(m))]
    for ret in (0, 1):
        for c in explore(finish[ret], preds.__getitem__):
            out[c].add(ret)
    return out


_IDLE_CLAIM = {
    ProcState.RST: Fa2State.I1,
    ProcState.TST0: Fa2State.I0,
    ProcState.TST1: Fa2State.I1,
}


def _allowed_claims(state: ProcState, out: set[int], solo: set[int]) -> frozenset[Fa2State]:
    """The FA2 components of a process in chart state `state` that are
    consistent with its futures: `out` holds the values its pending
    operation can return, `solo` those it can return with the peer
    never scheduled (see `_outcomes`).

    An idle process must be recorded idle with the matching last return
    value.  For a process mid-operation: the undecided component S
    requires both return values to still be possible; a booked tas0
    (component T0) requires return value 0 to be possible; a booked tas1
    (component T1) requires that the operation can return 1 even if the
    peer is never scheduled again, since only then is the occurrence
    forced to predate the remaining future.
    """
    idle = _IDLE_CLAIM.get(state)
    if idle is not None:
        return frozenset((idle,))
    allowed = set()
    if out == {0, 1}:
        allowed.add(Fa2State.S)
    if 0 in out:
        allowed.add(Fa2State.T0)
    if 1 in solo:
        allowed.add(Fa2State.T1)
    return frozenset(allowed)


def representative_sets(m: Model) -> dict[Config, frozenset[Fa3State]]:
    """The representative FA4 state set of every reachable configuration.

    A state belongs to the set of a configuration iff

      * FA4 can be in it after *every* access sequence reaching the
        configuration (the meet over history classes), and
      * its occurrence bookkeeping is consistent with the possible
        futures of the configuration (see `_allowed_claims`),

    closed under canonicalization (epsilon-closure minus states with only
    epsilon-moves).  The result is history-independent by construction
    and may contain empty sets if `m` is the model of a mutant chart.
    """
    fa3 = fa3_build()
    futures = [(_outcomes(m, pid, (0, 1)), _outcomes(m, pid, (pid,))) for pid in (0, 1)]
    rep: dict[Config, frozenset[Fa3State]] = {}
    for c, sets in forward_families(m).items():
        meet = frozenset.intersection(*sets)
        i = m.index[c]
        allowed0, allowed1 = (
            _allowed_claims(c[pid], out[i], solo[i]) for pid, (out, solo) in enumerate(futures)
        )
        rep[c] = fa3.canonical(x for x in meet if x.p0 in allowed0 and x.p1 in allowed1)
    return rep


class CheckReport(NamedTuple):
    reachable_count: int
    verified_cells: int
    verified_unreachable: int
    mismatches: list[str]
    labels: Optional[LabelAssignment]  # None when the letter bijection failed
    rep_sets: dict[Config, frozenset[Fa3State]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _cfg_name(c: Config) -> str:
    return f"({c[0].value},{c[1].value})"


# Each chart state's position in the table's row and column order.
_POSITION = {ProcState(v): i for i, v in enumerate(STATE_ORDER)}


def _cfg_key(c: Config) -> tuple[int, int]:
    return (_POSITION[c[0]], _POSITION[c[1]])


def verify_against_table(
    table: Optional[GoldenTable] = None,
    step_fn: StepFn = protocol.step,
) -> CheckReport:
    """Cell-by-cell comparison of the computed system against the table.
    A `step_fn` other than `protocol.step` is a mutant: its chart is
    compiled into a model of its own, used for this call only."""
    if table is None:
        table = load_golden_table()
    m = model() if step_fn is protocol.step else compile_model(protocol.compile_chart(step_fn))
    fa3 = fa3_build()
    rep = representative_sets(m)
    order = sorted(rep, key=_cfg_key)
    masks = {c: fa3.mask(rep[c]) for c in order}
    keys = {c: (c[0].value, c[1].value) for c in order}
    mismatches = [
        f"config {_cfg_name(c)} has an empty representative set" for c in order if not masks[c]
    ]

    reach_keys = set(keys.values())
    golden_reach = set(table.reachable_cells())
    for key in sorted(golden_reach - reach_keys):
        mismatches.append(f"cell {key}: in table but not reachable")
    for key in sorted(reach_keys - golden_reach):
        mismatches.append(f"cell {key}: reachable but '*' in table")

    verified_unreachable = sum(key not in reach_keys for key in table.unreachable_keys())

    # Solve the letter bijection from the table plus the computed sets.
    cells = {c: table.cells[keys[c]].letters for c in order if keys[c] in golden_reach}
    try:
        labels = assign_labels(cells, rep)
    except NoConsistentBijection as exc:
        mismatches.append(f"label bijection failed: {exc}")
        return CheckReport(len(rep), 0, verified_unreachable, mismatches, None, rep)

    verified_cells = 0
    inv = labels.inverse
    for c, letters in cells.items():
        got = {inv.get(s) for s in rep[c]}
        if None in got or got != letters:
            mismatches.append(
                f"cell {keys[c]}: table letters {''.join(sorted(letters))} "
                f"!= computed {sorted(map(str, got))}"
            )
        else:
            verified_cells += 1

    # Semantic mirror symmetry of the computed sets.
    for c in order:
        mc = (c[1], c[0])
        if mc not in masks:
            mismatches.append(f"mirror of {_cfg_name(c)} unreachable")
        elif fa3.mirror_mask(masks[c]) != masks[mc]:
            mismatches.append(
                f"mirror symmetry broken between {_cfg_name(c)} and {_cfg_name(mc)}"
            )
    return CheckReport(len(rep), verified_cells, verified_unreachable, mismatches, labels, rep)


def claim_induction_check(
    rep: dict[Config, frozenset[Fa3State]],
    m: Model,
) -> list[str]:
    """Edge-wise induction over the representative sets `rep` of `m`:
    every state in the successor's set must be reachable from some state
    of the predecessor's set via the access's B-events plus
    epsilon-moves.  Each edge's underivable states are listed in order
    (`Fa3State.__lt__`), so the report is the same in every process."""
    fa3 = fa3_build()
    masks = {c: fa3.mask(S) for c, S in rep.items()}
    problems: list[str] = []
    for c in sorted(rep, key=_cfg_key):
        i = m.index[c]
        for pid in (0, 1):
            for d, _, move in m.branches[2 * i + pid]:
                T = masks[c]
                for ev in move.events[pid]:
                    T = fa3.step_mask(T, B_EVENT_ID[ev])
                T = fa3.canonical_mask(T)
                dst = m.configs[d]
                if masks[dst] & ~T:
                    problems += [
                        f"{_cfg_name(c)} -> {_cfg_name(dst)}: state {y!r} not derivable"
                        for y in sorted(fa3.states_of(masks[dst] & ~T))
                    ]
    return problems
