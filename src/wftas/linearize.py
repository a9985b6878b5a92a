"""Trace-level correctness: FA4 acceptance, linearization-point
extraction, and exhaustive n-process history checking.

A two-process trace is linearizable iff FA4 accepts its projection to
B-events.  On acceptance one accepting FA3 run is reconstructed; the
epsilon firings of that run are the linearization points of the
test-and-set operations (resets linearize at their single access).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import protocol
from .automata import B_EVENT_ID, fa3_build
from .core import CorruptTrace, Event, OpRecord, Trace


class SearchBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SeqOp:
    """One operation in a sequential (linearized) history."""

    pid: int
    kind: str  # "tas" or "reset"
    ret: Optional[int]  # 0/1 for tas, None for reset
    point: int  # linearization point (step index)
    op_seq: int


@dataclass(frozen=True)
class Linearization:
    """A witness total order with one point per operation."""

    order: tuple[SeqOp, ...]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    linearization: Optional[Linearization] = None
    # Number of accesses in the shortest rejected trace prefix.
    rejected_prefix: Optional[int] = None
    witness: Optional[tuple] = None  # n-process witness order


def project_b(trace: Trace) -> list[tuple[int, Event]]:
    """h|B as (access position, event) pairs, after the register replay;
    a composite access contributes its events in order at its position."""
    trace.replay()
    return [(i, e) for i, a in enumerate(trace.accesses) for e in a.events]


def _fa1_legal(order: Sequence[SeqOp]) -> bool:
    """Replay a sequential history through the two-process object spec."""
    owner: Optional[int] = None
    for op in order:
        if op.kind == "reset":
            if owner != op.pid:
                return False
            owner = None
        elif op.ret == 0:
            if owner is not None:
                return False
            owner = op.pid
        elif op.ret == 1:
            if owner != 1 - op.pid:
                return False
        else:
            return False
    return True


def check_two_process(trace: Trace) -> Verdict:
    """FA4 acceptance plus witness extraction for a two-process trace.

    A rejected trace gets the length of its shortest rejected prefix.
    An accepted one gets one accepting FA3 run, read backwards through
    `Fa3.fa4_pred` from the end state of the last DFA state: every
    operation, a tas still pending at the end included, gets exactly
    one SeqOp.  A reset linearizes at its rstOp; a tas at the epsilon
    move the run fires for it, which gets the step of the B-event it
    follows (a tas occurrence always follows its own sTas).
    """
    fa3 = fa3_build()
    events = project_b(trace)
    cols = [B_EVENT_ID[e.kind, e.pid] for _, e in events]

    # Forward: the DFA state before each B-event.
    dfa = fa3.fa4_dfa
    before: list[int] = []
    q = 0
    for j, col in enumerate(cols):
        before.append(q)
        q = dfa[q][col]
        if q < 0:
            # Shortest rejected prefix: up to and including this access.
            return Verdict(ok=False, rejected_prefix=events[j][0] + 1)

    # Backward: the FA3 state after each B-event's epsilon moves, and
    # those moves, one predecessor per B-event.
    pred = fa3.fa4_pred
    y = fa3.fa4_end[q]
    fired: list[tuple[Event, ...]] = [()] * len(cols)
    for k in range(len(cols) - 1, -1, -1):
        y, fired[k] = pred[before[k]][cols[k]][y]

    accesses = trace.accesses
    open_tas = [0, 0]  # op_seq of each pid's latest tas
    order: list[SeqOp] = []
    for (i, e), eps in zip(events, fired):
        a = accesses[i]
        if e.kind == "sTas":
            open_tas[e.pid] = a.op_seq
        elif e.kind == "rstOp":
            order.append(SeqOp(e.pid, "reset", None, a.t, a.op_seq))
        for o in eps:
            ret = 0 if o.kind == "tas0" else 1
            order.append(SeqOp(o.pid, "tas", ret, a.t, open_tas[o.pid]))
    lin = Linearization(order=tuple(order))
    if not _fa1_legal(lin.order):
        raise AssertionError("extracted linearization is not legal")
    return Verdict(ok=True, linearization=lin)


# Verdicts of `check_n_process` by (n, budget, the fields of each record
# that the search reads), taken at call time; it starts over when full.
_VERDICTS: dict[tuple, Verdict] = {}
_VERDICTS_MAX = 4096


def check_n_process(
    records: Sequence[OpRecord],
    n: int,
    budget: int = 2_000_000,
) -> Verdict:
    """Exhaustive linearizability check of a small n-process history.

    Sequential specification: a tas from the free state returns 0 and
    takes ownership; a tas under another owner returns 1; a reset by the
    owner frees the object.  Completed operations must all be placed in
    some real-time-respecting total order; pending operations may be
    placed (a pending tas with either return value) or dropped.

    The verdict is a function of the records' pid, kind, start, finish
    and ret, so a history seen before is answered without a second
    search.
    """
    key = (n, budget, tuple((r.pid, r.kind, r.start, r.finish, r.ret) for r in records))
    verdict = _VERDICTS.get(key)
    if verdict is None:
        verdict = _search_n_process(records, n, budget)
        if len(_VERDICTS) >= _VERDICTS_MAX:
            _VERDICTS.clear()
        _VERDICTS[key] = verdict
    return verdict


def _search_n_process(records: Sequence[OpRecord], n: int, budget: int) -> Verdict:
    """The depth-first search behind `check_n_process`, uncached."""
    ops = list(records)
    if any(r.pid >= n or r.pid < 0 for r in ops):
        raise ValueError("record pid out of range")
    completed = [i for i, r in enumerate(ops) if r.finished]
    nodes = 0
    memo: set[tuple[frozenset, Optional[int]]] = set()

    def eligible(i: int, placed: frozenset) -> bool:
        # All real-time predecessors of ops[i] must already be placed.
        for j, r in enumerate(ops):
            if j == i or j in placed or not r.finished:
                continue
            if r.finish < ops[i].start:
                return False
        return True

    def dfs(placed: frozenset, owner: Optional[int], order: tuple) -> Optional[tuple]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} search nodes")
        if all(i in placed for i in completed):
            return order
        if (placed, owner) in memo:
            return None
        for i, r in enumerate(ops):
            if i in placed or not eligible(i, placed):
                continue
            if r.kind == "reset":
                if owner == r.pid:
                    res = dfs(placed | {i}, None, order + ((i, None),))
                    if res is not None:
                        return res
                continue
            rets = (r.ret,) if r.ret is not None else (0, 1)
            for ret in rets:
                if ret == 0 and owner is None:
                    res = dfs(placed | {i}, r.pid, order + ((i, 0),))
                elif ret == 1 and owner is not None and owner != r.pid:
                    res = dfs(placed | {i}, owner, order + ((i, 1),))
                else:
                    continue
                if res is not None:
                    return res
        memo.add((placed, owner))
        return None

    witness = dfs(frozenset(), None, ())
    if witness is None:
        return Verdict(ok=False)
    return Verdict(ok=True, witness=witness)


def lint(trace: Trace) -> Verdict:
    """Full trace lint, in three passes:

    1. chart conformance: each process's first access starts from rst,
       every later one from the state its previous access left, and
       every access is one the chart enables from its pre state, with
       the recorded value and coin, leading to the recorded post state;
       its `op` is the one its process invoked from an idle state and
       its `op_seq` counts the process's invocations from 0;
    2. check_two_process: register replay, then FA4 acceptance and, on
       acceptance, the witness;
    3. on acceptance, event classification: each access carries the
       B-events of its chart transition.

    A failure of pass 1 or 3, or of the replay, raises CorruptTrace; an
    FA4 rejection returns the rejecting verdict.
    """
    moves: list[protocol.Move] = []
    # Each process's (state, name); both start in rst.
    at = [(protocol.ProcState.RST, "rst")] * 2
    # Each process's last invocation and its open operation, if any.
    op_seq = [-1, -1]
    open_op: list[Optional[str]] = [None, None]
    for a in trace:
        s, name = at[a.pid]
        if a.pre != name:
            raise CorruptTrace(f"step {a.t}: P{a.pid} steps from {a.pre} but is in {name}")
        if open_op[a.pid] is None:
            op_seq[a.pid] += 1
            open_op[a.pid] = protocol.IDLE_OP[s]
        if (a.op, a.op_seq) != (open_op[a.pid], op_seq[a.pid]):
            raise CorruptTrace(
                f"step {a.t}: P{a.pid} runs {open_op[a.pid]} #{op_seq[a.pid]}, "
                f"trace says {a.op} #{a.op_seq}"
            )
        move = protocol.CHART.get((s, None if a.action == "w" else a.value, a.coin))
        if move is None or move.value is not a.value:
            raise CorruptTrace(
                f"step {a.t}: {a.pre} has no access {a.action} "
                f"{a.value.value} with coin {a.coin}"
            )
        if move.post_name != a.post:
            raise CorruptTrace(
                f"step {a.t}: {a.pre} {a.action} {a.value.value} goes to "
                f"{move.post_name}, trace says {a.post}"
            )
        at[a.pid] = (move.post, move.post_name)
        if move.finishes:
            open_op[a.pid] = None
        moves.append(move)
    verdict = check_two_process(trace)
    if verdict.ok:
        for a, move in zip(trace, moves):
            if a.events != move.events[a.pid]:
                raise CorruptTrace(f"step {a.t}: wrong event classification")
    return verdict
