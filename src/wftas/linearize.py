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

from .automata import B_EVENT_ID, fa3_build
from .checker import step_table
from .core import Access, CorruptTrace, Event, OpRecord, Trace


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
    """Full trace lint: one walk of `checker.step_table()` from (rst, rst),
    then check_two_process.

    Each access must be one the table gives its process in the
    configuration reached: from its process's state, with the op it
    belongs to and its process's invocation count from 0 as op_seq, a
    write to its own register or a read of the other register's
    content, and the chart's value, coin, post state and B-events.

    A difference in anything but the events raises CorruptTrace at once.
    One in the events alone raises it only if FA4 then accepts the
    trace; otherwise lint returns check_two_process's verdict.
    """
    table = step_table()
    c = 0  # (rst, rst)
    op_seq = [-1, -1]
    misclassified: Optional[Access] = None
    for a in trace:
        op, starts, b = table[2 * c + a.pid]
        if starts:
            op_seq[a.pid] += 1
        runs = (op, op_seq[a.pid])
        got = (a.reg, a.action, a.value, a.coin, a.pre, a.post, a.events)
        for d, fields in b:
            if fields == got and (a.op, a.op_seq) == runs:
                break
        else:
            d = _events_only(a, runs, b)
            if misclassified is None:
                misclassified = a
        c = d
    verdict = check_two_process(trace)
    if verdict.ok and misclassified is not None:
        raise CorruptTrace(f"step {misclassified.t}: wrong event classification")
    return verdict


def _events_only(a: Access, runs: tuple[str, int], b: tuple) -> int:
    """The destination of the branch of `b` that `a`, running `runs`,
    matches in all but its events; any other difference raises
    CorruptTrace naming the first field that differs."""
    d, (reg, action, value, coin, pre, post, _) = next(
        (x for x in b if x[1][3] == a.coin), b[0]
    )
    where = f"step {a.t}: P{a.pid}"
    if a.pre != pre:
        raise CorruptTrace(f"{where} steps from {a.pre} but is in {pre}")
    if (a.op, a.op_seq) != runs:
        raise CorruptTrace(f"{where} runs {runs[0]} #{runs[1]}, trace says {a.op} #{a.op_seq}")
    if action == "r" and (a.action, a.reg) == (action, reg) and a.value is not value:
        raise CorruptTrace(f"{where} observed {a.value.value}, register holds {value.value}")
    if (a.action, a.reg, a.value, a.coin) != (action, reg, value, coin):
        raise CorruptTrace(
            f"step {a.t}: {pre} has no access {a.action} R{a.reg} "
            f"{a.value.value} with coin {a.coin}"
        )
    if a.post != post:
        raise CorruptTrace(f"step {a.t}: {pre} goes to {post}, trace says {a.post}")
    return d
