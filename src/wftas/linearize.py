"""Trace-level correctness: FA4 acceptance, linearization-point
extraction, and exhaustive n-process history checking.

A two-process trace is linearizable iff FA4 accepts its projection to
B-events.  On acceptance one accepting FA3 run is reconstructed; the
epsilon firings of that run are the linearization points of the
test-and-set operations (resets linearize at their single access).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .automata import B_EVENT_ID, B_EVENTS, fa3_build
from .checker import model
from .core import Access, CorruptTrace, Event, OpRecord, Trace


class SearchBudgetExceeded(Exception):
    pass


class SeqOp(NamedTuple):
    """One operation in a sequential (linearized) history."""

    pid: int
    kind: str  # "tas" or "reset"
    ret: Optional[int]  # 0/1 for tas, None for reset
    point: int  # linearization point (step index)
    op_seq: int


class Verdict(NamedTuple):
    ok: bool
    # Of an accepted two-process trace: a witness total order with one
    # point per operation.
    order: Optional[tuple[SeqOp, ...]] = None
    # Number of accesses in the shortest rejected trace prefix.
    rejected_prefix: Optional[int] = None


def project_b(trace: Trace) -> list[tuple[int, Event]]:
    """h|B as (access position, event) pairs, after the register replay;
    a composite access contributes its events in order at its position."""
    trace.replay()
    return [(i, e) for i, row in enumerate(trace.rows) for e in row[2][6]]


# The sequential test-and-set: `owner` is the pid that holds the 0, or
# None when the object is free.
_ILLEGAL = -1


def _spec_step(owner: Optional[int], pid: int, kind: str, ret: Optional[int]) -> Optional[int]:
    """The owner after `pid`'s `kind` returns `ret` from `owner`, or
    _ILLEGAL: a tas from the free state returns 0 and takes ownership, a
    tas under another owner returns 1, and a reset by the owner frees
    the object."""
    if kind == "reset":
        return None if owner == pid else _ILLEGAL
    if ret == 0:
        return pid if owner is None else _ILLEGAL
    if ret == 1 and owner is not None and owner != pid:
        return owner
    return _ILLEGAL


def _fa1_legal(order: Sequence[SeqOp]) -> bool:
    """Replay a sequential history through the two-process object spec."""
    owner: Optional[int] = None
    for op in order:
        owner = _spec_step(owner, op.pid, op.kind, op.ret)
        if owner == _ILLEGAL:
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

    # Forward, per B-event: its access position, the DFA state before it
    # and its column.
    dfa = fa3.fa4_dfa
    positions: list[int] = []
    before: list[int] = []
    cols: list[int] = []
    q = 0
    for i, e in project_b(trace):
        col = B_EVENT_ID[e]
        positions.append(i)
        before.append(q)
        cols.append(col)
        q = dfa[q][col]
        if q < 0:
            # Shortest rejected prefix: up to and including this access.
            return Verdict(ok=False, rejected_prefix=i + 1)

    # Backward: the FA3 state after each B-event's epsilon moves, and
    # those moves, one predecessor per B-event.
    pred = fa3.fa4_pred
    y = fa3.fa4_end[q]
    fired: list[tuple[Event, ...]] = [()] * len(cols)
    for k in range(len(cols) - 1, -1, -1):
        y, fired[k] = pred[before[k]][cols[k]][y]

    rows = trace.rows
    # `tuple.__new__` makes the SeqOp that the class call would, without
    # its generated `__new__`.
    new = tuple.__new__
    open_tas = [0, 0]  # op_seq of each pid's latest tas
    order: list[SeqOp] = []
    for i, col, eps in zip(positions, cols, fired):
        t, _, _, op_seq, _ = rows[i]
        e = B_EVENTS[col]
        if e.kind == "sTas":
            open_tas[e.pid] = op_seq
        elif e.kind == "rstOp":
            order.append(new(SeqOp, (e.pid, "reset", None, t, op_seq)))
        for o in eps:
            ret = 0 if o.kind == "tas0" else 1
            order.append(new(SeqOp, (o.pid, "tas", ret, t, open_tas[o.pid])))
    if not _fa1_legal(order):
        raise AssertionError("extracted linearization is not legal")
    return Verdict(ok=True, order=tuple(order))


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
    # tuple() of a list is quicker than of a generator.
    key = (n, budget, tuple([(r.pid, r.kind, r.start, r.finish, r.ret) for r in records]))
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

    # Its own depth-first search, not `search.explore`: it stops at the
    # first complete placement and counts its nodes against `budget`.
    def dfs(placed: frozenset, owner: Optional[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} search nodes")
        if all(i in placed for i in completed):
            return True
        if (placed, owner) in memo:
            return False
        for i, r in enumerate(ops):
            if i in placed or not eligible(i, placed):
                continue
            # A pending tas may be placed with either return value.
            for ret in (0, 1) if r.ret is None and r.kind != "reset" else (r.ret,):
                after = _spec_step(owner, r.pid, r.kind, ret)
                if after != _ILLEGAL and dfs(placed | {i}, after):
                    return True
        memo.add((placed, owner))
        return False

    return Verdict(ok=dfs(frozenset(), None))


def lint(trace: Trace) -> Verdict:
    """Full trace lint: one walk of `checker.model()` from (rst, rst),
    then check_two_process.

    Each access must be one the model gives its process in the
    configuration reached: from its process's state, with the op it
    belongs to and its process's invocation count from 0 as op_seq, a
    write to its own register or a read of the other register's
    content, and the chart's value, coin, post state and B-events.

    A difference in anything but the events raises CorruptTrace at once.
    One in the events alone raises it only if FA4 then accepts the
    trace; otherwise lint returns check_two_process's verdict.
    """
    m = model()
    ops, branches = m.ops, m.branches
    c = 0  # (rst, rst)
    op_seq = [-1, -1]
    misclassified: Optional[Access] = None
    for row in trace.rows:
        t, pid, a_fields, a_op_seq, a_op = row
        if pid not in (0, 1):
            raise CorruptTrace(f"step {t}: bad pid {pid!r}")
        k = 2 * c + pid
        op, starts = ops[k]
        if starts:
            op_seq[pid] += 1
        n = op_seq[pid]
        # No branch matches an access of another op or op_seq.
        got = a_fields if a_op == op and a_op_seq == n else None
        for d, fields, _ in branches[k]:
            if fields == got:
                break
        else:
            a = Access(*row)
            d = _events_only(a, (op, n), branches[k])
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
    d, (reg, action, value, coin, pre, post, _), _ = next(
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
