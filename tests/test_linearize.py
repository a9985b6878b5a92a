import dataclasses
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import harness, linearize, protocol
from wftas.automata import B_EVENTS, fa3_build
from wftas.core import Access, CorruptTrace, Event, OpRecord, RegValue, Trace
from wftas.harness import Workload
from wftas.linearize import check_n_process, check_two_process, lint


def _run(workload, adversary, seed):
    trace, records, _ = harness.run(workload, adversary, seed=seed)
    return trace, records


def test_solo_witness():
    trace, _ = _run(Workload((1, 0)), harness.round_robin(), 0)
    v = check_two_process(trace)
    assert v.ok
    order = v.linearization.order
    assert [(o.pid, o.kind, o.ret) for o in order] == [
        (0, "tas", 0), (0, "reset", None)
    ]
    # linearization points lie inside the operation intervals
    assert 0 <= order[0].point <= 1
    assert order[1].point == 2


def test_round_robin_linearizable():
    trace, _ = _run(Workload((200, 200)), harness.round_robin(), 1)
    assert check_two_process(trace).ok


def test_random_seed42_regression():
    trace, _ = _run(Workload((500, 500)), harness.random_adversary(42), 42)
    assert check_two_process(trace).ok


def _corrupt_both_return_one(seed=1):
    """A replay-consistent trace where the winner's finish is forged to
    return 1, so both concurrent tas operations return 1."""
    trace, _ = _run(Workload((5, 5)), harness.round_robin(), seed)
    accesses = []
    forged = False
    for a in trace:
        if not forged and any(e.kind == "fTas0" for e in a.events):
            events = tuple(
                Event("fTas1", e.pid) if e.kind == "fTas0" else e
                for e in a.events
            )
            a = dataclasses.replace(a, events=events)
            forged = True
        accesses.append(a)
    assert forged
    return Trace(accesses)


def test_corrupt_trace_rejected():
    bad = _corrupt_both_return_one()
    v = check_two_process(bad)
    assert not v.ok
    assert v.rejected_prefix is not None


def test_rejection_monotone_under_extension():
    bad = _corrupt_both_return_one()
    v = check_two_process(bad)
    shorter = Trace(bad.accesses[: v.rejected_prefix])
    v2 = check_two_process(shorter)
    assert not v2.ok
    assert v2.rejected_prefix == v.rejected_prefix


def test_lint_catches_tampered_state():
    trace, _ = _run(Workload((2, 2)), harness.round_robin(), 0)
    accesses = list(trace.accesses)
    accesses[1] = dataclasses.replace(accesses[1], post="he")
    with pytest.raises(CorruptTrace):
        lint(Trace(accesses))


def test_lint_requires_start_from_rst():
    trace, _ = _run(Workload((2, 2)), harness.round_robin(), 0)
    accesses = list(trace.accesses)
    accesses[0] = dataclasses.replace(accesses[0], pre="free", events=())
    with pytest.raises(CorruptTrace, match="steps from free but is in rst"):
        lint(Trace(accesses))


@pytest.mark.parametrize("field, value", [("op", "reset"), ("op_seq", 99)])
def test_lint_checks_op_and_op_seq(field, value):
    trace, _ = _run(Workload((3, 3)), harness.round_robin(), 1)
    accesses = list(trace.accesses)
    i = next(i for i, a in enumerate(accesses) if i > 0 and a.op == "tas")
    accesses[i] = dataclasses.replace(accesses[i], **{field: value})
    with pytest.raises(CorruptTrace, match=r"runs tas #\d+, trace says"):
        lint(Trace(accesses))


def test_lint_check_order():
    # Chart-conforming but with a forged return: FA4 rejects it before
    # the classification pass could call it corrupt.
    v = lint(_corrupt_both_return_one())
    assert not v.ok and v.rejected_prefix is not None
    # A stale read that the chart allows fails the register replay.
    trace, _ = _run(Workload((2, 2)), harness.round_robin(), 0)
    a = next(a for a in trace if a.action == "r" and a.coin is None)
    stale = next(v for v in RegValue if v is not a.value)
    move = protocol.CHART[(protocol.ProcState(a.pre), stale, None)]
    forged = dataclasses.replace(a, value=stale, post=move.post_name,
                                 events=move.events[a.pid])
    prefix = [b for b in trace if b.t < a.t]
    with pytest.raises(CorruptTrace, match="observed"):
        lint(Trace(prefix + [forged]))


def _lint_reference(trace):
    """lint as three passes (chart conformance per process, then
    check_two_process, then event classification), kept as the
    reference for the one-walk lint."""
    moves = []
    at = [(protocol.ProcState.RST, "rst")] * 2
    op_seq = [-1, -1]
    open_op = [None, None]
    for a in trace:
        s, name = at[a.pid]
        if a.pre != name:
            raise CorruptTrace(f"step {a.t}: P{a.pid} steps from {a.pre} but is in {name}")
        if open_op[a.pid] is None:
            op_seq[a.pid] += 1
            open_op[a.pid] = protocol.IDLE_OP[s]
        if (a.op, a.op_seq) != (open_op[a.pid], op_seq[a.pid]):
            raise CorruptTrace(f"step {a.t}: P{a.pid} runs {open_op[a.pid]}")
        move = protocol.CHART.get((s, None if a.action == "w" else a.value, a.coin))
        if move is None or move.value is not a.value:
            raise CorruptTrace(f"step {a.t}: {a.pre} has no such access")
        if move.post_name != a.post:
            raise CorruptTrace(f"step {a.t}: goes to {move.post_name}")
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


def _verdict_or_corrupt(lint_fn, trace):
    try:
        v = lint_fn(trace)
    except CorruptTrace:
        return "corrupt"
    return (v.ok, v.rejected_prefix, v.linearization)


@functools.lru_cache(maxsize=None)
def _simulated_lines(seed):
    trace, _ = _run(Workload((4, 4)), harness.random_adversary(seed), seed)
    return tuple(a.to_json() for a in trace)


_EVENT_LISTS = ([], ["sTas"], ["fTas0"], ["fTas1"], ["rstOp"], ["sTas", "fTas1"])
# test_cli's fuzz menu, without the values the trace parser rejects,
# plus every state and register value.
_FIELD_EDITS = {
    "t": (0, 1, -1, 2, 7),
    "pid": (0, 1),
    "op_seq": (0, 1, -1, 2, 7),
    "op": ("tas", "reset"),
    "reg": ("R0", "R1"),
    "action": ("r", "w"),
    "value": tuple(v.value for v in RegValue),
    "coin": (None, True, False),
    "pre": tuple(s.value for s in protocol.ProcState),
    "post": tuple(s.value for s in protocol.ProcState),
    "events": _EVENT_LISTS,
}


def _forge(lines, data):
    """One forgery drawn by `data`, applied to the JSON objects `lines`."""
    kind = data.draw(st.sampled_from((
        "field", "events", "drop", "duplicate", "swap", "stale read", "other register",
    )), label="forgery")
    if kind in ("stale read", "other register"):
        action = "r" if kind == "stale read" else "w"
        i = data.draw(st.sampled_from([i for i, o in enumerate(lines) if o["action"] == action]))
    else:
        i = data.draw(st.integers(0, len(lines) - 2), label="at")
    obj = lines[i]
    if kind == "field":
        key = data.draw(st.sampled_from(sorted(_FIELD_EDITS)), label="field")
        obj[key] = data.draw(st.sampled_from(_FIELD_EDITS[key]), label="value")
    elif kind == "events":
        obj["events"] = data.draw(st.sampled_from(_EVENT_LISTS), label="events")
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, dict(obj))
    elif kind == "swap":
        lines[i], lines[i + 1] = lines[i + 1], obj
    elif kind == "other register":
        obj["reg"] = f"R{1 - obj['pid']}"
    else:
        # A read of another value that the chart allows from its state,
        # with that read's coin, post state and events.
        pre = protocol.ProcState(obj["pre"])
        value = data.draw(st.sampled_from([v for v in RegValue if v.value != obj["value"]]))
        coin = data.draw(st.booleans()) if protocol.needs_coin(pre, value) else None
        move = protocol.CHART[(pre, value, coin)]
        obj.update(value=value.value, coin=coin, post=move.post_name,
                   events=[e.kind for e in move.events[obj["pid"]]])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 20), st.integers(1, 3), st.data())
def test_lint_agrees_with_three_pass_reference(seed, n_forgeries, data):
    """On a simulated trace with one to three forgeries, the one-walk
    lint and the three-pass reference both call the trace corrupt, or
    both return the same verdict and linearization."""
    lines = [json.loads(line) for line in _simulated_lines(seed)]
    for _ in range(n_forgeries):
        _forge(lines, data)
    try:
        trace = Trace([Access.from_json(json.dumps(obj)) for obj in lines])
    except CorruptTrace:
        return  # the parser rejects it before either lint runs
    assert _verdict_or_corrupt(lint, trace) == _verdict_or_corrupt(_lint_reference, trace)


def test_lint_agrees_with_reference_on_every_events_forgery():
    """Every single-access events forgery of one simulated trace, and of
    the same trace with a forged return that FA4 rejects: the one-walk
    lint and the three-pass reference agree on each."""
    verdicts = set()
    for base in (_run(Workload((5, 5)), harness.round_robin(), 1)[0],
                 _corrupt_both_return_one()):
        for i, a in enumerate(base):
            for kinds in _EVENT_LISTS:
                accesses = list(base)
                accesses[i] = dataclasses.replace(
                    a, events=tuple(Event(k, a.pid) for k in kinds))
                trace = Trace(accesses)
                v = _verdict_or_corrupt(lint, trace)
                assert v == _verdict_or_corrupt(_lint_reference, trace), (i, kinds)
                verdicts.add(v if v == "corrupt" else v[0])
    assert verdicts == {"corrupt", True, False}


def _word_trace(word):
    """A register-consistent trace of one write per B-event, each with
    the op and op_seq of its process's current operation."""
    accesses = []
    op_seq, open_tas = [-1, -1], [False, False]
    for t, e in enumerate(word):
        if not open_tas[e.pid]:
            op_seq[e.pid] += 1
        open_tas[e.pid] = e.kind == "sTas"
        accesses.append(Access(
            t=t, pid=e.pid, reg=e.pid, action="w", value=RegValue.ME,
            coin=None, pre="me", post="me", events=(e,),
            op_seq=op_seq[e.pid], op="reset" if e.kind == "rstOp" else "tas",
        ))
    return Trace(accesses)


def _accepted_words(max_len):
    """Every B-event word of at most max_len events that the FA4 DFA
    accepts, with the DFA state it leads to, shortest first."""
    dfa = fa3_build().fa4_dfa
    words = [((), 0)]
    for word, q in words:  # extended while it is walked
        if len(word) < max_len:
            words += [(word + (e,), dfa[q][col])
                      for col, e in enumerate(B_EVENTS) if dfa[q][col] >= 0]
    return words


def _assert_witness(word):
    trace = _word_trace(word)
    records = trace.op_records()
    v = check_two_process(trace)
    assert v.ok
    order = v.linearization.order
    by_op = {(r.pid, r.op_seq): r for r in records}
    # Exactly one SeqOp per operation, pending ones included.
    assert sorted((o.pid, o.op_seq) for o in order) == sorted(by_op)
    for o in order:
        r = by_op[o.pid, o.op_seq]
        assert o.kind == r.kind
        assert r.start <= o.point and (r.finish is None or o.point <= r.finish)
        assert r.finish is None or o.ret == r.ret
    assert linearize._fa1_legal(order)
    assert check_n_process(records, 2).ok
    return order


def test_witness_on_every_accepted_word():
    """Every accepted word of up to 10 B-events gets a legal witness
    inside the operation intervals, and every one-event extension that
    FA4 rejects is rejected at its last access."""
    # Both tas operations start before either finishes, and the second
    # one wins: the run must fire tas0(1) before tas1(0).
    late_winner = (Event("sTas", 0), Event("sTas", 1), Event("fTas1", 0), Event("fTas0", 1))
    order = _assert_witness(late_winner)
    assert [(o.pid, o.ret, o.point) for o in order] == [(1, 0, 1), (0, 1, 1)]
    dfa = fa3_build().fa4_dfa
    words = _accepted_words(10)
    assert len(words) == 5993
    for word, q in words:
        _assert_witness(word)
        for col, e in enumerate(B_EVENTS):
            if dfa[q][col] < 0:
                v = check_two_process(_word_trace(word + (e,)))
                assert not v.ok and v.rejected_prefix == len(word) + 1


def test_n_process_trivial_sequential():
    recs = [
        OpRecord(pid=0, kind="tas", op_seq=0, start=0, finish=1, ret=0),
        OpRecord(pid=0, kind="reset", op_seq=1, start=2, finish=3),
    ]
    assert check_n_process(recs, 1).ok


def test_n_process_concurrent_single_winner():
    recs = [
        OpRecord(pid=i, kind="tas", op_seq=0, start=0, finish=10, ret=int(i != 1))
        for i in range(3)
    ]
    assert check_n_process(recs, 3).ok


def test_n_process_two_winners_rejected():
    recs = [
        OpRecord(pid=0, kind="tas", op_seq=0, start=0, finish=1, ret=0),
        OpRecord(pid=1, kind="tas", op_seq=0, start=2, finish=3, ret=0),
    ]
    assert not check_n_process(recs, 2).ok


def test_n_process_late_loser_rejected():
    # loser finishes before any winner starts: nobody could own the 0
    recs = [
        OpRecord(pid=0, kind="tas", op_seq=0, start=0, finish=1, ret=1),
        OpRecord(pid=1, kind="tas", op_seq=0, start=2, finish=3, ret=0),
    ]
    assert not check_n_process(recs, 2).ok


def test_n_process_search_budget_guard():
    recs = [
        OpRecord(pid=0, kind="tas", op_seq=0, start=0, finish=1, ret=0),
        OpRecord(pid=1, kind="tas", op_seq=0, start=2, finish=3, ret=1),
    ]
    assert check_n_process(recs, 2).ok
    with pytest.raises(linearize.SearchBudgetExceeded):
        check_n_process(recs, 2, budget=1)


@st.composite
def _n_process_history(draw):
    n = draw(st.sampled_from((2, 3, 4)), label="n")
    records = []
    for _ in range(draw(st.integers(0, 5), label="ops")):
        kind = draw(st.sampled_from(("tas", "reset")))
        start = draw(st.integers(0, 12))
        finish = draw(st.none() | st.integers(start, 14))
        ret = draw(st.sampled_from((0, 1))) if kind == "tas" and finish is not None else None
        records.append(OpRecord(pid=draw(st.integers(0, n - 1)), kind=kind, op_seq=0,
                                start=start, finish=finish, ret=ret))
    return n, records


@settings(max_examples=200, deadline=None)
@given(_n_process_history(), st.data())
def test_n_process_memo_follows_the_records(history, data):
    """A memoized verdict equals the uncached search, on a first call, on
    a repeat and after a record's finish or ret changes in place."""
    n, records = history
    expected = linearize._search_n_process(records, n, 2_000_000)
    assert check_n_process(records, n) == expected
    assert check_n_process(records, n) == expected
    if records:
        r = data.draw(st.sampled_from(records), label="changed")
        if data.draw(st.booleans(), label="change finish"):
            r.finish = data.draw(st.none() | st.integers(r.start, 14), label="finish")
        else:
            r.ret = data.draw(st.sampled_from((0, 1, None)), label="ret")
        assert check_n_process(records, n) == linearize._search_n_process(records, n, 2_000_000)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_two_checker_agreement(seed, ops_per_proc):
    """check_two_process and check_n_process(n=2) agree on accepts."""
    trace, records = _run(
        Workload((ops_per_proc, ops_per_proc)),
        harness.random_adversary(seed),
        seed,
    )
    v2 = check_two_process(trace)
    vn = check_n_process([r for r in records if r.finished], 2)
    assert v2.ok == vn.ok == True  # noqa: E712
