import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import harness, linearize, protocol
from wftas.core import CorruptTrace, Event, OpRecord, RegValue, Trace
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
