import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import harness, linearize
from wftas.checker import model
from wftas.core import Access, Trace
from wftas.harness import ScriptExhausted, Workload
from wftas.protocol import IDLE_OP, ProcState as S


def test_solo_run_three_accesses():
    trace, records, stats = harness.run(
        Workload((1, 0)), harness.round_robin(), seed=0
    )
    assert [(a.action, a.value.value) for a in trace] == [
        ("w", "me"), ("r", "rst"), ("w", "rst")
    ]
    assert [r.kind for r in records] == ["tas", "reset"]
    assert records[0].ret == 0


def test_determinism():
    for name in ("round-robin", "random", "optimal"):
        t1, _, s1 = harness.run(
            Workload((10, 10)), harness.builtin_adversaries(5)[name], seed=5
        )
        t2, _, s2 = harness.run(
            Workload((10, 10)), harness.builtin_adversaries(5)[name], seed=5
        )
        assert t1.accesses == t2.accesses
        assert s1.per_op == s2.per_op


def test_resets_always_one_access():
    for seed in range(5):
        _, _, stats = harness.run(
            Workload((50, 50)), harness.random_adversary(seed), seed=seed
        )
        assert stats.resets_all_one_access


def test_exclusivity():
    """At no instant do both processes hold an unreset 0."""
    trace, records, _ = harness.run(
        Workload((50, 50)), harness.random_adversary(3), seed=3
    )
    owner = None
    for r in sorted((r for r in records if r.finished), key=lambda r: r.finish):
        if r.kind == "tas" and r.ret == 0:
            assert owner is None
            owner = r.pid
        elif r.kind == "reset":
            assert owner == r.pid
            owner = None


def test_script_reaches_me_me(check_report, rep_sets):
    trace, _, _ = harness.run(
        Workload((1, 1)), harness.script([0, 1]), seed=0, max_steps=2
    )
    # both wrote me: configuration (me, me)
    assert [a.value.value for a in trace] == ["me", "me"]
    letters = check_report.labels.letters_for(rep_sets[(S.ME, S.ME)])
    assert letters == "imoq"


def test_script_exhausted():
    with pytest.raises(ScriptExhausted):
        harness.run(Workload((1, 1)), harness.script([0]), seed=0)


def test_truncation_recorded():
    _, _, stats = harness.run(
        Workload((5, 5)), harness.round_robin(), seed=0, max_steps=3
    )
    assert stats.truncated


def test_traces_linearizable():
    for name, adv in harness.builtin_adversaries(11).items():
        trace, _, _ = harness.run(Workload((25, 25)), adv, seed=11)
        assert linearize.lint(trace).ok, name


def test_measure_from_config_counts():
    counts = harness.measure_from_config((S.TST0, S.RST), 20, seed=0)
    # reset from tst0 is always exactly one access
    assert counts == [1] * 20


def test_loop_experiment_small():
    exp = harness.loop_experiment(min_visits=500, seed=9)
    assert exp.n >= 500
    assert 0 < exp.empirical_frequency < 1
    assert exp.analytic_frequency <= 0.5 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 1), max_size=300))
def test_engine_steps_like_the_model(seed, schedule):
    """Each access the engine builds is the one an idle-op lookup and a
    branch of `model()` give, with the coins of the same generator."""
    m = model()
    eng = harness._Engine(random.Random(seed).random)
    rng = random.Random(seed)
    cid, op_seq, mid_op = 0, [-1, -1], [None, None]
    trace = Trace()
    for t, pid in enumerate(schedule):
        if mid_op[pid] is None:
            op_seq[pid] += 1
            mid_op[pid] = IDLE_OP[m.configs[cid][pid]]
        cid, coin, move = harness._take(m.branches[2 * cid + pid], rng.random)
        expected = Access(
            t=t,
            pid=pid,
            reg=pid if move.action == "w" else 1 - pid,
            action=move.action,
            value=move.value,
            coin=coin,
            pre=move.pre_name,
            post=move.post_name,
            events=move.events[pid],
            op_seq=op_seq[pid],
            op=mid_op[pid],
        )
        if move.finishes:
            mid_op[pid] = None
        a = eng.step_pid(pid)
        assert a == expected
        assert [type(getattr(a, f)) for f in Access.__slots__] == [
            type(getattr(expected, f)) for f in Access.__slots__
        ]
        assert (eng.cid, eng.t, eng.op_seq) == (cid, t + 1, op_seq)
        assert [eng.idle(p) for p in (0, 1)] == [mid_op[p] is None for p in (0, 1)]
        trace.append(a)
    assert linearize.lint(trace).ok
