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
            Workload((10, 10)), harness.adversary(name, 5), seed=5
        )
        t2, _, s2 = harness.run(
            Workload((10, 10)), harness.adversary(name, 5), seed=5
        )
        assert t1.accesses == t2.accesses
        assert s1.per_op == s2.per_op


def test_resets_always_one_access():
    for seed in range(5):
        _, _, stats = harness.run(
            Workload((50, 50)), harness.random_adversary(seed), seed=seed
        )
        assert stats.resets_all_one_access


@pytest.mark.parametrize("seed", (0, 1, 13, 2**40 + 7))
def test_random_adversary_picks_as_rng_choice(seed):
    """The bulk-drawn picks equal `rng.choice` over one- and two-pid
    tuples in any mix, for more picks than one block of draws holds."""
    mix = random.Random(-seed)
    tuples = [mix.choice(((0,), (1,), (0, 1))) for _ in range(5000)]
    adv, rng = harness.random_adversary(seed), random.Random(seed)
    assert [adv((), None, s) for s in tuples] == [rng.choice(s) for s in tuples]
    with pytest.raises(ValueError, match="at most 2 pids"):
        adv((), None, (0, 1, 2))


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


def test_unknown_adversary_name():
    with pytest.raises(ValueError, match="^unknown adversary 'fair'$"):
        harness.adversary("fair", 0)


def test_truncation_recorded():
    _, _, stats = harness.run(
        Workload((5, 5)), harness.round_robin(), seed=0, max_steps=3
    )
    assert stats.truncated


def test_traces_linearizable():
    for name in ("round-robin", "random", "optimal"):
        trace, _, _ = harness.run(Workload((25, 25)), harness.adversary(name, 11), seed=11)
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
@given(st.integers(0, 2**32), st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_engine_steps_like_the_model(seed, schedule):
    """Each access `run` makes under a scripted schedule is the access
    an idle-op lookup and a branch of `model()` give, with the coins of
    the same generator, and each decision is shown the configuration
    that those branches reach, in which the model's idle pids are those
    with no operation open."""
    m = model()
    rng = random.Random(seed)
    cid, op_seq, mid_op = 0, [-1, -1], [None, None]
    expected, shown, idle = [], [], []
    for t, pid in enumerate(schedule):
        shown.append(m.configs[cid])
        idle.append([mid_op[p] is None for p in (0, 1)])
        if mid_op[pid] is None:
            op_seq[pid] += 1
            mid_op[pid] = IDLE_OP[m.configs[cid][pid]]
        # The branch the generator picks, and its coin: a coin read's two
        # outcomes are heads, then tails.
        b = m.branches[2 * cid + pid]
        j = harness._take(range(len(b)), rng.random)
        coin = (True, False)[j] if len(b) == 2 else None
        cid, _, move = b[j]
        expected.append(Access(
            t=t,
            pid=pid,
            fields=(pid if move.action == "w" else 1 - pid, move.action, move.value, coin,
                    move.pre_name, move.post_name, move.events[pid]),
            op_seq=op_seq[pid],
            op=mid_op[pid],
        ))
        if move.finishes:
            mid_op[pid] = None
    log = []
    # Each process's budget outlasts the schedule, so every pid stays
    # schedulable and the run stops at the schedule's end.
    trace, _, _ = harness.run(Workload((len(schedule), len(schedule))),
                              _logged(harness.script(schedule), log),
                              seed, max_steps=len(schedule))
    assert trace.accesses == expected
    for a, e in zip(trace, expected):
        assert [type(getattr(a, f)) for f in Access.__slots__] == [
            type(getattr(e, f)) for f in Access.__slots__
        ]
        assert [type(x) for x in a.fields] == [type(x) for x in e.fields]
    assert [config for _, config, _ in log] == shown
    assert [[m.ops[2 * m.index[c] + p][1] for p in (0, 1)] for c in shown] == idle
    assert linearize.lint(trace).ok


@pytest.mark.parametrize("adversary", ["round-robin", "random", "optimal"])
def test_run_accesses_hold_their_branch_fields(adversary):
    """Each access of a run holds the `fields` object of the model
    branch it took, not a copy."""
    m = model()
    trace, _, _ = harness.run(Workload((40, 40)), harness.adversary(adversary, 2), seed=2)
    cid = 0
    for a in trace:
        taken = [d for d, fields, _ in m.branches[2 * cid + a.pid] if fields is a.fields]
        assert len(taken) == 1, a
        cid = taken[0]


def _run_reference(workload, adversary, seed, max_steps):
    """A plain version of `harness.run`'s loop, which reads the
    schedulable pids from the model's ops entry by entry."""
    coin = random.Random(seed).random
    ops, branches, configs = model().ops, model().branches, model().configs
    remaining = list(workload.tas_ops)
    trace = Trace()
    cid, op_seq = 0, [-1, -1]
    t = 0
    truncated = False
    while True:
        schedulable = []
        for pid in (0, 1):
            op, starts = ops[2 * cid + pid]
            if not starts or op == "reset" or remaining[pid] > 0:
                schedulable.append(pid)
        if not schedulable:
            break
        if t >= max_steps:
            truncated = True
            break
        pid = adversary(trace.rows, configs[cid], tuple(schedulable))
        if pid not in schedulable:
            raise ValueError(f"adversary scheduled unschedulable P{pid}")
        op, starts = ops[2 * cid + pid]
        if starts:
            op_seq[pid] += 1
            if op == "tas":
                remaining[pid] -= 1
        cid, fields, _ = harness._take(branches[2 * cid + pid], coin)
        trace.append(Access(t, pid, fields, op_seq[pid], op))
        t += 1
    records = trace.op_records()
    return trace, records, harness.RunStats.from_records(records, truncated)


def _logged(adversary, log):
    """`adversary`, logging what it is shown at each decision."""
    def choose(rows, config, schedulable):
        log.append((len(rows), config, schedulable))
        return adversary(rows, config, schedulable)
    return choose


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["round-robin", "random", "optimal"]),
    st.integers(0, 2**16),
    st.tuples(st.integers(0, 25), st.integers(0, 25)),
    st.sampled_from([harness.DEFAULT_MAX_STEPS, 1, 9, 60]),
)
def test_run_matches_reference_loop(adversary, seed, ops, max_steps):
    """The run loop on per-entry "forced" flags makes the same trace,
    records and statistics as the entry-by-entry loop, truncated runs
    included, and shows its adversary the same decisions."""
    logs = [], []
    got = harness.run(Workload(ops),
                      _logged(harness.adversary(adversary, seed), logs[0]),
                      seed, max_steps)
    want = _run_reference(Workload(ops),
                          _logged(harness.adversary(adversary, seed), logs[1]),
                          seed, max_steps)
    assert got[0].accesses == want[0].accesses
    assert got[1:] == want[1:]
    assert logs[0] == logs[1]
