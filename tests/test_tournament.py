import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import linearize, tournament
from wftas.protocol import GROUP
from wftas.tournament import BudgetExceeded, NotOwner, TournamentTree


def test_solo_win_n4():
    tree = TournamentTree(4, random.Random(0).random)
    assert tree.n_tas(0) == 0
    rec = tree.procs[0].records[-1]
    assert rec.accesses == 4  # two uncontended node wins, 2 accesses each
    tree.n_reset(0)
    for node in tree.nodes.values():
        assert all(GROUP[s].value == "rst" for s in node.config)


def test_n2_matches_plain_object():
    tree = TournamentTree(2, random.Random(0).random)
    assert tree.n_tas(0) == 0
    assert tree.n_tas(1) == 1
    tree.n_reset(0)
    assert tree.n_tas(1) == 0


def test_reset_requires_ownership():
    tree = TournamentTree(3, random.Random(0).random)
    with pytest.raises(NotOwner):
        tree.invoke_reset(0)


def test_sequential_reuse():
    tree = TournamentTree(4, random.Random(1).random)
    for pid in (0, 1, 2, 3, 0, 2):
        assert tree.n_tas(pid) == 0
        tree.n_reset(pid)
    history = tree.history()
    assert linearize.check_n_process(history, 4).ok


def test_loser_resets_won_nodes():
    tree = TournamentTree(3, random.Random(0).random)
    assert tree.n_tas(2) == 0  # P2 wins solo
    assert tree.n_tas(0) == 1  # P0 wins its leaf node, loses the root
    left = tree.nodes[2]
    assert all(GROUP[s].value == "rst" for s in left.config)


def test_guided_violation():
    rep = tournament.find_violation(n=3, budget=10, seed=0)
    assert rep.schedule == tournament.GUIDED_SCHEDULE_N3
    assert not rep.verdict.ok
    rets = {r.pid: r.ret for r in rep.history}
    assert rets == {0: 1, 1: 1, 2: 0}
    # the early loser finishes before the winner starts
    by_pid = {r.pid: r for r in rep.history}
    assert by_pid[1].finish < by_pid[2].start


def test_violation_nodes_individually_correct():
    rep = tournament.find_violation(n=3, budget=10, seed=0)
    assert rep.node_verdicts and all(rep.node_verdicts.values())
    for node_id in rep.tree.nodes:
        tr = rep.tree.node_trace(node_id)
        if len(tr):
            assert linearize.lint(tr).ok


def test_n2_no_violation():
    with pytest.raises(BudgetExceeded):
        tournament.find_violation(n=2, budget=300, seed=0)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_schedule_stream(monkeypatch, n, seed):
    """The search tries the schedules of successive `randrange(n)` draws
    from `Random(seed)`, after the guided one for n=3."""
    recorded = []
    real = tournament._run_schedule

    def record(n, schedule, seed):
        recorded.append(list(schedule))
        return real(n, schedule, seed)

    monkeypatch.setattr(tournament, "_run_schedule", record)
    if n == 2:
        with pytest.raises(BudgetExceeded):
            tournament.find_violation(n, 2000, seed)
        assert len(recorded) == 2000
    else:
        tournament.find_violation(n, 2000, seed)
    rng = random.Random(seed)
    expected = [list(tournament.GUIDED_SCHEDULE_N3)] if n == 3 else []
    while len(expected) < len(recorded):
        expected.append([rng.randrange(n) for _ in range(40 * n)])
    assert recorded == expected


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_shared_coin_list(n, seed):
    """Each of a search's first 200 schedules gives the same tree from
    the search's one coin list as from a fresh `Random(seed)` per tree,
    and no tree draws more than the list's `40 * n` coins."""
    rng = random.Random(seed)
    coins = [rng.random() for _ in range(40 * n)]
    schedules = tournament._schedules(random.Random(seed), n)
    first = [tournament.GUIDED_SCHEDULE_N3] if n == 3 else []
    for schedule in first + [next(schedules) for _ in range(200 - len(first))]:
        tree = tournament._run_schedule(n, schedule, coins)
        fresh = random.Random(seed)
        drawn = 0

        def coin():
            nonlocal drawn
            drawn += 1
            return fresh.random()

        ref = TournamentTree(n, coin)
        done = set()
        for pid in schedule:
            if pid in done:
                continue
            if not ref.busy(pid):
                ref.invoke_tas(pid)
            ref.step(pid)
            if not ref.busy(pid):
                done.add(pid)
                if len(done) == n:
                    break
        assert tree.accesses == ref.accesses
        assert tree.history() == ref.history()
        assert drawn <= 40 * n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contention_bookkeeping(data):
    """Under a drawn schedule, an idle process resets if its last tas
    returned 0 and otherwise starts a tas; then it takes one access."""
    n = data.draw(st.sampled_from((2, 3, 4)), label="n")
    seed = data.draw(st.integers(0, 1000), label="seed")
    schedule = data.draw(st.lists(st.integers(0, n - 1), max_size=150), label="schedule")
    tree = TournamentTree(n, random.Random(seed).random)
    for pid in schedule:
        if not tree.busy(pid):
            records = tree.procs[pid].records
            if records and records[-1].kind == "tas" and records[-1].ret == 0:
                tree.invoke_reset(pid)
            else:
                with pytest.raises(NotOwner):
                    tree.invoke_reset(pid)
                tree.invoke_tas(pid)
        tree.step(pid)
    for pid, p in tree.procs.items():
        ops = p.records + ([p.current] if p.current is not None else [])
        assert [r.op_seq for r in ops] == list(range(len(ops)))
        for r in p.records:
            assert r.accesses == sum(
                1 for na in tree.accesses
                if na.pid == pid and r.start <= na.t <= r.finish
            )
    for v in tree.nodes:
        tr = tree.node_trace(v)
        if len(tr):
            assert linearize.lint(tr).ok
