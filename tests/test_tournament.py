import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import linearize, protocol, tournament
from wftas.checker import model
from wftas.core import Access, OpRecord, Trace
from wftas.harness import _take
from wftas.protocol import GROUP
from wftas.tournament import BudgetExceeded, NodeAccess, NotOwner, TournamentTree


def _astuple(record):
    """The fields of `record`, in order."""
    return tuple(getattr(record, f) for f in record.__slots__)


def test_solo_win_n4():
    tree = TournamentTree(4, random.Random(0).random)
    assert tree.n_tas(0) == 0
    rec = tree.procs[0].records[-1]
    assert rec.accesses == 4  # two uncontended node wins, 2 accesses each
    tree.n_reset(0)
    for cid in tree.nodes.values():
        assert all(GROUP[s].value == "rst" for s in model().configs[cid])


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
    left = model().configs[tree.nodes[2]]
    assert all(GROUP[s].value == "rst" for s in left)


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
    from `Random(seed)`, after the guided one for n=3.  Every schedule
    is looked up in the step-path trie first, so the lookups record
    them all, those served from the trie included."""
    recorded = []
    real = tournament._StepTrie.lookup

    def record(trie, schedule):
        recorded.append(list(schedule))
        return real(trie, schedule)

    monkeypatch.setattr(tournament._StepTrie, "lookup", record)
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
def test_checked_histories_match_fresh_runs(monkeypatch, n, seed):
    """The history the search checks for each schedule, served from the
    step-path trie or not, equals in every field the finished history
    of a fresh run; and an n=2 search checks each of its schedules."""
    schedules, checked, runs = [], [], []
    lookup, check = tournament._StepTrie.lookup, linearize.check_n_process
    run = tournament._run_schedule

    def record_run(n, schedule, coins):
        runs.append(schedule)
        return run(n, schedule, coins)

    def record_lookup(trie, schedule):
        schedules.append(schedule)
        return lookup(trie, schedule)

    def record_check(history, n):
        checked.append([_astuple(r) for r in history])
        return check(history, n)

    monkeypatch.setattr(tournament._StepTrie, "lookup", record_lookup)
    monkeypatch.setattr(linearize, "check_n_process", record_check)
    monkeypatch.setattr(tournament, "_run_schedule", record_run)
    if n == 2:
        with pytest.raises(BudgetExceeded):
            tournament.find_violation(n, 2000, seed)
        assert len(checked) == 2000
        assert len(runs) < 2000 / 4  # most n=2 schedules repeat a step path
    else:
        tournament.find_violation(n, 2000, seed)
    rng = random.Random(seed)
    coins = [rng.random() for _ in range(40 * n)]
    assert len(checked) == len(schedules)
    for schedule, history in zip(schedules, checked):
        tree = tournament._run_schedule(n, schedule, coins)
        assert history == [_astuple(r) for r in tree.history() if r.finished]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_trie_serves_only_paths_run_to_the_end(monkeypatch, n):
    """The trie gives a history only for a step path that an earlier run
    took until every process returned, skips the entries of a schedule
    that name a process that has returned, and still serves a path
    after other runs branch off it; `size` counts the trie's nodes."""
    monkeypatch.setattr(tournament, "_TRIE_MAX", 10**6)
    rng = random.Random(5)
    coins = [rng.random() for _ in range(40 * n)]
    schedules = tournament._schedules(rng, n)
    trie = tournament._StepTrie(n)
    served = []
    for _ in range(300):
        tree = tournament._run_schedule(n, next(schedules), coins)
        path = [entry[0] for entry in tree._log]
        history = [r for r in tree.history() if r.finished]
        seen = trie.lookup(path)
        if seen is not None:
            assert seen == tuple(history)
            continue
        short = tournament._run_schedule(n, path[:-1], coins)
        size = trie.size
        trie.record(short, [r for r in short.history() if r.finished])
        assert trie.size == size
        assert trie.lookup(path[:-1]) is None
        trie.record(tree, history)
        stored = trie.lookup(path)
        assert stored == tuple(history)
        # the process that returns first, named again before each later access
        first = min(tree.procs.values(), key=lambda p: p.records[0].finish).records[0]
        late = path[:first.finish + 1]
        for pid in path[first.finish + 1:]:
            late += [first.pid, pid]
        served += [(path, stored), (late, stored)]
    for schedule, stored in served:
        assert trie.lookup(schedule) is stored
    nodes, count, marked = [trie.root], 0, 0
    while nodes:
        node = nodes.pop()
        count += 1
        marked += tournament._FINISHED in node
        nodes += [c for c in node if type(c) is list]
    assert count == trie.size
    # With n=2 a run's path branches no more once one process returned.
    assert marked or n == 2


def _trie_shape(node):
    """A trie node's contents, its child nodes walked."""
    return tuple(_trie_shape(c) if type(c) is list else c for c in node)


def _trie_nodes(trie):
    nodes, count = [trie.root], 0
    while nodes:
        node = nodes.pop()
        count += 1
        nodes += [c for c in node if type(c) is list]
    return count


@pytest.mark.parametrize("n", (2, 3))
def test_trie_cap_counts_only_new_nodes(monkeypatch, n):
    """A path that shares nodes with recorded paths needs room only for
    the accesses past the deepest node it shares: one that needs exactly
    the free nodes is recorded, one that needs a node more is refused and
    leaves the trie as it was."""
    rng = random.Random(5)
    coins = [rng.random() for _ in range(40 * n)]
    schedules = tournament._schedules(rng, n)
    trie = tournament._StepTrie(n)

    def new_run():
        # The next run whose path the trie does not hold.
        while True:
            tree = tournament._run_schedule(n, next(schedules), coins)
            path = [entry[0] for entry in tree._log]
            if trie.lookup(path) is None:
                return tree, path, [r for r in tree.history() if r.finished]

    def needed(path):
        # The accesses before the last one past the nodes that path shares.
        node, shared = trie.root, 0
        while shared < len(path) - 1 and type(node[path[shared]]) is list:
            node = node[path[shared]]
            shared += 1
        return len(path) - 1 - shared

    tree, path, history = new_run()
    trie.record(tree, history)
    assert trie.size == len(path)
    tree, path, history = new_run()
    while needed(path) in (0, len(path) - 1):  # shares some nodes, adds some
        tree, path, history = new_run()
    monkeypatch.setattr(tournament, "_TRIE_MAX", trie.size + needed(path))
    trie.record(tree, history)
    assert trie.lookup(path) == tuple(history)
    assert trie.size == tournament._TRIE_MAX
    tree, path, history = new_run()
    while needed(path) == 0:
        tree, path, history = new_run()
    monkeypatch.setattr(tournament, "_TRIE_MAX", trie.size + needed(path) - 1)
    size, shape = trie.size, _trie_shape(trie.root)
    trie.record(tree, history)
    assert trie.lookup(path) is None
    assert (trie.size, _trie_shape(trie.root)) == (size, shape)
    assert trie.size == _trie_nodes(trie)


# `_run_schedule` calls of `find_violation(2, 2000, seed)` with the
# trie of 512 nodes and leaves that preceded the per-access nodes.
_N2_RUNS_BEFORE = {0: 256, 1: 230, 3: 224, 7: 256, 9: 267, 11: 218}


@pytest.mark.parametrize("seed", sorted(_N2_RUNS_BEFORE))
def test_n2_search_runs_no_more_schedules(monkeypatch, seed):
    """The trie serves an n=2 search at least as many of its 2,000
    schedules as before: the search runs no more of them."""
    runs = 0
    run = tournament._run_schedule

    def count_run(n, schedule, coins):
        nonlocal runs
        runs += 1
        return run(n, schedule, coins)

    monkeypatch.setattr(tournament, "_run_schedule", count_run)
    with pytest.raises(BudgetExceeded):
        tournament.find_violation(2, 2000, seed)
    assert runs <= _N2_RUNS_BEFORE[seed]


def _report_fields(n, seed):
    try:
        rep = tournament.find_violation(n, 2000, seed)
    except BudgetExceeded as exc:
        return str(exc)
    return (rep.schedule, rep.history, rep.verdict, rep.node_verdicts,
            rep.tree.accesses)


@pytest.mark.parametrize("seed", (0, 1, 3, 7))
def test_capped_trie_gives_same_report(monkeypatch, seed):
    """With a trie cap that the search soon reaches, an n=4 search
    returns the same report, or runs out of budget the same way, and
    the trie never holds more nodes than the cap."""
    expected = _report_fields(4, seed)
    cap = 200
    sizes = []
    record = tournament._StepTrie.record

    def record_size(trie, tree, history):
        before = trie.size
        record(trie, tree, history)
        sizes.append((before, trie.size))

    monkeypatch.setattr(tournament, "_TRIE_MAX", cap)
    monkeypatch.setattr(tournament._StepTrie, "record", record_size)
    assert _report_fields(4, seed) == expected
    assert max(after for _, after in sizes) <= cap
    assert any(after == before for before, after in sizes)  # a path was refused


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


class _OracleEngine:
    """A node as the tree once ran it: `step_pid` builds the Access."""

    def __init__(self, coin):
        self.coin = coin
        self.model = model()
        self.cid = 0
        self.op_seq = [-1, -1]
        self.t = 0

    @property
    def config(self):
        return self.model.configs[self.cid]

    def idle(self, pid):
        return self.model.ops[2 * self.cid + pid][1]

    def step_pid(self, pid):
        k = 2 * self.cid + pid
        op, starts = self.model.ops[k]
        if starts:
            self.op_seq[pid] += 1
        self.cid, fields, _ = _take(self.model.branches[k], self.coin)
        a = Access(self.t, pid, fields, self.op_seq[pid], op)
        self.t += 1
        return a


class _OracleProc:
    def __init__(self, pid, path, roles):
        self.pid = pid
        self.path = path
        self.roles = roles
        self.op = None
        self.descending = False
        self.level = 0
        self.records = []
        self.current = None


class _OracleTree:
    """The tournament tree that builds a NodeAccess and an Access per
    access as it steps: the reference for the logged tree."""

    def __init__(self, n, coin):
        self.n = n
        self.nodes = {v: _OracleEngine(coin) for v in range(1, 2 if n == 2 else 4)}
        n_leaves = 2 if n == 2 else 4
        self.procs = {}
        for pid in range(n):
            path, roles = [], []
            v = n_leaves + pid
            while v > 1:
                roles.append(v % 2)
                v //= 2
                path.append(v)
            self.procs[pid] = _OracleProc(pid, tuple(path), tuple(roles))
        self.t = 0
        self.accesses = []

    def _invoke(self, pid, kind):
        p = self.procs[pid]
        if p.op is not None:
            raise ValueError(f"P{pid} is mid-operation")
        holds_zero = p.level == len(p.path)
        if kind == "tas" and holds_zero:
            raise ValueError(f"P{pid} holds the 0 and must reset first")
        if kind == "reset" and not holds_zero:
            raise NotOwner(f"P{pid} does not hold the 0")
        p.op = kind
        p.descending = kind == "reset"
        p.current = OpRecord(pid=pid, kind=kind, op_seq=len(p.records), start=self.t)

    def invoke_tas(self, pid):
        self._invoke(pid, "tas")

    def invoke_reset(self, pid):
        self._invoke(pid, "reset")

    def busy(self, pid):
        return self.procs[pid].op is not None

    def step(self, pid):
        p = self.procs[pid]
        if p.op is None:
            raise ValueError(f"P{pid} has no operation in progress")
        i = p.level - 1 if p.descending else p.level
        node_id, role = p.path[i], p.roles[i]
        nd = self.nodes[node_id]
        nd.t = self.t
        self.accesses.append(NodeAccess(self.t, pid, node_id, role, nd.step_pid(role)))
        self.t += 1
        p.current.accesses += 1
        if not nd.idle(role):
            return
        if p.descending:
            p.level -= 1
        elif protocol.returns_value(nd.config[role]) == 0:
            p.level += 1
        else:
            p.descending = True
        if not p.descending and p.level == len(p.path):
            self._finish(p, 0)
        elif p.descending and p.level == 0:
            self._finish(p, 1 if p.op == "tas" else None)

    def _finish(self, p, ret):
        rec = p.current
        rec.finish = self.t - 1
        rec.ret = ret
        p.records.append(rec)
        p.current = None
        p.op = None
        p.descending = False

    def history(self):
        recs = []
        for p in self.procs.values():
            recs.extend(p.records)
            if p.current is not None:
                recs.append(p.current)
        recs.sort(key=lambda r: (r.start, r.pid))
        return recs

    def node_trace(self, node_id):
        tr = Trace()
        for na in self.accesses:
            if na.node == node_id:
                tr.append(na.access)
        return tr


def _assert_same_tree(tree, oracle):
    assert tree.accesses == oracle.accesses
    assert tree.history() == oracle.history()
    assert list(tree.nodes) == list(oracle.nodes)
    for v in tree.nodes:
        assert tree.node_trace(v).accesses == oracle.node_trace(v).accesses
        assert model().configs[tree.nodes[v]] == oracle.nodes[v].config


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_logged_tree_matches_oracle(data):
    """Under drawn schedules with resets, the tree that logs raw steps
    reads back the accesses, history, node traces and node
    configurations of the tree that built them as it stepped."""
    n = data.draw(st.sampled_from((2, 3, 4)), label="n")
    seed = data.draw(st.integers(0, 1000), label="seed")
    schedule = data.draw(st.lists(st.integers(0, n - 1), max_size=150), label="schedule")
    tree = TournamentTree(n, random.Random(seed).random)
    oracle = _OracleTree(n, random.Random(seed).random)
    for pid in schedule:
        if not tree.busy(pid):
            records = tree.procs[pid].records
            if records and records[-1].kind == "tas" and records[-1].ret == 0:
                tree.invoke_reset(pid)
                oracle.invoke_reset(pid)
            else:
                tree.invoke_tas(pid)
                oracle.invoke_tas(pid)
        tree.step(pid)
        oracle.step(pid)
        assert tree.t == oracle.t
    _assert_same_tree(tree, oracle)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_search_trees_match_oracle(n, seed):
    """The first 200 schedules of `find_violation` give the oracle's
    trees, run on the search's coin list."""
    rng = random.Random(seed)
    coins = [rng.random() for _ in range(40 * n)]
    schedules = tournament._schedules(random.Random(seed), n)
    first = [tournament.GUIDED_SCHEDULE_N3] if n == 3 else []
    for schedule in first + [next(schedules) for _ in range(200 - len(first))]:
        tree = tournament._run_schedule(n, schedule, coins)
        oracle = _OracleTree(n, iter(coins).__next__)
        done = set()
        for pid in schedule:
            if pid in done:
                continue
            if not oracle.busy(pid):
                oracle.invoke_tas(pid)
            oracle.step(pid)
            if not oracle.busy(pid):
                done.add(pid)
                if len(done) == n:
                    break
        _assert_same_tree(tree, oracle)
