"""The naive n-process tournament-tree extension and its failure.

Each internal node of a complete binary tree hosts an independent
two-process instance of the protocol, held as a configuration id of
`checker.model()`.  A process ascends from its leaf,
playing role 0 at a node when it arrives from the left child and role 1
from the right.  Winning the root means returning 0; the first loss
makes the process descend, resetting the nodes it won, and return 1.

The composition is broken: each node is a correct two-process object,
but the n-process histories it generates need not be linearizable.
`find_violation` exhibits a concrete non-linearizable history.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import linearize, protocol
from .checker import model
from .core import Access, OpRecord, Trace
from .harness import _randrange_blocks, _take


class NotOwner(Exception):
    pass


class BudgetExceeded(Exception):
    """No violation found within the search budget."""


# The hand-guided schedule for n=3 (processes 0,1 at the left node,
# process 2 alone on the right): P0 wins the left node and stalls; P1
# loses it and completes its n-tas returning 1; P2 wins its solo node
# and the root, returning 0; P0 resumes, loses the root, resets the
# left node and returns 1.  P1's operation finishes before P2's starts,
# yet P1 returned 1 while no process held the 0 — not linearizable.
GUIDED_SCHEDULE_N3: tuple[int, ...] = (0,) * 2 + (1,) * 6 + (2,) * 4 + (0,) * 7


class NodeAccess(NamedTuple):
    """One register access inside one tree node, with global time."""

    t: int
    pid: int
    node: int
    role: int
    access: Access  # pid field holds the role; t is the global time


class _Proc:
    __slots__ = ("hops", "descending", "level", "records", "current")

    def __init__(self, hops: tuple[tuple[int, int], ...]):
        self.hops = hops  # (node id, role) from the leaf's parent to the root
        self.descending = False  # resetting the nodes it holds
        # The process holds the nodes of hops[:level], and the 0 exactly
        # when it is idle holding them all.
        self.level = 0
        self.records: list[OpRecord] = []
        self.current: Optional[OpRecord] = None  # the operation in progress


def _check_size(n: int) -> None:
    if n not in (2, 3, 4):
        raise ValueError("n must be 2, 3 or 4")


@functools.cache
def _hops(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per process, from its leaf's parent to the root, each node id and
    the process's role there: role 0 arriving from a left child."""
    n_leaves = 2 if n == 2 else 4
    hops = []
    for pid in range(n):
        path = []
        v = n_leaves + pid
        while v > 1:
            path.append((v // 2, v % 2))
            v //= 2
        hops.append(tuple(path))
    return tuple(hops)


class TournamentTree:
    """Scheduler-driven tournament of n processes (n in {2, 3, 4})."""

    def __init__(self, n: int, coin: Callable[[], float]):
        _check_size(n)
        self.n = n
        # Each node's configuration id in the model; chart states persist
        # across operations, and every node draws its coins from `coin`,
        # in the order of the tree's accesses.
        self.nodes: dict[int, int] = dict.fromkeys(range(1, 2 if n == 2 else 4), 0)
        self.coin = coin
        m = model()
        self._ops, self._branches = m.ops, m.branches
        self.procs: dict[int, _Proc] = {
            pid: _Proc(hops) for pid, hops in enumerate(_hops(n))
        }
        self.t = 0
        # One (pid, node, role, fields, (op, starts)) per access, the
        # entry's index being its time and `fields` the model's tuple;
        # `_rows` reads the rows of `accesses` and `node_trace` from it.
        self._log: list[tuple] = []

    # -- operation control -------------------------------------------------

    def _invoke(self, pid: int, kind: str) -> None:
        p = self.procs[pid]
        if p.current is not None:
            raise ValueError(f"P{pid} is mid-operation")
        holds_zero = p.level == len(p.hops)
        if kind == "tas" and holds_zero:
            raise ValueError(f"P{pid} holds the 0 and must reset first")
        if kind == "reset" and not holds_zero:
            raise NotOwner(f"P{pid} does not hold the 0")
        p.descending = kind == "reset"  # a reset releases root toward leaf
        p.current = OpRecord(pid, kind, len(p.records), self.t)

    def invoke_tas(self, pid: int) -> None:
        self._invoke(pid, "tas")

    def invoke_reset(self, pid: int) -> None:
        self._invoke(pid, "reset")

    def busy(self, pid: int) -> bool:
        return self.procs[pid].current is not None

    # -- one access --------------------------------------------------------

    def step(self, pid: int) -> None:
        """Execute one register access of pid's operation in progress:
        ascending, at the next node up; descending, resetting the
        root-most node still held."""
        p = self.procs[pid]
        rec = p.current
        if rec is None:
            raise ValueError(f"P{pid} has no operation in progress")
        node_id, role = p.hops[p.level - 1 if p.descending else p.level]
        k = 2 * self.nodes[node_id] + role
        self.nodes[node_id], fields, move = _take(self._branches[k], self.coin)
        self._log.append((pid, node_id, role, fields, self._ops[k]))
        self.t += 1
        rec.accesses += 1
        if not move.finishes:
            return  # the node-level operation is still in progress
        if p.descending:
            p.level -= 1  # released this node
            if not p.level:
                self._finish(p, 1 if rec.kind == "tas" else None)
        elif protocol.returns_value(move.post) == 0:
            p.level += 1  # won this node
            if p.level == len(p.hops):
                self._finish(p, 0)
        else:
            p.descending = True  # lost here: release the nodes won below
            if not p.level:
                self._finish(p, 1)

    def _finish(self, p: _Proc, ret: Optional[int]) -> None:
        rec = p.current
        rec.finish = self.t - 1
        rec.ret = ret
        p.records.append(rec)
        p.current = None
        p.descending = False

    # -- whole operations (solo convenience) -------------------------------

    def n_tas(self, pid: int) -> int:
        self.invoke_tas(pid)
        while self.busy(pid):
            self.step(pid)
        return self.procs[pid].records[-1].ret

    def n_reset(self, pid: int) -> None:
        self.invoke_reset(pid)
        while self.busy(pid):
            self.step(pid)

    # -- histories and projections -----------------------------------------

    @property
    def accesses(self) -> list[NodeAccess]:
        """Every access so far, in order."""
        return [NodeAccess(row[0], pid, node, row[1], Access(*row))
                for pid, node, row in self._rows()]

    def _rows(self, only: Optional[int] = None) -> Iterator[tuple[int, int, tuple]]:
        """`(pid, node, row)` of each access of node `only`, or of every
        node, in order, read from the log: the row is the node's
        `(t, role, fields, op_seq, op)`, each role's operations at each
        node numbered from 0."""
        op_seq = {v: [-1, -1] for v in self.nodes}
        for t, (pid, node, role, fields, (op, starts)) in enumerate(self._log):
            if only is None or node == only:
                seq = op_seq[node]
                seq[role] += starts
                yield pid, node, (t, role, fields, seq[role], op)

    def history(self) -> list[OpRecord]:
        recs: list[OpRecord] = []
        for p in self.procs.values():
            recs.extend(p.records)
            if p.current is not None:
                recs.append(p.current)
        recs.sort(key=lambda r: (r.start, r.pid))
        return recs

    def node_trace(self, node_id: int) -> Trace:
        """The two-process trace of one node (pids are the roles)."""
        tr = Trace()
        tr.rows.extend(row for _, _, row in self._rows(node_id))
        return tr


class ViolationReport(NamedTuple):
    n: int
    schedule: tuple[int, ...]
    tree: TournamentTree
    history: list[OpRecord]
    verdict: linearize.Verdict
    node_verdicts: dict[int, bool]


def _run_schedule(n: int, schedule: Sequence[int], coins: Sequence[float]) -> TournamentTree:
    """Run one n-tas per process under `schedule`, reading the coins in
    order: an idle process starts its tas, a finished one is skipped,
    and the run stops once every process has finished."""
    tree = TournamentTree(n, iter(coins).__next__)
    procs = tree.procs
    running = n
    for pid in schedule:
        p = procs[pid]
        if p.current is None:
            if p.records:
                continue
            tree.invoke_tas(pid)
        tree.step(pid)
        if p.current is None:
            running -= 1
            if not running:
                break
    return tree


# A `_StepTrie` node stands for the accesses that runs share so far and
# is a list with one slot per pid: None while no run has taken pid's next
# access, _FINISHED once pid's n-tas has returned, the node after pid's
# next access, or, at a run's last access, the run's finished history as
# a tuple.
_FINISHED = object()
# Nodes one trie may hold.  A full trie keeps the paths it has and
# records no more, which bounds both its memory and the work that a
# search whose paths never repeat (n=4) spends recording them.
_TRIE_MAX = 1536


class _StepTrie:
    """The step paths of the runs of one search in which every process
    returned.

    Every tree of a search reads the same coins from the start, so a
    run's accesses, and with them its finished history, are a function
    of the sequence of pids it steps.  Entries of a schedule that name
    a process that has returned are skipped, and so do not count."""

    __slots__ = ("n", "root", "size")

    def __init__(self, n: int):
        self.n = n
        self.root = [None] * n
        self.size = 1

    def lookup(self, schedule: Sequence[int]) -> Optional[tuple[OpRecord, ...]]:
        """The finished history of the run under `schedule` if an
        earlier run took its step path, else None."""
        node = self.root
        for pid in schedule:
            child = node[pid]
            if type(child) is list:
                node = child
            elif child is not _FINISHED:
                return child  # None off the trie, else the run's history
        return None  # the schedule ran out before every process returned

    def record(self, tree: TournamentTree, history: list[OpRecord]) -> None:
        """Add the step path of `tree`, a run under one schedule that
        the trie does not hold, with its finished `history`.  A run cut
        short by its schedule is not kept, nor a path whose new nodes do
        not fit."""
        if len(history) < self.n:
            return
        path = bytes(entry[0] for entry in tree._log)
        # Walk the nodes the path shares.  Neither of two different paths
        # on which every process returns is a prefix of the other, so the
        # walk meets no history before the path's last access.
        node = self.root
        last = len(path) - 1
        t = 0
        while t < last and node[path[t]] is not None:
            node = node[path[t]]
            t += 1
        # Each of the accesses t .. last - 1 adds a node, and the last
        # access holds the history.
        added = last - t
        if self.size + added > _TRIE_MAX:
            return
        self.size += added
        ends = [path.rindex(pid) for pid in range(self.n)]
        for i in range(t, last):
            child = node[path[i]] = [_FINISHED if e <= i else None for e in ends]
            node = child
        node[path[-1]] = tuple(history)


def _schedules(rng: random.Random, n: int) -> Iterator[bytes]:
    """Successive `40 * n`-entry slices of the stream of
    `rng.randrange(n)` draws."""
    length = 40 * n  # enough steps for every process to finish one n-tas
    blocks = _randrange_blocks(rng, n)
    buf, pos = b"", 0
    while True:
        while len(buf) - pos < length:
            buf = buf[pos:] + next(blocks)
            pos = 0
        yield buf[pos:pos + length]
        pos += length


def find_violation(
    n: int = 3,
    budget: int = 2000,
    seed: int = 0,
) -> ViolationReport:
    """Search schedules for a history rejected by the exhaustive
    n-process checker; the guided schedule is tried first for n=3.

    Raises BudgetExceeded when `budget` schedules produce only
    linearizable histories (this is the expected outcome for n=2).
    """
    _check_size(n)
    schedules = _schedules(random.Random(seed), n)
    # Every tree reads the same coins.  An access draws at most one and a
    # schedule has at most `40 * n` entries, so no tree runs out.
    coin = random.Random(seed).random
    coins = [coin() for _ in range(40 * n)]
    trie = _StepTrie(n)
    for attempt in range(budget):
        if n == 3 and attempt == 0:
            schedule = GUIDED_SCHEDULE_N3
        else:
            schedule = next(schedules)
        history = trie.lookup(schedule)
        if history is None:
            tree = _run_schedule(n, schedule, coins)
            history = [r for r in tree.history() if r.finished]
            trie.record(tree, history)
        # Each schedule is checked, a repeated history too.  A repeated
        # one passed when first checked, so a violation comes from a
        # schedule just run, and `tree` is its run.
        verdict = linearize.check_n_process(history, n)
        if not verdict.ok:
            traces = {v: tree.node_trace(v) for v in tree.nodes}
            return ViolationReport(
                n=n,
                schedule=tuple(schedule),
                tree=tree,
                history=history,
                verdict=verdict,
                node_verdicts={
                    v: linearize.check_two_process(tr).ok
                    for v, tr in traces.items()
                    if len(tr) > 0
                },
            )
    raise BudgetExceeded(f"no violation in {budget} schedules for n={n}")
