"""The naive n-process tournament-tree extension and its failure.

Each internal node of a complete binary tree hosts an independent
two-process instance of the protocol.  A process ascends from its leaf,
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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from . import linearize, protocol
from .core import Access, OpRecord, Trace
from .harness import _Engine


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


@dataclass(slots=True)
class NodeAccess:
    """One register access inside one tree node, with global time."""

    t: int
    pid: int
    node: int
    role: int
    access: Access  # pid field holds the role; t is the global time


class _Proc:
    def __init__(self, pid: int, path: tuple[int, ...], roles: tuple[int, ...]):
        self.pid = pid
        self.path = path  # node ids leaf-parent .. root
        self.roles = roles
        self.op: Optional[str] = None  # "tas" | "reset"
        self.descending = False  # resetting the nodes it holds
        # The process holds the nodes path[:level], and the 0 exactly
        # when it is idle holding them all.
        self.level = 0
        self.records: list[OpRecord] = []
        self.current: Optional[OpRecord] = None


def _check_size(n: int) -> None:
    if n not in (2, 3, 4):
        raise ValueError("n must be 2, 3 or 4")


@functools.cache
def _paths(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per process, the node ids from its leaf's parent to the root and
    its role at each: role 0 arriving from a left child."""
    n_leaves = 2 if n == 2 else 4
    paths = []
    for pid in range(n):
        path, roles = [], []
        v = n_leaves + pid
        while v > 1:
            roles.append(v % 2)
            v //= 2
            path.append(v)
        paths.append((tuple(path), tuple(roles)))
    return tuple(paths)


class TournamentTree:
    """Scheduler-driven tournament of n processes (n in {2, 3, 4})."""

    def __init__(self, n: int, coin: Callable[[], float]):
        _check_size(n)
        self.n = n
        # One two-process protocol instance per node; chart states persist
        # across operations, and every node draws its coins from `coin`,
        # in the order of the tree's accesses.
        self.nodes: dict[int, _Engine] = {
            v: _Engine(coin) for v in range(1, 2 if n == 2 else 4)
        }
        self.procs: dict[int, _Proc] = {
            pid: _Proc(pid, path, roles) for pid, (path, roles) in enumerate(_paths(n))
        }
        self.t = 0
        self.accesses: list[NodeAccess] = []

    # -- operation control -------------------------------------------------

    def _invoke(self, pid: int, kind: str) -> None:
        p = self.procs[pid]
        if p.op is not None:
            raise ValueError(f"P{pid} is mid-operation")
        holds_zero = p.level == len(p.path)
        if kind == "tas" and holds_zero:
            raise ValueError(f"P{pid} holds the 0 and must reset first")
        if kind == "reset" and not holds_zero:
            raise NotOwner(f"P{pid} does not hold the 0")
        p.op = kind
        p.descending = kind == "reset"  # a reset releases root toward leaf
        p.current = OpRecord(pid=pid, kind=kind, op_seq=len(p.records), start=self.t)

    def invoke_tas(self, pid: int) -> None:
        self._invoke(pid, "tas")

    def invoke_reset(self, pid: int) -> None:
        self._invoke(pid, "reset")

    def busy(self, pid: int) -> bool:
        return self.procs[pid].op is not None

    # -- one access --------------------------------------------------------

    def step(self, pid: int) -> None:
        """Execute one register access of pid's operation in progress:
        ascending, at the next node up; descending, resetting the
        root-most node still held."""
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
            return  # the node-level operation is still in progress
        if p.descending:
            p.level -= 1  # released this node
        elif protocol.returns_value(nd.config[role]) == 0:
            p.level += 1  # won this node
        else:
            p.descending = True  # lost here: release the nodes won below
        if not p.descending and p.level == len(p.path):
            self._finish(p, 0)
        elif p.descending and p.level == 0:
            self._finish(p, 1 if p.op == "tas" else None)

    def _finish(self, p: _Proc, ret: Optional[int]) -> None:
        rec = p.current
        rec.finish = self.t - 1
        rec.ret = ret
        p.records.append(rec)
        p.current = None
        p.op = None
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
        for na in self.accesses:
            if na.node == node_id:
                tr.append(na.access)
        return tr


@dataclass
class ViolationReport:
    n: int
    schedule: tuple[int, ...]
    tree: TournamentTree
    history: list[OpRecord]
    verdict: linearize.Verdict
    node_verdicts: dict[int, bool] = field(default_factory=dict)


def _run_schedule(n: int, schedule: Sequence[int], coins: Sequence[float]) -> TournamentTree:
    """Run one n-tas per process under `schedule`, reading the coins in
    order: an idle process starts its tas, a finished one is skipped,
    and the run stops once every process has finished."""
    tree = TournamentTree(n, iter(coins).__next__)
    procs = tree.procs
    running = n
    for pid in schedule:
        p = procs[pid]
        if p.op is None:
            if p.records:
                continue
            tree.invoke_tas(pid)
        tree.step(pid)
        if p.op is None:
            running -= 1
            if not running:
                break
    return tree


def _schedules(rng: random.Random, n: int) -> Iterator[bytes]:
    """Successive `40 * n`-entry slices of the stream of
    `rng.randrange(n)` draws, drawn 1,024 generator words at a time.

    `randrange(n)` keeps the top `k = n.bit_length()` bits of one 32-bit
    word and draws again while they are `>= n`, and
    `getrandbits(32 * m)` returns m successive words, the first least
    significant.  So each word's top byte shifted right by `8 - k`, with
    the rejected values deleted, is the same stream."""
    length = 40 * n  # enough steps for every process to finish one n-tas
    shift = 8 - n.bit_length()
    table = bytes(b >> shift for b in range(256))
    reject = bytes(range(n << shift, 256))
    buf, pos = b"", 0
    while True:
        while len(buf) - pos < length:
            words = rng.getrandbits(32 * 1024).to_bytes(4 * 1024, "little")
            buf = buf[pos:] + words[3::4].translate(table, reject)
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
    for attempt in range(budget):
        if n == 3 and attempt == 0:
            schedule = GUIDED_SCHEDULE_N3
        else:
            schedule = next(schedules)
        tree = _run_schedule(n, schedule, coins)
        history = [r for r in tree.history() if r.finished]
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
