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

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


@dataclass(frozen=True)
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
        self.phase: Optional[str] = None  # "ascend" | "descend"
        self.level = 0
        self.won: list[int] = []
        self.to_reset: list[int] = []
        self.records: list[OpRecord] = []
        self.current: Optional[OpRecord] = None
        self.holds_zero = False
        self.op_count = 0


class TournamentTree:
    """Scheduler-driven tournament of n processes (n in {2, 3, 4})."""

    def __init__(self, n: int, seed: int = 0):
        if n not in (2, 3, 4):
            raise ValueError("n must be 2, 3 or 4")
        self.n = n
        self.rng = random.Random(seed)
        n_leaves = 2 if n == 2 else 4
        # One two-process protocol instance per node; chart states persist
        # across operations, and all nodes draw coins from the tree's rng.
        self.nodes: dict[int, _Engine] = {
            v: _Engine(self.rng) for v in range(1, n_leaves)
        }
        self.procs: dict[int, _Proc] = {}
        self.t = 0
        self.accesses: list[NodeAccess] = []
        for pid in range(n):
            leaf = n_leaves + pid
            path = []
            roles = []
            v = leaf
            while v > 1:
                roles.append(v % 2)  # left child -> role 0
                v //= 2
                path.append(v)
            self.procs[pid] = _Proc(pid, tuple(path), tuple(roles))

    # -- operation control -------------------------------------------------

    def invoke_tas(self, pid: int) -> None:
        p = self.procs[pid]
        if p.op is not None:
            raise ValueError(f"P{pid} is mid-operation")
        if p.holds_zero:
            raise ValueError(f"P{pid} holds the 0 and must reset first")
        p.op = "tas"
        p.phase = "ascend"
        p.level = 0
        p.won = []
        p.current = OpRecord(pid=pid, kind="tas", op_seq=p.op_count, start=self.t)
        p.op_count += 1

    def invoke_reset(self, pid: int) -> None:
        p = self.procs[pid]
        if p.op is not None:
            raise ValueError(f"P{pid} is mid-operation")
        if not p.holds_zero:
            raise NotOwner(f"P{pid} does not hold the 0")
        p.op = "reset"
        p.phase = "descend"
        p.to_reset = list(reversed(p.path))  # root toward leaf
        p.current = OpRecord(pid=pid, kind="reset", op_seq=p.op_count, start=self.t)
        p.op_count += 1

    def busy(self, pid: int) -> bool:
        return self.procs[pid].op is not None

    # -- one access --------------------------------------------------------

    def _node_access(self, node_id: int, role: int) -> tuple[Access, Optional[int]]:
        """One access of `role` at `node_id`; returns the access (pid =
        role, node-local op bookkeeping) and the node-level return value
        if this access finished a node-level operation."""
        nd = self.nodes[node_id]
        nd.t = self.t
        a = nd.step_pid(role)
        if nd.mid_op[role] is None:
            return a, protocol.returns_value(nd.config[role])
        return a, None

    def step(self, pid: int) -> None:
        """Execute one register access of pid's operation in progress."""
        p = self.procs[pid]
        if p.op is None:
            raise ValueError(f"P{pid} has no operation in progress")
        if p.phase == "ascend":
            node_id = p.path[p.level]
            role = p.roles[p.level]
            a, ret = self._node_access(node_id, role)
            self._record(pid, node_id, role, a)
            if ret == 0:
                p.won.append(node_id)
                p.level += 1
                if p.level == len(p.path):
                    p.holds_zero = True
                    self._finish(p, 0)
            elif ret == 1:
                p.to_reset = list(reversed(p.won))  # root-most first
                p.phase = "descend"
                if not p.to_reset:
                    self._finish(p, 1)
        else:  # descend: reset the next owed node (one access each)
            node_id = p.to_reset[0]
            role = p.roles[p.path.index(node_id)]
            a, ret = self._node_access(node_id, role)
            self._record(pid, node_id, role, a)
            if self.nodes[node_id].mid_op[role] is None:
                p.to_reset.pop(0)
                if not p.to_reset:
                    if p.op == "reset":
                        p.holds_zero = False
                        self._finish(p, None)
                    else:
                        self._finish(p, 1)

    def _record(self, pid: int, node_id: int, role: int, a: Access) -> None:
        self.accesses.append(NodeAccess(self.t, pid, node_id, role, a))
        self.t += 1

    def _finish(self, p: _Proc, ret: Optional[int]) -> None:
        rec = p.current
        rec.finish = self.t - 1
        rec.ret = ret
        rec.accesses = sum(
            1 for na in self.accesses
            if na.pid == p.pid and rec.start <= na.t <= rec.finish
        )
        p.records.append(rec)
        p.current = None
        p.op = None
        p.phase = None

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


def _run_schedule(n: int, schedule: Sequence[int], seed: int) -> TournamentTree:
    tree = TournamentTree(n, seed=seed)
    done = set()
    for pid in schedule:
        if pid in done:
            continue
        if not tree.busy(pid):
            tree.invoke_tas(pid)
        tree.step(pid)
        if not tree.busy(pid):
            done.add(pid)
            if len(done) == n:
                break
    return tree


def _random_schedule(n: int, rng: random.Random) -> list[int]:
    # Enough steps for every process to finish one n-tas (and resets).
    out = []
    for _ in range(40 * n):
        out.append(rng.randrange(n))
    return out


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
    rng = random.Random(seed)
    candidates: list[tuple[int, ...]] = []
    if n == 3:
        candidates.append(GUIDED_SCHEDULE_N3)
    attempts = 0
    while attempts < budget:
        if candidates:
            schedule = candidates.pop(0)
        else:
            schedule = tuple(_random_schedule(n, rng))
        attempts += 1
        tree = _run_schedule(n, schedule, seed=seed)
        history = [r for r in tree.history() if r.finished]
        verdict = linearize.check_n_process(history, n)
        if not verdict.ok:
            node_verdicts = {
                v: linearize.check_two_process(tree.node_trace(v)).ok
                for v in tree.nodes
                if len(tree.node_trace(v)) > 0
            }
            return ViolationReport(
                n=n,
                schedule=tuple(schedule),
                tree=tree,
                history=history,
                verdict=verdict,
                node_verdicts=node_verdicts,
            )
    raise BudgetExceeded(f"no violation in {budget} schedules for n={n}")
