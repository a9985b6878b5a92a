"""Adversary strategies and the randomized simulation engine.

Drives two protocol instances against a scheduler, producing traces,
operation records and statistics.  One run is deterministic given
(workload, adversary, seed): all coins come from one seeded generator,
and every coin outcome is recorded in the trace, so replay never needs
the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, TypeVar

from . import expectation
from .checker import Branch, Config, model, step_table
from .core import Access, OpRecord, Trace
from .protocol import ProcState

# An adversary sees the full visible history (accesses so far, current
# chart states) and the schedulable pids, and picks one of them.
Adversary = Callable[[Sequence[Access], Config, tuple[int, ...]], int]

DEFAULT_MAX_STEPS = 10**6


class ScriptExhausted(Exception):
    """A scripted adversary ran out of scheduling decisions."""


@dataclass(frozen=True)
class Workload:
    """Per-process operation budget.

    Each process performs `tas_ops[pid]` test-and-set operations; a
    process that wins (returns 0) always resets immediately afterwards,
    and resets do not count against the budget.
    """

    tas_ops: tuple[int, int] = (1, 1)


@dataclass
class RunStats:
    """Aggregate statistics of one run."""

    # One row per finished op: (op_index, pid, kind, accesses, ret, choose_visits)
    per_op: list[tuple[int, int, str, int, Optional[int], int]] = field(
        default_factory=list
    )
    returns: dict[int, int] = field(default_factory=dict)
    mean_tas_accesses: float = 0.0
    max_tas_accesses: int = 0
    resets_all_one_access: bool = True
    truncated: bool = False

    @staticmethod
    def from_records(records: Sequence[OpRecord], truncated: bool = False) -> "RunStats":
        st = RunStats(truncated=truncated)
        tas_counts: list[int] = []
        for i, r in enumerate(records):
            st.per_op.append(
                (i, r.pid, r.kind, r.accesses, r.ret, r.choose_visits)
            )
            if not r.finished:
                continue
            if r.kind == "reset":
                if r.accesses != 1:
                    st.resets_all_one_access = False
                continue
            tas_counts.append(r.accesses)
            st.returns[r.ret] = st.returns.get(r.ret, 0) + 1
        if tas_counts:
            st.mean_tas_accesses = sum(tas_counts) / len(tas_counts)
            st.max_tas_accesses = max(tas_counts)
        return st


_B = TypeVar("_B")


def _take(b: tuple[_B, ...], coin: Callable[[], float]) -> _B:
    """The branch taken: a coin read draws one coin(), heads below 1/2."""
    return b[1] if len(b) == 2 and coin() >= 0.5 else b[0]


class _Engine:
    """Mutable two-process system: configuration id and operations.  Its
    coins come from `coin()`, a float in [0, 1) per coin read."""

    def __init__(self, coin: Callable[[], float]):
        self.coin = coin
        self.model = model()
        self.steps = step_table()
        self.cid = 0  # (rst, rst)
        self.op_seq = [-1, -1]
        self.t = 0

    @property
    def config(self) -> Config:
        return self.model.configs[self.cid]

    def idle(self, pid: int) -> bool:
        """Is pid between operations, so that its next access starts one?"""
        return self.steps[2 * self.cid + pid][1]

    def step_pid(self, pid: int) -> Access:
        """Execute one access of `pid`, invoking its next op if idle."""
        op, starts, b = self.steps[2 * self.cid + pid]
        if starts:
            self.op_seq[pid] += 1
        self.cid, fields = _take(b, self.coin)
        a = Access(self.t, pid, *fields, self.op_seq[pid], op)
        self.t += 1
        return a


def run(
    workload: Workload,
    adversary: Adversary,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[Trace, list[OpRecord], RunStats]:
    """Simulate until the workload finishes or max_steps elapse."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    eng = _Engine(random.Random(seed).random)
    remaining = list(workload.tas_ops)
    trace = Trace()
    # The engine numbers the steps itself, so accesses skip Trace.append's check.
    accesses = trace.accesses
    truncated = False
    while True:
        schedulable = []
        for pid in (0, 1):
            op, starts, _ = eng.steps[2 * eng.cid + pid]
            # A tas in progress or a pending reset is mandatory.
            if not starts or op == "reset" or remaining[pid] > 0:
                schedulable.append(pid)
        if not schedulable:
            break
        if eng.t >= max_steps:
            truncated = True
            break
        pid = adversary(accesses, eng.config, tuple(schedulable))
        if pid not in schedulable:
            raise ValueError(f"adversary scheduled unschedulable P{pid}")
        op, starts, _ = eng.steps[2 * eng.cid + pid]
        if starts and op == "tas":
            remaining[pid] -= 1
        accesses.append(eng.step_pid(pid))
    records = trace.op_records()
    return trace, records, RunStats.from_records(records, truncated)


def round_robin() -> Adversary:
    """Alternate between the processes, skipping unschedulable ones."""
    last = [1]

    def choose(accesses, config, schedulable):
        pid = 1 - last[0]
        if pid not in schedulable:
            pid = schedulable[0]
        last[0] = pid
        return pid

    return choose


def random_adversary(seed: int) -> Adversary:
    rng = random.Random(seed)

    def choose(accesses, config, schedulable):
        return rng.choice(sorted(schedulable))

    return choose


def script(pids: Sequence[int]) -> Adversary:
    """Replay a fixed schedule; raises ScriptExhausted when it ends."""
    it = iter(pids)

    def choose(accesses, config, schedulable):
        try:
            pid = next(it)
        except StopIteration:
            raise ScriptExhausted("scheduling script exhausted") from None
        if pid not in schedulable:
            raise ScriptExhausted(f"script scheduled unschedulable P{pid}")
        return pid

    return choose


def optimal() -> Adversary:
    """The policy maximizing P0's access count, from the expectation
    solver, falling back to any schedulable process when its pick is
    exhausted."""
    policy = expectation.solve(0).policy

    def choose(accesses, config, schedulable):
        pid = policy.get(config)
        if pid is None or pid not in schedulable:
            pid = schedulable[0]
        return pid

    return choose


def builtin_adversaries(seed: int) -> dict[str, Adversary]:
    return {
        "round-robin": round_robin(),
        "random": random_adversary(seed),
        "optimal": optimal(),
    }


def _policy_branches(policy: dict[Config, int]) -> list[tuple[int, tuple[Branch, ...]]]:
    """Per configuration id, the pid `policy` schedules and its branches."""
    m = model()
    return [(policy[c], m.branches[2 * i + policy[c]]) for i, c in enumerate(m.configs)]


def measure_from_config(config: Config, n_ops: int, seed: int) -> list[int]:
    """Access counts of n_ops operations of P0, each started fresh from
    `config` and scheduled by the policy maximizing P0's access count.

    Used for the Monte Carlo check of the expectation table: the mean of
    the returned counts estimates the solved value at `config`.
    """
    moves = _policy_branches(expectation.solve(0).policy)
    start = model().index[config]
    coin = random.Random(seed).random
    counts: list[int] = []
    for _ in range(n_ops):
        c, accesses = start, 0
        while True:
            pid, b = moves[c]
            c, _, move = _take(b, coin)
            if pid == 0:
                accesses += 1
                if move.finishes:
                    break
        counts.append(accesses)
    return counts


@dataclass
class LoopExperiment:
    """Per-visit outcomes of the CHOOSE-loop Monte Carlo experiment.

    Each trial is one CHOOSE entry of P0; `probs[i]` is the analytic
    return probability from the configuration at that entry and
    `successes[i]` whether P0 entered CHOOSE again before its operation
    finished.
    """

    probs: list[Fraction] = field(default_factory=list)
    successes: list[bool] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def empirical_frequency(self) -> float:
        return sum(self.successes) / self.n if self.n else 0.0

    @property
    def analytic_frequency(self) -> float:
        return float(sum(self.probs) / self.n) if self.n else 0.0

    @property
    def sigma(self) -> float:
        """Standard deviation of the empirical frequency if the analytic
        per-visit probabilities are correct (Poisson binomial)."""
        if not self.n:
            return 0.0
        var = sum(float(p) * (1.0 - float(p)) for p in self.probs)
        return var**0.5 / self.n

    @property
    def within_3_sigma(self) -> bool:
        return abs(self.empirical_frequency - self.analytic_frequency) <= 3 * self.sigma


def loop_experiment(min_visits: int, seed: int) -> LoopExperiment:
    """Run until `min_visits` CHOOSE entries of P0 have been resolved
    (returned to CHOOSE or finished the operation).

    The schedule is the visit-maximizing policy, which keeps the system
    looping through (choose,choose); the analytic per-visit probability
    is that policy's certified exact return probability from the entry
    configuration.
    """
    sigma = expectation.expected_choose_visits(0).policy
    lp = expectation.evaluate_policy(sigma, expectation._choose_entry_reward, 0)
    moves = _policy_branches(lp.policy)
    values = [lp.values[c] for c in model().configs]
    coin = random.Random(seed).random
    exp = LoopExperiment()
    c = t = 0
    pending: Optional[Fraction] = None
    while len(exp.probs) < min_visits:
        if t >= 100 * DEFAULT_MAX_STEPS:
            raise RuntimeError("loop experiment exceeded its step budget")
        t += 1
        pid, b = moves[c]
        c, _, move = _take(b, coin)
        if pid != 0:
            continue
        if move.post is ProcState.CHOOSE:
            if pending is not None:
                exp.probs.append(pending)
                exp.successes.append(True)
            pending = values[c]
        elif move.finishes and pending is not None:
            exp.probs.append(pending)
            exp.successes.append(False)
            pending = None
    return exp
