"""Adversaries, the simulation run loop and the Monte Carlo experiments.

`run` steps a configuration id of `checker.model()` through `_take`, as
the tournament's nodes do, and produces traces, operation records and
statistics.  One run is deterministic given (workload, adversary,
seed): all coins come from one seeded generator, and every coin outcome
is recorded in the trace, so replay never needs the generator.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from . import expectation
from .checker import Branch, Config, model
from .core import OpRecord, Trace
from .protocol import ProcState

# An adversary sees the full visible history (the trace's rows so far,
# `(t, pid, fields, op_seq, op)` each, and the current chart states) and
# the schedulable pids, in ascending order, and picks one of them.
Adversary = Callable[[Sequence[tuple], Config, tuple[int, ...]], int]

DEFAULT_MAX_STEPS = 10**6


class ScriptExhausted(Exception):
    """A scripted adversary ran out of scheduling decisions."""


class Workload(NamedTuple):
    """Per-process operation budget.

    Each process performs `tas_ops[pid]` test-and-set operations; a
    process that wins (returns 0) always resets immediately afterwards,
    and resets do not count against the budget.
    """

    tas_ops: tuple[int, int] = (1, 1)


class RunStats(NamedTuple):
    """Aggregate statistics of one run."""

    # One row per op: (op_index, pid, kind, accesses, ret, choose_visits)
    per_op: list[tuple[int, int, str, int, Optional[int], int]]
    returns: dict[int, int]
    mean_tas_accesses: float
    max_tas_accesses: int
    resets_all_one_access: bool
    truncated: bool

    @staticmethod
    def from_records(records: Sequence[OpRecord], truncated: bool = False) -> "RunStats":
        per_op = [(i, r.pid, r.kind, r.accesses, r.ret, r.choose_visits)
                  for i, r in enumerate(records)]
        returns: dict[int, int] = {}
        tas_counts: list[int] = []
        resets_all_one_access = True
        for r in records:
            if r.finish is None:
                continue
            if r.kind == "reset":
                if r.accesses != 1:
                    resets_all_one_access = False
                continue
            tas_counts.append(r.accesses)
            returns[r.ret] = returns.get(r.ret, 0) + 1
        return RunStats(
            per_op, returns,
            sum(tas_counts) / len(tas_counts) if tas_counts else 0.0,
            max(tas_counts, default=0),
            resets_all_one_access, truncated,
        )


_B = TypeVar("_B")


def _take(b: tuple[_B, ...], coin: Callable[[], float]) -> _B:
    """The branch taken: a coin read draws one coin(), heads below 1/2."""
    return b[1] if len(b) == 2 and coin() >= 0.5 else b[0]


def run(
    workload: Workload,
    adversary: Adversary,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[Trace, list[OpRecord], RunStats]:
    """Simulate until the workload finishes or max_steps elapse."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    m = model()
    ops, branches, configs = m.ops, m.branches, m.configs
    coin = random.Random(seed).random
    # A tas in progress or a pending reset is mandatory; an idle pid's
    # tas is schedulable while its budget lasts, and spends it.
    forced = [not starts or op == "reset" for op, starts in ops]
    remaining = list(workload.tas_ops)
    trace = Trace()
    # The loop numbers the steps itself, so its rows skip Trace.append's check.
    rows = trace.rows
    append = rows.append
    cid = 0  # (rst, rst)
    op_seq = [-1, -1]
    t = 0
    truncated = False
    while True:
        base = 2 * cid
        if forced[base] or remaining[0] > 0:
            schedulable = (0, 1) if forced[base + 1] or remaining[1] > 0 else (0,)
        elif forced[base + 1] or remaining[1] > 0:
            schedulable = (1,)
        else:
            break
        if t >= max_steps:
            truncated = True
            break
        pid = adversary(rows, configs[cid], schedulable)
        if pid not in schedulable:
            raise ValueError(f"adversary scheduled unschedulable P{pid}")
        k = base + pid
        if not forced[k]:
            remaining[pid] -= 1
        op, starts = ops[k]
        if starts:
            op_seq[pid] += 1
        cid, fields, _ = _take(branches[k], coin)
        append((t, pid, fields, op_seq[pid], op))
        t += 1
    records = trace.op_records()
    return trace, records, RunStats.from_records(records, truncated)


def round_robin() -> Adversary:
    """Alternate between the processes, skipping unschedulable ones."""
    last = [1]

    def choose(rows, config, schedulable):
        pid = 1 - last[0]
        if pid not in schedulable:
            pid = schedulable[0]
        last[0] = pid
        return pid

    return choose


def _randrange_blocks(rng: random.Random, n: int) -> Iterator[bytes]:
    """Successive blocks of the stream of `rng.randrange(n)` draws, for
    n < 256, drawn 1,024 generator words at a time.

    `randrange(n)` keeps the top `k = n.bit_length()` bits of one 32-bit
    word and draws again while they are `>= n`, and
    `getrandbits(32 * m)` returns m successive words, the first least
    significant.  So each word's top byte shifted right by `8 - k`, with
    the rejected values deleted, is the same stream."""
    shift = 8 - n.bit_length()
    table = bytes(b >> shift for b in range(256))
    reject = bytes(range(n << shift, 256))
    while True:
        yield rng.getrandbits(32 * 1024).to_bytes(4 * 1024, "little")[3::4].translate(table, reject)


def random_adversary(seed: int) -> Adversary:
    """Picks as `random.Random(seed).choice(schedulable)` would.  A
    choice among one pid takes the same words as one among two, those of
    one `randrange(2)` draw, so every pick reads that stream."""
    draws = itertools.chain.from_iterable(_randrange_blocks(random.Random(seed), 2))

    def choose(rows, config, schedulable):
        if len(schedulable) > 2:
            raise ValueError(f"the random adversary picks among at most 2 pids, got {schedulable}")
        return schedulable[next(draws) & (len(schedulable) - 1)]

    return choose


def script(pids: Sequence[int]) -> Adversary:
    """Replay a fixed schedule; raises ScriptExhausted when it ends."""
    it = iter(pids)

    def choose(rows, config, schedulable):
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

    def choose(rows, config, schedulable):
        pid = policy.get(config)
        if pid is None or pid not in schedulable:
            pid = schedulable[0]
        return pid

    return choose


def adversary(name: str, seed: int) -> Adversary:
    """The built-in adversary `name`: "round-robin", "random" (drawing
    from `seed`) or "optimal"."""
    if name == "round-robin":
        return round_robin()
    if name == "random":
        return random_adversary(seed)
    if name == "optimal":
        return optimal()
    raise ValueError(f"unknown adversary {name!r}")


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


class LoopExperiment(NamedTuple):
    """Per-visit outcomes of the CHOOSE-loop Monte Carlo experiment.

    Each trial is one CHOOSE entry of P0; `probs[i]` is the analytic
    return probability from the configuration at that entry and
    `successes[i]` whether P0 entered CHOOSE again before its operation
    finished.
    """

    probs: list[Fraction]
    successes: list[bool]

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
    probs: list[Fraction] = []
    successes: list[bool] = []
    c = t = 0
    pending: Optional[Fraction] = None
    while len(probs) < min_visits:
        if t >= 100 * DEFAULT_MAX_STEPS:
            raise RuntimeError("loop experiment exceeded its step budget")
        t += 1
        pid, b = moves[c]
        c, _, move = _take(b, coin)
        if pid != 0:
            continue
        if move.post is ProcState.CHOOSE:
            if pending is not None:
                probs.append(pending)
                successes.append(True)
            pending = values[c]
        elif move.finishes and pending is not None:
            probs.append(pending)
            successes.append(False)
            pending = None
    return LoopExperiment(probs, successes)
