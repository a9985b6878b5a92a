"""Shared-memory model: 4-valued SWSR atomic registers, accesses, traces.

Two processes, P0 and P1.  Process i owns register R_i: only P_i writes R_i
and only P_{1-i} reads it.  Global time is the step index of the trace;
every access happens at its own step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional


class RegValue(Enum):
    ME = "me"
    HE = "he"
    CHOOSE = "choose"
    RST = "rst"

    def __repr__(self) -> str:
        return f"RegValue.{self.name}"


class TraceError(Exception):
    """A trace is inconsistent with the register model."""


class OwnershipViolation(TraceError):
    pass


class StaleRead(TraceError):
    pass


class CorruptTrace(TraceError):
    pass


# B-events carried by accesses.  The internal occurrence events tas0/tas1
# exist only inside the specification automata (as epsilon-moves).
B_EVENT_KINDS = ("sTas", "fTas0", "fTas1", "rstOp")
EPS_EVENT_KINDS = ("tas0", "tas1")


@dataclass(frozen=True)
class Event:
    kind: str
    pid: int

    def __post_init__(self) -> None:
        if self.kind not in B_EVENT_KINDS + EPS_EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.pid not in (0, 1):
            raise ValueError(f"bad pid {self.pid}")

    @property
    def is_eps(self) -> bool:
        return self.kind in EPS_EVENT_KINDS

    def __repr__(self) -> str:
        return f"{self.kind}({self.pid})"


# One shared Event per B-event (kind, pid), for trace parsing.
_SHARED_EVENTS = {(k, pid): Event(k, pid) for k in B_EVENT_KINDS for pid in (0, 1)}


class Registers:
    """The two shared registers, with ownership enforced at access time."""

    __slots__ = ("_vals",)

    def __init__(self, r0: RegValue, r1: RegValue):
        self._vals = [r0, r1]

    def write(self, pid: int, value: RegValue) -> None:
        if pid not in (0, 1):
            raise OwnershipViolation(f"bad pid {pid}")
        self._vals[pid] = value

    def read(self, pid: int) -> RegValue:
        """Read by process `pid` of the *other* process's register."""
        if pid not in (0, 1):
            raise OwnershipViolation(f"bad pid {pid}")
        return self._vals[1 - pid]

    def snapshot(self) -> tuple[RegValue, RegValue]:
        return (self._vals[0], self._vals[1])


def new_registers() -> Registers:
    """Both registers initialized to `rst`."""
    return Registers(RegValue.RST, RegValue.RST)


@dataclass(frozen=True)
class Access:
    """One atomic shared-memory step.

    `value` is the written value for writes and the observed value for
    reads.  `coin` is present exactly when the access is a read of CHOOSE
    performed from the CHOOSE state.  `pre`/`post` are the chart states of
    the acting process (stored as their serialized names so this module
    stays independent of the protocol module).
    """

    t: int
    pid: int
    reg: int
    action: str  # "r" or "w"
    value: RegValue
    coin: Optional[bool]
    pre: str
    post: str
    events: tuple[Event, ...]
    op_seq: int
    op: str  # "tas" or "reset"

    def __post_init__(self) -> None:
        if self.action not in ("r", "w"):
            raise CorruptTrace(f"bad action {self.action!r}")
        if self.pid not in (0, 1) or self.reg not in (0, 1):
            raise CorruptTrace("bad pid/reg")
        if self.op not in ("tas", "reset"):
            raise CorruptTrace(f"bad op kind {self.op!r}")
        for e in self.events:
            if e.is_eps:
                raise CorruptTrace("accesses carry only B-events")

    def to_json(self) -> str:
        obj = {
            "t": self.t,
            "pid": self.pid,
            "op_seq": self.op_seq,
            "op": self.op,
            "action": self.action,
            "reg": f"R{self.reg}",
            "value": self.value.value,
            "coin": self.coin,
            "pre": self.pre,
            "post": self.post,
            "events": [e.kind for e in self.events],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(line: str) -> "Access":
        try:
            obj = json.loads(line)
            t, pid, op_seq, reg = obj["t"], obj["pid"], obj["op_seq"], obj["reg"]
            coin, events = obj["coin"], obj["events"]
            # type() rather than isinstance(): JSON true must not pass as 1.
            if type(t) is not int or type(op_seq) is not int:
                raise CorruptTrace(f"bad t/op_seq {t!r}/{op_seq!r}")
            if type(pid) is not int or pid not in (0, 1):
                raise CorruptTrace(f"bad pid {pid!r}")
            if reg not in ("R0", "R1"):
                raise CorruptTrace(f"bad reg {reg!r}")
            if coin is not None and type(coin) is not bool:
                raise CorruptTrace(f"bad coin {coin!r}")
            if type(events) is not list or any(type(k) is not str for k in events):
                raise CorruptTrace(f"bad events {events!r}")
            return Access(
                t=t,
                pid=pid,
                reg=int(reg[1]),
                action=obj["action"],
                value=RegValue(obj["value"]),
                coin=coin,
                pre=obj["pre"],
                post=obj["post"],
                events=tuple(_SHARED_EVENTS[k, pid] for k in events),
                op_seq=op_seq,
                op=obj["op"],
            )
        except (KeyError, ValueError, IndexError, TypeError, json.JSONDecodeError) as exc:
            raise CorruptTrace(f"bad trace line: {exc}") from exc


def apply_access(regs: Registers, a: Access) -> None:
    """Replay one access against the registers, checking the model.

    Writes must target the acting process's own register; reads must
    target the other register and observe its current content.
    """
    if a.action == "w":
        if a.reg != a.pid:
            raise OwnershipViolation(
                f"step {a.t}: P{a.pid} writing R{a.reg}"
            )
        regs.write(a.pid, a.value)
    else:
        if a.reg != 1 - a.pid:
            raise OwnershipViolation(
                f"step {a.t}: P{a.pid} reading R{a.reg}"
            )
        current = regs.read(a.pid)
        if current is not a.value:
            raise StaleRead(
                f"step {a.t}: P{a.pid} observed {a.value.value}, "
                f"register holds {current.value}"
            )


@dataclass
class OpRecord:
    """Start/finish bookkeeping of one operation execution."""

    pid: int
    kind: str  # "tas" or "reset"
    op_seq: int
    start: int
    finish: Optional[int] = None
    ret: Optional[int] = None
    accesses: int = 0
    choose_visits: int = 0

    @property
    def finished(self) -> bool:
        return self.finish is not None


class Trace:
    """An ordered interleaving of accesses by the two processes."""

    def __init__(self, accesses: Iterable[Access] = ()):
        self.accesses: list[Access] = list(accesses)

    def append(self, a: Access) -> None:
        if self.accesses and a.t <= self.accesses[-1].t:
            raise CorruptTrace("step indices must strictly increase")
        self.accesses.append(a)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accesses)

    def replay(self) -> Registers:
        """Replay from fresh registers; raises TraceError if inconsistent."""
        last_t = -1
        regs = new_registers()
        for a in self.accesses:
            if a.t <= last_t:
                raise CorruptTrace("step indices must strictly increase")
            last_t = a.t
            apply_access(regs, a)
        return regs

    def op_records(self) -> list[OpRecord]:
        """Reconstruct per-operation records from the recorded accesses."""
        open_ops: dict[int, OpRecord] = {}
        done: list[OpRecord] = []
        for a in self.accesses:
            rec = open_ops.get(a.pid)
            if rec is not None and rec.op_seq != a.op_seq:
                raise CorruptTrace(
                    f"step {a.t}: P{a.pid} access for op {a.op_seq} "
                    f"while op {rec.op_seq} is open"
                )
            if rec is None:
                rec = OpRecord(pid=a.pid, kind=a.op, op_seq=a.op_seq, start=a.t)
                open_ops[a.pid] = rec
            rec.accesses += 1
            if a.post == "choose":
                rec.choose_visits += 1
            kinds = {e.kind for e in a.events}
            if kinds & {"fTas0", "fTas1", "rstOp"}:
                rec.finish = a.t
                if "fTas0" in kinds:
                    rec.ret = 0
                elif "fTas1" in kinds:
                    rec.ret = 1
                done.append(rec)
                del open_ops[a.pid]
        # Pending (unfinished) operations, in pid order for determinism.
        for pid in sorted(open_ops):
            done.append(open_ops[pid])
        done.sort(key=lambda r: r.start)
        return done

    def dump_jsonl(self, fh) -> None:
        for a in self.accesses:
            fh.write(a.to_json() + "\n")

    @staticmethod
    def load_jsonl(fh) -> "Trace":
        tr = Trace()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            tr.append(Access.from_json(line))
        return tr
