"""Shared-memory model: 4-valued SWSR atomic registers, accesses, traces.

Two processes, P0 and P1.  Process i owns register R_i: only P_i writes R_i
and only P_{1-i} reads it.  Global time is the step index of the trace;
every access happens at its own step.

`Event(kind, pid)` is the one immutable instance for its pair, so events
compare and hash by identity.  `Access` and `OpRecord` are mutable
slotted records that compare by their fields.  What an access records
besides its step, process and operation is one tuple, `Access.fields`,
which a run shares with the model branch it took; its seven field names
are read-only.

A `Trace` holds rows, not `Access` objects: a row is the plain tuple
`(t, pid, fields, op_seq, op)`, an access's five slots in order.  The
code that makes and checks traces reads and writes rows, and an
`Access` is built only when a caller reads one.

A trace is stored as JSON lines, one access per line.  `Access.to_json`
and `Access.from_json` are the plain codec of one line; `Trace.dump_jsonl`
and `Trace.load_jsonl` give the same lines and accesses, and are the fast
paths, each with a memo of the tails that lives only for its call.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from itertools import starmap
from typing import Iterable, Iterator, Optional


class RegValue(Enum):
    ME = "me"
    HE = "he"
    CHOOSE = "choose"
    RST = "rst"

    # Members are singletons that compare by identity, so they may hash
    # by it too: Enum's own hash hashes the name on every lookup.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"RegValue.{self.name}"


class TraceError(Exception):
    """A trace is inconsistent with the register model."""


class CorruptTrace(TraceError):
    pass


# B-events carried by accesses.  The internal occurrence events tas0/tas1
# exist only inside the specification automata (as epsilon-moves).
B_EVENT_KINDS = ("sTas", "fTas0", "fTas1", "rstOp")
EPS_EVENT_KINDS = ("tas0", "tas1")


class Event:
    """An event of one process: `Event(kind, pid)` is the one instance
    for that pair, so events compare and hash by identity (as `RegValue`
    members do), and copying or unpickling one returns it."""

    __slots__ = ("kind", "pid")
    kind: str
    pid: int

    def __new__(cls, kind: str, pid: int) -> "Event":
        if kind not in B_EVENT_KINDS + EPS_EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if pid not in (0, 1):
            raise ValueError(f"bad pid {pid}")
        return _EVENTS[kind, pid]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Event")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an Event")

    def __reduce__(self) -> tuple:  # copy, deepcopy and pickle call Event(kind, pid)
        return Event, (self.kind, self.pid)

    @property
    def is_eps(self) -> bool:
        return self.kind in EPS_EVENT_KINDS

    def __repr__(self) -> str:
        return f"{self.kind}({self.pid})"


def _make_event(kind: str, pid: int) -> Event:
    e = object.__new__(Event)
    object.__setattr__(e, "kind", kind)
    object.__setattr__(e, "pid", pid)
    return e


_EVENTS = {(k, pid): _make_event(k, pid) for k in B_EVENT_KINDS + EPS_EVENT_KINDS for pid in (0, 1)}

# The B-events by (kind, pid).  An epsilon kind is not a key: that
# KeyError is how `Access.from_json` refuses one.
SHARED_EVENTS = {(k, pid): Event(k, pid) for k in B_EVENT_KINDS for pid in (0, 1)}


class _Record:
    """A mutable slotted record: equal to a record of its own class with
    equal fields, unhashable, and shown with its fields."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _field(i: int, doc: str) -> property:
    """The read-only property of `Access.fields[i]`."""
    return property(lambda a: a.fields[i], doc=doc)


class Access(_Record):
    """One atomic shared-memory step: `Access(t, pid, fields, op_seq, op)`.

    `fields` is the tuple `(reg, action, value, coin, pre, post, events)`
    and is read through those seven names.  `value` is the written value
    for writes and the observed value for reads.  `coin` is present
    exactly when the access is a read of CHOOSE performed from the CHOOSE
    state.  `pre`/`post` are the chart states of the acting process
    (stored as their serialized names so this module stays independent
    of the protocol module).  `action` is "r" or "w", `op` is "tas" or
    "reset".

    Construction checks nothing and copies nothing: a run passes the
    `fields` of the model branch it took, so its accesses share a few
    tuples, and `from_json` checks every line read from outside.
    """

    __slots__ = ("t", "pid", "fields", "op_seq", "op")

    def __init__(self, t: int, pid: int,
                 fields: tuple[int, str, RegValue, Optional[bool], str, str, tuple[Event, ...]],
                 op_seq: int, op: str) -> None:
        self.t = t
        self.pid = pid
        self.fields = fields
        self.op_seq = op_seq
        self.op = op

    reg = _field(0, "The register accessed, 0 or 1.")
    action = _field(1, '"r" or "w".')
    value = _field(2, "The value written or observed.")
    coin = _field(3, "The coin of a CHOOSE read from CHOOSE, else None.")
    pre = _field(4, "The acting process's chart state before the access.")
    post = _field(5, "The acting process's chart state after the access.")
    events = _field(6, "The B-events the access carries, in order.")

    def to_json(self) -> str:
        """The canonical line: `json.dumps` of the fields in the order
        t, pid, op_seq, op, action, reg, value, coin, pre, post, events."""
        return json.dumps(
            {"t": self.t, "pid": self.pid, "op_seq": self.op_seq, "op": self.op, **_tail(self.fields)}
        )

    @staticmethod
    def from_json(line: str) -> "Access":
        """`json.loads` the line and check every field; any failure is a
        CorruptTrace."""
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
            fields = (
                int(reg[1]),
                obj["action"],
                RegValue(obj["value"]),
                coin,
                obj["pre"],
                obj["post"],
                # Only B-events are keys: an epsilon event is a KeyError.
                tuple(SHARED_EVENTS[k, pid] for k in events),
            )
            a = Access(t, pid, fields, op_seq, obj["op"])
        except (KeyError, ValueError, IndexError, TypeError, RecursionError) as exc:
            raise CorruptTrace(f"bad trace line: {exc}") from exc
        if a.action not in ("r", "w"):
            raise CorruptTrace(f"bad action {a.action!r}")
        if a.op not in _OPS:
            raise CorruptTrace(f"bad op kind {a.op!r}")
        return a


def _tail(fields: tuple) -> dict:
    """The part of `to_json`'s object after `op`, from `fields`."""
    reg, action, value, coin, pre, post, events = fields
    return {
        "action": action,
        "reg": f"R{reg}",
        "value": value.value,
        "coin": coin,
        "pre": pre,
        "post": post,
        "events": [e.kind for e in events],
    }


def _row(a: Access) -> tuple:
    """The row of `a`: its five slots, in order."""
    return a.t, a.pid, a.fields, a.op_seq, a.op


_OPS = ("tas", "reset")
_TAIL_KEYS = ("action", "reg", "value", "coin", "pre", "post", "events")

# A canonical head, as `to_json` writes it.  Numbers of up to 18 digits
# always convert; longer ones take the strict path.
_HEAD = re.compile(
    r'\{"t": (0|[1-9][0-9]{0,17}), "pid": ([01]), '
    r'"op_seq": (0|[1-9][0-9]{0,17}), "op": "(tas|reset)", (.*)',
    re.DOTALL,
)

# The return value of the operation that an access's last B-event
# finishes: every chart access carries its finishing event last.
_FINISH = {"fTas0": 0, "fTas1": 1, "rstOp": None}


class OpRecord(_Record):
    """Start/finish bookkeeping of one operation execution; `kind` is
    "tas" or "reset"."""

    __slots__ = ("pid", "kind", "op_seq", "start", "finish", "ret", "accesses", "choose_visits")

    def __init__(self, pid: int, kind: str, op_seq: int, start: int, finish: Optional[int] = None,
                 ret: Optional[int] = None, accesses: int = 0, choose_visits: int = 0) -> None:
        self.pid = pid
        self.kind = kind
        self.op_seq = op_seq
        self.start = start
        self.finish = finish
        self.ret = ret
        self.accesses = accesses
        self.choose_visits = choose_visits

    @property
    def finished(self) -> bool:
        return self.finish is not None


class Trace:
    """An ordered interleaving of accesses by the two processes.

    `rows` is the list of its accesses as rows, `(t, pid, fields,
    op_seq, op)` each.  `Trace(accesses)` and `append` take `Access`
    objects; `accesses` and iteration build them from the rows, new
    ones on each read, each holding its row's `fields` tuple itself."""

    def __init__(self, accesses: Iterable[Access] = ()):
        self.rows: list[tuple] = [_row(a) for a in accesses]

    @property
    def accesses(self) -> list[Access]:
        """A new list of the accesses, built from the rows."""
        return list(starmap(Access, self.rows))

    def append(self, a: Access) -> None:
        rows = self.rows
        if rows and a.t <= rows[-1][0]:
            raise CorruptTrace("step indices must strictly increase")
        rows.append(_row(a))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Access]:
        return starmap(Access, self.rows)

    def replay(self) -> tuple[RegValue, RegValue]:
        """Replay from both registers holding rst and return their final
        contents.  The step indices must increase, each write must go to
        the writer's own register and each read to the other one,
        observing its current content; the first failure raises
        CorruptTrace."""
        last_t = -1
        regs = [RegValue.RST, RegValue.RST]
        for t, pid, fields, _, _ in self.rows:
            reg = fields[0]
            if t <= last_t:
                raise CorruptTrace("step indices must strictly increase")
            last_t = t
            if pid not in (0, 1):
                raise CorruptTrace(f"step {t}: bad pid {pid}")
            if fields[1] == "w":
                if reg != pid:
                    raise CorruptTrace(f"step {t}: P{pid} writing R{reg}")
                regs[pid] = fields[2]
            elif reg != 1 - pid:
                raise CorruptTrace(f"step {t}: P{pid} reading R{reg}")
            elif regs[reg] is not fields[2]:
                raise CorruptTrace(
                    f"step {t}: P{pid} observed {fields[2].value}, "
                    f"register holds {regs[reg].value}"
                )
        return regs[0], regs[1]

    def op_records(self) -> list[OpRecord]:
        """Reconstruct per-operation records from the recorded accesses,
        in start order: a record is listed when its operation's first
        access is read.  The step indices are taken as they are; on the
        `check_two_process` path the register replay checks that they
        increase."""
        # The open operation of each pid; a trace built in Python may
        # carry other pids, which get a slot when they first act.
        open_ops: dict[int, Optional[OpRecord]] = {0: None, 1: None}
        records: list[OpRecord] = []
        for t, pid, fields, op_seq, op in self.rows:
            rec = open_ops.get(pid)
            if rec is None:
                rec = open_ops[pid] = OpRecord(pid, op, op_seq, t)
                records.append(rec)
            elif rec.op_seq != op_seq:
                raise CorruptTrace(
                    f"step {t}: P{pid} access for op {op_seq} "
                    f"while op {rec.op_seq} is open"
                )
            rec.accesses += 1
            if fields[5] == "choose":
                rec.choose_visits += 1
            events = fields[6]
            if events and events[-1].kind in _FINISH:
                rec.ret = _FINISH[events[-1].kind]
                rec.finish = t
                open_ops[pid] = None
        return records

    def dump_jsonl(self, fh) -> None:
        """Write `to_json` of each access as one line.  The part of a
        canonical line after `op`, its tail, is encoded once per distinct
        `fields` object in the trace (a simulated one has at most 48)."""
        write = fh.write
        # Keyed by id: the trace holds every fields object for the whole
        # call, so no two of them have the same id, and tuples that are
        # equal but encode apart (coin 1 and True) get their own tails.
        tails: dict[int, str] = {}
        for row in self.rows:
            t, pid, fields, op_seq, op = row
            if type(t) is int and type(pid) is int and type(op_seq) is int and op in _OPS:
                tail = tails.get(id(fields))
                if tail is None:
                    tail = tails[id(fields)] = json.dumps(_tail(fields))[1:]
                write(f'{{"t": {t}, "pid": {pid}, "op_seq": {op_seq}, "op": "{op}", {tail}\n')
            else:
                write(Access(*row).to_json() + "\n")

    @staticmethod
    def load_jsonl(fh) -> "Trace":
        """The trace of the lines of `fh`, blank ones skipped: each line
        is read as `Access.from_json` reads it and added as `append`
        adds it, so the first bad line raises CorruptTrace.

        A line with the canonical head `{"t": N, "pid": P, "op_seq": N,
        "op": "tas"|"reset", ` shares the `fields` tuple decoded from its
        tail, the rest of the line, when an earlier line of the trace had
        the same pid and tail."""
        tr = Trace()
        rows = tr.rows
        append, match, from_json = rows.append, _HEAD.match, Access.from_json
        # Per pid, by tail: the pid and fields that tail decodes to.
        tails: dict[str, dict[str, tuple[int, tuple]]] = {"0": {}, "1": {}}
        last_t = 0
        for line in fh:
            # The raw line: a canonical one needs no strip, as its tail
            # is a key, whitespace and all.
            m = match(line)
            if m is None:
                line = line.strip()
                if not line:
                    continue
                row = _row(from_json(line))
            else:
                t, pid, op_seq, op, tail = m.groups()
                known = tails[pid].get(tail)
                if known is not None:
                    row = (int(t), known[0], known[1], int(op_seq), op)
                else:
                    a = from_json(line.strip())
                    row = _row(a)
                    # A tail that repeats a head key overrides the head: never store it.
                    if tuple(json.loads("{" + tail.rstrip())) == _TAIL_KEYS:
                        tails[pid][tail] = (a.pid, a.fields)
            t = row[0]
            if rows and t <= last_t:
                raise CorruptTrace("step indices must strictly increase")
            append(row)
            last_t = t
        return tr
