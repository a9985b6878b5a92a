import copy
import functools
import io
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import cli, core, harness, protocol, tournament
from wftas.core import Access, CorruptTrace, Event, RegValue, Trace


# An `Access`'s field names, in the order of its `fields` tuple.
_ACCESS_FIELDS = ("reg", "action", "value", "coin", "pre", "post", "events")


def _replace(record, **changes):
    """`record` rebuilt from its fields, with `changes` applied; an
    `Access`'s `fields` tuple is rebuilt from its field names."""
    if type(record) is Access:
        changes["fields"] = tuple(changes.pop(f, getattr(record, f)) for f in _ACCESS_FIELDS)
    return type(record)(**{f: getattr(record, f) for f in record.__slots__} | changes)


def test_event_kinds():
    Event("sTas", 0)
    Event("fTas0", 1)
    Event("tas0", 0)
    with pytest.raises(ValueError):
        Event("bogus", 0)
    with pytest.raises(ValueError):
        Event("sTas", 2)
    assert Event("tas1", 0).is_eps
    assert not Event("fTas1", 0).is_eps


@pytest.mark.parametrize("kind", core.B_EVENT_KINDS + core.EPS_EVENT_KINDS)
@pytest.mark.parametrize("pid", (0, 1))
def test_events_are_interned(kind, pid):
    e = Event(kind, pid)
    assert Event(kind, pid) is e
    assert (e.kind, e.pid, repr(e)) == (kind, pid, f"{kind}({pid})")
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy([e, (e,)])[1][0] is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert hash(e) == object.__hash__(e)
    assert e != Event(kind, 1 - pid)
    with pytest.raises(AttributeError):
        e.kind = "sTas"
    with pytest.raises(AttributeError):
        e.pid = 1 - pid
    with pytest.raises(AttributeError):
        del e.pid
    assert (e.kind, e.pid) == (kind, pid)
    if kind in core.B_EVENT_KINDS:
        assert core.SHARED_EVENTS[kind, pid] is e
    else:
        with pytest.raises(KeyError):
            core.SHARED_EVENTS[kind, pid]


def test_event_errors():
    with pytest.raises(ValueError, match=r"^unknown event kind 'bogus'$"):
        Event("bogus", 0)
    with pytest.raises(ValueError, match=r"^bad pid 2$"):
        Event("sTas", 2)
    with pytest.raises(ValueError, match=r"^unknown event kind 'bogus'$"):
        Event("bogus", 2)  # the kind is checked first


def _solo_trace():
    trace, _, _ = harness.run(
        harness.Workload((1, 0)), harness.round_robin(), seed=0
    )
    return trace


FIELD_ORDER = [
    "t", "pid", "op_seq", "op", "action", "reg", "value",
    "coin", "pre", "post", "events",
]


def _chart_accesses():
    """One access per chart entry and pid, as a run builds it."""
    for (_, _, coin), move in protocol.CHART.items():
        for pid in (0, 1):
            yield Access(
                t=17, pid=pid,
                fields=(pid if move.action == "w" else 1 - pid, move.action, move.value, coin,
                        move.pre_name, move.post_name, move.events[pid]),
                op_seq=4, op="tas",
            )


def _forged_accesses():
    """Accesses no chart produces, with fields that JSON escapes or that
    compare equal to canonical fields but encode differently."""
    base = next(a for a in _chart_accesses() if a.coin is True)
    yield _replace(base, pre='say "hi"\\', post="tab\there")
    yield _replace(base, pre="\u00e9\x01\u2028", post="\ud83d\ude00", op="reset")
    yield _replace(base, coin=1)  # == True, encodes as 1
    yield _replace(base, reg=True)  # == 1, encodes as RTrue
    yield _replace(base, t=True, op_seq=2**70)
    yield _replace(base, op="tas\n")
    yield _replace(base, events=list(base.events))  # unhashable


def test_access_json_field_order():
    accesses = [_solo_trace().accesses[0], *_chart_accesses(), *_forged_accesses()]
    # Twice in one dump: the second pass writes from the tails the first stored.
    buf = io.StringIO()
    Trace(accesses + accesses).dump_jsonl(buf)
    for a, line in zip(accesses + accesses, buf.getvalue().splitlines(), strict=True):
        fields = [a.t, a.pid, a.op_seq, a.op, a.action, f"R{a.reg}", a.value.value,
                  a.coin, a.pre, a.post, [e.kind for e in a.events]]
        assert a.to_json() == json.dumps(dict(zip(FIELD_ORDER, fields))), a
        assert line == a.to_json(), a
        assert list(json.loads(line)) == FIELD_ORDER
    assert json.loads(accesses[0].to_json())["reg"] in ("R0", "R1")


def test_shared_fields_dump_as_to_json():
    """Accesses that share one `fields` object under different heads,
    canonical or not, each dump as their own `to_json` line, and so do
    equal tuples that encode apart (coin 1 and True)."""
    heads = [(0, 0, 0, "tas"), (5, 1, 3, "reset"), (True, 0, 2**70, "tas"),
             (9, 1, 7, "tas\n"), (12, 0, 1, "tas")]
    accesses = [Access(t, pid, a.fields, op_seq, op)
                for a in (*_chart_accesses(), *_forged_accesses())
                for t, pid, op_seq, op in heads]
    buf = io.StringIO()
    Trace(accesses).dump_jsonl(buf)
    assert buf.getvalue().splitlines() == [a.to_json() for a in accesses]


@pytest.mark.parametrize("name", _ACCESS_FIELDS)
def test_access_field_names_are_read_only(name):
    """The seven field names read `fields` and cannot be assigned."""
    a = _solo_trace().accesses[0]
    assert getattr(a, name) is a.fields[_ACCESS_FIELDS.index(name)]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))


def test_load_jsonl_shares_one_fields_tuple_per_pid_and_tail():
    """Lines with the same pid and the same text after `op` decode to
    accesses holding one `fields` tuple; other lines get other tuples."""
    trace, _, _ = harness.run(harness.Workload((30, 30)), harness.random_adversary(5), seed=5)
    buf = io.StringIO()
    trace.dump_jsonl(buf)
    lines = buf.getvalue().splitlines()
    loaded = Trace.load_jsonl(io.StringIO(buf.getvalue()))
    shared = {}
    for line, a in zip(lines, loaded, strict=True):
        key = re.fullmatch(r'\{"t": \d+, "pid": ([01]), "op_seq": \d+, "op": "\w+", (.*)', line).groups()
        assert a.fields is shared.setdefault(key, a.fields)
    assert len({id(f) for f in shared.values()}) == len(shared) < len(lines)
    assert loaded.accesses == trace.accesses


@functools.cache
def _sim_lines() -> tuple[str, ...]:
    trace, _, _ = harness.run(
        harness.Workload((30, 30)), harness.random_adversary(2), seed=4
    )
    return tuple(a.to_json() for a in trace)


def _set_head(line: str, key: str, text: str) -> str:
    """The line with the value of head key `key` spelled as `text`."""
    return re.sub(rf'"{key}": [^,]*', lambda _: f'"{key}": {text}', line, count=1)


def _forge_tail(line: str, draw) -> str:
    obj = json.loads(line)
    if draw(st.booleans()):
        obj["post"] = "he"
    else:
        obj["events"] = ["fTas1"]
    return json.dumps(obj)


# One rewrite each: a line `lint-trace` may be given that `simulate`
# does not write.
REWRITES = {
    "compact": lambda line, draw: json.dumps(json.loads(line), separators=(",", ":")),
    "reordered": lambda line, draw: json.dumps(
        {k: json.loads(line)[k] for k in draw(st.permutations(FIELD_ORDER))}
    ),
    "repeated t": lambda line, draw: line[:-1] + f', "t": {draw(st.integers(-5, 10**6))}}}',
    "escape": lambda line, draw: line.replace(
        s := draw(st.sampled_from(['"rst"', '"t"', '"events"', '"tas"', '"pre"'])),
        '"\\u%04x' % ord(s[1]) + s[2:],
    ),
    "t spelling": lambda line, draw: _set_head(
        line, "t", draw(st.sampled_from(["007", "-0", "0.0", "1e2", "9" * 5000]))
    ),
    "pid true": lambda line, draw: _set_head(line, "pid", "true"),
    "other pid": lambda line, draw: _set_head(line, "pid", str(1 - json.loads(line)["pid"])),
    "trailing whitespace": lambda line, draw: line + draw(st.sampled_from([" ", "\t", "\n", " \r\n"])),
    "leading whitespace": lambda line, draw: draw(st.sampled_from([" ", "\t", "\r", " \x0c"])) + line,
    # Whitespace to `str.strip` that JSON does not allow.
    "trailing non-JSON whitespace": lambda line, draw: line + draw(st.sampled_from(["\x0c", "\x1c", "\u2028"])),
    "whitespace line before": lambda line, draw: draw(st.sampled_from(["", " ", "\t\r", "\x0c"])) + "\n" + line,
    "non-chart tail": _forge_tail,
}


@given(st.data())
def test_load_jsonl_matches_strict_decoder(data):
    """In one trace, a forgery read after the canonical line it shares a
    tail with, then read again, loads as the strict per-line reference
    loads it, or fails with its message.  The second read's head comes
    after every step a rewrite may spell, so a tail that overrides the
    head fails there only if the tail's own step is read."""
    line = data.draw(st.sampled_from(_sim_lines()))
    t = json.loads(line)["t"]
    rewrite = REWRITES[data.draw(st.sampled_from(sorted(REWRITES)))]
    drawn = []

    def draw(strategy):
        drawn.append(data.draw(strategy))
        return drawn[-1]

    forged = rewrite(_set_head(line, "t", str(t + 1)), draw)
    replay = iter(drawn)
    again = rewrite(_set_head(line, "t", str(t + 10**7)), lambda _: next(replay))
    text = "\n".join([line, forged, again]) + "\n"
    expected = _result(_load_jsonl_reference, io.StringIO(text))
    loaded = _result(Trace.load_jsonl, io.StringIO(text))
    if isinstance(expected, str):
        assert loaded == expected, text
    else:
        assert loaded.accesses == expected.accesses, text


def test_trace_jsonl_roundtrip():
    trace = _solo_trace()
    buf = io.StringIO()
    trace.dump_jsonl(buf)
    buf.seek(0)
    back = Trace.load_jsonl(buf)
    assert back.accesses == trace.accesses


def _tournament_node_traces():
    tree = tournament.find_violation(3, 1, 0).tree
    return [tree.node_trace(v) for v in tree.nodes]


def test_rows_and_accesses_agree():
    """A trace's rows are its accesses' slots: rebuilding a trace from
    its `accesses` gives the same rows, for the traces that `run`,
    `load_jsonl` and `node_trace` make; each built `Access` holds its
    row's `fields` object, and iteration builds the same accesses."""
    run = harness.run(harness.Workload((30, 30)), harness.random_adversary(3), seed=3)[0]
    buf = io.StringIO()
    run.dump_jsonl(buf)
    loaded = Trace.load_jsonl(io.StringIO(buf.getvalue()))
    for tr in (run, loaded, *_tournament_node_traces()):
        assert len(tr) == len(tr.rows) > 0
        assert all(type(row) is tuple and len(row) == 5 for row in tr.rows)
        assert Trace(tr.accesses).rows == tr.rows
        assert tr.accesses is not tr.accesses
        for row, a in zip(tr.rows, tr.accesses, strict=True):
            assert a.fields is row[2]
            assert (a.t, a.pid, a.op_seq, a.op) == (row[0], row[1], row[3], row[4])
        assert list(tr) == tr.accesses
    tr = Trace(run.accesses[:2])
    with pytest.raises(CorruptTrace, match=r"^step indices must strictly increase$"):
        tr.append(run.accesses[1])
    assert tr.rows == run.rows[:2]


def test_trace_append_monotonic():
    trace = _solo_trace()
    tr = Trace()
    tr.append(trace.accesses[0])
    with pytest.raises(CorruptTrace):
        tr.append(trace.accesses[0])


def test_replay_detects_stale_read():
    trace = _solo_trace()
    tr = Trace(trace.accesses)
    # Append a fabricated read observing a value never written.
    last = trace.accesses[-1]
    bogus = Access(
        t=last.t + 1,
        pid=1,
        fields=(0, "r", RegValue.HE, None, "rst", "rst", ()),
        op_seq=0,
        op="tas",
    )
    tr_accesses = list(tr.accesses) + [bogus]
    with pytest.raises(core.TraceError):
        Trace(tr_accesses).replay()


@pytest.mark.parametrize("action, message", [
    ("w", "P1 writing R0"),  # a write to the other process's register
    ("r", "P1 reading R1"),  # a read of the process's own register
])
def test_replay_checks_register_ownership(action, message):
    trace = _solo_trace()
    # The solo trace leaves R0 holding rst, so only ownership can fail.
    assert trace.replay() == (RegValue.RST, RegValue.RST)
    bad = _replace(
        trace.accesses[-1], t=trace.accesses[-1].t + 1, pid=1,
        reg=1 if action == "r" else 0, action=action, value=RegValue.RST,
    )
    with pytest.raises(CorruptTrace, match=message):
        Trace(trace.accesses + [bad]).replay()


def test_replay_requires_increasing_steps():
    """A repeated step index fails the replay, though every access is
    otherwise one the registers allow."""
    first, second, third = _solo_trace().accesses
    assert Trace([first, second, third]).replay() == (RegValue.RST, RegValue.RST)
    repeated = _replace(second, t=first.t)
    with pytest.raises(CorruptTrace, match=r"^step indices must strictly increase$"):
        Trace([first, repeated, third]).replay()


@pytest.mark.parametrize("pid", (2, -1))
def test_replay_rejects_bad_pid(pid):
    """A pid other than 0 or 1 is named before its register is checked."""
    first, second, third = _solo_trace().accesses
    bad = _replace(second, pid=pid)
    with pytest.raises(CorruptTrace, match=rf"^step {second.t}: bad pid {pid}$"):
        Trace([first, bad, third]).replay()


def test_op_records_solo():
    trace = _solo_trace()
    recs = trace.op_records()
    assert [(r.pid, r.kind, r.ret) for r in recs] == [
        (0, "tas", 0),
        (0, "reset", None),
    ]
    assert recs[0].accesses == 2
    assert recs[1].accesses == 1


# Plain versions of `Trace.load_jsonl` and `Trace.op_records`, kept as
# references for the inlined parser and the two-slot record builder.
def _load_jsonl_reference(fh):
    tr = Trace()
    for line in fh:
        line = line.strip()
        if not line:
            continue
        tr.append(Access.from_json(line))
    return tr


def _op_records_reference(trace):
    open_ops = {}
    done = []
    for a in trace.accesses:
        rec = open_ops.get(a.pid)
        if rec is not None and rec.op_seq != a.op_seq:
            raise CorruptTrace(
                f"step {a.t}: P{a.pid} access for op {a.op_seq} "
                f"while op {rec.op_seq} is open"
            )
        if rec is None:
            rec = core.OpRecord(pid=a.pid, kind=a.op, op_seq=a.op_seq, start=a.t)
            open_ops[a.pid] = rec
        rec.accesses += 1
        if a.post == "choose":
            rec.choose_visits += 1
        events = a.events
        if not events:
            continue
        kinds = [e.kind for e in events]
        if "fTas0" in kinds:
            rec.ret = 0
        elif "fTas1" in kinds:
            rec.ret = 1
        elif "rstOp" not in kinds:
            continue
        rec.finish = a.t
        done.append(rec)
        del open_ops[a.pid]
    for pid in sorted(open_ops):
        done.append(open_ops[pid])
    done.sort(key=lambda r: r.start)
    return done


def _result(fn, *args):
    """fn's result, or the message of the CorruptTrace it raised."""
    try:
        return fn(*args)
    except CorruptTrace as exc:
        return f"CorruptTrace: {exc}"


@functools.cache
def _adversary_trace(adversary: str, seed: int, max_steps: int) -> Trace:
    trace, _, _ = harness.run(
        harness.Workload((12, 12)), harness.adversary(adversary, seed),
        seed=seed, max_steps=max_steps,
    )
    return trace


# A trace of each adversary, one of them cut short by max_steps (it ends
# inside an operation).
_TRACES = st.tuples(
    st.sampled_from(["round-robin", "random", "optimal"]),
    st.integers(0, 3),
    st.sampled_from([harness.DEFAULT_MAX_STEPS, 37]),
).map(lambda key: _adversary_trace(*key))


def _starts_no_op(obj) -> bool:
    return not {"sTas", "rstOp"} & set(obj["events"])


def _forge_lines(lines: list[str], data) -> list[str]:
    """One forgery of the lines of a trace, drawn by `data`."""
    kind = data.draw(st.sampled_from(
        ["none", "blank", "padded", "t back then garbled", "op_seq switch"]
    ), label="forgery")
    lines = list(lines)
    i = data.draw(st.integers(1, len(lines) - 2), label="at")
    if kind == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", " ", "\t", " \r"])))
    elif kind == "padded":
        lines[i] = data.draw(st.sampled_from([" ", "\t", "  \r"])) + lines[i] + " \t"
    elif kind == "t back then garbled":
        prev = json.loads(lines[i - 1])["t"]
        obj = json.loads(lines[i])
        obj["t"] = data.draw(st.sampled_from([prev, prev - 1, 0]))
        lines[i] = json.dumps(obj)
        lines[i + 1] = lines[i + 1][: len(lines[i + 1]) // 2]
    elif kind == "op_seq switch":
        # An access that starts no operation gets another op_seq.
        objs = [json.loads(line) for line in lines]
        mid = [j for j, obj in enumerate(objs) if _starts_no_op(obj)]
        j = data.draw(st.sampled_from(mid), label="mid")
        objs[j]["op_seq"] += data.draw(st.sampled_from([1, -1, 5]))
        lines[j] = json.dumps(objs[j])
    return lines


@settings(max_examples=150, deadline=None)
@given(_TRACES, st.data())
def test_load_and_op_records_match_reference(trace, data):
    """The inlined parser and the two-slot record builder give what the
    plain ones give, or raise CorruptTrace with the same message."""
    lines = _forge_lines([a.to_json() for a in trace], data)
    text = "".join(line + "\n" for line in lines)
    loaded = _result(Trace.load_jsonl, io.StringIO(text))
    expected = _result(_load_jsonl_reference, io.StringIO(text))
    if isinstance(expected, str):
        assert loaded == expected
        return
    assert loaded.accesses == expected.accesses
    assert _result(loaded.op_records) == _result(_op_records_reference, expected)


@settings(max_examples=60, deadline=None)
@given(_TRACES, st.data())
def test_op_records_other_pids_match_reference(trace, data):
    """An access built in Python with a pid other than 0 and 1 opens its
    own record, as in the reference; taking it from its pid's operation may
    leave that one open, so the next access of that pid is corrupt."""
    accesses = list(trace.accesses)
    i = data.draw(st.integers(0, len(accesses) - 1), label="at")
    pid = data.draw(st.sampled_from([2, -1]), label="pid")
    accesses[i] = _replace(accesses[i], pid=pid)
    forged = Trace(accesses)
    records = _result(forged.op_records)
    assert records == _result(_op_records_reference, forged)
    assert isinstance(records, str) or any(r.pid == pid for r in records)


_CANONICAL_LINE = (
    '{"t": 0, "pid": 0, "op_seq": 0, "op": "tas", "action": "w", "reg": "R0", '
    '"value": "me", "coin": null, "pre": "rst", "post": "me", "events": ["sTas"]}'
)


@pytest.mark.parametrize("field, value, message", [
    ("action", "x", "bad action 'x'"),
    ("op", "lock", "bad op kind 'lock'"),
])
def test_from_json_rejects_unknown_action_and_op(capsys, tmp_path, field, value, message):
    # The line is otherwise the first access of a solo trace.
    assert Access.from_json(_CANONICAL_LINE).action == "w"
    line = json.dumps({**json.loads(_CANONICAL_LINE), field: value})
    with pytest.raises(CorruptTrace, match=f"^{message}$"):
        Access.from_json(line)
    path = tmp_path / "t.jsonl"
    path.write_text(line + "\n")
    assert cli.main(["lint-trace", str(path)]) == 3
    assert capsys.readouterr().out == f"corrupt trace: {message}\n"
