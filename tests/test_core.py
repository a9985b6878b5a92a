import dataclasses
import functools
import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wftas import core, harness, protocol
from wftas.core import Access, CorruptTrace, Event, RegValue, Trace


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
    """One access per chart entry and pid, as the engine builds it."""
    for (_, _, coin), move in protocol.CHART.items():
        for pid in (0, 1):
            yield Access(
                t=17, pid=pid, reg=pid if move.action == "w" else 1 - pid,
                action=move.action, value=move.value, coin=coin,
                pre=move.pre_name, post=move.post_name,
                events=move.events[pid], op_seq=4, op="tas",
            )


def _forged_accesses():
    """Accesses no chart produces, with fields that JSON escapes or that
    compare equal to canonical fields but encode differently."""
    base = next(a for a in _chart_accesses() if a.coin is True)
    yield dataclasses.replace(base, pre='say "hi"\\', post="tab\there")
    yield dataclasses.replace(base, pre="\u00e9\x01\u2028", post="\ud83d\ude00", op="reset")
    yield dataclasses.replace(base, coin=1)  # == True, encodes as 1
    yield dataclasses.replace(base, reg=True)  # == 1, encodes as RTrue
    yield dataclasses.replace(base, t=True, op_seq=2**70)
    yield dataclasses.replace(base, op="tas\n")


def test_access_json_field_order():
    accesses = [_solo_trace().accesses[0], *_chart_accesses(), *_forged_accesses()]
    # Twice: the second pass encodes from the stored tails.
    for a in accesses + accesses:
        fields = [a.t, a.pid, a.op_seq, a.op, a.action, f"R{a.reg}", a.value.value,
                  a.coin, a.pre, a.post, [e.kind for e in a.events]]
        assert a.to_json() == json.dumps(dict(zip(FIELD_ORDER, fields))), a
        assert list(json.loads(a.to_json())) == FIELD_ORDER
    assert json.loads(accesses[0].to_json())["reg"] in ("R0", "R1")


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
    "trailing whitespace": lambda line, draw: line + draw(st.sampled_from([" ", "\t", "\n", " \r\n"])),
    "non-chart tail": _forge_tail,
}


def _decode(decoder, line):
    try:
        return decoder(line)
    except CorruptTrace:
        return CorruptTrace


@given(st.data())
def test_from_json_matches_strict_decoder(data):
    line = data.draw(st.sampled_from(_sim_lines()))
    Access.from_json(line)  # the canonical line's tail is stored
    rewrite = data.draw(st.sampled_from(sorted(REWRITES)))
    forged = REWRITES[rewrite](line, data.draw)
    expected = _decode(core._decode_strict, forged)
    # Twice: the first call may store the rewritten tail, the second reuses it.
    assert _decode(Access.from_json, forged) == expected, forged
    assert _decode(Access.from_json, forged) == expected, forged


def test_trace_jsonl_roundtrip():
    trace = _solo_trace()
    buf = io.StringIO()
    trace.dump_jsonl(buf)
    buf.seek(0)
    back = Trace.load_jsonl(buf)
    assert back.accesses == trace.accesses


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
        reg=0,
        action="r",
        value=RegValue.HE,
        coin=None,
        pre="rst",
        post="rst",
        events=(),
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
    bad = dataclasses.replace(
        trace.accesses[-1], t=trace.accesses[-1].t + 1, pid=1,
        reg=1 if action == "r" else 0, action=action, value=RegValue.RST,
    )
    with pytest.raises(CorruptTrace, match=message):
        Trace(trace.accesses + [bad]).replay()


def test_op_records_solo():
    trace = _solo_trace()
    recs = trace.op_records()
    assert [(r.pid, r.kind, r.ret) for r in recs] == [
        (0, "tas", 0),
        (0, "reset", None),
    ]
    assert recs[0].accesses == 2
    assert recs[1].accesses == 1

