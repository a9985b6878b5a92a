import contextlib
import functools
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out


def test_check(capsys):
    rc, out = run_cli(capsys, "check")
    assert rc == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_check_symmetry_problems_printed_once(capsys, monkeypatch):
    from wftas import goldens

    table = goldens.load_golden_table()
    cells = dict(table.cells)
    cell = cells[("rst", "me")]
    extra = min(set("abcdefghijklmnopqrst") - cell.letters)
    cells[("rst", "me")] = goldens.Cell(cell.letters | {extra}, cell.expected)
    monkeypatch.setattr(cli.goldens, "load_golden_table",
                        lambda: goldens.GoldenTable(cells))
    rc, out = run_cli(capsys, "check")
    assert rc == 1
    lines = out.splitlines()
    sym = lines[lines.index("FAIL table symmetry") + 1:]
    assert "  - letter-count asymmetry at (rst,me)" in sym
    assert all(lines.count(line) == 1 for line in sym)


def test_check_json(capsys):
    rc, out = run_cli(capsys, "check", "--json")
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert len(payload["cells"]) == 98
    assert len(payload["unreachable"]) == 23
    assert payload["cells"]["rst,rst"] == {
        "letters": "d", "expected_accesses": "10"
    }


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_json_derives_rep_sets_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, cli.checker, "representative_sets")
    rc, _ = run_cli(capsys, "check", "--json")
    assert rc == 0
    assert len(calls) == 1


def test_expect_verify_policy_solves_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, cli.expectation, "solve")
    rc, _ = run_cli(capsys, "expect", "--verify", "--policy")
    assert rc == 0
    assert len(calls) == 1


def test_expect_verify(capsys):
    rc, out = run_cli(capsys, "expect", "--verify")
    assert rc == 0
    assert "max expected accesses: 11" in out


def test_expect_policy(capsys):
    rc, out = run_cli(capsys, "expect", "--policy")
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert len(payload) == 98
    assert set(payload.values()) <= {0, 1}


def test_simulate_stdout_then_lint(capsys, monkeypatch, tmp_path):
    rc, out = run_cli(capsys, "simulate", "--ops", "30",
                      "--adversary", "random", "--seed", "7")
    assert rc == 0
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(out)
    rc, out = run_cli(capsys, "lint-trace", str(trace_file))
    assert rc == 0
    assert out.startswith("linearizable")


def test_simulate_files_and_stats(capsys, tmp_path):
    tf, sf = tmp_path / "t.jsonl", tmp_path / "s.csv"
    rc, out = run_cli(capsys, "simulate", "--ops", "20", "--seed", "3",
                      "--trace", str(tf), "--stats", str(sf))
    assert rc == 0
    header = sf.read_text().splitlines()[0]
    assert header == "op_index,pid,kind,accesses,ret,choose_visits"
    assert tf.read_text().strip()


def test_simulate_determinism(capsys):
    _, out1 = run_cli(capsys, "simulate", "--ops", "40",
                      "--adversary", "optimal", "--seed", "9")
    _, out2 = run_cli(capsys, "simulate", "--ops", "40",
                      "--adversary", "optimal", "--seed", "9")
    assert out1 == out2


def test_script_adversary(capsys, tmp_path):
    sfile = tmp_path / "sched.txt"
    sfile.write_text("0 0 0\n")
    rc, out = run_cli(capsys, "simulate", "--ops", "1",
                      "--adversary", f"script:{sfile}", "--seed", "0")
    assert rc == 0
    assert len(out.strip().splitlines()) == 3


def test_unknown_adversary(capsys):
    rc, _ = run_cli(capsys, "simulate", "--ops", "1", "--adversary", "bogus")
    assert rc == 3


def assert_input_error(capsys, *argv):
    rc = cli.main(list(argv))
    err = capsys.readouterr().err
    assert (rc, err.startswith("error: ")) == (3, True), err


@pytest.mark.parametrize("script", ["0\n", "1 0 0 0\n"])
def test_script_adversary_bad_script(capsys, tmp_path, script):
    # The script ends before the operation finishes, or names P1, which
    # has no operation to run.
    sfile = tmp_path / "sched.txt"
    sfile.write_text(script)
    assert_input_error(capsys, "simulate", "--ops", "1",
                       "--adversary", f"script:{sfile}")


@pytest.mark.parametrize("flag", ["--trace", "--stats"])
def test_simulate_unwritable_output(capsys, tmp_path, flag):
    assert_input_error(capsys, "simulate", "--ops", "2",
                       flag, str(tmp_path / "missing" / "out"))


@pytest.mark.parametrize("ops", ["0", "-5"])
def test_simulate_rejects_nonpositive_ops(capsys, ops):
    assert_input_error(capsys, "simulate", "--ops", ops)


def test_tournament_unwritable_trace(capsys, tmp_path):
    assert_input_error(capsys, "tournament", "--n", "3", "--budget", "10",
                       "--trace", str(tmp_path / "missing" / "t.jsonl"))


def test_lint_trace_corrupt(capsys, tmp_path):
    from wftas import harness

    trace, _, _ = harness.run(harness.Workload((5, 5)),
                              harness.round_robin(), seed=1)
    lines = [json.loads(a.to_json()) for a in trace]
    assert any(obj["coin"] is not None for obj in lines)
    # Each corruption passes a loose parser, which reads True as 1, 1.0
    # as 1, "R07" as R0 and a dict of events as its keys, or crashes it
    # (a string `t` compared with the integer `t` of the next line).
    corruptions = {
        "t as string": ("t", lambda t: "0" if t == 0 else t),
        "t as float": ("t", float),
        "op_seq as float": ("op_seq", float),
        "pid as bool": ("pid", bool),
        "reg R07": ("reg", lambda r: r + "7"),
        "coin as int": ("coin", lambda c: c if c is None else int(c)),
        "coin as string": ("coin", lambda c: c if c is None else "yes" if c else ""),
        "events as dict": ("events", lambda ev: dict.fromkeys(ev, 1)),
    }
    cases = {"not an access": '{"nonsense": true}\n'}
    for name, (key, corrupt) in corruptions.items():
        cases[name] = "".join(
            json.dumps({**obj, key: corrupt(obj[key])}) + "\n" for obj in lines
        )
    bad = tmp_path / "bad.jsonl"
    for name, text in cases.items():
        bad.write_text(text)
        rc, out = run_cli(capsys, "lint-trace", str(bad))
        assert (rc, out.startswith("corrupt trace")) == (3, True), name


def test_lint_trace_violation(capsys, tmp_path):
    import dataclasses

    from wftas import harness
    from wftas.core import Event, Trace

    trace, _, _ = harness.run(harness.Workload((5, 5)),
                              harness.round_robin(), seed=1)
    accesses = []
    forged = False
    for a in trace:
        if not forged and any(e.kind == "fTas0" for e in a.events):
            a = dataclasses.replace(
                a,
                events=tuple(
                    Event("fTas1", e.pid) if e.kind == "fTas0" else e
                    for e in a.events
                ),
            )
            forged = True
        accesses.append(a)
    f = tmp_path / "v.jsonl"
    with f.open("w") as fh:
        Trace(accesses).dump_jsonl(fh)
    rc, out = run_cli(capsys, "lint-trace", str(f))
    assert rc == 2
    assert "shortest rejected prefix" in out


def _simulated_lines(ops, seed):
    from wftas import harness

    trace, _, _ = harness.run(harness.Workload((ops, ops)),
                              harness.random_adversary(seed), seed=seed)
    return [json.loads(a.to_json()) for a in trace]


def _lint_text(objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def test_lint_trace_forged_post(capsys, tmp_path):
    # One interior (event-free) access forged to leave the chart.
    lines = _simulated_lines(5, 1)
    i = next(i for i, obj in enumerate(lines) if not obj["events"])
    lines[i]["post"] = "tohe" if lines[i]["post"] != "tohe" else "he"
    f = tmp_path / "p.jsonl"
    f.write_text(_lint_text(lines))
    rc, out = run_cli(capsys, "lint-trace", str(f))
    assert (rc, out.startswith("corrupt trace")) == (3, True), out


def test_lint_trace_first_access_not_from_rst(capsys, tmp_path):
    # The first write of P0 keeps its value and successor but claims to
    # start from `free` and drops its sTas: FA4 alone would reject it.
    lines = _simulated_lines(5, 1)
    assert (lines[0]["pre"], lines[0]["action"]) == ("rst", "w")
    lines[0].update(pre="free", events=[])
    f = tmp_path / "r.jsonl"
    f.write_text(_lint_text(lines))
    rc, out = run_cli(capsys, "lint-trace", str(f))
    assert (rc, out.startswith("corrupt trace")) == (3, True), out
    assert "steps from free but is in rst" in out


@functools.lru_cache(maxsize=None)
def _fuzz_base(seed):
    return tuple(json.dumps(obj) for obj in _simulated_lines(4, seed))


# Fields lint checks: changing one of them must never pass as linearizable.
_CHECKED = (
    "pid", "op_seq", "op", "reg", "action", "value", "coin", "pre", "post", "events",
)
_FUZZ_VALUES = (
    None, True, False, 0, 1, -1, 2, 7, 1.0, "", "x", "R0", "R1", "R2",
    "w", "r", "tas", "reset", "rst", "me", "he", "choose", "notme", "tst0",
    "tst1", "free", "tohe", [], ["sTas"], ["fTas0"], ["fTas1"], ["rstOp"],
    ["tas0"], ["sTas", "fTas1"], ["bogus"], {}, [1],
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 20),
    at=st.floats(0, 1, exclude_max=True),
    mutation=st.one_of(
        st.tuples(st.sampled_from(("t",) + _CHECKED),
                  st.sampled_from(_FUZZ_VALUES)),
        st.sampled_from(["drop", "duplicate", "swap", "missing field"]),
    ),
)
def test_lint_trace_fuzz(seed, at, mutation):
    """One field or access of a simulated trace changed: lint-trace
    exits 0, 2 or 3, never with a traceback."""
    lines = [json.loads(line) for line in _fuzz_base(seed)]
    i = int(at * (len(lines) - 1))
    checked_change = False
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, dict(lines[i]))
    elif mutation == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif mutation == "missing field":
        del lines[i]["pre"]
    else:
        key, value = mutation
        checked_change = key in _CHECKED and (
            (type(value), value) != (type(lines[i][key]), lines[i][key])
        )
        lines[i][key] = value
    saved = sys.stdin
    sys.stdin = io.StringIO(_lint_text(lines))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["lint-trace"])
    finally:
        sys.stdin = saved
    assert rc in (0, 2, 3)
    if checked_change:
        assert rc != 0, mutation


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_tournament_rejects_nonpositive_budget(capsys, budget):
    assert_input_error(capsys, "tournament", "--n", "3", "--budget", budget)


def test_tournament_n3(capsys):
    rc, out = run_cli(capsys, "tournament", "--n", "3", "--budget", "10")
    assert rc == 0
    assert "non-linearizable history found" in out
    assert "all per-node projections linearizable: True" in out


def test_tournament_n2(capsys):
    rc, out = run_cli(capsys, "tournament", "--n", "2", "--budget", "50")
    assert rc == 1
    assert out.startswith("no violation")


def test_dump_fa3(capsys):
    rc, out = run_cli(capsys, "dump-fa3")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["states"]) == 20
