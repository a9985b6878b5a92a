import argparse
import contextlib
import functools
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wftas import cli
from wftas.core import Access


# An `Access`'s field names, in the order of its `fields` tuple.
_ACCESS_FIELDS = ("reg", "action", "value", "coin", "pre", "post", "events")


def _replace(record, **changes):
    """`record` rebuilt from its fields, with `changes` applied; an
    `Access`'s `fields` tuple is rebuilt from its field names."""
    if type(record) is Access:
        changes["fields"] = tuple(changes.pop(f, getattr(record, f)) for f in _ACCESS_FIELDS)
    return type(record)(**{f: getattr(record, f) for f in record.__slots__} | changes)


def test_import_loads_no_heavy_modules():
    """Starting a command imports none of `dataclasses` (which brings
    `inspect`, `ast`, `dis` and `tokenize`), `inspect` (which
    `importlib.resources` imports from Python 3.12) and `csv`, and still
    imports every submodule the package exports."""
    import wftas

    src = str(Path(wftas.__file__).resolve().parents[1])
    code = (
        "import json, sys, types; sys.path.insert(0, sys.argv[1]); "
        "import wftas, wftas.cli; "
        "print(json.dumps({'loaded': sorted(sys.modules), 'submodules': ["
        "n for n in wftas.__all__ if isinstance(getattr(wftas, n), types.ModuleType)]}))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert {"dataclasses", "inspect", "csv"} & set(got["loaded"]) == set()
    assert len(got["submodules"]) == 9
    assert {f"wftas.{n}" for n in got["submodules"]} <= set(got["loaded"])


def test_commands_load_no_argparse_gettext_or_locale(tmp_path):
    """`main` of every subcommand, each with --help and with tiny
    arguments, imports none of `argparse`, `gettext` (which `argparse`
    imports) and `locale` (which `gettext` imports)."""
    import wftas

    src = str(Path(wftas.__file__).resolve().parents[1])
    trace = str(tmp_path / "t.jsonl")
    runs = [["--help"]] + [[name, "--help"] for name in cli._COMMANDS] + [
        ["check"], ["expect"], ["simulate", "--ops", "1", "--trace", trace],
        ["lint-trace", trace], ["tournament", "--n", "2", "--budget", "1"], ["dump-fa3"],
    ]
    code = (
        "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); "
        "import wftas.cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            codes.append(wftas.cli.main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "print(json.dumps({'codes': codes, 'loaded': sorted(sys.modules)}))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src, json.dumps(runs)],
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert got["codes"] == [0] * 11 + [1, 0]  # n=2 has no violation to find
    assert {"argparse", "gettext", "locale"} & set(got["loaded"]) == set()


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


def test_check_failed_bijection_still_counts_unreachable(capsys, monkeypatch):
    """A forged letter set that no bijection fits fails the table letters
    alone: the '*' cells are still counted, so reachability passes."""
    from wftas import goldens

    table = goldens.load_golden_table()
    cells = dict(table.cells)
    cells[("me", "me")] = goldens.Cell(frozenset("abc"), cells[("me", "me")].expected)
    monkeypatch.setattr(cli.goldens, "load_golden_table",
                        lambda: goldens.GoldenTable(cells))
    rc, out = run_cli(capsys, "check")
    assert rc == 1
    assert "PASS reachability" in out.splitlines()
    assert "FAIL table letters" in out.splitlines()
    assert "label bijection failed" in out


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


def test_simulate_then_lint_builds_an_access_per_distinct_tail(capsys, monkeypatch, tmp_path):
    """`simulate | lint-trace` passes rows along: it builds one `Access`
    only per distinct pid and line tail, which the strict decoder reads
    once, not one per access."""
    built = []
    init = Access.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Access, "__init__", counted)
    rc, out = run_cli(capsys, "simulate", "--ops", "2000", "--seed", "7")
    assert rc == 0
    lines = out.splitlines()
    tails = {re.fullmatch(r'\{"t": \d+, "pid": ([01]), "op_seq": \d+, "op": "\w+", (.*)', line).groups()
             for line in lines}
    assert len(lines) == 18079 and len(tails) < 100
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(out)
    rc, out = run_cli(capsys, "lint-trace", str(trace_file))
    assert rc == 0 and out.startswith("linearizable: 18079 accesses, ")
    assert len(built) <= len(tails)


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
    out = capsys.readouterr()
    assert (rc, out.out, out.err.startswith("error: ")) == (3, "", True), out


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
    cases = {
        "not an access": '{"nonsense": true}\n',
        # Deeper than the JSON decoder can recurse: a RecursionError.
        "over-deep": "[" * 100_000 + "\n",
    }
    for name, (key, corrupt) in corruptions.items():
        cases[name] = "".join(
            json.dumps({**obj, key: corrupt(obj[key])}) + "\n" for obj in lines
        )
    bad = tmp_path / "bad.jsonl"
    for name, text in cases.items():
        bad.write_text(text)
        rc, out = run_cli(capsys, "lint-trace", str(bad))
        assert (rc, out.startswith("corrupt trace")) == (3, True), name


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_lint_trace_unopenable_file_is_an_input_error(capsys, tmp_path, name):
    # Not "corrupt trace" on stdout: no line of it was read.
    assert_input_error(capsys, "lint-trace", str(tmp_path / name))


def test_lint_trace_violation(capsys, tmp_path):
    from wftas import harness
    from wftas.core import Event, Trace

    trace, _, _ = harness.run(harness.Workload((5, 5)),
                              harness.round_robin(), seed=1)
    accesses = []
    forged = False
    for a in trace:
        if not forged and any(e.kind == "fTas0" for e in a.events):
            a = _replace(
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # Like `wftas simulate --ops 2000 --seed 1 | head -1`: about 1 MB of
    # trace, so the writer is still writing when the reader goes away.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "wftas.cli", "simulate", "--ops", "2000", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["t"] == 0
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


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


def test_patched_command_runs_after_first_call(capsys, monkeypatch):
    # A tracer or a test replaces `cmd_*` on the module after a first
    # call; `main` must run the replacement.
    assert run_cli(capsys, "simulate", "--ops", "1")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.ops) or 7)
    assert run_cli(capsys, "simulate", "--ops", "5") == (7, "")
    assert seen == [5]


def _raise(args):
    raise RuntimeError("command failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["clean", "usage error", "corrupt trace", "raises"])
def test_main_puts_the_collector_back(capsys, monkeypatch, tmp_path, case, enabled):
    """`main` runs a command with the cyclic collector paused and leaves
    it as the caller had it, on every way out of the command."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    argv, rc = {
        "clean": (["simulate", "--ops", "5"], 0),
        "usage error": (["check", "--bogus"], 3),
        "corrupt trace": (["lint-trace", str(bad)], 3),
        "raises": (["simulate", "--ops", "5"], None),
    }[case]
    if case == "raises":
        monkeypatch.setattr(cli, "cmd_simulate", _raise)
    (gc.enable if enabled else gc.disable)()
    try:
        if rc is None:
            with pytest.raises(RuntimeError, match="command failed"):
                cli.main(argv)
        else:
            assert cli.main(argv) == rc
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


def test_command_runs_with_the_collector_paused(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert run_cli(capsys, "simulate", "--ops", "5") == (0, "")
    assert seen == [False] and gc.isenabled()


def _cyclic_garbage(capsys, *argv):
    """(exit code, stdout, objects `gc.collect()` frees) of one command
    run with the collector off throughout."""
    gc.collect()
    gc.disable()
    try:
        rc, out = run_cli(capsys, *argv)
        return rc, out, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("adversary", ["round-robin", "random", "optimal"])
@pytest.mark.parametrize("ops", ["50", "2000"])
def test_simulate_and_lint_leave_no_cyclic_garbage(capsys, tmp_path, adversary, ops):
    """The rows, records and `SeqOp`s of `simulate | lint-trace` form no
    reference cycles, so pausing the collector for a command keeps
    nothing alive past it."""
    rc, out, left = _cyclic_garbage(capsys, "simulate", "--ops", ops,
                                    "--adversary", adversary, "--seed", "7")
    assert (rc, left) == (0, 0)
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(out)
    rc, out, left = _cyclic_garbage(capsys, "lint-trace", str(trace_file))
    assert out.startswith("linearizable") and (rc, left) == (0, 0)


@pytest.mark.parametrize("argv", [
    ["tournament", "--n", "2"],
    ["tournament", "--n", "3"],
    ["tournament", "--n", "4"],
    ["tournament", "--n", "4", "--budget", "50"],
], ids=lambda argv: " ".join(argv[1:]))
def test_tournament_leaves_no_cyclic_garbage(capsys, monkeypatch, argv):
    """Every n-process search of a tournament frees itself: each runs,
    none is served from a verdict an earlier test left in the memo."""
    from wftas import linearize

    monkeypatch.setattr(linearize, "_VERDICTS", {})
    rc, _, left = _cyclic_garbage(capsys, *argv)
    assert rc in (0, 1) and left == 0


@pytest.mark.parametrize("argv", [
    ["check", "--json"],
    ["expect", "--verify", "--policy"],
    ["dump-fa3"],
], ids=lambda argv: argv[0])
def test_commands_leave_no_growing_cyclic_garbage(capsys, argv):
    """What the verification commands leave for the collector (the
    `json` module's indenting encoder) is the same on every run."""
    left = [_cyclic_garbage(capsys, *argv)[2] for _ in range(3)]
    assert left[0] == left[1] == left[2]


# The usage errors whose wording is pinned, by test id.
_USAGE_ERRORS = {
    "check": (["check", "--bogus"], "wftas: unrecognized arguments: --bogus"),
    "expect": (["expect", "--verify", "1"], "wftas: unrecognized arguments: 1"),
    "simulate": (["simulate", "--ops", "x"],
                 "wftas simulate: argument --ops: invalid int value: 'x'"),
    "lint-trace": (["lint-trace", "--bogus"], "wftas: unrecognized arguments: --bogus"),
    "tournament": (["tournament", "--n", "5"],
                   "wftas tournament: argument --n: invalid choice: 5"),
    "dump-fa3": (["dump-fa3", "extra"], "wftas: unrecognized arguments: extra"),
    "no-subcommand": ([], "wftas: the following arguments are required: command"),
}


@pytest.mark.parametrize("argv, fragment", list(_USAGE_ERRORS.values()),
                         ids=list(_USAGE_ERRORS))
def test_usage_error_exits_3(capsys, argv, fragment):
    # argparse's own exit code, 2, would read as "not linearizable".
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert (rc, out.out) == (3, "")
    assert out.err.startswith(f"error: {fragment}") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("argv", [["--help"], ["lint-trace", "--help"]] + [
    [name, "--help"] for name in ("check", "expect", "simulate", "tournament", "dump-fa3")
])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wftas")


def test_usage_error_is_the_process_exit_code():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "wftas.cli", "lint-trace", "--bogus"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: wftas: unrecognized arguments: --bogus\n"


class _OracleError(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argparse parser that `wftas` used before its command table: the
    reference that `cli.parse_args` must agree with."""
    p = _OracleParser(prog="wftas")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the model against the shipped table")
    c.add_argument("--json", action="store_true", help="emit the computed table")

    e = sub.add_parser("expect", help="print the expected-access table")
    e.add_argument("--verify", action="store_true", help="diff against the shipped table")
    e.add_argument("--policy", action="store_true", help="dump the optimal adversary")

    s = sub.add_parser("simulate", help="run the two-process simulation")
    s.add_argument("--ops", type=int, default=100, help="total tas operations")
    s.add_argument(
        "--adversary",
        default="round-robin",
        help="round-robin | random | optimal | script:FILE",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace", help="write the JSONL trace here (default: stdout)")
    s.add_argument("--stats", help="write the per-op CSV here")

    l = sub.add_parser("lint-trace", help="validate and linearize a JSONL trace")
    l.add_argument("file", nargs="?", help="trace file (default: stdin)")

    t = sub.add_parser("tournament", help="search for the n-process violation")
    t.add_argument("--n", type=int, default=3, choices=(2, 3, 4))
    t.add_argument("--budget", type=int, default=2000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--trace", help="write the node-tagged JSONL trace here")

    sub.add_parser("dump-fa3", help="emit the specification automaton as JSON")
    return p


_INTS = st.one_of(st.integers(-10**6, 10**6).map(str), st.sampled_from(["+5", "007", " 3"]))
# A value written after its option: one that does not start with "-" is
# never read as an option, nor are "-" and a negative number.
_WORD = st.one_of(
    st.text("abz09_./:=", max_size=6).filter(lambda v: not v.startswith("-")),
    st.sampled_from(["-", "-5", "-.5", "-0.25"]),
)
# Each subcommand's options and the values they take (None: a flag).
_OPTIONS = {
    "check": {"--json": None},
    "expect": {"--verify": None, "--policy": None},
    "simulate": {"--ops": _INTS, "--adversary": _WORD, "--seed": _INTS,
                 "--trace": _WORD, "--stats": _WORD},
    "lint-trace": {},
    "tournament": {"--n": st.sampled_from(["2", "3", "4", "+3", "04"]),
                   "--budget": _INTS, "--seed": _INTS, "--trace": _WORD},
    "dump-fa3": {},
}


def _spellings(command, name):
    """`name` and each of its prefixes that no other option of `command`
    (--help included) starts with."""
    others = [o for o in [*_OPTIONS[command], "--help"] if o != name]
    return [name[:k] for k in range(3, len(name) + 1)
            if not any(o.startswith(name[:k]) for o in others)]


@st.composite
def _accepted_lines(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=6)) if options else []
    for name in names:
        spelling = draw(st.sampled_from(_spellings(command, name)))
        values = options[name]
        if values is None:
            argv.append(spelling)
        elif draw(st.booleans()):
            argv += [spelling, draw(values)]
        else:
            # After "=", a text value may start with "-".  argparse read
            # `--opt=--` as an empty list, which no command could take.
            if values is _WORD:
                values = st.one_of(values, st.text("-az=", max_size=4).filter(
                    lambda v: v != "--"))
            argv.append(f"{spelling}={draw(values)}")
    if command == "lint-trace":
        argv += draw(st.one_of(
            st.just([]),
            _WORD.map(lambda f: [f]),
            st.text("-az.", min_size=1, max_size=4).filter(lambda f: f != "--").map(
                lambda f: ["--", f]),
        ))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_accepted_lines())
def test_parse_args_accepts_what_argparse_accepted(argv):
    """Every subcommand, its options in any order and repeated, in the
    space and `=` forms, abbreviated, with negative numbers as values."""
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [argv for argv, _ in _USAGE_ERRORS.values()] + [
    ["simulate", "--ops"],  # a missing value
    ["bogus"],  # an unknown subcommand
    ["simulate", "--s", "1"],  # a prefix of --seed and --stats
    ["check", "--json=1"],  # a flag given a value
    ["lint-trace", "a", "b"],  # an extra positional
])
def test_parse_args_refuses_what_argparse_refused(capsys, argv):
    with pytest.raises(_OracleError) as oracle:
        build_parser().parse_args(argv)
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert (rc, out.out, out.err.startswith("error: ")) == (3, "", True), out.err
    # The wording differs across Python versions, except where it is pinned.
    for pinned, fragment in _USAGE_ERRORS.values():
        if argv == pinned:
            assert out.err.startswith(f"error: {fragment}")
            assert str(oracle.value).startswith(fragment)
