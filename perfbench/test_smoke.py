"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json describes what run.py prints, that every
wrapped function still exists, that every metric is printed with its
unit and sample count, and that tracing changes no verdict or count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = {**{k: v[:2] for k, v in layers.PER_LAYER.items()},
             "trace_overhead_frac": ("frac", "lower")}


def bench_run(workload: str, trace: int) -> tuple[list[str], dict]:
    """(table lines, JSON result) of one tiny run: a single rotation."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    *table, last = out.stdout.splitlines()
    return table, json.loads(last)


def assert_printed(table: list[str], result: dict, specs: dict) -> None:
    assert set(result["metrics"]) == set(specs)
    for name, (unit, _better) in specs.items():
        assert result["metrics"][name]["unit"] == unit
        rows = [line.split() for line in table if line.split()[:1] == [name]]
        assert rows, f"{name} not printed"
        assert unit in rows[0] and rows[0][rows[0].index(unit) + 1].startswith("n="), rows[0]


def test_benchmark_json_describes_the_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


def test_every_wrapped_function_exists():
    import wftas.cli  # noqa: F401  (loads every module WRAPPED names)

    for name in tracer.WRAPPED:
        tracer.resolve(name)
    with pytest.raises(LookupError):
        tracer.resolve("checker.no_such_function")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_verdict_or_count(workload):
    spec = next(workloads.unit_specs(workload, 5, "tiny"))
    runner = run.Runner("tiny")
    plain, traced = runner.unit(spec, traced=False), runner.unit(spec, traced=True)
    assert not plain["crashed"] and not traced["crashed"]
    assert plain["verdicts"] == traced["verdicts"]
    assert plain["counts"] == traced["counts"]
    assert all(v["ok"] or "known_defect" in v for v in plain["verdicts"])
    # The counts the spans report agree with those read from the outputs.
    info = {}
    for name, _tag, root, _ms, _self, span_info in traced["spans"]:
        info.setdefault((name, root), span_info)
    counts = plain["counts"]
    if workload == "verify":
        assert info["checker.representative_sets", "cli.cmd_check"]["configs"] == counts["reachable"]
    elif workload == "trace_roundtrip":
        assert info["harness.run", "cli.cmd_simulate"]["accesses"] == counts["accesses"]
    else:
        m = info["harness.measure_from_config", "harness.measure_from_config"]
        assert m["accesses"] == counts["measure_accesses"]
        loop = info["harness.loop_experiment", "harness.loop_experiment"]
        assert (loop["visits"], loop["returns"]) == (counts["loop_visits"], counts["loop_returns"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_print_every_metric(workload):
    table, result = bench_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_printed(table, result, run.END_TO_END)

    table, result = bench_run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert_printed(table, result, PER_LAYER)
