"""The wftas benchmark.

    python3 perfbench/run.py --workload {verify,trace_roundtrip,sweep,all}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; wftas is imported from `src/`.
Every unit runs in a fresh interpreter (unit.py), one at a time, because
every user entry point (a CLI call, an acceptance check) pays its own
set-up.  Units start until `--seconds` have passed, then the run ends at
the next rotation boundary.  Before the units, one throwaway interpreter
imports wftas so that byte-code caching is not charged to the first unit.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each unit
twice, untraced then traced (for `trace_overhead_frac` and to check that
tracing changes no verdict or count), and prints the per-layer metrics.
Layers the workload leaves idle are measured on one rotation of the
workload that uses them, so every traced run reports every layer.

The table printed first gives every metric with its unit and sample
count; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s whatever the machine does.
HARD_LIMIT_S = 170.0

# name -> (unit, better).  unit_cal_* is a unit's time in calibration
# loops (unit.calibrate, run in the same interpreter just before and
# after the unit): this machine's speed swings by up to 2x within a
# minute, and the ratio cancels most of that.  setup_s is scaled the
# same way, to the speed at which the loop takes REFERENCE_CALIB_S.
# Raw seconds are in the table.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "unit_cal_p50": ("x", "lower"),
    "unit_cal_p60": ("x", "lower"),
}
REFERENCE_CALIB_S = 0.030


class Runner:
    """Starts unit interpreters, one at a time, within the run's deadline."""

    def __init__(self, size: str) -> None:
        self.size = size
        self.started = time.monotonic()
        # Byte code is cached, as it is for an installed package, so set-up
        # time does not depend on the caller's PYTHONDONTWRITEBYTECODE.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def unit(self, spec: dict, traced: bool) -> dict:
        """One unit's result, or a failed result if its interpreter
        crashed, printed no result or ran out of time."""
        spec = dict(spec, src=str(SRC), traced=traced)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env,
        )
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nunit timed out"
        try:
            result = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            sys.stderr.write(f"unit {spec} failed (exit {proc.returncode}):\n{err[-2000:]}\n")
            cases = workloads.CASES[spec["workload"]]
            return {"spec": spec, "crashed": True, "counts": {},
                    "verdicts": [{"case": c, "ok": False, "crash": True} for c in cases]}
        result.update(spec=spec, crashed=False, setup_s=result["imported_at"] - spawned)
        return result

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-c", "import wftas.cli"], env=self.env,
                       check=True, timeout=max(self.left(), 1.0))


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 runner: Runner) -> dict:
    """Units of one workload for `seconds`; with `traced`, also the traced
    twins and the census of the other workloads' layers."""
    runner.warm_up()
    specs = workloads.unit_specs(workload, seed, runner.size)
    cycle = workloads.CYCLE[workload]
    plain, traced_units, mismatched = [], [], []
    start = time.monotonic()
    while runner.left() > 0:
        if plain and len(plain) % cycle == 0 and time.monotonic() - start >= seconds:
            break
        spec = next(specs)
        plain.append(runner.unit(spec, traced=False))
        if traced:
            twin = runner.unit(spec, traced=True)
            traced_units.append(twin)
            if (twin["verdicts"], twin["counts"]) != (plain[-1]["verdicts"], plain[-1]["counts"]):
                mismatched.append(spec["index"])
    census = []
    if traced:
        for other in workloads.WORKLOADS:
            if other != workload:
                other_specs = workloads.unit_specs(other, seed, runner.size)
                census += [runner.unit(next(other_specs), traced=True)
                           for _ in range(workloads.CYCLE[other])]
    return {"workload": workload, "plain": plain, "traced": traced_units,
            "census": census, "mismatched": mismatched}


def _tail(values: list[float]) -> float:
    """The 60th percentile: the highest with ten samples beyond it once a
    run has 25 units, which the slowest workload reaches in 40 s."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[5]


def verdict_totals(units: list[dict]) -> tuple[int, int, int]:
    """(attempted, ok, failed) where known defects are not failures."""
    vs = [v for u in units for v in u["verdicts"]]
    ok = sum(v["ok"] for v in vs)
    failed = sum(not v["ok"] and "known_defect" not in v for v in vs)
    return len(vs), ok, failed


def end_to_end(run: dict) -> dict[str, tuple[float, int]]:
    """metric -> (value, samples) over the untraced units."""
    units = [u for u in run["plain"] if not u["crashed"]]
    attempted, ok, _ = verdict_totals(run["plain"])
    ratios = [u["unit_s"] / u["calib_s"] for u in units]
    out = {"ok_frac": (ok / attempted, attempted)}
    if units:
        out.update(
            setup_s=(statistics.median(u["setup_s"] / u["calib_s"] for u in units)
                     * REFERENCE_CALIB_S, len(units)),
            peak_rss_mb=(max(u["rss_mb"] for u in units), len(units)),
            unit_cal_p50=(statistics.median(ratios), len(ratios)),
            unit_cal_p60=(_tail(ratios), len(ratios)),
        )
    return out


def per_layer(run: dict) -> dict[str, tuple[float, int, str]]:
    """metric -> (value, samples, workload measured on)."""
    sources = {}
    for u in run["traced"] + run["census"]:
        if not u["crashed"]:
            sources.setdefault(u["spec"]["workload"], []).append(u)
    out = {}
    for name, (_unit, _better, metric) in layers.PER_LAYER.items():
        for where, units in sources.items():
            got = metric(units)
            if got is not None:
                out[name] = (*got, where)
                break
    pairs = [(p["unit_s"] / p["calib_s"], t["unit_s"] / t["calib_s"])
             for p, t in zip(run["plain"], run["traced"])
             if not (p["crashed"] or t["crashed"])]
    if pairs:
        plain_cal, traced_cal = zip(*pairs)
        out["trace_overhead_frac"] = (
            statistics.median(traced_cal) / statistics.median(plain_cal) - 1, len(pairs),
            run["workload"])
    return out


def workload_view(run: dict) -> list[tuple[str, float, str, int]]:
    """Rows in seconds and under the names the workloads are documented with."""
    units = [u for u in run["plain"] if not u["crashed"]]
    attempted, ok, _ = verdict_totals(run["plain"])
    rows = [("fail_frac", 1 - ok / attempted, "frac", attempted)]
    if units:
        times = [u["unit_s"] for u in units]
        prefix = {"verify": "verify", "trace_roundtrip": "trace", "sweep": "sweep"}[run["workload"]]
        rows += [
            ("setup_raw_s", statistics.median(u["setup_s"] for u in units), "s", len(units)),
            (f"{prefix}_s_p50", statistics.median(times), "s", len(units)),
            (f"{prefix}_s_tail(p60)", _tail(times), "s", len(units)),
            ("calib_s_p50", statistics.median(u["calib_s"] for u in units), "s", len(units)),
        ]
    if run["workload"] == "trace_roundtrip" and units:
        accesses = sum(u["counts"]["accesses"] for u in units)
        rows.append(("trace_accesses_per_s", accesses / sum(u["unit_s"] for u in units),
                     "1/s", len(units)))
    known: dict[str, int] = {}
    for u in run["plain"]:
        for v in u["verdicts"]:
            if "known_defect" in v:
                known[v["known_defect"]] = known.get(v["known_defect"], 0) + 1
    rows += [(f"known defect, {k}", n, "count", attempted) for k, n in known.items()]
    return rows


def report(run: dict, traced: bool) -> dict:
    """Print the table and return the JSON result of one workload's run."""
    all_units = run["plain"] + run["traced"] + run["census"]
    attempted, _ok, failed = verdict_totals(all_units)
    crashed = sum(u["crashed"] for u in all_units)
    correct = failed == 0 and crashed == 0 and not run["mismatched"]
    metrics = {}
    print(f"== {run['workload']}: {len(run['plain'])} units, {attempted} verdicts, "
          f"{failed} failed, {crashed} crashed, traced={int(traced)}")
    if run["mismatched"]:
        print(f"   tracing changed verdicts or counts of units {run['mismatched']}")
    if traced:
        rows = per_layer(run)
        specs = {**{k: v[:2] for k, v in layers.PER_LAYER.items()},
                 "trace_overhead_frac": ("frac", "lower")}
        for name, (unit, _better) in specs.items():
            if name in rows:
                value, n, where = rows[name]
                metrics[name] = {"value": value, "unit": unit}
                print(f"  {name:48} {value:14.6g} {unit:6} n={n:<5} on {where}")
            else:
                correct = False
                print(f"  {name:48} {'missing':>14} {unit:6} n=0")
    else:
        rows = end_to_end(run)
        for name, (unit, _better) in END_TO_END.items():
            if name in rows:
                value, n = rows[name]
                metrics[name] = {"value": value, "unit": unit}
                print(f"  {name:48} {value:14.6g} {unit:6} n={n}")
            else:
                correct = False
                print(f"  {name:48} {'missing':>14} {unit:6} n=0")
        for label, value, unit, n in workload_view(run):
            print(f"  {label:48} {value:14.6g} {unit:6} n={n}")
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny units, for the smoke test")
    args = p.parse_args(argv)
    if not (SRC / "wftas" / "__init__.py").is_file():
        print(f"no wftas sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: report(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  Runner(size)),
                     bool(args.trace))
        for name in names
    }
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
