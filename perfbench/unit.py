"""One benchmark unit, run in a fresh interpreter by run.py.

    python3 perfbench/unit.py '<unit spec JSON>'

with `src/` on PYTHONPATH.  Prints one JSON line: when importing wftas
and its CLI module finished (monotonic clock, for set-up time; work a
change moves to import time shows there), the unit's time (the sum of
its calls into wftas; the benchmark's own checks are not timed), its
verdicts, the counts read from the program's outputs, the time of a
fixed calibration loop run just before and after the unit, the peak RSS
and, for a traced unit, the spans.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    import wftas
    import wftas.cli

    imported_at = time.monotonic()

    import contextlib
    import io
    import resource
    import statistics
    from pathlib import Path

    import reference
    import tracer as tracing
    from wftas import checker, expectation, harness, linearize, protocol, tournament
    from wftas.core import RegValue
    from wftas.protocol import ProcState

    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    if src not in Path(wftas.__file__).resolve().parents:
        print(f"wftas imported from {wftas.__file__}, not from {src}", file=sys.stderr)
        return 2
    header, table = reference.read_table(src / "wftas" / "data" / "golden_table.txt")

    tracer = tracing.NullTracer()
    if spec["traced"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    elapsed = 0.0

    def timed(fn, *args, **kwargs):
        nonlocal elapsed
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed += time.perf_counter() - t0

    def cli(*argv, stdin=None):
        """(exit code, stdout) of one `wftas` command, stdout in memory."""
        out = io.StringIO()
        saved = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                rc = timed(wftas.cli.main, [str(a) for a in argv])
        finally:
            sys.stdin = saved
        return rc, out.getvalue()

    verdicts: list[dict] = []
    counts: dict = {}

    def verdict(case, expected, got, known_defect=None):
        ok = expected == got
        v = {"case": case, "expected": expected, "got": got, "ok": ok}
        if not ok and known_defect and got == known_defect[0]:
            v["known_defect"] = known_defect[1]
        verdicts.append(v)

    def verify_unit():
        rc_check, out_check = cli("check", "--json")
        rc_exp, out_exp = cli("expect", "--verify", "--policy")
        loop_problems = timed(expectation.loop_probability_check)
        orig = protocol.step

        def choose_reads_rst(s, observed=None, coin=None):
            if s is ProcState.CHOOSE and observed is RegValue.RST:
                return ProcState.TOME
            return orig(s, observed, coin)

        mutated = timed(checker.verify_against_table, step_fn=choose_reads_rst)

        verdict("check.exit", 0, rc_check)
        verdict("check.phases", 4, out_check.count("PASS "))
        computed = reference.trailing_json(out_check)
        verdict("check.table", [], reference.check_json_problems(table, computed)[:5])
        verdict("expect.exit", 0, rc_exp)
        matrix_problems = reference.expect_matrix_problems(header, table, out_exp)
        verdict("expect.matrix", [], matrix_problems[:5])
        worst = max(cell[1] for cell in table.values() if cell is not None)
        verdict("expect.max", True, f"max expected accesses: {worst}\n" in out_exp)
        pol = reference.trailing_json(out_exp)
        reachable = sum(cell is not None for cell in table.values())
        verdict("expect.policy", [reachable, True],
                [len(pol), set(pol.values()) <= {0, 1}])
        verdict("loop_probability_check", [], loop_problems)
        verdict("mutation.detected", True, len(mutated.mismatches) >= 1)
        counts.update(
            reachable=len(computed["cells"]),
            unreachable=len(computed["unreachable"]),
            policy_entries=len(pol),
            mutation_mismatches=len(mutated.mismatches),
        )

    def trace_roundtrip_unit():
        adv = spec["adversary"]
        tracer.tag = adv
        rc_sim, text = cli("simulate", "--ops", spec["ops"], "--adversary", adv,
                           "--seed", spec["seed"])
        rc_lint, report = cli("lint-trace", stdin=text)
        tracer.tag = f"{adv}.negative"
        rc_neg, small = cli("simulate", "--ops", spec["negative_ops"],
                            "--adversary", adv, "--seed", spec["negative_seed"])
        lines = small.splitlines()
        negatives = {
            "forged_ftas": (forge_ftas(lines), 2, None),
            # ROADMAP 4(a): lint-trace runs check_two_process, not lint, so
            # a forged chart state passes as linearizable (exit 0).
            "forged_post": (forge_post(lines, header, spec["post_at"], spec["post_state"]),
                            3, (0, "ROADMAP 4(a): lint-trace does not check chart states")),
            "garbled_line": (garble(lines, spec["garble_at"], spec["garble_cut"]), 3, None),
        }
        neg_rc = {case: cli("lint-trace", stdin="\n".join(neg) + "\n")[0]
                  for case, (neg, _, _) in negatives.items()}

        n_accesses = text.count("\n")
        verdict("simulate.exit", 0, rc_sim)
        verdict("clean.exit", 0, rc_lint)
        verdict("clean.report", True,
                report.startswith(f"linearizable: {n_accesses} accesses, "))
        verdict("negatives.simulate.exit", 0, rc_neg)
        for case, (_, expected, known) in negatives.items():
            verdict(f"{case}.exit", expected, neg_rc[case], known)
        counts.update(
            adversary=adv,
            accesses=n_accesses,
            ops=int(report.split()[3]) if rc_lint == 0 else None,
            negative_accesses=len(lines),
        )

    def sweep_unit():
        tracer.tag = "measure"
        cfg = tuple(ProcState(s) for s in spec["config"])
        access_counts = timed(harness.measure_from_config, cfg, spec["measure_ops"],
                              spec["measure_seed"])
        tracer.tag = "loop"
        exp = timed(harness.loop_experiment, spec["loop_visits"], spec["loop_seed"])
        tracer.tag = "n3"
        rep = timed(tournament.find_violation, 3, spec["budget_n3"], spec["tournament_seed"])
        node_lints = timed(lambda: [
            linearize.lint(rep.tree.node_trace(v)).ok
            for v in rep.tree.nodes if len(rep.tree.node_trace(v))
        ])
        tracer.tag = "n2"
        try:
            timed(tournament.find_violation, 2, spec["budget_n2"], spec["tournament_seed"])
            exhausted = False
        except tournament.BudgetExceeded:
            exhausted = True

        n = len(access_counts)
        mean = statistics.fmean(access_counts)
        half_band = 5 * statistics.stdev(access_counts) / n**0.5
        want = table[tuple(spec["config"])][1]
        verdict("measure.mean", True, abs(mean - want) <= half_band)
        verdict("loop.visits", True, exp.n >= spec["loop_visits"])
        verdict("loop.within_5_sigma", True,
                abs(exp.empirical_frequency - exp.analytic_frequency) <= 5 * exp.sigma)
        verdict("n3.violation", True, not rep.verdict.ok)
        verdict("n3.nodes_ok", True,
                bool(rep.node_verdicts) and all(rep.node_verdicts.values()))
        verdict("n3.nodes_lint", True, bool(node_lints) and all(node_lints))
        verdict("n2.budget_exceeded", True, exhausted)
        counts.update(
            measure_accesses=sum(access_counts),
            loop_visits=exp.n,
            loop_returns=sum(exp.successes),
            n3_schedule=len(rep.schedule),
            n3_history=len(rep.history),
        )

    calib_before = calibrate()
    {"verify": verify_unit, "trace_roundtrip": trace_roundtrip_unit,
     "sweep": sweep_unit}[spec["workload"]]()
    calib_after = calibrate()

    result = {
        "imported_at": imported_at,
        "unit_s": elapsed,
        "calib_s": (calib_before + calib_after) / 2,
        "verdicts": verdicts,
        "counts": counts,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["traced"]:
        result["spans"] = tracer.spans()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work (dict, frozenset
    and Fraction arithmetic, as in wftas), a gauge of how fast the
    machine runs at the moment.  It uses no wftas code."""
    from fractions import Fraction

    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    total = Fraction(0)
    for i in range(40_000):
        k = (i * 7919) % 509  # a small working set: no effect on peak RSS
        counts[k] = counts.get(k, 0) + 1
        seen.add(frozenset((k, k + 1)))
        if i % 50 == 0:
            total += Fraction(i, 7)
    return time.perf_counter() - t0


def forge_ftas(lines: list[str]) -> list[str]:
    """The trace with its first fTas0 event forged to fTas1."""
    out = list(lines)
    for i, line in enumerate(out):
        obj = json.loads(line)
        if "fTas0" in obj["events"]:
            obj["events"] = ["fTas1" if e == "fTas0" else e for e in obj["events"]]
            out[i] = json.dumps(obj)
            return out
    raise ValueError("trace has no fTas0 event to forge")


def forge_post(lines: list[str], states: list[str], at: float, state: float) -> list[str]:
    """The trace with the post state of one event-free access forged."""
    out = list(lines)
    interior = [i for i, line in enumerate(out) if not json.loads(line)["events"]]
    i = interior[int(at * len(interior))]
    obj = json.loads(out[i])
    others = [s for s in states if s != obj["post"]]
    obj["post"] = others[int(state * len(others))]
    out[i] = json.dumps(obj)
    return out


def garble(lines: list[str], at: float, cut: float) -> list[str]:
    """The trace with one line cut short, so it is no longer JSON."""
    out = list(lines)
    i = int(at * len(out))
    out[i] = out[i][: 1 + int(cut * (len(out[i]) - 2))]
    return out


if __name__ == "__main__":
    sys.exit(main())
