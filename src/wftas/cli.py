"""Command-line entry point.

Exit codes: 0 success / all phases PASS, or --help; 1 verification
failure, no tournament violation found, or stdout closed by its reader;
2 linearizability violation (lint-trace); 3 input errors, usage errors
(an unknown subcommand, option or choice, a missing argument) included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from . import (
    automata,
    checker,
    core,
    expectation,
    goldens,
    harness,
    linearize,
    tournament,
)
from .goldens import STATE_ORDER
from .protocol import ProcState


def _phase(name: str, problems: list[str]) -> bool:
    ok = not problems
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    for p in problems:
        print(f"  - {p}")
    return ok


def cmd_check(args: argparse.Namespace) -> int:
    table = goldens.load_golden_table()
    report = checker.verify_against_table(table)
    expected_reachable = len(table.reachable_cells())
    reach_problems = []
    if report.reachable_count != expected_reachable:
        reach_problems.append(
            f"{report.reachable_count} reachable configurations, "
            f"table has {expected_reachable} non-* cells"
        )
    if report.verified_unreachable != 121 - expected_reachable:
        reach_problems.append(
            f"only {report.verified_unreachable} of "
            f"{121 - expected_reachable} * cells verified unreachable"
        )
    ok = _phase("reachability", reach_problems)
    ok &= _phase("confluence", checker.claim_induction_check(report.rep_sets, checker.model()))
    ok &= _phase("table letters", report.mismatches)
    ok &= _phase("table symmetry", goldens.validate_goldens(table))
    if args.json:
        rep = report.rep_sets
        values = expectation.solve(0).values
        out = {"cells": {}, "unreachable": []}
        for r in STATE_ORDER:
            for c in STATE_ORDER:
                cfg = (ProcState(r), ProcState(c))
                if cfg in rep:
                    out["cells"][f"{r},{c}"] = {
                        "letters": report.labels.letters_for(rep[cfg])
                        if report.labels
                        else None,
                        "expected_accesses": str(values[cfg]),
                    }
                else:
                    out["unreachable"].append(f"{r},{c}")
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_expect(args: argparse.Namespace) -> int:
    result = expectation.solve(0)
    width = max(len(s) for s in STATE_ORDER) + 1
    print("".ljust(width) + "".join(s.ljust(width) for s in STATE_ORDER))
    for r in STATE_ORDER:
        row = [r.ljust(width)]
        for c in STATE_ORDER:
            cfg = (ProcState(r), ProcState(c))
            v = result.values.get(cfg)
            row.append(("*" if v is None else str(v)).ljust(width))
        print("".join(row).rstrip())
    rc = 0
    if args.verify:
        problems = expectation.verify_values(result)
        if _phase("values", problems):
            print(f"max expected accesses: {result.max_value}")
        else:
            rc = 1
    if args.policy:
        out = {
            f"{c[0].value},{c[1].value}": pid
            for c, pid in sorted(result.policy.items(), key=lambda kv: checker._cfg_key(kv[0]))
        }
        print(json.dumps(out, indent=2))
    return rc


def _input_error(exc: object) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 3


def _make_adversary(spec: str, seed: int) -> harness.Adversary:
    if spec.startswith("script:"):
        path = spec[len("script:") :]
        with open(path) as fh:
            pids = [int(tok) for tok in fh.read().replace(",", " ").split()]
        return harness.script(pids)
    return harness.adversary(spec, seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.ops < 1:
        return _input_error(f"--ops must be at least 1, got {args.ops}")
    try:
        adversary = _make_adversary(args.adversary, args.seed)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    workload = harness.Workload(tas_ops=(args.ops - args.ops // 2, args.ops // 2))
    try:
        trace, records, stats = harness.run(workload, adversary, seed=args.seed)
        if args.stats:
            import csv  # here, not at the top: only --stats pays for it at start-up

            with open(args.stats, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["op_index", "pid", "kind", "accesses", "ret", "choose_visits"])
                for row in stats.per_op:
                    w.writerow(["" if v is None else v for v in row])
        if args.trace:
            with open(args.trace, "w") as fh:
                trace.dump_jsonl(fh)
    except (harness.ScriptExhausted, OSError) as exc:
        return _input_error(exc)
    if args.trace:
        print(f"seed={args.seed} ops={len(stats.per_op)} accesses={len(trace)}")
        print(
            f"mean_tas_accesses={stats.mean_tas_accesses:.4f} "
            f"max_tas_accesses={stats.max_tas_accesses} "
            f"returns={json.dumps(stats.returns, sort_keys=True)} "
            f"resets_all_one_access={stats.resets_all_one_access} "
            f"truncated={stats.truncated}"
        )
    else:
        trace.dump_jsonl(sys.stdout)
    return 0


def cmd_lint_trace(args: argparse.Namespace) -> int:
    try:
        if args.file and args.file != "-":
            with open(args.file) as fh:
                trace = core.Trace.load_jsonl(fh)
        else:
            trace = core.Trace.load_jsonl(sys.stdin)
        # Parse, chart, register-model and event-classification errors
        # are "corrupt" (exit 3); a trace that follows the chart and the
        # register model but is rejected by the acceptance automaton is
        # a linearizability violation (exit 2).
        verdict = linearize.lint(trace)
    except (OSError, core.TraceError, ValueError, KeyError) as exc:
        print(f"corrupt trace: {exc}")
        return 3
    if verdict.ok:
        n_ops = len(verdict.order)
        print(f"linearizable: {len(trace)} accesses, {n_ops} operations")
        return 0
    print(f"violation: shortest rejected prefix = {verdict.rejected_prefix} accesses")
    return 2


def cmd_tournament(args: argparse.Namespace) -> int:
    if args.budget < 1:
        return _input_error(f"--budget must be at least 1, got {args.budget}")
    try:
        rep = tournament.find_violation(n=args.n, budget=args.budget, seed=args.seed)
    except tournament.BudgetExceeded as exc:
        print(f"no violation: {exc}")
        return 1
    if args.trace:
        try:
            with open(args.trace, "w") as fh:
                for na in rep.tree.accesses:
                    obj = json.loads(na.access.to_json())
                    obj.update({"proc": na.pid, "node": na.node, "role": na.role})
                    fh.write(json.dumps(obj) + "\n")
        except OSError as exc:
            return _input_error(exc)
    print(f"non-linearizable history found (n={rep.n}, schedule length "
          f"{len(rep.schedule)}):")
    for r in rep.history:
        print(f"  P{r.pid} {r.kind} [{r.start},{r.finish}] -> {r.ret}")
    nodes_ok = all(rep.node_verdicts.values())
    print(f"whole history linearizable: {rep.verdict.ok}")
    print(f"all per-node projections linearizable: {nodes_ok}")
    return 0 if (not rep.verdict.ok and nodes_ok) else 1


def cmd_dump_fa3(args: argparse.Namespace) -> int:
    report = checker.verify_against_table()
    dump = automata.fa3_dump(report.labels)
    print(json.dumps(dump, indent=2))
    return 0


class _UsageError(Exception):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code lint-trace gives a
    # violation; raising lets `main` exit 3, as for any input error.
    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wftas` parser, built on first use and shared by every call;
    `main` runs the `cmd_*` function the subcommand names."""
    p = _Parser(prog="wftas")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _input_error(exc)
    # Looked up per call, so a command replaced on the module (a test's
    # patch, a tracer's wrapper) is the one that runs.
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        rc = fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader went away (`wftas simulate | head`): point stdout at
        # devnull so the flush at exit raises nothing, and fail quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
