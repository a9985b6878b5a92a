"""Command-line entry point.

The command line is read against one table, `_COMMANDS`, by
`parse_args`, which also builds the help; `main` runs the `cmd_*`
function of the subcommand.  No parser object is built and no
argument-parsing module is imported, so a process pays nothing for
either at start-up.

Exit codes: 0 success / all phases PASS, or --help; 1 verification
failure, no tournament violation found, or stdout closed by its reader;
2 linearizability violation (lint-trace); 3 input errors, usage errors
(an unknown subcommand, option or choice, a missing argument) and a
lint-trace FILE that cannot be opened included.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
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


def cmd_check(args: SimpleNamespace) -> int:
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


def cmd_expect(args: SimpleNamespace) -> int:
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


def cmd_simulate(args: SimpleNamespace) -> int:
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


def cmd_lint_trace(args: SimpleNamespace) -> int:
    fh = None
    if args.file and args.file != "-":
        try:
            fh = open(args.file)
        except OSError as exc:
            # A FILE that cannot be opened is bad input, not a bad line.
            return _input_error(exc)
    try:
        if fh is None:
            trace = core.Trace.load_jsonl(sys.stdin)
        else:
            with fh:
                trace = core.Trace.load_jsonl(fh)
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


def cmd_tournament(args: SimpleNamespace) -> int:
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


def cmd_dump_fa3(args: SimpleNamespace) -> int:
    report = checker.verify_against_table()
    dump = automata.fa3_dump(report.labels)
    print(json.dumps(dump, indent=2))
    return 0


class _UsageError(Exception):
    """A command line the parser refuses."""


# The command table: per subcommand, its help line, its options and the
# positional it takes (lint-trace's FILE, the only one), as (name, help).
# An option is (name, type, default, choices, help): a `bool` option is a
# flag, set by its name alone; an `int` or `str` option takes one value.
# Its attribute on the parsed namespace is its name without the dashes.
_COMMANDS: dict[str, tuple] = {
    "check": ("verify the model against the shipped table", (
        ("--json", bool, False, None, "emit the computed table"),
    ), None),
    "expect": ("print the expected-access table", (
        ("--verify", bool, False, None, "diff against the shipped table"),
        ("--policy", bool, False, None, "dump the optimal adversary"),
    ), None),
    "simulate": ("run the two-process simulation", (
        ("--ops", int, 100, None, "total tas operations"),
        ("--adversary", str, "round-robin", None, "round-robin | random | optimal | script:FILE"),
        ("--seed", int, 0, None, None),
        ("--trace", str, None, None, "write the JSONL trace here (default: stdout)"),
        ("--stats", str, None, None, "write the per-op CSV here"),
    ), None),
    "lint-trace": ("validate and linearize a JSONL trace", (),
                   ("file", "trace file (default: stdin)")),
    "tournament": ("search for the n-process violation", (
        ("--n", int, 3, (2, 3, 4), None),
        ("--budget", int, 2000, None, None),
        ("--seed", int, 0, None, None),
        ("--trace", str, None, None, "write the node-tagged JSONL trace here"),
    ), None),
    "dump-fa3": ("emit the specification automaton as JSON", (), None),
}
_HELP = {"-h": None, "--help": None}
# An argument that looks like this is a value, not an option.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _help(name: Optional[str]) -> str:
    """Help for `wftas` (`name` None) or one subcommand, built from the
    command table and laid out for an 80-column terminal."""
    rows = [(2, "-h, --help", "show this help message and exit")]
    if name is None:
        choices = "{" + ",".join(_COMMANDS) + "}"
        usage = ["wftas", "[-h]", choices, "..."]
        positional = [(2, choices, None)] + [(4, c, spec[0]) for c, spec in _COMMANDS.items()]
    else:
        _, options, pos = _COMMANDS[name]
        usage = ["wftas " + name, "[-h]"]
        for opt, type_, _, choices, text in options:
            if type_ is not bool:
                opt += " " + ("{" + ",".join(map(str, choices)) + "}" if choices
                              else opt[2:].upper())
            usage.append(f"[{opt}]")
            rows.append((2, opt, text))
        positional = [(2, *pos)] if pos else []
        usage += [f"[{pos[0]}]"] if pos else []
    lines = ["usage: " + usage[0]]
    for part in usage[1:]:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(" " * (len(usage[0]) + 8) + part)
        else:
            lines[-1] += " " + part
    col = min(24, max(indent + len(inv) for indent, inv, _ in positional + rows) + 2)

    def section(title, entries):
        out = ["", title]
        for indent, inv, text in entries:
            head = " " * indent + inv
            if text is None:
                out.append(head)
            elif len(head) <= col - 2:
                out.append(head.ljust(col) + text)
            else:
                out += [head, " " * col + text]
        return out

    if positional:
        lines += section("positional arguments:", positional)
    return "\n".join(lines + section("options:", rows)) + "\n"


def _read(prog: str, arg: str, names: dict) -> Optional[tuple[str, Optional[str]]]:
    """`arg` read against the option `names` of `prog`: None for a
    positional, else (option, its `=` value or None), option "" for one
    that `prog` does not have.  A unique prefix names its option."""
    if not arg.startswith("-") or arg in ("-", "--"):
        return None
    if arg in names:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in names:
        return name, value
    if arg[1] == "-":
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise _UsageError(f"{prog}: ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif arg[:2] in names:  # -hVALUE
        return arg[:2], arg[2:]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return "", None


def _help_option(name: Optional[str], option: str, value: Optional[str]) -> NoReturn:
    # Short flags combine (-hh); no other value is accepted.
    if value is None or option == "-h" and value and not value.strip("h"):
        sys.stdout.write(_help(name))
        raise SystemExit(0)
    value = value.lstrip("h") if option == "-h" else value
    prog = "wftas" if name is None else "wftas " + name
    raise _UsageError(f"{prog}: argument -h/--help: ignored explicit argument {value!r}")


def parse_args(argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
    """The `wftas` command line `argv` (default `sys.argv[1:]`) read
    against the command table: a namespace of `command` and one attribute
    per option and positional of that subcommand.

    Accepts `--opt value` and `--opt=value`, a unique prefix of an option
    name, a negative number as a value, and `--` to end the options.
    Prints help and exits 0 at -h or --help; raises _UsageError for any
    line it refuses, with the wording of the standard library's parser."""
    argv = list(sys.argv[1:] if argv is None else argv)
    extras: list[str] = []  # unknown arguments, reported once all are read
    for i, arg in enumerate(argv):
        opt = _read("wftas", arg, _HELP)
        if opt is None:
            break
        if opt[0]:
            _help_option(None, *opt)
        extras.append(arg)
    else:
        raise _UsageError("wftas: the following arguments are required: command")
    name, rest = argv[i], argv[i + 1 :]
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(
            f"wftas: argument command: invalid choice: {name!r} (choose from {choices})")
    prog = "wftas " + name
    _, options, pos = _COMMANDS[name]
    names = _HELP | {opt[0]: opt for opt in options}
    ns = SimpleNamespace(command=name, **{opt[0][2:]: opt[2] for opt in options})
    if pos:
        setattr(ns, pos[0], None)
    # Every option is read before any value is: an ambiguous prefix is
    # refused first.  After `--` every argument is a positional; a command
    # that takes none reports the `--` too.
    end = rest.index("--") if "--" in rest else len(rest)
    read = [_read(prog, arg, names) for arg in rest[:end]]
    if end < len(rest):
        del rest[end : end + bool(pos)]
        read += [()] * (len(rest) - end)
    slot = pos[0] if pos else None
    k = 0
    while k < len(rest):
        arg, opt = rest[k], read[k]
        k += 1
        if not opt:
            if slot:
                setattr(ns, slot, arg)
                slot = None
            else:
                extras.append(arg)
            continue
        option, value = opt
        if not option:
            extras.append(arg)
            continue
        if option in _HELP:
            _help_option(name, option, value)
        _, type_, _, choices, _ = names[option]
        if type_ is bool:
            if value is not None:
                raise _UsageError(
                    f"{prog}: argument {option}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if k == len(rest) or read[k] is not None:
                    raise _UsageError(f"{prog}: argument {option}: expected one argument")
                value, k = rest[k], k + 1
            if type_ is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(
                        f"{prog}: argument {option}: invalid int value: {value!r}") from None
            if choices and value not in choices:
                raise _UsageError(
                    f"{prog}: argument {option}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, choices))})")
        setattr(ns, option[2:], value)
    if extras:
        raise _UsageError("wftas: unrecognized arguments: " + " ".join(extras))
    return ns


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
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
