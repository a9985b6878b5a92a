"""Per-layer metrics of a traced run, computed from its units' spans.

Each span is [name, tag, root, ms, self ms, info] (see tracer.Tracer).
Unless a name says otherwise:

- `X.ms` / `X.self_ms`: inclusive / self milliseconds spent in X in one
  unit, the median over the units that call X;
- `X.us_per_<item>`: microseconds per item, total time over total items;
- counts: exact, from the first unit that makes the call, so two runs
  with the same seed print the same count.

Each metric function returns (value, samples), or None when no unit of
the run made the call.
"""

from __future__ import annotations

import statistics
from typing import Callable, Optional

NAME, TAG, ROOT, MS, SELF_MS, INFO = range(6)

Result = Optional[tuple[float, int]]


def _spans(units, name, tag=None, root=None, where=None):
    """Per unit, the matching spans."""
    for u in units:
        yield [
            s for s in u["spans"]
            if s[NAME] == name
            and (tag is None or s[TAG] == tag)
            and (root is None or s[ROOT] == root)
            and (where is None or where(s))
        ]


def per_unit(name, field=MS, **match) -> Callable[[list], Result]:
    def metric(units):
        totals = [sum(s[field] for s in spans)
                  for spans in _spans(units, name, **match) if spans]
        return (statistics.median(totals), len(totals)) if totals else None
    return metric


def per_call(name, **match) -> Callable[[list], Result]:
    def metric(units):
        times = [s[MS] for spans in _spans(units, name, **match) for s in spans]
        return (statistics.median(times), len(times)) if times else None
    return metric


def per_item(name, item, **match) -> Callable[[list], Result]:
    """Microseconds per item, over the spans that report the item."""
    def metric(units):
        spans = [s for ss in _spans(units, name, **match) for s in ss if item in s[INFO]]
        items = sum(s[INFO][item] for s in spans)
        return (sum(s[MS] for s in spans) * 1e3 / items, len(spans)) if items else None
    return metric


def first_count(name, item, **match) -> Callable[[list], Result]:
    def metric(units):
        for spans in _spans(units, name, **match):
            for s in spans:
                if item in s[INFO]:
                    return (s[INFO][item], 1)
        return None
    return metric


def calls_under(name, root) -> Callable[[list], Result]:
    """Calls of `name` per call of the wrapped entry point `root`."""
    def metric(units):
        per_root = [
            len(spans) / sum(s[NAME] == root for s in u["spans"])
            for u, spans in zip(units, _spans(units, name, root=root))
            if any(s[NAME] == root for s in u["spans"])
        ]
        return (statistics.median(per_root), len(per_root)) if per_root else None
    return metric


def calls_per_unit(name, **match) -> Callable[[list], Result]:
    def metric(units):
        calls = [len(spans) for spans in _spans(units, name, **match) if spans]
        return (statistics.median_low(calls), len(calls)) if calls else None
    return metric


def per_second(child, root, tag) -> Callable[[list], Result]:
    """Calls of `child` under `root` per second spent in `root`."""
    def metric(units):
        roots = [s for ss in _spans(units, root, tag=tag) for s in ss]
        n = sum(len(ss) for ss in _spans(units, child, tag=tag, root=root))
        secs = sum(s[MS] for s in roots) / 1e3
        return (n / secs, len(roots)) if roots and secs > 0 else None
    return metric


def _ok(s) -> bool:
    return s[INFO].get("ok", False)


def _rejected(s) -> bool:
    return not s[INFO].get("ok", True)


CHECK, EXPECT = "cli.cmd_check", "cli.cmd_expect"
ADVERSARIES = ("round-robin", "random", "optimal")

# name -> (unit, better, metric function).  trace_overhead_frac is
# computed by run.py from untraced/traced pairs of the same unit.
PER_LAYER: dict[str, tuple[str, str, Callable]] = {
    "checker.representative_sets.ms": ("ms", "lower", per_unit("checker.representative_sets")),
    "checker.representative_sets.calls": ("count", "lower", calls_under("checker.representative_sets", CHECK)),
    "checker.forward_families.ms": ("ms", "lower", per_unit("checker.forward_families")),
    "checker.verify_against_table.self_ms": ("ms", "lower", per_unit("checker.verify_against_table", SELF_MS)),
    "checker.claim_induction_check.self_ms": ("ms", "lower", per_unit("checker.claim_induction_check", SELF_MS)),
    "expectation.edge_map.ms": ("ms", "lower", per_unit("expectation.edge_map")),
    "checker.configs": ("count", "lower", first_count("checker.representative_sets", "configs", root=CHECK)),
    "checker.history_classes": ("count", "lower", first_count("checker.forward_families", "history_classes", root=CHECK)),
    "expectation.solve.ms": ("ms", "lower", per_unit("expectation.solve")),
    "expectation.solve.calls": ("count", "lower", calls_under("expectation.solve", EXPECT)),
    "expectation.solve.sweeps": ("count", "lower", first_count("expectation.solve", "sweeps")),
    "expectation.loop_probabilities.sweeps": ("count", "lower", first_count("expectation.loop_probabilities", "sweeps")),
    "expectation.expected_choose_visits.sweeps": ("count", "lower", first_count("expectation.expected_choose_visits", "sweeps")),
    "expectation.evaluate_policy.ms": ("ms", "lower", per_unit("expectation.evaluate_policy")),
    "expectation.loop_probability_check.self_ms": ("ms", "lower", per_unit("expectation.loop_probability_check", SELF_MS)),
    "automata.fa3_build.ms": ("ms", "lower", per_unit("automata.fa3_build")),
    "goldens.load_golden_table.ms": ("ms", "lower", per_unit("goldens.load_golden_table")),
    "cli.cmd_check.self_ms": ("ms", "lower", per_unit("cli.cmd_check", SELF_MS)),
    "cli.cmd_expect.self_ms": ("ms", "lower", per_unit("cli.cmd_expect", SELF_MS)),
    "cli.cmd_simulate.self_ms": ("ms", "lower", per_unit("cli.cmd_simulate", SELF_MS)),
    "cli.cmd_lint_trace.self_ms": ("ms", "lower", per_unit("cli.cmd_lint_trace", SELF_MS)),
    **{
        f"harness.run.us_per_access.{adv}": ("us", "lower", per_item("harness.run", "accesses", tag=adv))
        for adv in ADVERSARIES
    },
    **{
        f"harness.run.accesses.{adv}": ("count", "lower", first_count("harness.run", "accesses", tag=adv))
        for adv in ADVERSARIES
    },
    "harness.measure_from_config.us_per_op": ("us", "lower", per_item("harness.measure_from_config", "ops")),
    "harness.measure_from_config.accesses": ("count", "lower", first_count("harness.measure_from_config", "accesses")),
    "harness.loop_experiment.us_per_visit": ("us", "lower", per_item("harness.loop_experiment", "visits")),
    "harness.loop_experiment.returns": ("count", "lower", first_count("harness.loop_experiment", "returns")),
    "core.Trace.dump_jsonl.us_per_access": ("us", "lower", per_item("core.Trace.dump_jsonl", "accesses")),
    "core.Trace.load_jsonl.us_per_access": ("us", "lower", per_item("core.Trace.load_jsonl", "accesses")),
    "core.Trace.replay.ms": ("ms", "lower", per_unit("core.Trace.replay")),
    "core.Trace.op_records.ms": ("ms", "lower", per_unit("core.Trace.op_records")),
    **{
        f"linearize.check_two_process.us_per_access.{adv}": (
            "us", "lower", per_item("linearize.check_two_process", "accesses", tag=adv, where=_ok))
        for adv in ADVERSARIES
    },
    "linearize.check_two_process.reject_ms": ("ms", "lower", per_call("linearize.check_two_process", where=_rejected)),
    "linearize.project_b.ms": ("ms", "lower", per_unit("linearize.project_b")),
    "linearize.check_n_process.ms": ("ms", "lower", per_unit("linearize.check_n_process")),
    "linearize.check_n_process.calls": ("count", "lower", calls_per_unit("linearize.check_n_process")),
    "tournament.find_violation.ms.n3": ("ms", "lower", per_call("tournament.find_violation", tag="n3")),
    "tournament.find_violation.schedules.n3": ("count", "lower", calls_per_unit(
        "linearize.check_n_process", tag="n3", root="tournament.find_violation")),
    "tournament.find_violation.schedules.n2": ("count", "lower", calls_per_unit(
        "linearize.check_n_process", tag="n2", root="tournament.find_violation")),
    "tournament.find_violation.schedules_per_s.n2": ("1/s", "higher", per_second(
        "linearize.check_n_process", "tournament.find_violation", "n2")),
}
