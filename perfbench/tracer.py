"""Spans around the public functions of wftas, installed from outside.

`install` replaces each function in `WRAPPED` with a wrapper that
records a span: name, start, end, the span that called it, the current
tag (set by the workload: an adversary name, or "n2"/"n3" for the
tournament) and counts read from the call's arguments and return value.
A function is patched in every module that binds it, so names imported
with `from` (`checker.fa3_build`, `linearize.fa3_build`,
`checker.load_golden_table`) are traced too.

Nothing that runs once per access or per event is wrapped
(`protocol.*`, `Fa3.fa4_step`, `checker.edges_from`): their cost shows
in their callers' self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Any, Callable, Optional

InfoFn = Optional[Callable[[tuple, dict, Any], dict]]


def _sweeps(a, k, r):
    return {"sweeps": r.iterations}


def _self_accesses(a, k, r):
    return {"accesses": len(a[0])}


# Qualified name under `wftas.` -> counts taken from (args, kwargs, result).
WRAPPED: dict[str, InfoFn] = {
    "automata.fa3_build": None,
    "goldens.load_golden_table": None,
    "checker.forward_families": lambda a, k, r: {
        "history_classes": sum(len(sets) for sets in r.values())
    },
    "checker.representative_sets": lambda a, k, r: {"configs": len(r)},
    "checker.verify_against_table": lambda a, k, r: {"mismatches": len(r.mismatches)},
    "checker.claim_induction_check": None,
    "expectation.edge_map": lambda a, k, r: {"configs": len(r)},
    "expectation.solve": _sweeps,
    "expectation.loop_probabilities": _sweeps,
    "expectation.expected_choose_visits": _sweeps,
    "expectation.evaluate_policy": _sweeps,
    "expectation.loop_probability_check": None,
    "cli.cmd_check": None,
    "cli.cmd_expect": None,
    "cli.cmd_simulate": None,
    "cli.cmd_lint_trace": None,
    "harness.run": lambda a, k, r: {"accesses": len(r[0])},
    "harness.measure_from_config": lambda a, k, r: {"ops": len(r), "accesses": sum(r)},
    "harness.loop_experiment": lambda a, k, r: {
        "visits": r.n, "returns": sum(r.successes)
    },
    "core.Trace.dump_jsonl": _self_accesses,
    "core.Trace.load_jsonl": lambda a, k, r: {"accesses": len(r)},
    "core.Trace.replay": _self_accesses,
    "core.Trace.op_records": lambda a, k, r: {"ops": len(r)},
    "linearize.project_b": lambda a, k, r: {"events": len(r)},
    "linearize.check_two_process": lambda a, k, r: {"accesses": len(a[0]), "ok": r.ok},
    "linearize.check_n_process": lambda a, k, r: {"ok": r.ok},
    "linearize.lint": lambda a, k, r: {"ok": r.ok},
    "tournament.find_violation": None,
}


class Tracer:
    """In-memory spans of one unit; `spans()` summarizes them at the end."""

    def __init__(self) -> None:
        # name, tag, parent index, start, end, info
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.tag = ""

    def wrap(self, name: str, fn: Callable, info_fn: InfoFn) -> Callable:
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.tag, stack[-1] if stack else -1, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if info_fn is not None:
                span[5] = info_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[list]:
        """[name, tag, root name, ms, self ms, info] for every span.

        The root is the outermost wrapped caller (the span itself when
        nothing wrapped called it).  Self time is the duration minus the
        durations of the direct children, which never overlap.
        """
        child_s = [0.0] * len(self._spans)
        roots: list[str] = []
        for name, _tag, parent, start, end, _info in self._spans:
            if parent >= 0:
                child_s[parent] += end - start
            roots.append(roots[parent] if parent >= 0 else name)
        return [
            [name, tag, roots[i], (end - start) * 1e3,
             (end - start - child_s[i]) * 1e3, info]
            for i, (name, tag, _p, start, end, info) in enumerate(self._spans)
        ]


class NullTracer:
    """Stands in for `Tracer` in untraced units: tags are ignored."""

    tag = ""


def resolve(qualname: str) -> tuple[object, str, object]:
    """(owner, attribute, raw attribute) of `wftas.<qualname>`.

    Raises LookupError when a wrapped function was renamed or removed,
    so a traced run fails instead of silently losing a layer.
    """
    mod, *path = qualname.split(".")
    owner = sys.modules.get(f"wftas.{mod}")
    try:
        if owner is None:
            raise AttributeError(mod)
        for part in path[:-1]:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, path[-1])
    except AttributeError:
        raise LookupError(f"wrapped function wftas.{qualname} does not exist") from None
    if not callable(getattr(owner, path[-1])):
        raise LookupError(f"wftas.{qualname} is not callable")
    return owner, path[-1], raw


def install(tracer: Tracer) -> None:
    """Patch every function in WRAPPED, in every wftas module binding it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "wftas" or name.startswith("wftas.")]
    for qualname, info_fn in WRAPPED.items():
        owner, attr, raw = resolve(qualname)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(qualname, raw.__func__, info_fn)))
            continue
        wrapped = tracer.wrap(qualname, raw, info_fn)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
            continue
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is raw]:
                setattr(m, key, wrapped)
