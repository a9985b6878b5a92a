"""The three workloads: their unit inputs, generated from the workload seed.

A unit is what one fresh interpreter runs.  Its inputs are plain JSON
(adversary names, seeds for the program, positions in [0, 1) at which
negative traces are forged), so the program sees only generated inputs.
The same (workload, seed) always yields the same sequence of units.
"""

from __future__ import annotations

import random
from typing import Iterator

ADVERSARIES = ("round-robin", "random", "optimal")

# Verdicts each unit checks; a unit whose child crashes fails all of them.
CASES = {
    "verify": (
        "check.exit", "check.phases", "check.table", "expect.exit",
        "expect.matrix", "expect.max", "expect.policy",
        "loop_probability_check", "mutation.detected",
    ),
    "trace_roundtrip": (
        "simulate.exit", "clean.exit", "clean.report", "negatives.simulate.exit",
        "forged_ftas.exit", "forged_post.exit", "garbled_line.exit",
    ),
    "sweep": (
        "measure.mean", "loop.visits", "loop.within_5_sigma", "n3.violation",
        "n3.nodes_ok", "n3.nodes_lint", "n2.budget_exceeded",
    ),
}

WORKLOADS = tuple(CASES)

# Units per rotation; a run only stops at a rotation boundary, so each
# adversary gets the same number of trace_roundtrip units.
CYCLE = {"verify": 1, "trace_roundtrip": len(ADVERSARIES), "sweep": 1}

# Work per unit.  "tiny" is for the smoke test only.  The tas operations
# of a clean trace differ by adversary so that the three kinds of
# trace_roundtrip unit cost about the same: a run's unit times then form
# one cluster, not three, and their median and tail stay put.
SIZES = {
    "full": {"trace_ops": {"round-robin": 2000, "random": 4000, "optimal": 1300},
             "negative_ops": 20, "measure_ops": 500, "loop_visits": 1000, "budget": 2000},
    "tiny": {"trace_ops": dict.fromkeys(ADVERSARIES, 40),
             "negative_ops": 12, "measure_ops": 20, "loop_visits": 50, "budget": 20},
}


def unit_specs(workload: str, seed: int, size: str = "full") -> Iterator[dict]:
    """The endless, deterministic stream of unit inputs of one run."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]
    i = 0
    while True:
        spec: dict = {"workload": workload, "index": i}
        if workload == "trace_roundtrip":
            adversary = ADVERSARIES[(seed + i) % len(ADVERSARIES)]
            spec.update(
                adversary=adversary,
                ops=sz["trace_ops"][adversary],
                seed=rng.randrange(2**31),
                negative_ops=sz["negative_ops"],
                negative_seed=rng.randrange(2**31),
                post_at=rng.random(),
                post_state=rng.random(),
                garble_at=rng.random(),
                garble_cut=rng.random(),
            )
        elif workload == "sweep":
            spec.update(
                config=["tst1", "rst"],
                measure_ops=sz["measure_ops"],
                measure_seed=rng.randrange(2**31),
                loop_visits=sz["loop_visits"],
                loop_seed=rng.randrange(2**31),
                tournament_seed=rng.randrange(2**31),
                # The n=3 search finds the guided schedule first; the n=2
                # search must exhaust its budget.
                budget_n3=2000,
                budget_n2=sz["budget"],
            )
        elif workload != "verify":
            raise ValueError(f"unknown workload {workload!r}")
        yield spec
        i += 1
