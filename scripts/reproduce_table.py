#!/usr/bin/env python3
"""Recompute the verification table from scratch and print it in the
golden format: per reachable configuration the sorted representative-set
letters and the worst-case expected number of remaining accesses of the
row process; '*' marks unreachable configurations.
"""

import argparse

from wftas import checker, expectation
from wftas.goldens import STATE_ORDER, load_golden_table
from wftas.protocol import ProcState


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--diff", action="store_true",
        help="also diff the recomputation against the shipped table",
    )
    args = ap.parse_args()

    table = load_golden_table()
    report = checker.verify_against_table(table)
    rep = report.rep_sets
    result = expectation.solve(0)
    values = result.values

    width = 8
    print("".ljust(width) + "".join(s.ljust(width) for s in STATE_ORDER))
    for r in STATE_ORDER:
        row = [r.ljust(width)]
        for c in STATE_ORDER:
            cfg = (ProcState(r), ProcState(c))
            if cfg in rep:
                cell = f"{report.labels.letters_for(rep[cfg])}{values[cfg]}"
            else:
                cell = "*"
            row.append(cell.ljust(width))
        print("".join(row).rstrip())

    if args.diff:
        problems = list(report.mismatches)
        problems += expectation.verify_values(result, table)
        if problems:
            print(f"\n{len(problems)} differences:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("\nrecomputation matches the shipped table exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
