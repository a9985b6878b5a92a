#!/usr/bin/env python3
"""Recompute the verification table from scratch and print it in the
golden format: per reachable configuration the sorted representative-set
letters and the worst-case expected number of remaining accesses of the
row process; '*' marks unreachable configurations.  The table is the one
`wftas check --json` computes; `--diff` adds the problems its phases
report and the expected values that differ from the shipped table.
"""

import argparse
import contextlib
import io
import json

from wftas import cli
from wftas.goldens import STATE_ORDER, load_golden_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--diff", action="store_true",
        help="also diff the recomputation against the shipped table",
    )
    args = ap.parse_args()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check", "--json"])
    lines = out.getvalue().splitlines()
    start = lines.index("{")
    cells = json.loads("\n".join(lines[start:]))["cells"]

    width = 8
    print("".ljust(width) + "".join(s.ljust(width) for s in STATE_ORDER))
    for r in STATE_ORDER:
        row = [r.ljust(width)]
        for c in STATE_ORDER:
            cell = cells.get(f"{r},{c}")
            text = "*" if cell is None else f"{cell['letters'] or '?'}{cell['expected_accesses']}"
            row.append(text.ljust(width))
        print("".join(row).rstrip())

    if args.diff:
        problems = [line[4:] for line in lines[:start] if line.startswith("  - ")]
        for (r, c), gold in load_golden_table().reachable_cells().items():
            got = cells.get(f"{r},{c}", {}).get("expected_accesses")
            if got is not None and got != str(gold.expected):
                problems.append(f"cell {(r, c)}: computed {got} != table {gold.expected}")
        if problems:
            print(f"\n{len(problems)} differences:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("\nrecomputation matches the shipped table exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
