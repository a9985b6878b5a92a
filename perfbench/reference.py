"""An independent reader of the shipped golden table.

The `verify` workload checks the CLI's output against this reader, not
against `wftas.goldens`, so a defect shared by the package's parser and
its checker cannot hide itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

# (row state, column state) -> (sorted letters, expected accesses), or
# None for a '*' cell.
Table = dict[tuple[str, str], Optional[tuple[str, int]]]


def read_table(path: Path) -> tuple[list[str], Table]:
    """The column order and the cells of the golden table file."""
    rows = [
        line.split()
        for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    header, body = rows[0], rows[1:]
    if len(header) != 11 or len(body) != 11:
        raise ValueError(f"{path}: expected an 11x11 table")
    cells: Table = {}
    for row in body:
        if len(row) != 12:
            raise ValueError(f"{path}: row {row[0]} has {len(row) - 1} cells")
        for col, tok in zip(header, row[1:]):
            if tok == "*":
                cells[(row[0], col)] = None
                continue
            letters = tok.rstrip("0123456789")
            digits = tok[len(letters):]
            if not letters or not digits or not letters.isalpha():
                raise ValueError(f"{path}: bad cell {tok!r}")
            cells[(row[0], col)] = ("".join(sorted(letters)), int(digits))
    return header, cells


def check_json_problems(cells: Table, payload: dict) -> list[str]:
    """Differences between the `wftas check --json` table and the file's."""
    computed, unreachable = payload["cells"], set(payload["unreachable"])
    problems = []
    for (r, c), want in cells.items():
        key = f"{r},{c}"
        if want is None:
            if key not in unreachable or key in computed:
                problems.append(f"{key}: '*' in table, not reported unreachable")
            continue
        got = computed.get(key)
        if got is None:
            problems.append(f"{key}: missing from check --json")
        elif "".join(sorted(got["letters"] or "")) != want[0]:
            problems.append(f"{key}: letters {got['letters']} != {want[0]}")
        elif got["expected_accesses"] != str(want[1]):
            problems.append(f"{key}: value {got['expected_accesses']} != {want[1]}")
    extra = len(computed) + len(unreachable) - len(cells)
    if extra:
        problems.append(f"{extra} cells reported beyond the table")
    return problems


def expect_matrix_problems(header: list[str], cells: Table, out: str) -> list[str]:
    """Differences between the matrix `wftas expect` prints and the table."""
    lines = out.splitlines()
    problems = []
    if lines[0].split() != header:
        problems.append(f"matrix header {lines[0].split()} != {header}")
    rows = [line.split() for line in lines[1:12]]
    if [row[0] for row in rows] != header:
        problems.append(f"matrix rows {[row[0] for row in rows]} != {header}")
        return problems
    for row, *values in rows:
        if len(values) != len(header):
            problems.append(f"row {row}: {len(values)} values")
        for col, got in zip(header, values):
            want = cells[(row, col)]
            want_s = "*" if want is None else str(want[1])
            if got != want_s:
                problems.append(f"{row},{col}: matrix {got} != table {want_s}")
    return problems


def trailing_json(out: str):
    """The JSON document that ends a command's output (`check --json`
    prints it after the phase lines, `expect --policy` after the matrix)."""
    return json.loads(out[out.index("\n{") + 1:])
