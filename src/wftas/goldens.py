"""The golden verification table: parsing, structure checks, access."""

from __future__ import annotations

import functools
import pkgutil
import re
from typing import NamedTuple, Optional

from .protocol import ProcState

STATE_ORDER = (
    "rst", "tst0", "notme", "me", "tome", "choose",
    "tohe", "he", "nothe", "tst1", "free",
)

_CELL_RE = re.compile(r"^([a-t]+)(\d+)$")


class Cell(NamedTuple):
    letters: frozenset[str]
    expected: int  # worst-case expected remaining accesses of P0


class GoldenTableError(Exception):
    pass


class GoldenTable:
    """11x11 table: (P0 state, P1 state) -> Cell or None (unreachable)."""

    def __init__(self, cells: dict[tuple[str, str], Optional[Cell]]):
        self.cells = cells

    def cell(self, s0: ProcState, s1: ProcState) -> Optional[Cell]:
        return self.cells[(s0.value, s1.value)]

    def reachable_cells(self) -> dict[tuple[str, str], Cell]:
        return {k: v for k, v in self.cells.items() if v is not None}

    def unreachable_keys(self) -> list[tuple[str, str]]:
        return [k for k, v in self.cells.items() if v is None]

    @staticmethod
    def parse(text: str) -> "GoldenTable":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split())
        if not rows:
            raise GoldenTableError("empty table")
        header = tuple(rows[0])
        if header != STATE_ORDER:
            raise GoldenTableError(f"bad column order: {header}")
        body = rows[1:]
        if len(body) != 11:
            raise GoldenTableError(f"expected 11 rows, got {len(body)}")
        cells: dict[tuple[str, str], Optional[Cell]] = {}
        for i, row in enumerate(body):
            if len(row) != 12:
                raise GoldenTableError(f"row {i}: expected 12 fields")
            if row[0] != STATE_ORDER[i]:
                raise GoldenTableError(
                    f"bad row order: got {row[0]}, want {STATE_ORDER[i]}"
                )
            for j, tok in enumerate(row[1:]):
                key = (STATE_ORDER[i], STATE_ORDER[j])
                if tok == "*":
                    cells[key] = None
                    continue
                m = _CELL_RE.match(tok)
                if not m:
                    raise GoldenTableError(f"bad cell {tok!r} at {key}")
                cells[key] = Cell(frozenset(m.group(1)), int(m.group(2)))
        return GoldenTable(cells)


@functools.cache
def load_golden_table() -> GoldenTable:
    """The shipped table, parsed on first use and shared by every
    caller, who must not modify it."""
    # pkgutil, not importlib.resources, whose import loads pathlib, zipfile
    # and tempfile (and, from Python 3.12, inspect) at every start-up.
    text = pkgutil.get_data("wftas", "data/golden_table.txt").decode()
    return GoldenTable.parse(text)


def validate_goldens(table: GoldenTable) -> list[str]:
    """Structural checks; returns a list of problems (empty when clean)."""
    problems: list[str] = []
    for key, cell in table.cells.items():
        if cell is None:
            continue
        if not (1 <= cell.expected <= 11):
            problems.append(f"cell {key}: expected value {cell.expected} outside [1,11]")
        if not cell.letters <= set("abcdefghijklmnopqrst"):
            problems.append(f"cell {key}: letters outside a-t")
    # The tst0 row must be all 1 (reset is one access) and tst1 must peak at 11.
    for s1 in STATE_ORDER:
        cell = table.cells[("tst0", s1)]
        if cell is not None and cell.expected != 1:
            problems.append(f"cell ('tst0', {s1!r}): expected value != 1")
    values = [c.expected for c in table.reachable_cells().values()]
    if max(values) != 11:
        problems.append(f"max expected value is {max(values)}, want 11")
    problems.extend(check_letter_mirror_symmetry(table))
    return problems


def check_letter_mirror_symmetry(table: GoldenTable) -> list[str]:
    """Transposed cells must carry mirrored letter sets.

    Only letters mirror across the diagonal; the values do not, since
    they track the row process only.  The letter mirror involution is
    recovered from the table itself: it must map the letter multiset of
    each cell onto that of its transpose consistently.
    """
    problems: list[str] = []
    # Reachability must be symmetric.
    for (r, c), cell in table.cells.items():
        tcell = table.cells[(c, r)]
        if (cell is None) != (tcell is None):
            problems.append(f"reachability asymmetry at ({r},{c})")
            continue
        if cell is not None and len(cell.letters) != len(tcell.letters):
            problems.append(f"letter-count asymmetry at ({r},{c})")
    if problems:
        return problems
    # Letter mirror map: swapping the two processes maps each FA4 state onto
    # its role-swapped twin; derivable from the owner ranges plus the table's
    # diagonal symmetry.
    # Build the involution by propagation over singleton constraints.
    cand: dict[str, set[str]] = {}
    for (r, c), cell in table.cells.items():
        if cell is None:
            continue
        tletters = table.cells[(c, r)].letters
        for l in cell.letters:
            cand.setdefault(l, set(tletters)).intersection_update(tletters)
    # Prune with singletons; letters that always co-occur (m and q) stay
    # grouped in a class, which is as far as the table alone determines
    # the involution.
    changed = True
    while changed:
        changed = False
        for l, s in cand.items():
            if len(s) == 1:
                m = next(iter(s))
                for l2, s2 in cand.items():
                    if l2 != l and m in s2 and len(s2) > 1:
                        s2.discard(m)
                        changed = True
    for l, s in sorted(cand.items()):
        if not s:
            problems.append(f"letter {l}: no consistent mirror image")
        for m in s:
            if l not in cand.get(m, set()):
                problems.append(f"mirror relation not symmetric at {l}->{m}")
    if problems:
        return problems
    for (r, c), cell in table.cells.items():
        if cell is None:
            continue
        want = frozenset().union(*(cand[l] for l in cell.letters))
        got = table.cells[(c, r)].letters
        if want != got:
            problems.append(
                f"letter mirror mismatch at ({r},{c}): {sorted(want)} vs {sorted(got)}"
            )
    return problems
