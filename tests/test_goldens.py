import re
from importlib import resources

import pytest

from wftas import goldens
from wftas.goldens import GoldenTable, GoldenTableError, STATE_ORDER


def _source_text() -> str:
    return resources.files("wftas.data").joinpath("golden_table.txt").read_text()


def test_state_order():
    assert len(STATE_ORDER) == 11
    assert STATE_ORDER[0] == "rst"


def test_table_shape(golden_table):
    assert len(golden_table.cells) == 121
    assert len(golden_table.reachable_cells()) == 98
    assert len(golden_table.unreachable_keys()) == 23


def test_structural_validation(golden_table):
    assert goldens.validate_goldens(golden_table) == []


def test_letter_mirror_symmetry(golden_table):
    assert goldens.check_letter_mirror_symmetry(golden_table) == []


def _with_me_rst(table, cell):
    """`table` with its (me,rst) cell replaced by `cell`."""
    cells = dict(table.cells)
    cells[("me", "rst")] = cell
    return GoldenTable(cells)


def test_letter_mirror_names_inconsistent_letters(golden_table):
    """(me,rst) forged from gp to gq: the letters of the transposed
    pairs admit no consistent involution, and the check stops before it
    compares the cells through one."""
    table = _with_me_rst(golden_table, goldens.Cell(frozenset("gq"), 9))
    assert goldens.check_letter_mirror_symmetry(table) == [
        "letter k: no consistent mirror image",
        "mirror relation not symmetric at m->q",
        "mirror relation not symmetric at p->k",
        "letter q: no consistent mirror image",
    ]


def test_letter_mirror_stops_at_reachability_asymmetry(golden_table):
    """(me,rst) forged unreachable: only the two asymmetric cells are
    named, and the letters are not read."""
    table = _with_me_rst(golden_table, None)
    assert goldens.check_letter_mirror_symmetry(table) == [
        "reachability asymmetry at (rst,me)",
        "reachability asymmetry at (me,rst)",
    ]


def test_known_cells(golden_table):
    from wftas.protocol import ProcState as S

    assert golden_table.cell(S.RST, S.RST).expected == 10
    assert golden_table.cell(S.RST, S.RST).letters == frozenset("d")
    assert golden_table.cell(S.ME, S.ME).letters == frozenset("imoq")
    assert golden_table.cell(S.TST1, S.RST).expected == 11
    assert golden_table.cell(S.TST1, S.TST1) is None  # unreachable
    # entire tst0 row costs exactly one access
    for c in STATE_ORDER:
        cell = golden_table.cells[("tst0", c)]
        if cell is not None:
            assert cell.expected == 1


def test_parse_rejects_permuted_rows():
    lines = [
        raw for raw in _source_text().splitlines()
        if raw.strip() and not raw.lstrip().startswith("#")
    ]
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(GoldenTableError):
        GoldenTable.parse("\n".join(lines))


def test_parse_rejects_bad_cell():
    text = _source_text().replace("imoq9", "imoz9", 1)
    with pytest.raises(GoldenTableError):
        GoldenTable.parse(text)


def _table_lines() -> list[str]:
    return [
        raw for raw in _source_text().splitlines()
        if raw.strip() and not raw.lstrip().startswith("#")
    ]


def _drop_last_field(lines: list[str], i: int) -> list[str]:
    return lines[:i] + [lines[i].rsplit(maxsplit=1)[0]] + lines[i + 1:]


@pytest.mark.parametrize("lines, message", [
    ([], "empty table"),
    (["# only a comment", ""], "empty table"),
    (["rst tst0", *_table_lines()[1:]], "bad column order: ('rst', 'tst0')"),
    (_table_lines()[:-1], "expected 11 rows, got 10"),
    (_table_lines() + _table_lines()[-1:], "expected 11 rows, got 12"),
    (_drop_last_field(_table_lines(), 3), "row 2: expected 12 fields"),
    ([_table_lines()[0], _table_lines()[2], _table_lines()[1], *_table_lines()[3:]],
     "bad row order: got tst0, want rst"),
    ([l.replace("imoq9", "imoz9", 1) for l in _table_lines()],
     "bad cell 'imoz9' at ('me', 'notme')"),
    ([l.replace("imoq9", "imoq", 1) for l in _table_lines()],
     "bad cell 'imoq' at ('me', 'notme')"),
], ids=["empty", "comment-only", "wrong-header", "too-few-rows", "too-many-rows",
        "short-row", "wrong-row-order", "bad-letter", "no-value"])
def test_parse_names_each_malformation(lines, message):
    assert GoldenTable.parse("\n".join(_table_lines())).cells  # the source parses
    with pytest.raises(GoldenTableError, match=f"^{re.escape(message)}$"):
        GoldenTable.parse("\n".join(lines))


def test_table_parsed_once_per_process(monkeypatch, capsys):
    """`check --json`, `expect --verify` and a mutant's table check share
    one parse of the shipped table."""
    from wftas import checker, cli, protocol

    goldens.load_golden_table.cache_clear()
    parses = []
    parse = GoldenTable.parse

    def counting_parse(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(GoldenTable, "parse", staticmethod(counting_parse))
    assert cli.main(["check", "--json"]) == 0
    assert cli.main(["expect", "--verify"]) == 0

    def mutant(s, observed=None, coin=None):
        return protocol.step(s, observed, coin)

    assert checker.verify_against_table(step_fn=mutant).ok
    capsys.readouterr()
    assert len(parses) == 1
    assert goldens.load_golden_table() is goldens.load_golden_table()
