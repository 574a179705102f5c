"""The operation catalog: one row per operation kind, pinned phases, and the
README's catalog table read against the rows."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import xtadapt
import xtadapt.transform as transform
from xtadapt.transform import CATALOG, AdaptationType, OpKind, OpSpec

README = Path(__file__).resolve().parent.parent / "README.md"

#: Config semantics depend on the phases: a change here changes what every
#: config with entries of two phases produces.
PHASES = {
    OpKind.REPLACE_RULE: 1,
    OpKind.PROMOTE_ATTRIBUTE: 2,
    OpKind.MAKE_BRACES_OPTIONAL: 3,
    OpKind.ADD_OPTIONALITY: 3,
    OpKind.REMOVE_OPTIONALITY: 3,
    OpKind.REMOVE_BRACES: 4,
    OpKind.REMOVE_KEYWORD: 5,
    OpKind.RENAME_KEYWORD: 5,
    OpKind.CHANGE_SEPARATOR: 6,
    OpKind.ADD_TERMINATOR: 6,
    OpKind.CHANGE_CALLED_RULE: 7,
}


def test_every_kind_has_exactly_one_row():
    """Read in the source too: a kind written twice in the literal would
    leave one row in the dict, silently."""
    tree = ast.parse(inspect.getsource(transform))
    literal = next(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CATALOG"
    )
    written = sorted(ast.unparse(key) for key in literal.keys)
    assert written == sorted(f"OpKind.{k.name}" for k in OpKind)
    assert set(CATALOG) == set(OpKind)
    assert all(type(row) is OpSpec for row in CATALOG.values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        CATALOG[OpKind.REMOVE_KEYWORD].phase = 1  # type: ignore[misc]


def test_phases_are_pinned():
    assert {kind: row.phase for kind, row in CATALOG.items()} == PHASES


def test_rows_are_consistent():
    """Only the fallback has no adaptation type; a keyword or written param
    is one of the row's string params or CHANGE_SEPARATOR's nullable ``to``."""
    for kind, row in CATALOG.items():
        assert (row.adaptation is None) == (kind is OpKind.REPLACE_RULE), kind
        assert row.keyword is None or row.keyword in row.strings, kind
        if row.writes is not None:
            name, printable = row.writes
            assert name in row.strings or (kind, name) == (OpKind.CHANGE_SEPARATOR, "to")
            assert callable(printable)


def test_adaptation_type_is_exported_where_it_was():
    from xtadapt.evaluate import AdaptationType as exported_by_evaluate

    assert exported_by_evaluate is AdaptationType
    assert xtadapt.AdaptationType is AdaptationType
    assert len(xtadapt.__all__) == 45


def _readme_rows() -> dict[str, list[str]]:
    """The README catalog table's cells by kind, backticks removed."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0] in OpKind.__members__:
            assert cells[0] not in rows, cells[0]
            rows[cells[0]] = cells
    return rows


def test_readme_catalog_table_matches_the_rows():
    rows = _readme_rows()
    assert set(rows) == {kind.value for kind in OpKind}
    for kind, row in CATALOG.items():
        _, phase, _, written, adaptation = rows[kind.value]
        assert int(phase) == row.phase, kind
        assert adaptation == (row.adaptation.value if row.adaptation else "—"), kind
        assert written.split(" ")[0] == (row.writes[0] if row.writes else "—"), kind
