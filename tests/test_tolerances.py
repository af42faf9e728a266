"""The tolerance table: every small float of the package is named there once,
and every name in it is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conedual"
TABLE = PACKAGE / "tolerances.py"


def modules():
    """``{file name: parsed module}`` for every module of the package."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def table_entries():
    """``{name: (value, docstring)}`` for the assignments of the table."""
    body = ast.parse(TABLE.read_text()).body
    entries = {}
    for stmt, following in zip(body, body[1:] + [None]):
        if isinstance(stmt, ast.Assign):
            (target,) = stmt.targets
            doc = following.value.value if isinstance(following, ast.Expr) else None
            entries[target.id] = (stmt.value.value, doc)
    return entries


def test_no_small_float_literal_outside_the_table():
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, tree in modules().items()
        if name != TABLE.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3
    ]
    assert found == []


def test_every_entry_is_imported_elsewhere():
    imported = set()
    for tree in modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tolerances":
                imported.update(alias.name for alias in node.names)
    assert sorted(imported) == sorted(table_entries())


def test_each_entry_is_one_documented_float():
    tree = ast.parse(TABLE.read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    for name, (value, doc) in table_entries().items():
        assert isinstance(value, float) and 0 < value < 1e-3, name
        assert doc and "\n" not in doc.strip(), name

