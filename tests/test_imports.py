"""No module of the package imports a name that it never uses.  No linter
runs on the sources, so this test stands in for one: each module is parsed
with `ast`, and every name an import binds must be read somewhere in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "vposets").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order.
    ``from __future__ import ...`` binds no name and is skipped; a name
    listed in a literal ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [name for name in imported if name not in used]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "polynomial.py", "trees.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from math import prod, gcd\n"
        "__all__ = ['gcd']\n"
        "print(system.argv, prod([]))\n"
    )
    assert unused_imports(source) == ["os"]
