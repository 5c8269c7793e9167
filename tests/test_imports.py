"""Every top-level import of a package module is used in that module.

`__init__.py` is left out: its imports are the package namespace.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "transitepi"


def unused_imports(source: str) -> list:
    """The names a module's top-level imports bind that no expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = "import csv\nimport json.decoder\nfrom typing import List as L, Tuple\nx: Tuple = json.loads('1')\n"
    assert unused_imports(source) == ["csv", "L"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
