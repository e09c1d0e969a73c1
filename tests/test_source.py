"""Static checks of the package source: no imported name goes unread."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sga"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports and never reads, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scanner_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .x import a, b as c, d\n"
        "def f():\n"
        "    return os.path.join(a, d.e)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
