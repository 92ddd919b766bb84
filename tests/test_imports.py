"""Every module of the package, its `__init__` aside, uses each name it imports."""

import ast
from pathlib import Path

import pytest

import pdsplit

MODULES = sorted(p for p in Path(pdsplit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module's source imports and never reads, by line."""
    tree, imported = ast.parse(source), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_leftover_import():
    source = ("from .blockspace import KeptImage, block_rows\n"
              "from .schedule import LagBuffer, read_depth\n"
              "import numpy as np\n"
              "def f(L):\n    return KeptImage(L), read_depth, np.zeros\n")
    assert unused_imports(source) == [(1, "block_rows"), (2, "LagBuffer")]
