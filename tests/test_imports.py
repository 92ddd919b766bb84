"""Every module of the package, its `__init__` aside, uses each name it imports, one routine
stacks the operator groups' resolvent parameters, and the test oracle takes none of the
package's per-block or per-group arithmetic."""

import ast
from pathlib import Path

import pytest

import pdsplit

MODULES = sorted(p for p in Path(pdsplit.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
PACKAGE_ARITHMETIC = {"forward_block", "adjoint_block", "resolvent", "stacked_resolvent",
                      "stacked_parameters", "graph_distance", "operator_groups"}


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


def callers(name: str, paths=MODULES) -> list:
    """The functions of the sources at paths that call `name`, as module.function."""
    found = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    return sorted(found)


def test_one_routine_stacks_the_operator_groups():
    # a side at new steps calls operator_groups, as the problem does at step 1
    assert callers("stacked_parameters") == ["operators.operator_groups", "operators.resolvent"]
    assert callers("operator_groups") == ["engine._side", "separator.__post_init__"]


def test_the_callers_check_finds_a_second_stacking_loop(tmp_path):
    (tmp_path / "engine.py").write_text(
        "from .operators import stacked_parameters\n"
        "def _side(ops, steps):\n    return [stacked_parameters(ops, steps)]\n"
        "def run(ops):\n    return ops.stacked_parameters\n")
    assert callers("stacked_parameters", [tmp_path / "engine.py"]) == ["engine._side"]


def package_arithmetic(source: str) -> list:
    """The PACKAGE_ARITHMETIC names a source imports from pdsplit or reads as an attribute, by
    line."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdsplit":
            found.update((node.lineno, a.name) for a in node.names if a.name in PACKAGE_ARITHMETIC)
        elif isinstance(node, ast.Attribute) and node.attr in PACKAGE_ARITHMETIC:
            found.add((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("name", ["oracle.py", "conftest.py"])
def test_the_oracle_takes_no_arithmetic_from_the_package(name):
    assert package_arithmetic((TESTS / name).read_text()) == []


def test_the_check_finds_package_arithmetic_left_in_the_oracle():
    source = ("import pdsplit as ps\n"
              "from pdsplit.operators import MonotoneOp, resolvent\n"
              "from oracle import adjoint_block\n"
              "def f(L, x):\n    return ps.blockspace.forward_block(L, x, 0), adjoint_block\n")
    assert package_arithmetic(source) == [(2, "resolvent"), (5, "forward_block")]
