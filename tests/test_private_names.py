"""Every private top-level name the package defines is read somewhere in the package."""

import ast
from pathlib import Path

import pdsplit

PACKAGE = Path(pdsplit.__file__).parent


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each top-level `_name` (dunders aside) that a function, class or
    assignment of a module in sources defines and that no module in sources reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_private_top_level_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_finds_a_leftover_helper():
    sources = {"schedule.py": ("def _certified(kind, s):\n    return s\n"
                               "def _no_reads(shape):\n    return shape\n"
                               "def periodic():\n    return _no_reads(1)\n"),
               "separator.py": ("from . import schedule\n"
                                "_linear_matrix, __doc__ = None, ''\n"
                                "_TOL: float = 1e-12\n"
                                "class _Spec:\n    pass\n"
                                "class _Old:\n    pass\n"
                                "def check():\n    return schedule._Spec, _TOL\n")}
    assert unread_private_names(sources) == [("schedule.py", 1, "_certified"),
                                             ("separator.py", 2, "_linear_matrix"),
                                             ("separator.py", 6, "_Old")]
