"""Every module-level import in the package and the tests is read somewhere
in its module.  Standard-library ast only, so it needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "gfft").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by source's module-level imports that no name in it
    reads and its __all__ does not list.  A package's __init__ re-exports
    what it imports, so pass only other modules."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from json import dumps, loads\n"
        "from math import gcd, pi\n"
        "__all__ = ['pi']\n"
        "def f(x: dumps) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["system", "loads", "gcd"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
