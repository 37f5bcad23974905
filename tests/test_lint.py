"""Static checks on the package source that no runtime test would catch."""

import ast

import pytest

from helpers import SRC

MODULES = sorted(path for path in (SRC / "alivetwist").glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Each name an import binds in ``source`` that the module never reads,
    as "name (line n)"; ``from __future__`` imports are not bindings."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n")
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)", "inf (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
