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


def private_definitions(source: str) -> list:
    """The private (one leading underscore) functions and classes that
    ``source`` defines at module level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def referenced_names(source: str) -> set:
    """Every name ``source`` reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private(sources: dict) -> list:
    """Each private module-level function or class in ``sources`` (module
    name -> source) that no source references, as "module.name"."""
    referenced = set().union(*map(referenced_names, sources.values()))
    return [f"{module}.{name}" for module, source in sources.items()
            for name in private_definitions(source) if name not in referenced]


def test_the_scan_finds_an_unreferenced_private_helper():
    sources = {
        "a": "def _used():\n    pass\ndef _orphan():\n    pass\nclass _Gone:\n    pass\n"
             "def __getattr__(name):\n    pass\ndef public():\n    return _used()\n",
        "b": "from .c import _imported\nfrom . import c\nx = c._by_attribute\n",
        "c": "def _imported():\n    pass\ndef _by_attribute():\n    pass\n",
    }
    assert unreferenced_private(sources) == ["a._orphan", "a._Gone"]


def test_every_private_helper_is_referenced():
    """A private helper that no module in the package reads is dead code."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in (SRC / "alivetwist").glob("*.py")}
    assert unreferenced_private(sources) == []
