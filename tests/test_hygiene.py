"""Source hygiene: no module in src/, tests/ or demos/ imports a name it never
uses, and every name a package module exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each name an import binds and nothing else in the module
    reads.  A name listed in a literal ``__all__`` counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_sources_found():
    assert any(p.name == "search.py" for p in SOURCES)
    assert any(p.parent.name == "demos" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_detection():
    tree = ast.parse(
        "import os.path\n"
        "from typing import Optional, Sequence as Seq\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Optional[int]): return os.sep\n"
    )
    assert unused_imports(tree) == [(2, "Seq")]


PACKAGE_MODULES = ["fdforge"] + [
    f"fdforge.{path.stem}" for path in sorted((ROOT / "src" / "fdforge").glob("*.py"))
    if not path.stem.startswith("__")
]


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_every_export_resolves(module):
    # a name removed from a module but left in an __all__ fails here
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
