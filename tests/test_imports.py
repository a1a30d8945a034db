"""No unused imports: a stdlib `ast` scan of every Python file of the repository.

Each `.py` file under src/, tests/, demos/ and perfbench/ is read, never
edited.  A name bound by an import must be used in the module, listed
in its `__all__`, or marked `# noqa: F401` on the line of its own alias
(so one alias of a multi-line import can be kept for a caller that
patches it at that name).  `from __future__` imports and star imports
bind no name checked here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def _bound(alias: ast.alias) -> str:
    """The name an import alias binds: `import a.b` binds a."""
    return alias.asname or alias.name.split(".")[0]


def _annotation_names(node: ast.AST) -> set[str]:
    """The names a quoted annotation uses."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module neither uses, exports nor marks."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = _bound(alias)
                if name != "*" and name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_the_scan_covers_every_tree():
    for folder in ("src", "tests", "demos", "perfbench"):
        assert any(path.startswith(folder + "/") for path in FILES), folder
    assert "tests/test_imports.py" in FILES and "src/timebin_qkd/detection.py" in FILES


@pytest.mark.parametrize("path", FILES)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def test_the_scan_finds_what_it_should():
    source = '''
from __future__ import annotations
import os, sys
import numpy as np
from a.b import (
    c,
    d,  # noqa: F401  (kept for a caller)
    e,
)
from f import g as h, i
from j import *
__all__ = ["i"]

def k(x: "np.ndarray") -> "Path":
    return sys.argv, c
'''
    assert unused_imports(source) == [(3, "os"), (8, "e"), (10, "h")]
