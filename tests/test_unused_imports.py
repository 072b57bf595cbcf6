"""Lint: no module under ``src/repro`` imports a name it never uses.

Package ``__init__`` modules are skipped (their imports are the
re-exported API).  A name counts as used when the module loads it
anywhere, names it in ``__all__``, or mentions it inside a quoted
annotation (``Optional["PrefixTree"]``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def imported_names(tree):
    """``{bound name: line}`` for every import except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _quoted_names(annotation):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used.update(_quoted_names(annotation))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree).items()
        if name not in used
    )


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from .a import Exported, Quoted, Unused as Alias\n"
        "__all__ = ['Exported']\n"
        "def f(x: Optional['Quoted']) -> Dict:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "List"), (4, "Alias")]


def test_no_unused_imports_under_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            offenders.append("%s:%d %s" % (path.relative_to(SRC.parent), line, name))
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
