"""Every name a ``repro`` module imports is read somewhere in it.

An unused import costs start-up time on every cold ``repro`` process
and hides which modules really depend on which.  The check uses
:mod:`ast` only (no linter is a dependency): a name counts as read
when an ``ast.Name`` loads it, when a quoted annotation names it, or
when the module lists it in ``__all__``.  Package ``__init__.py``
files are exempt, since their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _bound_names(tree):
    """``(name, lineno)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return read


def unused_imports(root=SRC):
    """``path:line: name`` for each imported name no code reads."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        for name, lineno in _bound_names(tree):
            if name not in read:
                rel = path.relative_to(root).as_posix()
                found.append(f"{rel}:{lineno}: {name}")
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def test_scan_sees_every_way_a_name_is_read(tmp_path):
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Dict, List, Optional\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n"
        "js = None\n")
    assert unused_imports(tmp_path) == [
        "mod.py:3: js", "mod.py:4: List", "mod.py:5: tau"]
