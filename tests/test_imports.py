"""Tooling guards: no module of the package can load a serialized Python object or import scipy."""

import ast
from pathlib import Path

import sawkit

FORBIDDEN = {"pickle", "marshal", "shelve"}
# the chi-square tail is computed in closed form; scipy is not a dependency
NOT_DEPENDED_ON = {"scipy"}


def _imports(banned: set[str]) -> list[str]:
    found = []
    for path in sorted(Path(sawkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned]
    return found


def test_no_object_serialization_imports():
    assert _imports(FORBIDDEN) == []


def test_no_scipy_imports():
    assert _imports(NOT_DEPENDED_ON) == []
