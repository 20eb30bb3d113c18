"""Tooling guard: no module of the package can load a serialized Python object."""

import ast
from pathlib import Path

import sawkit

FORBIDDEN = {"pickle", "marshal", "shelve"}


def test_no_object_serialization_imports():
    found = []
    for path in sorted(Path(sawkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in FORBIDDEN]
    assert found == []
