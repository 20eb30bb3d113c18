"""Tooling guards: no module of the package can load a serialized Python object or import scipy,
``counting`` and ``aztec`` touch no files, the package ships and reads no data files, and only
``lattice`` spells out the move order."""

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


def test_counting_touches_no_files():
    # the DP tables are built in memory only: neither the counts nor the family that reads them has a file format
    found = _imports({"hashlib", "json", "os", "tempfile"})
    assert [f for f in found if f.startswith(("counting.py:", "aztec.py:"))] == []


def test_no_packaged_data():
    # every result the package checks is computed live; no module reads a resource shipped beside the code
    assert _imports({"importlib"}) == []
    assert not (Path(sawkit.__file__).parent / "data").exists()


# literals that spell the U, R, D, L move order, whose one home is lattice.MOVES
MOVE_ORDER_LITERALS = ("URDL", (0, 1, 0, -1), (1, 0, -1, 0))


def _move_order_literals(package_dir: Path) -> list[str]:
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, TypeError, SyntaxError):
                continue
            if value in MOVE_ORDER_LITERALS or (isinstance(value, (tuple, list)) and ("U", 0, 1) in value):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_move_order_is_spelled_only_in_lattice():
    assert _move_order_literals(Path(sawkit.__file__).parent) == []
