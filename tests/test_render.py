import hashlib

from sawkit.aztec import path_to_partition
from sawkit.lattice import Point, Walk
from sawkit.render import render_partition_svg, render_walk_svg


def test_walk_svg_structure():
    doc = render_walk_svg(Walk(Point(0, 0), "RU"))
    assert doc.startswith("<svg ") and doc.endswith("</svg>\n")
    assert doc.count("<circle") == 2
    assert "<polyline" in doc
    # three vertices on the polyline
    points_attr = doc.split('points="')[1].split('"')[0]
    assert len(points_attr.split()) == 3


def test_walk_svg_deterministic():
    w = Walk(Point(-2, 3), "RRUULDR")
    assert render_walk_svg(w) == render_walk_svg(w)


def test_svg_bytes_pinned():
    """Every style value and coordinate rule shows in these digests."""
    walk = render_walk_svg(Walk(Point(0, 0), "RRUULDR"))
    part = render_partition_svg(path_to_partition(3, Walk(Point(-2, -1), "RURURR")))
    assert hashlib.sha256(walk.encode()).hexdigest() == (
        "8cd3c89ef436d4c814fcc40d01db0c4f984f496e9b7bd83dbaa3b71666713fa1"
    )
    assert hashlib.sha256(part.encode()).hexdigest() == (
        "544ebd42bb20ee32cb045338c4f5665638fb7300bfe837e1225544d8facb7251"
    )


def test_partition_svg():
    part = path_to_partition(1, Walk(Point(-1, 0), "RR"))
    doc = render_partition_svg(part)
    assert doc.count("<rect") == 1 + 4  # background + 4 dual cells
    assert "<polyline" in doc
    assert render_partition_svg(part) == doc
