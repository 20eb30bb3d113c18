"""Small helpers shared by the test modules."""

from sawkit.lattice import LatticeBox, Point


def box_points(box: LatticeBox) -> list[Point]:
    """The points of the box, x-major."""
    return [Point(x, y) for x in range(box.lo.x, box.hi.x + 1) for y in range(box.lo.y, box.hi.y + 1)]
