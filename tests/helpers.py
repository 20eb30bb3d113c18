"""Small helpers shared by the test modules."""

from functools import cache

from sawkit.aztec import OmegaParams, Partition, _Diamond
from sawkit.glauber import _verdict, enumerate_omega
from sawkit.lattice import LatticeBox, Point


def box_points(box: LatticeBox) -> list[Point]:
    """The points of the box, x-major."""
    return [Point(x, y) for x in range(box.lo.x, box.hi.x + 1) for y in range(box.lo.y, box.hi.y + 1)]


def dual_edge_to_primal(u: tuple[int, int], v: tuple[int, int]) -> tuple[Point, Point]:
    """The primal edge crossing dual edge u-v, smaller endpoint first."""
    if v < u:
        u, v = v, u
    a, b = u
    if v == (a + 2, b):
        return (Point((a + 1) // 2, (b - 1) // 2), Point((a + 1) // 2, (b + 1) // 2))
    if v == (a, b + 2):
        return (Point((a - 1) // 2, (b + 1) // 2), Point((a + 1) // 2, (b + 1) // 2))
    raise ValueError(f"{u} and {v} are not dual neighbors")


@cache
def primal_edges(k: int) -> list[tuple[int, int, tuple[Point, Point]]]:
    """(i, j, the primal edge crossing dual edge i-j) for every dual edge of the order-k ``_Diamond``."""
    d = _Diamond.get(k)
    out = []
    for i, (a, b) in enumerate(d.verts):
        for u in ((a + 2, b), (a, b + 2)):
            j = d.index.get(u)
            if j is not None:
                out.append((i, j, dual_edge_to_primal((a, b), u)))
    return out


def cut_edges(d, mask: int) -> list[tuple[Point, Point]]:
    """Primal edges crossing the dual edges between a ``_Diamond`` mask's class and the rest."""
    return [edge for i, j, edge in primal_edges(d.k) if (mask >> i ^ mask >> j) & 1]


@cache
def omega(k: int, C: float) -> tuple[Partition, ...]:
    """Omega at order k and ``OmegaParams(C, 0.5)``, enumerated once per test run."""
    return tuple(enumerate_omega(k, OmegaParams(C, 0.5)))


def flip(d, budget: int, mask: int, b_mask: int, b_comp: int, v: int) -> tuple[int, int] | None:
    """New (b_mask, b_comp) after flipping face v of chain state mask, or None: ``_verdict`` under the budget.

    b_mask is the boundary size of the class ``mask``, b_comp of its complement.
    """
    r = _verdict(d, mask, v)
    if r is None:
        return None
    sizes = (b_mask + (r >> 4) - 4, b_comp + (r & 15) - 4)
    return None if max(sizes) > budget else sizes
