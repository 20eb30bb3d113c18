"""Points, moves, walks, and regions of the square lattice Z^2.

``MOVES`` is the one move table: each move's character and unit step
(dx, dy), in the order U, R, D, L.  That order fixes the index order of
``CountTable.unrank`` and the DFS order of the oracle, so every seeded
output rests on it; ``DIRECTIONS`` and the per-character step map are
derived from it.  Walks are stored as a start point plus a move string over
``URDL``; the visited points are recomputed on demand.  A region is a
membership predicate and nothing more, asked of one point or of coordinate
arrays: the full lattice, a box and an explicit point set here, the Aztec
diamond in ``aztec``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

MOVES = (("U", 0, 1), ("R", 1, 0), ("D", 0, -1), ("L", -1, 0))
DIRECTIONS = "".join(m for m, _, _ in MOVES)

_DISPLACEMENT = {m: (dx, dy) for m, dx, dy in MOVES}
# ``str.translate`` table that deletes the move characters: a move string maps to "".
_DELETE_MOVES = str.maketrans("", "", DIRECTIONS)

_WALK_TEXT = re.compile(rf"^\((-?\d+),(-?\d+)\)([{DIRECTIONS}]*)$")


class Point(NamedTuple):
    x: int
    y: int


def step(point: Point, direction: str) -> Point:
    """The point one unit step away in the given direction."""
    try:
        dx, dy = _DISPLACEMENT[direction]
    except KeyError:
        raise ValueError(f"unknown direction {direction!r}") from None
    return Point(point[0] + dx, point[1] + dy)


def manhattan(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class Walk:
    """A lattice walk: a start point and a finite move string over URDL."""

    start: Point
    moves: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.moves, str) or self.moves.translate(_DELETE_MOVES):
            raise ValueError("moves must be a string over U, R, D, L")
        object.__setattr__(self, "start", Point(*self.start))

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def end(self) -> Point:
        x, y = self.start
        for m in self.moves:
            dx, dy = _DISPLACEMENT[m]
            x += dx
            y += dy
        return Point(x, y)

    def points(self) -> list[Point]:
        """Visited points A_0..A_len, including the start."""
        x, y = self.start
        pts = [Point(x, y)]
        for m in self.moves:
            dx, dy = _DISPLACEMENT[m]
            x += dx
            y += dy
            pts.append(Point(x, y))
        return pts

    def is_self_avoiding(self) -> bool:
        """True iff all visited points are pairwise distinct.

        A point at offset (x, y) from the start, |x|, |y| <= len, is the int
        x + y * (2 * len + 1), one per point; the running sums of the
        per-move deltas are those ints.
        """
        w = 2 * len(self.moves) + 1
        delta = {"U": w, "R": 1, "D": -w, "L": -1}
        return len(set(accumulate(map(delta.__getitem__, self.moves), initial=0))) == len(self.moves) + 1

    def to_text(self) -> str:
        """Canonical text codec: ``(x,y)`` followed by the move string."""
        return f"({self.start.x},{self.start.y}){self.moves}"

    @classmethod
    def from_text(cls, text: str) -> "Walk":
        m = _WALK_TEXT.match(text)
        if m is None:
            raise ValueError(f"not a walk in (x,y)URDL form: {text!r}")
        return cls(Point(int(m.group(1)), int(m.group(2))), m.group(3))


def moves_between(points: list[Point]) -> str:
    """Reconstruct the move string of a point sequence (unit steps required)."""
    out = []
    for a, b in zip(points, points[1:]):
        delta = (b[0] - a[0], b[1] - a[1])
        for m, d in _DISPLACEMENT.items():
            if d == delta:
                out.append(m)
                break
        else:
            raise ValueError(f"points {a} -> {b} are not one lattice step apart")
    return "".join(out)


def walk_through(points: list[Point]) -> Walk:
    """Walk visiting exactly the given unit-step point sequence."""
    if not points:
        raise ValueError("need at least one point")
    return Walk(Point(*points[0]), moves_between([Point(*p) for p in points]))


class Region:
    """Membership predicate over lattice points; membership is pure and deterministic.

    ``contains_array`` answers the same predicate for integer coordinate
    arrays at once; this fallback asks ``__contains__`` point by point,
    and the regions with a closed form override it with numpy arithmetic.
    """

    def __contains__(self, p: tuple) -> bool:
        raise NotImplementedError

    def contains_array(self, xs, ys):
        """Bool array: entry i is whether (xs[i], ys[i]) is in the region."""
        import numpy as np

        return np.fromiter(map(self.__contains__, zip(xs.tolist(), ys.tolist())), dtype=bool, count=len(xs))


@dataclass(frozen=True)
class LatticeBox(Region):
    """Axis-aligned integer rectangle {p : lo <= p <= hi} (componentwise)."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Point(*self.lo))
        object.__setattr__(self, "hi", Point(*self.hi))
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y:
            raise ValueError(f"box corners must satisfy lo <= hi, got {self.lo} > {self.hi}")

    @classmethod
    def spanning(cls, a: Point, b: Point) -> "LatticeBox":
        """Smallest box containing both points (no corner-order requirement)."""
        return cls(Point(min(a[0], b[0]), min(a[1], b[1])), Point(max(a[0], b[0]), max(a[1], b[1])))

    def expand(self, margin: int) -> "LatticeBox":
        return LatticeBox(
            Point(self.lo.x - margin, self.lo.y - margin),
            Point(self.hi.x + margin, self.hi.y + margin),
        )

    def __contains__(self, p: tuple) -> bool:
        return self.lo.x <= p[0] <= self.hi.x and self.lo.y <= p[1] <= self.hi.y

    def contains_array(self, xs, ys):
        return (self.lo.x <= xs) & (xs <= self.hi.x) & (self.lo.y <= ys) & (ys <= self.hi.y)


class FullLattice(Region):
    """All of Z^2."""

    def __contains__(self, p: tuple) -> bool:
        return True

    def contains_array(self, xs, ys):
        import numpy as np

        return np.ones(len(xs), dtype=bool)

    def __repr__(self) -> str:
        return "FullLattice()"


class PointSetRegion(Region):
    """Region given by an explicit finite point set."""

    def __init__(self, pts):
        self._pts = frozenset(Point(*p) for p in pts)
        if not self._pts:
            raise ValueError("point set region must be nonempty")

    def __contains__(self, p: tuple) -> bool:
        return Point(p[0], p[1]) in self._pts
