"""Aztec diamond geometry, the partition/path bijection, and Algorithm-4 sampling.

The dual diamond A_k lives at half-integer coordinates; everything here
stores dual vertices in doubled coordinates (odd, odd) so arithmetic stays
integral.  The primal diamond A_k' is the points with |x|+|y| <= k; each
primal edge crosses exactly one interior dual edge, which is what turns a
boundary-to-boundary path into a contiguous 2-partition and back.  A
partition is stored as one bitmask over the sorted dual vertices
(``_Diamond``), shared with the Glauber chain.

Two facts let Algorithm 4 propose only walks it can accept (tested
exhaustively on Omega for k <= 4 in tests/test_aztec.py), a third lets
``path_to_partition`` label the two classes without a flood fill, a fourth
lets ``partition_to_path`` read the cut off the mask, and a fifth gives
|Omega| as an exact count:

* Boundary.  The interior of a 2-partition's boundary path never touches
  |x|+|y| = k.  A path that visits a boundary point b between its ends
  splits at b into two boundary-to-boundary cuts.  Closed up by an arc of
  the diamond's outline, each cut is a Jordan curve, which separates the
  dual vertices (faces) on its two sides; the two cuts share only b, so
  they leave at least three classes.  Conversely a self-avoiding path whose
  interior stays off the boundary closes with either outline arc into one
  Jordan curve and leaves exactly two connected classes.  No two boundary
  points are adjacent (a step changes the parity of |x|+|y|), so the first
  step from a boundary start always enters the interior.
* Budget.  Around the outline the 8k outer dual edges and the 4k boundary
  points alternate, two outer edges between cyclically consecutive
  boundary points.  A cut of length L from s to t, m = ``arc_gap(k, s, t)``
  boundary steps apart, therefore bounds the class on one arc by L + 2m
  edges and the other by L + 2(4k - m).  Whether a partition is within
  the budget is a property of (s, t, L) alone.
* Ray.  Close the cut from s to t by an outline arc into a Jordan curve J
  (the boundary fact); the classes are the faces inside and outside J.  A
  ray from a face down its column c runs at x = c - k + 1/2, missing every
  lattice point.  It crosses the cut's horizontal edges below the face,
  that is the cut vertical dual edges below it in the column, then leaves
  through the outline segment between the lower boundary points at
  x = c - k and c - k + 1, which is on J iff it is on the arc.  The parity
  of those crossings says inside or outside.  Unroll the outline from just
  above (-k, 0), the lower half by x and then the upper half, and close
  with the stretch between s and t: its lower segments are the c from
  min(v(s), v(t)) to max(v(s), v(t)) - 1, v(p) = x + k if y <= 0 else 2k.
  The other arc holds the other lower segments and flips every parity, so
  both arcs give the same classes with the labels swapped; class 1 is the
  anchor's.  Each of the L cut edges joins the two classes and no other
  interior dual edge does, so a class's boundary is L plus its outer
  edges, and the two sizes sum to 8k + 2L.
* Trace.  Bit ``cross_bits[x + k] + y`` is the face right of and below
  the lattice point (x, y) (``_Diamond``).  So from (x, y) the move R
  crosses bits ``cross_bits[x + k] + y`` and ``+ y + 1``, L the same in
  column x + k - 1, U ``cross_bits[x + k - 1] + y + 1`` against
  ``cross_bits[x + k] + y + 1``, and D ``cross_bits[x + k - 1] + y``
  against ``cross_bits[x + k] + y``; both faces lie in the diamond exactly
  when the move's end lies in A_k', and the move is on the cut when the
  mask tells them apart.  ``partition_to_path`` starts at one end of
  ``cut_endpoints`` and takes, at each point, the one cut edge other than
  the edge it came in by.  An interior point has even cut degree and a
  boundary point at most two diamond edges, so the ends have cut degree 1
  and every other cut point 2 or 4.  Through points of degree 2 the trace
  runs along a simple path to the other end, a point of degree 4 offers
  it three choices, and a closed part of the cut it does not meet shows
  as a length shorter than the cut's size.
* Omega.  A walk of length L from s to t that visits a point twice holds
  a cycle between its two nearest visits; cut out, it leaves a walk from
  s to t of length L - c >= d(s, t), so the cycle's length c is at most
  the excess L - d(s, t).  At girth l a walk has no cycle of length
  <= 2l (``counting``).  So at l*, half the largest excess over the cells
  of ``partition_family``, every walk of the family is self-avoiding, and
  by the boundary and budget facts each is exactly one partition of
  Omega: the family's total W(l*) is |Omega|.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import floor, isfinite

from .counting import DEFAULT_MEMORY_CAP, CountTable, check_automaton_cap, check_memory_cap, fill_tables
from .lattice import DIRECTIONS, MOVES, LatticeBox, Point, Region, Walk, manhattan, step
from .sampling import Family, RngStream, SampleReport, SamplingBudgetError, draw_family, make_family
# Unused here: perfbench's tracer patches this name on aztec.  It goes, and
# sample_length_then_walk with it, when the tracer times draw_family instead.
from .sampling import sample_length_then_walk  # noqa: F401


class AztecRegion(Region):
    """Primal Aztec diamond A_k': integer points with |x|+|y| <= k."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("diamond order k must be >= 1")
        self.k = k

    def __contains__(self, p: tuple) -> bool:
        return abs(p[0]) + abs(p[1]) <= self.k

    def contains_array(self, xs, ys):
        import numpy as np

        return np.abs(xs) + np.abs(ys) <= self.k

    def __repr__(self) -> str:
        return f"AztecRegion(k={self.k})"


def boundary_vertices(k: int) -> list[Point]:
    """The 4k primal points with |x|+|y| = k, sorted."""
    out = set()
    for x in range(-k, k + 1):
        y = k - abs(x)
        out.add(Point(x, y))
        out.add(Point(x, -y))
    return sorted(out)


def dual_vertices(k: int) -> frozenset[tuple[int, int]]:
    """Dual diamond vertices in doubled coordinates: odd (a,b), |a|+|b| <= 2k."""
    if k < 1:
        raise ValueError("diamond order k must be >= 1")
    out = []
    for a in range(-2 * k + 1, 2 * k, 2):
        for b in range(-2 * k + 1, 2 * k, 2):
            if abs(a) + abs(b) <= 2 * k:
                out.append((a, b))
    return frozenset(out)


def _dual_neighbors(v: tuple[int, int]):
    a, b = v
    return ((a + 2, b), (a - 2, b), (a, b + 2), (a, b - 2))


def outer_boundary_edge_count(k: int) -> int:
    """Dual-lattice edges leaving V(A_k), by direct scan (equals 8k)."""
    verts = dual_vertices(k)
    return sum(1 for v in verts for u in _dual_neighbors(v) if u not in verts)


class _Diamond:
    """Per-order bitmask geometry of the dual diamond.

    Bit i of a mask stands for ``verts[i]``, the dual vertices in sorted
    order, so the anchor vertex, their minimum, is bit 0 (``anchor_bit``).
    The dual edges (i, i + s) are grouped by their index offset s, so one
    shift of a mask finds every cut edge of a group: ``edge_groups`` holds
    (s, low), low the bits i of the group.

    The vertices of fixed a form column c = (a + 2k - 1) / 2, a run of
    h = 2k + 1 - |a| bits from the bottom (b = 1 - h) up, so vertical
    neighbours are adjacent bits.  ``col_prefix[c]`` holds columns 0 to
    c - 1 (so column c is ``col_prefix[c + 1] ^ col_prefix[c]``), and
    ``cross_bits[c]`` is the bit of (a, -1), so bit ``cross_bits[c] + t`` is
    the face of column c between y = t - 1 and y = t (the ray and trace
    facts of the module docstring).  ``prefix_steps`` holds, for s = 1, 2,
    4, ... < 2k, the bits at least s above their column's bottom: the masks
    of a prefix XOR that stays inside each column.
    ``outer_corners[i]`` is the frozenset of face i's two corners on
    |x|+|y| = k when i is an outer face (|a|+|b| = 2k), else empty; each
    boundary point is a corner of exactly two outer faces.
    ``corner_masks[i]`` holds one ``u|w|x`` mask per corner of face i whose
    three faces lie in the diamond: two adjacent side-neighbours u and w and
    x, their common neighbour other than i (built on first use).
    ``flip_blocks[i]`` is face i's 3x3 block: i, its side-neighbours and
    their corners' diagonals.  ``flip_caches[i]`` is the Glauber chain's
    cache of i's flip verdict, keyed by ``mask & flip_blocks[i]``.  Both
    lists are built on first use, the caches empty, filled by the chain.
    """

    _cache: dict[int, "_Diamond"] = {}

    def __init__(self, k: int):
        self.k = k
        self.verts = sorted(dual_vertices(k))
        self.index = {v: i for i, v in enumerate(self.verts)}
        self.n = len(self.verts)
        self.all_mask = (1 << self.n) - 1
        self.anchor_bit = 1  # verts is sorted, so its minimum, the anchor, is bit 0
        self.nbr_masks = []
        self.outside_deg = []
        self.outer_corners = []
        by_offset: dict[int, int] = {}
        for i, v in enumerate(self.verts):
            mask = 0
            for u in _dual_neighbors(v):
                j = self.index.get(u)
                if j is None:
                    continue
                mask |= 1 << j
                if i < j:
                    by_offset[j - i] = by_offset.get(j - i, 0) | 1 << i
            od = 4 - mask.bit_count()
            self.nbr_masks.append(mask)
            self.outside_deg.append(od)
            corners = frozenset()
            if od:
                a, b = v
                sa = 1 if a > 0 else -1
                sb = 1 if b > 0 else -1
                corners = frozenset({Point((a + sa) // 2, (b - sb) // 2), Point((a - sa) // 2, (b + sb) // 2)})
            self.outer_corners.append(corners)
        self.edge_groups = sorted(by_offset.items())
        # outer_masks[t]: the vertices with more than t edges leaving the diamond
        self.outer_masks = [
            sum(1 << i for i, od in enumerate(self.outside_deg) if od > t) for t in range(max(self.outside_deg))
        ]
        heights = [2 * k + 1 - abs(2 * c - 2 * k + 1) for c in range(2 * k)]
        starts = list(accumulate(heights, initial=0))  # each column's first bit, then n
        self.col_prefix = [(1 << b) - 1 for b in starts]
        self.cross_bits = [b + h // 2 - 1 for h, b in zip(heights, starts)]
        self.prefix_steps = [
            (s, sum(((1 << h) - (1 << min(s, h))) << b for h, b in zip(heights, starts)))
            for s in (1 << i for i in range((2 * k - 1).bit_length()))
        ]

    @cached_property
    def corner_masks(self) -> list[tuple[int, ...]]:
        nbrs = self.nbr_masks
        out = []
        for i, near in enumerate(nbrs):
            sides = []
            while near:
                sides.append(near & -near)
                near ^= sides[-1]
            corners = []
            for a, u in enumerate(sides):
                for w in sides[a + 1:]:
                    # opposite sides share only face i, adjacent ones also their diagonal
                    x = nbrs[u.bit_length() - 1] & nbrs[w.bit_length() - 1] & ~(1 << i)
                    if x:
                        corners.append(u | w | x)
            out.append(tuple(corners))
        return out

    @cached_property
    def flip_blocks(self) -> list[int]:
        out = []
        for i, corners in enumerate(self.corner_masks):
            block = 1 << i | self.nbr_masks[i]
            for corner in corners:
                block |= corner
            out.append(block)
        return out

    @cached_property
    def flip_caches(self) -> list[dict[int, int | None]]:
        return [{} for _ in range(self.n)]

    @classmethod
    def get(cls, k: int) -> "_Diamond":
        d = cls._cache.get(k)
        if d is None:
            d = cls._cache[k] = _Diamond(k)
        return d

    def component(self, seed: int, within: int) -> int:
        """Bits of ``within`` reachable from the seed bits along dual edges."""
        nbr_masks = self.nbr_masks
        comp = frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                b = f & -f
                grow |= nbr_masks[b.bit_length() - 1]
                f ^= b
            frontier = grow & within & ~comp
            comp |= frontier
        return comp

    def connected(self, mask: int) -> bool:
        return mask != 0 and self.component(mask & -mask, mask) == mask

    def boundary_size(self, mask: int) -> int:
        """Dual edges from the class to everything else, outer edges included."""
        cut = sum(((mask ^ (mask >> s)) & low).bit_count() for s, low in self.edge_groups)
        return cut + sum((mask & outer).bit_count() for outer in self.outer_masks)

    def mask_of(self, verts) -> int:
        mask = 0
        for v in verts:
            mask |= 1 << self.index[tuple(v)]
        return mask

    def verts_of(self, mask: int) -> list[tuple[int, int]]:
        """The vertices of a mask, sorted."""
        return [v for i, v in enumerate(self.verts) if mask >> i & 1]

    def canonical(self, mask: int) -> int:
        """The class of the labelling that holds the anchor vertex."""
        return mask if mask & self.anchor_bit else self.all_mask ^ mask

    def partition(self, mask: int) -> "Partition":
        mask = self.canonical(mask)
        return Partition(self.k, mask, (self.boundary_size(mask), self.boundary_size(self.all_mask ^ mask)))

    def cut_endpoints(self, mask: int) -> tuple[Point, Point]:
        """Endpoints of the boundary path: odd-degree points of the cut edges.

        They are the XOR of the class's outer faces' ``outer_corners``: an
        interior lattice point has even cut degree, and a boundary point
        is odd exactly when its two outer faces lie in different classes.
        """
        odd: set[Point] = set()
        x = mask & self.outer_masks[0]
        while x:
            b = x & -x
            odd ^= self.outer_corners[b.bit_length() - 1]
            x ^= b
        if len(odd) != 2:
            raise ValueError("cut does not have exactly two endpoints")
        a, b = sorted(odd)
        return a, b


@dataclass(frozen=True)
class Partition:
    """Contiguous 2-partition of the dual diamond; class 1 holds the anchor.

    ``mask`` is class 1 as a ``_Diamond`` bitmask; the classes themselves
    are read back as frozensets of doubled-coordinate dual vertices.
    """

    k: int
    mask: int
    boundary_sizes: tuple[int, int]

    @property
    def class1(self) -> frozenset:
        return frozenset(_Diamond.get(self.k).verts_of(self.mask))

    @property
    def class2(self) -> frozenset:
        d = _Diamond.get(self.k)
        return frozenset(d.verts_of(d.all_mask ^ self.mask))


def make_partition(k: int, class1_vertices) -> Partition:
    """Validated partition from one class's vertex set (doubled coordinates)."""
    d = _Diamond.get(k)
    try:
        mask = d.mask_of(class1_vertices)
    except KeyError:
        raise ValueError("class vertices must lie in the dual diamond") from None
    if mask == 0 or mask == d.all_mask:
        raise ValueError("both classes must be nonempty")
    if not d.connected(mask) or not d.connected(d.all_mask ^ mask):
        raise ValueError("both classes must be connected")
    return d.partition(mask)


def path_to_partition(k: int, walk: Walk) -> Partition:
    """Partition induced by cutting every dual edge the walk crosses.

    The walk must be a self-avoiding path in A_k' with both endpoints on
    the boundary; removal of the crossed dual edges must leave exactly two
    components, which become the classes.  By the boundary fact of the
    module docstring that holds exactly when no point strictly between the
    ends lies on the boundary, and the classes are then the inside and
    outside of the ray fact: no flood fill is run.  The walk's range is
    checked at each point before the edge into it is read.
    """
    moves = walk.moves
    if not moves:
        raise ValueError("walk must have at least one edge")
    d = _Diamond.get(k)
    cross = d.cross_bits
    sx, sy = x, y = walk.start
    r = start_r = abs(x) + abs(y)
    if r > k:
        raise ValueError("walk leaves the diamond")
    w = 2 * k + 1
    seen = {x * w + y}
    touches = 0  # boundary visits after the start, the end included
    vcut = 0  # bit i: the vertical dual edge (i, i + 1) is cut
    col = -1  # column of the vertical dual edge the last move crossed, -1 after U or D
    for m in moves:
        if m == "R":
            col = x + k
            x += 1
        elif m == "L":
            x -= 1
            col = x + k
        elif m == "U":
            y += 1
        else:
            y -= 1
        r = abs(x) + abs(y)
        if r >= k:
            if r > k:
                raise ValueError("walk leaves the diamond")
            touches += 1
        if col >= 0:
            vcut |= 1 << (cross[col] + y)
            col = -1
        seen.add(x * w + y)
    if len(seen) <= len(moves):
        raise ValueError("walk must be self-avoiding")
    if start_r != k:
        raise ValueError(f"endpoint {walk.start} not on the diamond boundary")
    if r != k:
        raise ValueError(f"endpoint {Point(x, y)} not on the diamond boundary")
    if touches > 1:
        raise ValueError("walk does not induce a 2-partition")
    # the ray fact: cut edges below each vertex in its column, then the exit segments on the closing arc
    labels = vcut << 1
    for s, keep in d.prefix_steps:
        labels ^= (labels << s) & keep
    labels ^= d.col_prefix[sx + k if sy <= 0 else 2 * k] ^ d.col_prefix[x + k if y <= 0 else 2 * k]
    mask = d.canonical(labels)
    size = len(moves) + sum((mask & outer).bit_count() for outer in d.outer_masks)
    return Partition(k, mask, (size, 8 * k + 2 * len(moves) - size))


# Per move of MOVES: its step, then the two faces it crosses as (column, row)
# offsets from (x + k, y) into cross_bits (the trace fact).
_TRACE_MOVES = tuple(
    (m, dx, dy, min(dx, 0), 0, min(dx, 0), 1) if dx else (m, dx, dy, -1, max(dy, 0), 0, max(dy, 0))
    for m, dx, dy in MOVES
)
_REVERSE = {m: r for m, dx, dy in MOVES for r, rx, ry in MOVES if (rx, ry) == (-dx, -dy)}


def partition_to_path(p: Partition) -> Walk:
    """The boundary path of a partition, oriented from its smaller endpoint.

    The cut is traced on the mask (the trace fact of the module docstring)
    from the smaller of ``cut_endpoints`` to the other; a partition whose
    between-class edges are not one simple path raises a ValueError.
    """
    d = _Diamond.get(p.k)
    k, mask, cross = p.k, p.mask, d.cross_bits
    size = sum(((mask ^ (mask >> s)) & low).bit_count() for s, low in d.edge_groups)
    if not size:
        raise ValueError("no between-class edges")
    not_a_path = "between-class edges do not form a single path"
    try:
        start, end = d.cut_endpoints(mask)
    except ValueError:
        raise ValueError(not_a_path) from None
    x, y = start
    back = None  # the reverse of the last move: the edge the trace came in by
    moves = []
    while (x, y) != end:
        c = x + k
        ahead = [
            (m, dx, dy)
            for m, dx, dy, ci, ri, cj, rj in _TRACE_MOVES
            if m != back
            and abs(x + dx) + abs(y + dy) <= k
            and (mask >> (cross[c + ci] + y + ri) ^ mask >> (cross[c + cj] + y + rj)) & 1
        ]
        if len(ahead) != 1:
            raise ValueError(not_a_path)
        m, dx, dy = ahead[0]
        moves.append(m)
        back = _REVERSE[m]
        x += dx
        y += dy
    if len(moves) != size:
        raise ValueError(not_a_path)
    return Walk(start, "".join(moves))


@dataclass(frozen=True)
class OmegaParams:
    """Perimeter slack parameters: budget(k) = 6k + floor(C * k^(1-eps))."""

    C: float
    eps: float

    def __post_init__(self) -> None:
        if not (isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be a positive finite number, got {self.C}")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")

    def slack(self, k: int) -> int:
        if k < 1:
            raise ValueError("diamond order k must be >= 1")
        return floor(self.C * k ** (1 - self.eps))

    def budget(self, k: int) -> int:
        return 6 * k + self.slack(k)


def in_omega(p: Partition, params: OmegaParams) -> bool:
    """True iff both class boundaries fit the 6k + slack budget."""
    return max(p.boundary_sizes) <= params.budget(p.k)


@dataclass(frozen=True)
class WidthReport:
    """Boundary-width certificate for one endpoint pair."""

    k: int
    ell: int
    bound: int
    boundary_points: int
    admissible: bool

    @property
    def certified(self) -> bool:
        return self.admissible and self.boundary_points <= self.bound


def _omega_admissible(k: int, slack: int, p1: Point, p2: Point) -> bool:
    """Nearly-antipodal endpoint condition under which the width bound applies."""
    for fx in (1, -1):
        for fy in (1, -1):
            for a, b in ((p1, p2), (p2, p1)):
                hx, hy = a.x * fx, a.y * fy
                lx, ly = b.x * fx, b.y * fy
                if hx < 0 or hy < 0:
                    continue
                if lx <= 0 and ly <= 0 and abs(lx + hx) + abs(ly + hy) <= slack + 1:
                    return True
                if lx <= 0 <= ly and abs(hy - ly) <= slack:
                    return True
                if ly <= 0 <= lx and abs(hx - lx) <= slack:
                    return True
    return False


def width_certificate(k: int, params: OmegaParams, p1: Point, p2: Point, ell: int) -> WidthReport:
    """Check that paths of length dist+2*ell meet few boundary points.

    The enlarged lattice box spanned by the endpoints, padded by ell, must
    contain at most 16*ell + 4*slack boundary points of A_k'; the bound is
    claimed only for omega-admissible (nearly antipodal or nearly aligned)
    endpoint pairs, and the report says whether the pair qualifies.
    """
    p1, p2 = Point(*p1), Point(*p2)
    slack = params.slack(k)  # refuses k < 1
    for q in (p1, p2):
        if abs(q.x) + abs(q.y) != k:
            raise ValueError(f"endpoint {q} not on the diamond boundary")
    box = LatticeBox.spanning(p1, p2).expand(ell)
    # the points |x|+|y| = k are exactly those of A_k' with a neighbour outside it
    count = sum(1 for q in boundary_vertices(k) if q in box)
    return WidthReport(
        k=k,
        ell=ell,
        bound=16 * ell + 4 * slack,
        boundary_points=count,
        admissible=_omega_admissible(k, slack, p1, p2),
    )


def staircase_partition(k: int) -> Partition:
    """Partition cut by the antipodal staircase path (the canonical start state)."""
    a = (k + 1) // 2
    b = k // 2
    moves = "RU" * (2 * b) + "R" * (2 * a - 2 * b)
    walk = Walk(Point(-a, -b), moves)
    return path_to_partition(k, walk)


# -- Algorithm-4 sampling -------------------------------------------------------


def _boundary_position(k: int, p: Point) -> int:
    """Index of a boundary point counterclockwise around the diamond from (k, 0)."""
    x, y = p
    if x > 0 and y >= 0:
        return y
    if x <= 0 and y > 0:
        return k - x
    if x < 0 and y <= 0:
        return 2 * k - y
    return 3 * k + x


def arc_gap(k: int, s: Point, t: Point) -> int:
    """Boundary steps counterclockwise from s to t; the other arc has 4k minus that."""
    return (_boundary_position(k, t) - _boundary_position(k, s)) % (4 * k)


class _InteriorRegion(Region):
    """The interior {|x|+|y| <= k-1} of A_k' plus one boundary point, the target."""

    def __init__(self, k: int, target: Point):
        self.k = k
        self.target = Point(*target)

    def __contains__(self, p: tuple) -> bool:
        return abs(p[0]) + abs(p[1]) < self.k or (p[0], p[1]) == self.target

    def contains_array(self, xs, ys):
        import numpy as np

        return (np.abs(xs) + np.abs(ys) < self.k) | ((xs == self.target.x) & (ys == self.target.y))


def partition_family(
    k: int,
    params: OmegaParams,
    girth: int,
    *,
    cache_dir: str | None = None,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> Family:
    """The in-budget cells of boundary paths with their exact walk counts.

    A cell is ((s, t), first move, L) for boundary points s < t: walks of
    length L that step from s into the interior, stay there, and end with
    a step onto t (the boundary fact of the module docstring).  Its label
    is ((s, t), move), its start the interior point one step from s and
    its length L - 1.  A cell is kept only if L + 2 * max(m, 4k - m) <= 6k
    + slack, m = ``arc_gap(k, s, t)`` (the budget fact), so no cell holds
    a walk that is over budget.

    Each target t with a cell gets one table over the interior plus t,
    built for its cells: their starts are its sources and their lengths
    its lengths.  A target without cells, the smallest boundary point
    among them, gets no table.

    A girth whose window automaton would not be built within
    ``memory_cap`` raises ResourceLimitError before it is built
    (``counting.check_automaton_cap``).  Every table is then sized, and
    ``memory_cap`` bounds the family as a whole: the sum of the tables'
    estimates with the stacked fill's largest working set
    (``counting.check_memory_cap``), so a family over the cap raises
    ResourceLimitError before any table is built.  One ``fill_tables``
    call then builds them all.

    ``cache_dir`` is ignored: nothing is cached on disk, as a cold family
    builds faster than the old cache loaded it.  The keyword stays only
    for perfbench's aztec-k8 workload, which still passes it.
    """
    check_automaton_cap(girth, memory_cap)
    budget = params.budget(k)
    bpts = boundary_vertices(k)
    raw_entries = []
    tables = []  # one sized table per target with cells
    for i, target in enumerate(bpts[1:], 1):
        region = _InteriorRegion(k, target)
        cells = []
        for s in bpts[:i]:
            gap = arc_gap(k, s, target)
            longest = budget - 2 * max(gap, 4 * k - gap)
            if manhattan(s, target) > longest:
                continue  # no length of this pair is in budget
            for move in DIRECTIONS:
                start = step(s, move)
                if start not in region:
                    continue
                for length in range(manhattan(s, target), longest + 1, 2):
                    cells.append((((tuple(s), tuple(target)), move), start, length - 1))
        if not cells:
            continue
        sources = tuple(sorted({start for _, start, _ in cells}))
        lengths = tuple(sorted({length for _, _, length in cells}))
        table = CountTable.sized(region, target, girth, lengths, sources=sources)
        tables.append(table)
        raw_entries += [(label, table, start, length) for label, start, length in cells]
    check_memory_cap(tables, memory_cap)
    fill_tables(tables)
    return make_family(raw_entries)


def sample_partition(
    k: int,
    params: OmegaParams,
    girth: int,
    rng: RngStream,
    *,
    family: Family,
    max_attempts: int = 10000,
) -> tuple[Partition, SampleReport]:
    """One exactly-uniform partition from Omega, by proportional draw + rejection.

    Each proposal is one draw below the total of ``family``
    (``partition_family(k, params, girth)``), unranked into a cell, drawn
    proportional to its exact girth-restricted walk count, and the rest of
    a walk from the cell's start (``sampling.unrank_family``).  Prepending
    the cell's first move gives the one ``Walk`` of the proposal, so
    ``rep.walk`` runs from s to t.  It rejects the walks
    ``path_to_partition`` refuses (it checks self-avoidance, once) and
    partitions over budget.

    By the module docstring's two facts, the family leaves out only walks
    that would be rejected: a path touching the boundary between its ends
    induces no 2-partition, and a cell over budget holds no partition of
    Omega.  So each partition of Omega is still exactly one (cell, walk)
    pair, and acceptance leaves the uniform distribution on Omega.  Of the
    three checks only self-avoidance can then reject; the other two stay
    as guards of the two facts.
    """
    budget = params.budget(k)
    for attempt in range(1, max_attempts + 1):
        entry, moves = draw_family(family, rng)
        (s, _), move = entry.label
        walk = Walk(Point(*s), move + moves)
        try:
            part = path_to_partition(k, walk)
        except ValueError:
            continue
        if max(part.boundary_sizes) > budget:
            continue
        return part, SampleReport(attempt, walk)
    raise SamplingBudgetError(max_attempts, f"no partition accepted in {max_attempts} attempts (k={k})")
