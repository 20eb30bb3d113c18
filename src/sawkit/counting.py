"""Exact DP counts of girth-restricted walks from a set of sources to a target.

A walk's suffix window is the move sequence of its most recent
min(2l, steps-taken) steps; stepping onto any window point is forbidden,
which on the bipartite lattice forbids exactly the cycles of length <= 2l.
Two windows that admit the same continuations (the same move sequences
collide from both) give the same count from every point, so states are
keyed by (point, class, remaining steps), the class being the window's
Nerode class in the window automaton (see ``WindowAutomaton``).  The
automaton keeps its classes and their moves, not its windows: a window's
class is the one its own moves step to from the empty window's class.

A table is built for a set of sources and a set of lengths, and one rule
sizes it: layer t (t steps left) holds a point iff the point can sit t
steps from the target within the length budget, that is, it is at most t
steps from the target, of t's parity, and at most max_length - t steps from
its nearest source.  The sampler for one origin passes one source; the
Aztec family passes every start its cells of one target read.

The set-up makes no Python call per point.  Sizing reads the table's box
in numpy passes of a fixed number of points, asking the region for
membership of coordinate arrays (``Region.contains_array``), and keeps only
histograms over the target distance, from which every layer's row count
follows.  The memory estimate is computed from those counts, and a table
over the cap is refused before anything that grows with the box is
allocated.  Only then does one membership pass over the whole box number
the points and find their neighbours.

Tables are built as a family: every table is sized first
(``CountTable.sized``), ``check_memory_cap`` bounds the family as a whole,
and ``fill_tables`` builds them all.  A table on its own, ``CountTable(...)``
or ``build_table``, is a family of one through the same code.

The tables are filled together by remaining-steps layer (layer t reads
only layer t-1).  A table's layer t is one block of a dense slab of exact
integers: a row for every point the rule puts in the layer, a column for
every class, and one zero row (the block's last).
Layer t of every table of the family is one slab, its blocks stacked, and
one set of numpy operations fills it.  The plan gives each layer t >= 1
its successor rows: for each row and move, the row of layer t-1 the move
leads to, the zero row for a step off the region or onto a point layer
t-1 does not hold; in the slab they are offset by the first row of the
table's block in layer t-1.  A cell is the sum of its class's successor
cells alone, and each step of ``unrank`` reads the same rows.  A class
whose successors include all of another class's takes that class's cell
of the same row and adds only the rest, so girth 2 makes 23 additions
per row where summing every successor makes 35.  The classes are
numbered in the order they are summed, each after the class it reuses,
so the sums of each level go straight into its own range of columns.
The slab is int64 while
its sums cannot overflow, and holds Python ints for every block after
that, one switch for the whole family; a table leaves the slab after its
last layer, and its finished layer is its block sliced out as one flat
sequence: an ``array('q')`` of 8-byte cells while ``_count_bits(t)`` is
at most 63, so that the memory estimate knows each layer's storage
before the build, and a list of ints after.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import combinations

from .lattice import DIRECTIONS, MOVES, LatticeBox, Point, Region, manhattan

_DX = tuple(dx for _, dx, _ in MOVES)
_DY = tuple(dy for _, _, dy in MOVES)

# Move code d -> its letter, for ``bytes.translate``.
_MOVE_CHARS = bytes.maketrans(bytes(range(4)), DIRECTIONS.encode())
# Row maps, successor rows and the plan's pid-indexed row maps: C ints (numpy reads the same code as intc).
_ROW_CODE = "i"

DEFAULT_MEMORY_CAP = 2 * 1024**3
# Bytes per cell of one layer update, 8 per live cell (int64 or object
# pointer): the previous slab and the new one (16); a level's running sums, 8
# per cell of its classes, and while a term is added its index array and
# gather, 16 per cell of the term's classes, or at a sub-class level's first
# term a copy of the sub-classes' cells, 8 per cell of the level; and the
# successor rows, 32 bytes per row.  The last three are at most 25.6 per cell
# at girths 1-5: at girth 1, 24 per cell of a level of 4 of the 5 classes and
# 6.4 of successor rows (at girths 2-5 at most 15.3).  Storing a block copies
# it once more (8), after the terms.  The object slab at the switch shares the
# finished lists' ints: the switch follows a layer that reaches 2**61, which
# no ``array('q')`` layer does.
_SLAB_BYTES = 42
# Bytes of a family's build that do not grow with its tables: the headers of
# the numpy arrays, lists and dicts of one table's sizing and geometry passes
# and of one layer update (about 10 KB measured on two-layer tables).
_BUILD_BYTES = 12 * 1024
# Bytes per region point of the geometry (its Point, pid-dict entry, neighbour
# row and distances) and per layer of the plan besides its row map and
# successor rows (array and list headers).
_POINT_BYTES = 400
_LAYER_BYTES = 512
# Box points per chunk of ``_size_layers``, so that sizing, which runs before
# the memory cap check, allocates no more for a larger box.
_SIZE_CHUNK = 1 << 15
# Bytes per box point of one numpy pass over the box: coordinates, membership
# and their temporaries, the Python ints of the ``Region.contains_array``
# fallback included.
_PASS_BYTES = 128
# The window automaton's build (``_automaton_build_bytes``): a fixed part,
# mostly the plan's numpy arrays, and a part per window of the bound of
# 2 * 9**l - 1 windows.  Its tracemalloc peak read 9.2 KB, 54 KB, 0.45 MB,
# 3.1 MB and 24 MB at girths 1-5 (CPython 3.11, numpy 2.4): 0.64, 0.81, 0.85,
# 0.65 and 0.57 of the bound.
_AUTOMATON_BYTES = 8 * 1024
_WINDOW_BYTES = 360
# Bytes per class of what the automaton keeps (``step``, ``trans``, ``sub``,
# ``extra`` and ``levels``): 571, 354, 480, 409 and 467 at girths 1-5.
_CLASS_BYTES = 640


class ResourceLimitError(RuntimeError):
    """Estimated table size exceeds the configured memory cap."""


class TableDomainError(ValueError):
    """Query for a state the table does not cover (not reachable in budget)."""


class WindowAutomaton:
    """The Nerode classes of the suffix windows of one girth value.

    Windows are tuples of move codes (U=0, R=1, D=2, L=3) of length 0..2l
    whose spanned points are pairwise distinct.  Transitions are relative,
    so collision checks are position-independent.  Moore partition
    refinement merges the windows that admit the same continuations into
    one class.  ``step[c][d]`` is the class after move d (``classes`` for
    a colliding move), ``trans[c]`` the (d, next class) pairs of the
    non-colliding moves, in ascending d, and ``empty_class`` the empty
    window's class.

    The windows are the build's alone: an automaton keeps only what has a
    size of O(classes), which the layer fill and the descent read and
    ``_family_bytes`` counts.  Stepping finds a window's class.  A window
    of j <= 2l moves is reached from the empty window by its own moves,
    none of which drops a move off the window, and the Moore partition is
    a right congruence (the windows of a class agree on the class each
    move leads to), so stepping ``step`` from ``empty_class`` along a
    window's moves reaches that window's class.

    Distinct classes have distinct successor sets ``trans[c]``: the
    refinement stops at the coarsest partition whose blocks agree on where
    each move leads, and two blocks that agreed on every move would be one.
    So a class's successor set names it, and the layer fill reuses sums
    (``fill_tables``): ``sub[c]`` is a class whose successor set is a
    largest nonempty proper subset of class c's (None if there is none),
    and ``extra[c]`` the terms of ``trans[c]`` not in it (all of them
    without a sub-class), in ascending d.  The classes are numbered in the
    order the fill sums them: level by level, a level being the classes of
    one depth of the sub-class chain, by descending number of extra terms,
    and last the class without successors, which exists from girth 4 on.
    ``levels`` holds one (lo, hi, subs, terms) per level: its classes
    lo..hi-1, their sub-classes (None at depth 0), all below lo, and per j
    the moves and next classes of the j-th extra terms, which the level's
    first classes have.
    """

    def __init__(self, girth: int):
        if girth < 1:
            raise ValueError("girth parameter must be >= 1")
        self.girth = girth
        self.max_moves = 2 * girth
        windows: list[tuple[int, ...]] = []
        frontier = [()]
        windows.append(())
        for _ in range(self.max_moves):
            nxt = []
            for w in frontier:
                for d in range(4):
                    w2 = w + (d,)
                    if self._self_avoiding(w2):
                        nxt.append(w2)
            windows.extend(nxt)
            frontier = nxt
        windows.sort(key=lambda w: (len(w), w))
        index = {w: i for i, w in enumerate(windows)}
        # step_map[wid][d]: the window after move d, -1 for a colliding move
        step_map = [
            [-1 if (_DX[d], _DY[d]) in offs else index[(w + (d,))[-self.max_moves :]] for d in range(4)]
            for w, offs in zip(windows, map(set, map(self._offsets, windows)))
        ]
        # split blocks by the blocks their moves lead to until no block splits
        block, count = [0] * len(windows), 1
        while True:
            ids: dict[tuple, int] = {}
            split = [ids.setdefault((block[i], *(block[j] if j >= 0 else -1 for j in row)), len(ids))
                     for i, row in enumerate(step_map)]
            if len(ids) == count:
                break
            block, count = split, len(ids)
        first: dict[int, int] = {}  # each block's first window, in block order
        for wid, b in enumerate(block):
            first.setdefault(b, wid)
        step = [tuple(block[j] if j >= 0 else count for j in step_map[wid]) for wid in first.values()]
        trans = [tuple((d, b) for d, b in enumerate(row) if b < count) for row in step]
        by_terms = {frozenset(terms): b for b, terms in enumerate(trans)}
        # at most 14 subset lookups per block, the largest subsets first
        sub = [
            next((by_terms[s] for k in range(len(terms) - 1, 0, -1)
                  for s in map(frozenset, combinations(terms, k)) if s in by_terms), None)
            for terms in trans
        ]
        extra = [terms if s is None else tuple(x for x in terms if x not in trans[s]) for terms, s in zip(trans, sub)]
        depth = [0] * count
        for b in sorted(range(count), key=lambda b: len(trans[b])):  # a sub-class has fewer terms
            if sub[b] is not None:
                depth[b] = depth[sub[b]] + 1
        # class i is block order[i]: level by level, by descending number of extra terms, no successors last
        order = sorted(range(count), key=lambda b: (not trans[b], depth[b], -len(extra[b])))
        new = {b: i for i, b in enumerate(order)}
        new[count] = count  # a colliding move
        self.classes = count
        self.step = [tuple(new[x] for x in step[b]) for b in order]
        self.trans = [tuple((d, c) for d, c in enumerate(row) if c < count) for row in self.step]
        self.empty_class = new[block[index[()]]]
        self.sub = [None if sub[b] is None else new[sub[b]] for b in order]
        self.extra = [tuple((d, new[b2]) for d, b2 in extra[b]) for b in order]
        self._plan_levels([depth[b] for b in order])

    def _plan_levels(self, depth) -> None:
        """``levels``, the layer fill's plan (see the class docstring), from each class's depth."""
        import numpy as np

        live = sum(1 for terms in self.trans if terms)  # classes 0..live-1 have a successor
        starts = [c for c in range(live) if c == 0 or depth[c] != depth[c - 1]] + [live]
        self.levels = []
        for lo, hi in zip(starts, starts[1:]):
            subs = None if self.sub[lo] is None else np.array(self.sub[lo:hi], dtype=np.intp)
            terms = []
            for j in range(len(self.extra[lo])):
                moves, classes = zip(*[self.extra[c][j] for c in range(lo, hi) if len(self.extra[c]) > j])
                terms.append((np.array(moves, dtype=np.intp), np.array(classes, dtype=np.intp)))
            self.levels.append((lo, hi, subs, terms))

    @staticmethod
    def _offsets(w: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Window points relative to the end point, newest (0,0) first."""
        out = [(0, 0)]
        x = y = 0
        for d in reversed(w):
            x -= _DX[d]
            y -= _DY[d]
            out.append((x, y))
        return tuple(out)

    @classmethod
    def _self_avoiding(cls, w: tuple[int, ...]) -> bool:
        offs = cls._offsets(w)
        return len(set(offs)) == len(offs)


_AUTOMATA: dict[int, WindowAutomaton] = {}


def window_automaton(girth: int) -> WindowAutomaton:
    auto = _AUTOMATA.get(girth)
    if auto is None:
        auto = _AUTOMATA[girth] = WindowAutomaton(girth)
    return auto


def _automaton_build_bytes(girth: int) -> int:
    """Upper bound on the heap bytes of building ``WindowAutomaton(girth)``.

    A window of j >= 1 moves has 4 first moves and at most 3 for each later
    one, none stepping straight back, so there are at most 1 + 2(3**(2l) - 1)
    = 2 * 9**l - 1 windows, each counted at ``_WINDOW_BYTES`` on top of
    ``_AUTOMATON_BYTES``.
    """
    return _AUTOMATON_BYTES + _WINDOW_BYTES * (2 * 9**girth - 1)


def check_automaton_cap(girth: int, memory_cap: int) -> None:
    """Raise ResourceLimitError when building the girth's window automaton would exceed the cap.

    It runs before the build, from the girth alone.  An automaton already
    built (``window_automaton`` keeps one per girth) is not built again, so
    it passes, and so does a girth below 1, which the build refuses.
    """
    if girth < 1 or girth in _AUTOMATA:
        return
    est_bytes = _automaton_build_bytes(girth)
    if est_bytes > memory_cap:
        raise ResourceLimitError(
            f"estimated window automaton build {est_bytes:,} bytes exceeds memory cap {memory_cap:,} bytes "
            f"(girth l={girth})"
        )


def _count_bits(t: int) -> int:
    """Bits of 4 * 3**t, above any count at layer t (at most 4 * 3**(t-1) walks)."""
    return (4 * 3**t).bit_length()


def _round16(size: int) -> int:
    """Bytes the small-object allocator hands out for a request of that size."""
    return -(-size // 16) * 16


def _int_bytes(bits: int) -> int:
    """Heap bytes of one Python int of that many bits."""
    digits = -(-bits // sys.int_info.bits_per_digit)
    return _round16(sys.getsizeof(1) + sys.int_info.sizeof_digit * (digits - 1))


class CountTable:
    """Layered exact counts of girth-restricted walks from its sources to a target.

    The table covers walks from each point of ``sources`` to ``target`` of
    each length in ``lengths``; layer t holds the points the rule of the
    module docstring keeps, and its band of pids and the restriction box
    follow from the same rule (see ``_size_layers``).  States are keyed by
    (point, class, t), and layer t is a dense slab over its rows x every
    class of the window automaton.

    Every cell of a layer t >= 1 is the sum of its successors' cells in
    layer t - 1, one per non-colliding move (``auto.trans``), with a step
    off the region or onto a point layer t - 1 does not hold counting 0.
    The successor rows ``_succ[t]`` name the row of layer t - 1 each move
    leads to (the zero row for such a step).  ``fill_tables`` builds a
    family of tables of one girth together: layer t of each is one block
    of a stacked slab, its successor rows offset by its block's first row
    in layer t - 1, and a whole layer of the family is one set of numpy
    gathers, exact in int64 until some block's layer below reaches 2**61
    and in Python ints for every block from there.  ``unrank`` reads the
    same rows, as each step splits its state's count among the successors.

    ``CountTable(...)`` sizes the table, checks it against ``memory_cap``
    and fills it as a family of one.  A finished layer t is one flat
    sequence of ints, read by index: an ``array('q')`` when
    ``_count_bits(t)`` is at most 63, a list otherwise.  A girth whose
    window automaton would not be built within ``memory_cap`` raises
    ResourceLimitError before it is built (``check_automaton_cap``), and
    a table whose estimate exceeds the cap raises it before anything per
    point is allocated.
    ``CountTable.sized`` only sizes it, so that a family can check its
    total estimate before building any.
    """

    def __init__(
        self,
        region: Region,
        target: Point,
        girth: int,
        lengths,
        *,
        sources,
        memory_cap: int = DEFAULT_MEMORY_CAP,
    ):
        check_automaton_cap(girth, memory_cap)
        self._size(region, target, girth, lengths, sources)
        check_memory_cap([self], memory_cap)
        fill_tables([self])

    @classmethod
    def sized(cls, region: Region, target: Point, girth: int, lengths, *, sources) -> CountTable:
        """A table validated and sized but not built, for a family to size all its tables first.

        ``check_memory_cap`` reads its estimate; ``fill_tables`` builds it.
        """
        table = cls.__new__(cls)
        table._size(region, target, girth, lengths, sources)
        return table

    def _size(self, region: Region, target: Point, girth: int, lengths, sources) -> None:
        target = Point(*target)
        if target not in region:
            raise ValueError(f"target {target} outside region")
        sources = tuple(sorted({Point(*s) for s in sources}))
        if not sources:
            raise ValueError("a table needs at least one source")
        for s in sources:
            if s not in region:
                raise ValueError(f"source {s} outside region")
        lengths = tuple(sorted(set(int(x) for x in lengths)))
        if not lengths or lengths[0] < 0:
            raise ValueError("lengths must be nonnegative")
        self.region = region
        self.target = target
        self.sources = sources
        self._source_set = frozenset(sources)
        self.girth = girth
        self.lengths = lengths
        self._length_set = frozenset(lengths)
        self.max_length = lengths[-1]
        self._built_automaton = girth not in _AUTOMATA
        self.auto = window_automaton(girth)
        # every walk from a source s stays within (max_length - d(s, target)) // 2 of span(s, target)
        dists = [manhattan(s, target) for s in sources]
        self._dist_range = min(dists), max(dists)
        xs, ys = zip(*sources, target)
        margin = max(0, (self.max_length - self._dist_range[0]) // 2)
        self.box = LatticeBox(Point(min(xs), min(ys)), Point(max(xs), max(ys))).expand(margin)
        self._size_layers()

    @property
    def origin(self) -> Point:
        """The one source of a single-source table; ValueError for several."""
        if len(self.sources) != 1:
            raise ValueError(f"table has {len(self.sources)} sources; use count_from")
        return self.sources[0]

    # -- layer plan ----------------------------------------------------------

    def _source_distance(self, xs, ys):
        """Steps from each point (xs[i], ys[i]) to its nearest source."""
        import numpy as np

        (sx, sy), *rest = self.sources
        dist = np.abs(xs - sx) + np.abs(ys - sy)
        for sx, sy in rest:
            np.minimum(dist, np.abs(xs - sx) + np.abs(ys - sy), out=dist)
        return dist

    def _box_members(self, start: int, stop: int):
        """Coordinates of the region's points among box points start..stop-1.

        The box is read x-major: point i is (x0 + i // height, y0 + i % height).
        """
        import numpy as np

        (x0, y0), (_, y1) = self.box.lo, self.box.hi
        xs, ys = np.divmod(np.arange(start, stop, dtype=np.intp), y1 - y0 + 1)
        xs += x0
        ys += y0
        keep = self.region.contains_array(xs, ys)
        return xs[keep], ys[keep]

    def _size_layers(self) -> None:
        """Rows of every layer, from numpy passes over the box.

        The box is read in chunks of at most ``_SIZE_CHUNK`` points, and
        only histograms over the target distances outlive a chunk, so
        what sizing allocates does not grow with the box, and the memory
        cap is checked before the geometry exists.  Points are numbered by
        (parity, distance d to the target) (see ``_build_geometry``).
        Layer t has a row for each point with d <= t of t's parity and at
        most max_length - t steps from its nearest source.  So a point is
        a row of layers d, d + 2, ..., last (last the largest such t):
        ``np.bincount`` adds 1 to a row delta at d and subtracts 1 after
        last, and layer t's rows are the running sum of the deltas of t's
        parity.  By the triangle inequality these rows lie in one run of
        pids, ``_band[t]``: the points of t's parity with t - max_length +
        D_min <= d <= max_length + D_max - t, D_min and D_max the least
        and greatest source-target distance.  Every layer has a column per
        class, class c in column c, and its last row is zero.
        """
        import numpy as np

        max_len = self.max_length
        tx, ty = self.target
        (x0, y0), (x1, y1) = self.box.lo, self.box.hi
        size = (x1 - x0 + 1) * (y1 - y0 + 1)
        per_parity = np.zeros(2, dtype=np.int64)
        per_d = np.zeros(max_len + 1, dtype=np.int64)  # points at each target distance
        delta = np.zeros(max_len + 3, dtype=np.int64)
        for start in range(0, size, _SIZE_CHUNK):
            xs, ys = self._box_members(start, min(start + _SIZE_CHUNK, size))
            d = np.abs(xs - tx) + np.abs(ys - ty)
            per_parity += np.bincount(d & 1, minlength=2)
            near = d <= max_len
            xs, ys, d = xs[near], ys[near], d[near]
            per_d += np.bincount(d, minlength=max_len + 1)
            last = max_len - self._source_distance(xs, ys)
            held = last >= d
            d, last = d[held], last[held]
            delta[: max_len + 1] += np.bincount(d, minlength=max_len + 1)
            delta -= np.bincount(last - (last - d) % 2 + 2, minlength=max_len + 3)
        per_parity, per_d, delta = per_parity.tolist(), per_d.tolist(), delta.tolist()
        self._npts = sum(per_parity)
        first = [0] * (max_len + 1)  # first pid at each target distance
        run = [0, per_parity[0]]
        for d in range(max_len + 1):
            first[d] = run[d & 1]
            run[d & 1] += per_d[d]
        d_min, d_max = self._dist_range
        self._nrows, self._band = [], []
        for t in range(max_len + 1):
            self._nrows.append(delta[t] + (self._nrows[t - 2] if t >= 2 else 0))
            lo = max(t - max_len + d_min, t % 2)
            lo += (lo - t) % 2
            hi = min(max_len + d_max - t, t)
            hi -= (t - hi) % 2
            self._band.append((first[lo], first[hi] + per_d[hi]) if lo <= hi else (0, 0))

    def _cells(self, t: int) -> int:
        return (self._nrows[t] + 1) * self.auto.classes

    def _retained_bytes(self) -> int:
        """Heap bytes of the table's build besides its share of the fill's working set.

        A stored cell of layer t costs 8 bytes in an ``array('q')`` while
        ``_count_bits(t)`` is at most 63, and a list pointer plus an int of
        at most ``_count_bits(t)`` bits after.  Each point adds its
        geometry, and an entry in each of the plan's two live pid-indexed
        row maps; the neighbour lookup's grid adds 8 bytes per cell of the
        box and its ring, and the geometry's numpy pass ``_PASS_BYTES`` per
        point of the box (which also bounds a sizing chunk, a part of the
        box, freed before).  Each layer adds its row map, a C int per entry
        of its band and one more, and its successor rows, four per row.
        """
        item = array(_ROW_CODE).itemsize
        (x0, y0), (x1, y1) = self.box.lo, self.box.hi
        total = _POINT_BYTES * self._npts + 2 * item * (self._npts + 1) + 8 * (x1 - x0 + 3) * (y1 - y0 + 3)
        total += _PASS_BYTES * (x1 - x0 + 1) * (y1 - y0 + 1)
        for t, (nrows, (lo, hi)) in enumerate(zip(self._nrows, self._band)):
            total += _LAYER_BYTES + item * (hi - lo + 1 + 4 * (nrows + 1))  # row map, successor rows
            total += self._cells(t) * (8 if _count_bits(t) <= 63 else 8 + _int_bytes(_count_bits(t)))
        return total

    # -- geometry ------------------------------------------------------------

    def _build_geometry(self):
        """Number the region's points and measure their distances; return their neighbour pids.

        One numpy membership pass over the box, run after the memory cap
        check (the estimate counts it).  The pids follow ``np.lexsort`` on
        (parity, d), d the distance to the target; the sort is stable, so
        points of one (parity, d) keep the box's x-major order.  Row p of
        the returned npts x 4 array holds the pid of p's neighbour per
        move, npts standing for a step off the region.
        """
        import numpy as np  # loaded by the first table, not by every sawkit import

        tx, ty = self.target
        (x0, y0), (x1, y1) = self.box.lo, self.box.hi
        xs, ys = self._box_members(0, (x1 - x0 + 1) * (y1 - y0 + 1))
        d = np.abs(xs - tx) + np.abs(ys - ty)
        order = np.lexsort((d, d & 1))
        xs, ys, self._dist_target = xs[order], ys[order], d[order]
        n = len(order)
        self._pid = pid = dict(zip(zip(xs.tolist(), ys.tolist()), range(n)))
        self._target_pid = pid[self.target]
        self._dist_source = self._source_distance(xs, ys)
        # the box in a ring of off-region cells, flat: cell (x, y) at (x - x0 + 1) * h + (y - y0 + 1)
        h = y1 - y0 + 3
        cell = (xs - (x0 - 1)) * h + (ys - (y0 - 1))
        grid = np.full((x1 - x0 + 3) * h, n, dtype=np.intp)
        grid[cell] = np.arange(n)
        return grid[cell[:, None] + [dx * h + dy for dx, dy in zip(_DX, _DY)]]

    def _plan_rows(self, nbr) -> None:
        """Each layer's row map ``_rows[t]`` and successor rows ``_succ[t]``.

        Layer t's rows are its points in pid order, then its zero row,
        row ``_nrows[t]``.  ``_rows[t][pid - lo]`` is pid's row for a pid
        in the band [lo, hi) of layer t; its last entry, and the entry of
        a band point the layer does not hold, is the zero row.

        ``_succ[t]`` (t >= 1, ``_succ[0]`` is None) holds 4 entries per
        row of layer t, the zero row included: entry ``4*r + d`` is the
        row of layer t - 1 that move d leads to from row r.  A step off
        the region, or onto a point layer t - 1 does not hold, leads to
        layer t - 1's zero row, and so does every move from the zero row.
        Both are filled from a pid-indexed row map per layer, entry npts
        (the off-region pid) the zero row; only two are alive at a time.
        """
        import numpy as np

        n, d_s = self._npts, self._dist_source
        row_maps = np.empty((2, n + 1), dtype=_ROW_CODE)
        self._rows, self._succ = [], [None]
        for t in range(self.max_length + 1):
            lo, hi = self._band[t]
            rows = (d_s[lo:hi] <= self.max_length - t).nonzero()[0]
            rows += lo
            nr = len(rows)
            row_of, prev_of = row_maps[t % 2], row_maps[1 - t % 2]
            row_of.fill(nr)
            row_of[rows] = np.arange(nr)
            self._rows.append(array(_ROW_CODE, row_of[lo : hi + 1].tobytes()))
            if t:
                succ = array(_ROW_CODE, prev_of.take(nbr.take(rows, axis=0)).tobytes())
                succ.extend([prev_of[n]] * 4)  # the zero row's moves
                self._succ.append(succ)

    # -- queries ---------------------------------------------------------------

    def _row(self, t: int, p: int) -> int:
        rows, i = self._rows[t], p - self._band[t][0]
        return rows[i] if 0 <= i < len(rows) else rows[-1]

    def _cell(self, t: int, p: int, c: int) -> int:
        return self._vals[t][self._row(t, p) * self.auto.classes + c]

    def counts(self) -> dict[int, int]:
        """Walk count for every covered length, from the table's one source."""
        return {L: self.low_girth_walk_count(L) for L in self.lengths}

    def low_girth_walk_count(self, length: int) -> int:
        return self.count_from(self.origin, length)

    def count_from(self, start: Point, length: int) -> int:
        """Number of girth-restricted walks start -> target of the given length.

        Trivial zeros come first: a start outside the region, length 0, a
        target out of reach or of the wrong parity give an exact 0 or 1
        from any start.  Otherwise a start that is not one of the table's
        sources raises TableDomainError, a state it does not cover.
        """
        start = Point(*start)
        if length not in self._length_set:
            raise ValueError(f"length {length} not covered (lengths {self.lengths})")
        if start not in self.region:
            return 0
        if length == 0:
            return 1 if start == self.target else 0
        d = manhattan(start, self.target)
        if d > length or (d - length) % 2:
            return 0
        if start not in self._source_set:
            raise TableDomainError(f"start {start} is not a source of the table")
        return self._cell(length, self._pid[start], self.auto.empty_class)

    def completion_count(self, point: Point, window_moves: str, t: int) -> int:
        """Admissible t-step continuations from (point, window) to the target.

        The window is the move string of the most recent steps (newest
        last); the count depends only on its class, reached by stepping
        the automaton from ``empty_class`` along the moves.  The window is
        checked from the moves alone: at most 2l of them, visiting no
        point twice, and each of its points in the restricted region.
        Raises ValueError for an invalid window, a point outside the
        restricted region, t out of range, or a window leaving the region,
        in that order, and TableDomainError for a point more than
        max_length - t steps from every source, the one state layer t has
        no row for.
        """
        point = Point(*point)
        if not set(window_moves) <= set(DIRECTIONS):
            raise ValueError(f"invalid window {window_moves!r} (a move other than {', '.join(DIRECTIONS)})")
        codes = tuple(DIRECTIONS.index(c) for c in window_moves)
        offsets = WindowAutomaton._offsets(codes)
        if len(codes) > self.auto.max_moves or len(set(offsets)) < len(offsets):
            raise ValueError(f"invalid window {window_moves!r} (self-intersecting or too long)")
        p = self._pid.get(point)
        if p is None:
            raise ValueError(f"point {point} outside the restricted region")
        if not 0 <= t <= self.max_length:
            raise ValueError(f"t={t} out of range 0..{self.max_length}")
        x, y = point
        if not all((x + dx, y + dy) in self._pid for dx, dy in offsets):
            raise ValueError("window leaves the restricted region")
        if t == 0:
            return 1 if p == self._target_pid else 0
        if self._dist_target[p] > t or (self._dist_target[p] - t) % 2:
            return 0
        if self._dist_source[p] > self.max_length - t:
            raise TableDomainError("state not reachable from a source within budget")
        c = self.auto.empty_class
        for d in codes:
            c = self.auto.step[c][d]
        return self._cell(t, p, c)

    # -- unranking -------------------------------------------------------------

    def unrank(self, start: Point, length: int, index: int) -> str:
        """The moves of walk number ``index`` among the walks start -> target of that length.

        The walks are numbered 0 .. count_from(start, length) - 1 in
        lexicographic order of their moves, the moves ordered as in
        ``lattice.MOVES`` (U < R < D < L).  Each step takes the first
        successor, in ``auto.trans`` order, whose count the index falls in,
        and subtracts the counts of the successors before it.
        The index is never used up by the successors, as every state's
        count is the sum of theirs; a table that breaks this raises
        AssertionError.  An index outside [0, count) raises ValueError, and
        one that is not an integer (a float, a Fraction) TypeError.
        """
        index = operator.index(index)
        start = Point(*start)
        count = self.count_from(start, length)
        if not 0 <= index < count:
            raise ValueError(f"index {index} outside [0, {count}) for walks of length {length} from {start}")
        return self._unrank(start, length, index)

    def _unrank(self, start: Point, length: int, index: int) -> str:
        """``unrank``'s descent, for a caller that has already counted the start: 0 <= index < count."""
        trans, all_succ, all_vals, stride = self.auto.trans, self._succ, self._vals, self.auto.classes
        row, c = self._row(length, self._pid[start]), self.auto.empty_class
        codes = bytearray()
        for t in range(length, 0, -1):
            nxt, below = all_succ[t], all_vals[t - 1]
            for d, c2 in trans[c]:
                r = nxt[4 * row + d]
                count = below[r * stride + c2]
                if index < count:
                    break
                index -= count
            else:
                raise AssertionError(f"successors of state (row {row}, class {c}, t {t}) sum below its count")
            codes.append(d)
            row, c = r, c2
        return codes.translate(_MOVE_CHARS).decode()

    def export_layers(self) -> list:
        """Every layer's flat cells (row-major, zero row last), each a list or an ``array('q')``."""
        return list(self._vals)


# -- families ------------------------------------------------------------------


def _family_bytes(tables) -> int:
    """Upper bound on the heap bytes of building a family of sized tables together.

    ``_BUILD_BYTES``, each table's retained bytes, ``_CLASS_BYTES`` per
    class of a window automaton that sizing the tables built (one built
    before is not part of this build), and the largest working set of one
    stacked layer update: ``_SLAB_BYTES`` per cell of every block the
    update reads or writes, a block counting the larger of its layers t
    and t - 1.  Building the automaton comes before all of it, bounded on
    its own by ``check_automaton_cap``.
    """
    work = 0
    for t in range(max((table.max_length for table in tables), default=-1) + 1):
        cells = sum(max(table._cells(t), table._cells(t - 1) if t else 0) for table in tables if table.max_length >= t)
        work = max(work, cells)
    kept = sum(_CLASS_BYTES * table.auto.classes for table in tables if table._built_automaton)
    return _BUILD_BYTES + kept + sum(table._retained_bytes() for table in tables) + work * _SLAB_BYTES


def check_memory_cap(tables, memory_cap: int) -> None:
    """Raise ResourceLimitError when building the sized tables together would exceed the cap."""
    est_bytes = _family_bytes(tables)
    if est_bytes > memory_cap:
        cells = sum(table._cells(t) for table in tables for t in range(table.max_length + 1))
        what = "table size" if len(tables) == 1 else f"size of {len(tables)} tables"
        raise ResourceLimitError(
            f"estimated {what} {est_bytes:,} bytes exceeds memory cap {memory_cap:,} bytes "
            f"(girth l={tables[0].girth}, {cells} cells)"
        )


def fill_tables(tables) -> None:
    """Build a family of sized tables of one girth: each one's geometry and rows, then all layers at once.

    Layer t of every table is computed by one set of numpy operations over
    a stacked slab: each table whose longest length reaches t is one block
    of rows, its zero row last, and its successor rows are offset by its
    block's first row in layer t - 1.  The blocks are ordered by
    descending ``max_length``, so the tables left at layer t are a prefix
    of those at t - 1, and a table leaves the slab after its last layer.
    Each block's finished layer is sliced out as that table's flat layer.

    A cell (row r, class c) of layer t >= 1 is the sum, over class c's
    successors (d, c2) in ``auto.trans[c]``, of the cell (the row move d
    leads to from r, c2) of layer t - 1: a colliding move is no term, and
    a step the layer below has no point for reads its zero row.  A zero
    row's moves all lead to the zero row below, so it sums to 0.  The
    automaton numbers its classes in fill order, so each level of
    ``auto.levels`` is a range of the slab's columns.  A level's sums
    start as its first extra term's gather, plus the cells of its
    sub-classes (an earlier level's columns, whose terms are a subset of
    its own), and each further term j is one gather added into the
    level's first classes, those that have a term j; the sums then go
    into the level's columns.  Until then they are kept class by class,
    each class's cells contiguous: adds into a strided column range of the
    slab made a saw-n200 build 3-6% slower, and Python-int sums made
    row by row made its descents about 5% slower than sums made class by
    class.  The class without successors (at girth >= 4, the one whose
    first window is ``URRDDLU``), the last column, is set to 0.

    The slab is int64 while every cell of the layer below is under 2**61:
    a cell is a sum of at most four of them, so it is under 2**63 and the
    int64 adds are exact.  From the first layer below that reaches 2**61
    in any block, the slab of every block is an object array of Python
    ints for good, the switch wrapping the blocks' finished lists.  A
    finished layer t is an ``array('q')`` copied from its block when
    ``_count_bits(t)`` is at most 63, its cells then under 2**61, and a
    list of ints otherwise.  Tables of different girths raise ValueError,
    before anything is built.
    """
    import numpy as np

    tables = sorted(tables, key=lambda table: -table.max_length)
    if not tables:
        return
    if len({table.girth for table in tables}) > 1:
        raise ValueError("the tables of a family must share one girth")
    for table in tables:
        table._plan_rows(table._build_geometry())
    auto = tables[0].auto
    stride = auto.classes
    live = tables
    starts = [0]  # first row of each live block in layer t - 1
    for table in live:
        starts.append(starts[-1] + table._nrows[0] + 1)
    # layer 0: the target's row, if it holds it, is 1 in every class (the empty walk has arrived)
    slab = np.ones((starts[-1], stride), dtype=np.int64)
    slab[np.subtract(starts[1:], 1)] = 0  # each block's zero row
    for table, r, r2 in zip(live, starts, starts[1:]):
        table._vals = [array("q", slab[r:r2].tobytes())]
    prev = slab.ravel()
    for t in range(1, tables[0].max_length + 1):
        if prev.dtype != object and prev.max() >= 1 << 61:
            prev = np.empty(prev.size, dtype=object)
            for table, r in zip(live, starts):
                prev[r * stride : (r + table._nrows[t - 1] + 1) * stride] = table._vals[-1]
        live = [table for table in live if table.max_length >= t]
        rows = [table._nrows[t] + 1 for table in live]
        succ = np.frombuffer(b"".join([table._succ[t] for table in live]), dtype=_ROW_CODE).reshape(-1, 4)
        succ = succ.astype(np.intp)
        succ += np.repeat(starts[: len(live)], rows)[:, None]
        succ *= stride  # succ[r][d]: the offset of the row move d leads to from r
        slab = np.empty((sum(rows), stride), dtype=prev.dtype)
        for lo, hi, subs, terms in auto.levels:
            for j, (moves, classes) in enumerate(terms):
                idx = succ[:, moves]  # class by class in memory, and so is each gather through idx.T
                idx += classes
                if j:
                    level[:, : len(classes)] += prev.take(idx.T).T
                else:  # the level's sums start as its first term, plus its sub-classes' cells
                    level = prev.take(idx.T).T
                    if subs is not None:
                        level += slab[:, subs]
            slab[:, lo:hi] = level
        slab[:, hi:] = 0  # past the last level: the class without successors, if any
        as_array = _count_bits(t) <= 63
        starts = [0]
        for table, n in zip(live, rows):
            blk = slab[starts[-1] : starts[-1] + n]
            table._vals.append(array("q", blk.tobytes()) if as_array else blk.ravel().tolist())
            starts.append(starts[-1] + n)
        prev = slab.ravel()


def build_table(
    region: Region,
    origin: Point,
    target: Point,
    girth: int,
    extra: int,
    *,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> CountTable:
    """Table for walks origin -> target of lengths n, n+2, ..., n+2*extra."""
    if extra < 0:
        raise ValueError("extra steps must be >= 0")
    origin, target = Point(*origin), Point(*target)
    n = manhattan(origin, target)
    lengths = [n + 2 * j for j in range(extra + 1)]
    return CountTable(region, target, girth, lengths, sources=[origin], memory_cap=memory_cap)
