"""Girth-DP tests: count examples, oracle equivalence, and a reference memo.

The recursive memoized reference implementation here is an independent
second route to the same counts (different traversal order from the
layered build), exercised on small instances.
"""

import gc
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sawkit import counting
from sawkit.aztec import AztecRegion, OmegaParams, partition_family
from sawkit.counting import (
    _CLASS_BYTES,
    CountTable,
    ResourceLimitError,
    TableDomainError,
    WindowAutomaton,
    _automaton_build_bytes,
    _count_bits,
    _family_bytes,
    build_table,
    fill_tables,
    window_automaton,
)
from sawkit.lattice import DIRECTIONS, MOVES, FullLattice, LatticeBox, Point, PointSetRegion
from sawkit.oracle import enumerate_low_girth_walks, enumerate_saws
from helpers import box_points

Z = FullLattice()


def _reference_windows(girth):
    """Every window of the girth with its points and its class, by a depth-first search over lattice points.

    The windows are the move sequences of 0..2l moves that visit no point
    twice, in (length, moves) order.  Each maps to its points relative to
    its end, newest (0, 0) first, and to the class reached by stepping
    ``auto.step`` from ``auto.empty_class`` along its moves (the stepping
    fact of the ``WindowAutomaton`` docstring).
    """
    auto = window_automaton(girth)
    found = {}

    def extend(moves, points, c):
        ex, ey = points[-1]
        found[moves] = (tuple((x - ex, y - ey) for x, y in reversed(points)), c)
        if len(moves) == 2 * girth:
            return
        for d, (_, dx, dy) in enumerate(MOVES):
            nxt = (ex + dx, ey + dy)
            if nxt not in points:
                extend(moves + (d,), points + [nxt], auto.step[c][d])

    extend((), [(0, 0)], auto.empty_class)
    return {w: found[w] for w in sorted(found, key=lambda w: (len(w), w))}


def test_window_automaton_sizes():
    # girth: (windows, classes, classes holding a full window)
    sizes = {1: (1 + 4 + 12, 5, 4), 2: (1 + 4 + 12 + 36 + 100, 21, 20), 3: (1217, 89, 84)}
    for girth, (n_windows, classes, full_classes) in sizes.items():
        auto = window_automaton(girth)
        windows = _reference_windows(girth)
        assert len(windows) == n_windows
        assert auto.classes == classes
        assert len({c for w, (_, c) in windows.items() if len(w) == 2 * girth}) == full_classes
        assert auto.empty_class == windows[()][1]
        for w, (_, c) in windows.items():
            if w:  # stepping back onto the previous point is always forbidden
                assert auto.step[c][w[-1] ^ 2] == auto.classes
            # a class's moves are those of each of its windows
            for d in range(4):
                nxt = (w + (d,))[-2 * girth :]
                if nxt in windows:
                    assert auto.step[c][d] == windows[nxt][1]
                else:
                    assert auto.step[c][d] == auto.classes
            assert auto.trans[c] == tuple((d, s) for d, s in enumerate(auto.step[c]) if s < auto.classes)


@pytest.mark.parametrize("girth", [1, 2, 3, 4, 5])
def test_stepping_agrees_with_step_on_full_windows(girth):
    """A move from a full window drops its oldest move, and still leads to ``step[c][d]``.

    Stepping from the empty class gives every window a class through the
    automaton's own moves, and a move from a window shorter than 2l only
    extends it, so the full windows are where a class could disagree.
    """
    auto = window_automaton(girth)
    windows = _reference_windows(girth)
    for w, (offsets, c) in windows.items():
        if len(w) == 2 * girth:
            for d, (_, dx, dy) in enumerate(MOVES):
                want = auto.classes if (dx, dy) in offsets else windows[w[1:] + (d,)][1]
                assert auto.step[c][d] == want, (w, d)


def test_window_automaton_keeps_no_window():
    """An automaton keeps what the fill and the descent read, all of size O(classes), and no per-window state."""
    kept = {"girth", "max_moves", "classes", "step", "trans", "empty_class", "sub", "extra", "levels"}
    for girth in (1, 2, 3):
        assert set(vars(window_automaton(girth))) == kept


def test_window_automaton_successor_counts():
    """The facts the layer build relies on: how many non-colliding moves each class has."""
    histograms = {
        1: {4: 1, 3: 4},
        2: {4: 1, 3: 12, 2: 8},
        3: {4: 1, 3: 48, 2: 32, 1: 8},
        4: {4: 1, 3: 220, 2: 144, 1: 48, 0: 1},
    }
    for girth, histogram in histograms.items():
        auto = window_automaton(girth)
        succs = [len(moves) for moves in auto.trans]
        assert Counter(succs) == histogram
        assert [c for c, n in enumerate(succs) if n == 4] == [auto.empty_class]
    # the one class without a move at girth 4: every step from its windows' end lands on the window
    auto = window_automaton(4)
    (dead,) = [c for c, moves in enumerate(auto.trans) if not moves]
    first = next(w for w, (_, c) in _reference_windows(4).items() if c == dead)
    assert "".join(DIRECTIONS[d] for d in first) == "URRDDLU"


def test_window_automaton_fill_plan():
    """Each class's terms are its sub-class's plus its extra terms, and classes are numbered in fill order."""
    # girth: (bignum adds per row, gathers per row) of the plan
    work = {1: (9, 13), 2: (23, 32), 3: (87, 104), 4: (399, 476), 5: (1911, 2324)}
    for girth, (adds, gathers) in work.items():
        auto = window_automaton(girth)
        assert len({frozenset(terms) for terms in auto.trans}) == auto.classes  # distinct successor sets
        for c, terms in enumerate(auto.trans):
            sub, extra = auto.sub[c], auto.extra[c]
            assert extra == tuple(sorted(extra))
            if sub is None:
                assert extra == terms
            else:
                assert auto.trans[sub] and not set(auto.trans[sub]) & set(extra)
                assert sorted(auto.trans[sub] + extra) == list(terms)
                assert extra
        assert sum(len(e) - (s is None) for e, s, terms in zip(auto.extra, auto.sub, auto.trans) if terms) == adds
        assert sum(map(len, auto.extra)) == gathers
        # classes in fill order: each level a range of classes from 0 on, reading only classes below it,
        # and a class without successors last
        live = sum(1 for terms in auto.trans if terms)
        assert all(auto.trans[c] for c in range(live)) and auto.classes - live == (girth >= 4)
        assert auto.levels[0][0] == 0
        for (lo, hi, subs, terms), nxt in zip(auto.levels, auto.levels[1:] + [(live,)]):
            assert lo < hi == nxt[0]
            if subs is None:
                assert all(auto.sub[c] is None for c in range(lo, hi))
            else:
                assert (subs < lo).all() and subs.tolist() == auto.sub[lo:hi]
            for j, (moves, classes) in enumerate(terms):  # term j: a prefix of the level's classes
                assert list(zip(moves.tolist(), classes.tolist())) == [auto.extra[c][j] for c in range(lo, lo + len(moves))]
            assert sum(len(moves) for moves, _ in terms) == sum(len(auto.extra[c]) for c in range(lo, hi))


def test_count_examples():
    assert build_table(Z, (0, 0), (1, 0), 1, 1).counts() == {1: 1, 3: 2}
    assert build_table(Z, (0, 0), (1, 1), 2, 1).counts() == {2: 2, 4: 4}
    assert build_table(Z, (0, 0), (1, 1), 1, 0).counts() == {2: 2}
    assert build_table(Z, (0, 0), (1, 1), 2, 2).counts()[6] == 16


def test_completion_count_base_cases():
    table = build_table(Z, (0, 0), (1, 1), 2, 1)
    assert table.completion_count((1, 1), "", 0) == 1
    assert table.completion_count((0, 1), "", 0) == 0
    assert table.completion_count((0, 0), "", 4) == table.low_girth_walk_count(4)


def test_completion_count_validation():
    table = build_table(Z, (0, 0), (2, 2), 2, 1)
    with pytest.raises(ValueError):
        table.completion_count((0, 0), "UD", 2)  # self-intersecting window
    with pytest.raises(ValueError, match="invalid window 'UX'"):
        table.completion_count((0, 0), "UX", 2)  # a letter that is not a move
    with pytest.raises(ValueError):
        table.completion_count((50, 50), "", 2)  # outside restriction box
    with pytest.raises(ValueError):
        table.low_girth_walk_count(5)  # wrong parity
    with pytest.raises(ValueError):
        table.completion_count((0, 0), "", 7)  # t beyond the longest length
    # a short window that is not a prefix of walks from the origin is counted too
    assert table.completion_count((2, 1), "U", 3) == _reference_counts(
        table.box, None, (2, 2), 2, 3, history=((2, 0), (2, 1))
    )
    # the one state a layer has no row for: 3 steps left, 5 steps from the origin
    with pytest.raises(TableDomainError):
        table.completion_count((3, 2), "", 3)


def test_memory_cap():
    with pytest.raises(ResourceLimitError):
        build_table(Z, (0, 0), (150, 150), 5, 10)


# the last: two layers of one row, where the build's fixed bytes are most of the peak
@pytest.mark.parametrize("target,k", [((10, 8), 3), ((20, 20), 4), ((30, 30), 2), ((1, 0), 0)])
def test_memory_estimate_bounds_tracemalloc_peak(target, k):
    build_table(Z, (0, 0), target, 2, k)  # the window automaton and numpy load outside the measurement
    tracemalloc.start()
    try:
        table = build_table(Z, (0, 0), target, 2, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    est = _family_bytes([table])
    assert peak <= est
    # Over-estimate, not a bound: measured 1.6-2.0x on these tables with
    # CPython 3 and numpy 1.x/2.x; the per-point, per-layer and per-cell
    # working-set constants are set by hand, so the ratio may drift with them.
    assert est <= 2.5 * peak
    with pytest.raises(ResourceLimitError):
        build_table(Z, (0, 0), target, 2, k, memory_cap=est - 1)


def _family_tables(k, c, girth=2):
    """The distinct tables of a cold Aztec family, in family order."""
    fam = partition_family(k, OmegaParams(c, 0.5), girth=girth)
    return list({id(e.table): e.table for e in fam}.values())


@pytest.mark.parametrize(
    "c,k,girth",
    [pytest.param(c, k, 2, id=f"{c}-{k}") for c in (2, 3) for k in (1, 2, 3, 4)]
    + [pytest.param(3, 4, 3, id="3-4-l3")],  # like (2, 4, 2), a family at its l*
)
def test_family_memory_estimate_bounds_tracemalloc_peak(c, k, girth):
    partition_family(k, OmegaParams(c, 0.5), girth=girth)  # the window automaton and numpy load outside the measurement
    tracemalloc.start()
    try:
        tables = _family_tables(k, c, girth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _family_bytes(tables)


@pytest.mark.parametrize("girth", [1, 2, 3, 4])
def test_automaton_build_bounds_tracemalloc_peak(girth, monkeypatch):
    """The automaton's build stays within its bound, and what it keeps within ``_CLASS_BYTES`` per class."""
    monkeypatch.setattr(counting, "_AUTOMATA", {})
    tracemalloc.start()
    try:
        auto = window_automaton(girth)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()  # and the interpreter's free lists, which hold what the build freed
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _automaton_build_bytes(girth)
    assert kept <= _CLASS_BYTES * auto.classes


@pytest.mark.parametrize("girth", [1, 2, 3])
def test_cold_table_build_bounds_tracemalloc_peak(girth, monkeypatch):
    """A table whose sizing builds the automaton peaks within the automaton's bound or the estimate, which counts it."""
    monkeypatch.setattr(counting, "_AUTOMATA", {})
    tracemalloc.start()
    try:
        table = build_table(Z, (0, 0), (3, 2), girth, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table._built_automaton
    assert peak <= max(_automaton_build_bytes(girth), _family_bytes([table]))


def test_automaton_over_the_cap_is_refused_before_its_build(monkeypatch):
    """Each capped caller refuses a girth whose automaton build would exceed the cap, and builds nothing."""
    def no_build(self, girth):
        raise AssertionError("window automaton built before the memory cap check")

    monkeypatch.setattr(WindowAutomaton, "__init__", no_build)
    cap = 50 * 10**6
    assert cap < _automaton_build_bytes(6)
    with pytest.raises(ResourceLimitError, match="window automaton"):
        build_table(Z, (0, 0), (3, 3), 6, 1, memory_cap=cap)
    with pytest.raises(ResourceLimitError, match="window automaton"):
        CountTable(Z, (3, 3), 6, (6,), sources=[(0, 0)], memory_cap=cap)
    with pytest.raises(ResourceLimitError, match="window automaton"):
        partition_family(2, OmegaParams(2, 0.5), 6, memory_cap=cap)


def test_memory_cap_refusal_allocates_little():
    # sizing streams the ~1M-point box in fixed chunks, so refusing it allocates a few MB at most
    with pytest.raises(ResourceLimitError):
        build_table(Z, (0, 0), (1000, 1000), 2, 10)  # numpy and the window automaton load outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_table(Z, (0, 0), (1000, 1000), 2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024**2
    begin = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        build_table(Z, (0, 0), (1000, 1000), 2, 10)
    assert time.perf_counter() - begin < 0.5


def test_memory_cap_checked_before_geometry(monkeypatch):
    # a 1001 x 1001 box has ~1M points and 2,021 layers: refused from counts alone
    def no_geometry(self):
        raise AssertionError("geometry built before the memory cap check")

    monkeypatch.setattr(CountTable, "_build_geometry", no_geometry)
    with pytest.raises(ResourceLimitError):
        build_table(Z, (0, 0), (1000, 1000), 2, 10)


def _reference_counts(region, origin, target, girth, length, memo=None, history=None):
    """Recursive memoized DP, top-down (a different traversal order).

    Counts the continuations of ``history`` (the points walked so far, the
    last one current; default just the origin) by ``length`` more steps.
    """
    window = 2 * girth + 1
    memo = {} if memo is None else memo

    def rec(pts, t):
        if t == 0:
            return 1 if pts[-1] == target else 0
        key = (pts[-(window):], t)
        if key in memo:
            return memo[key]
        x, y = pts[-1]
        total = 0
        for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            np_ = (x + dx, y + dy)
            if np_ not in region:
                continue
            if np_ in pts[-window:]:
                continue
            total += rec(pts[-(window - 1):] + (np_,), t - 1)
        memo[key] = total
        return total

    if history is None:
        history = ((origin[0], origin[1]),)
    return rec(tuple(history), length)


@pytest.mark.parametrize("n1,n2,k,girth", [(1, 0, 2, 1), (1, 1, 2, 2), (2, 1, 1, 1), (2, 2, 1, 3), (0, 3, 1, 2)])
def test_against_recursive_reference(n1, n2, k, girth):
    box = LatticeBox(Point(-k, -k), Point(max(n1, 1) + k, max(n2, 1) + k))
    table = build_table(box, (0, 0), (n1, n2), girth, k)
    for j in range(k + 1):
        length = n1 + n2 + 2 * j
        assert table.low_girth_walk_count(length) == _reference_counts(
            box, (0, 0), (n1, n2), girth, length
        )


def test_oracle_equivalence_sweep():
    for n1, n2 in ((1, 0), (1, 1), (2, 1), (3, 0), (2, 2)):
        n = n1 + n2
        kmax = (10 - n) // 2
        for girth in (1, 2, 3):
            table = build_table(Z, (0, 0), (n1, n2), girth, kmax)
            for j in range(kmax + 1):
                length = n + 2 * j
                assert table.low_girth_walk_count(length) == enumerate_low_girth_walks(
                    Z, Point(0, 0), Point(n1, n2), length, girth
                ).count


def test_saw_collapse_when_window_covers_length():
    table = build_table(Z, (0, 0), (2, 1), 3, 1)
    assert table.low_girth_walk_count(5) == enumerate_saws(Z, Point(0, 0), Point(2, 1), 5).count


def test_sandwich_and_monotone_in_girth():
    for n1, n2, k in ((2, 2, 2), (3, 1, 2)):
        length = n1 + n2 + 2 * k
        saws = enumerate_saws(Z, Point(0, 0), Point(n1, n2), length).count
        counts = [
            build_table(Z, (0, 0), (n1, n2), girth, k).low_girth_walk_count(length)
            for girth in (1, 2, 3)
        ]
        assert saws <= counts[2] <= counts[1] <= counts[0]


def test_region_restricted_counts():
    corridor = LatticeBox(Point(0, -1), Point(1, 1))
    table = build_table(corridor, (0, 0), (1, 0), 1, 2)
    assert table.counts() == {1: 1, 3: 2, 5: 2}


def test_count_from_trivial_zeros_before_domain():
    corridor = LatticeBox(Point(0, -1), Point(1, 1))
    table = build_table(corridor, (0, 0), (1, 0), 1, 2)
    assert table.count_from((0, 1), 3) == 0  # distance 2, odd length: wrong parity
    assert table.count_from((5, 5), 3) == 0  # outside the region
    wide = build_table(Z, (0, 0), (1, 0), 1, 1)
    assert wide.count_from((-1, 1), 1) == 0  # distance 3 > length 1, parity right
    # within reach and of the right parity: not a source, so the table does not cover it
    with pytest.raises(TableDomainError):
        wide.count_from((-1, 1), 3)
    with pytest.raises(TableDomainError):
        table.count_from((1, 1), 3)
    assert table.count_from((0, 0), 3) == 2


def test_all_sources_table():
    region = LatticeBox(Point(0, 0), Point(3, 3))
    table = CountTable(region, Point(3, 3), 2, (2, 4, 6), sources=box_points(region))
    for start in (Point(3, 1), Point(1, 1), Point(0, 3)):
        for length in (2, 4, 6):
            want = enumerate_low_girth_walks(region, start, Point(3, 3), length, 2).count
            assert table.count_from(start, length) == want


def test_sources_must_be_nonempty_and_in_region():
    region = LatticeBox(Point(0, 0), Point(3, 3))
    with pytest.raises(ValueError, match="at least one source"):
        CountTable(region, Point(3, 3), 2, (2,), sources=[])
    with pytest.raises(ValueError, match="outside region"):
        CountTable(region, Point(3, 3), 2, (2,), sources=[(3, 1), (4, 3)])


def _reference_succ(table, t):
    """Layer t's successor rows by a plain loop over the pid map, the row maps and the bands."""
    point = {pid: p for p, pid in table._pid.items()}

    def held(s):  # layer s's row of each pid it holds, and its zero row
        lo, _ = table._band[s]
        zero = table._rows[s][-1]
        return {lo + i: r for i, r in enumerate(table._rows[s][:-1]) if r != zero}, zero

    here, zero_here = held(t)
    below, zero_below = held(t - 1)
    assert sorted(here.values()) == list(range(zero_here)) and zero_here == table._nrows[t]
    out = [zero_below] * (4 * (zero_here + 1))
    for pid, r in here.items():
        x, y = point[pid]
        for d, (_, dx, dy) in enumerate(MOVES):
            out[4 * r + d] = below.get(table._pid.get((x + dx, y + dy)), zero_below)
    return out


def _family_table_with_most_sources():
    fam = partition_family(3, OmegaParams(2, 0.5), girth=2)
    return max((e.table for e in fam), key=lambda table: len(table.sources))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_table(Z, (0, 0), (3, 2), 2, 2),
        lambda: CountTable(
            PointSetRegion([p for p in box_points(LatticeBox(Point(0, 0), Point(4, 3))) if p not in {(1, 1), (3, 2)}]),
            (4, 3), 1, (7, 9), sources=[(0, 0)],
        ),
        _family_table_with_most_sources,
    ],
    ids=["full-lattice", "point-set", "aztec-family"],
)
def test_successor_rows_match_their_definition(make):
    table = make()
    assert table._succ[0] is None
    for t in range(1, table.max_length + 1):
        assert list(table._succ[t]) == _reference_succ(table, t)


class _PerPointTable(CountTable):
    """The table set-up as one Python pass per point: the reference for the numpy passes.

    ``_size_layers`` and ``_build_geometry`` each walk the box point by
    point with ``Region.__contains__``, and take the nearest source with a
    Python ``min``; the rest of the build is ``CountTable``'s own.
    """

    def _point_source_distance(self, x, y):
        return min([abs(x - sx) + abs(y - sy) for sx, sy in self.sources])

    def _size_layers(self):
        max_len = self.max_length
        tx, ty = self.target
        per_parity = [0, 0]
        per_d = [0] * (max_len + 1)
        delta = [0] * (max_len + 3)
        for x, y in box_points(self.box):
            if (x, y) not in self.region:
                continue
            d = abs(x - tx) + abs(y - ty)
            per_parity[d & 1] += 1
            if d > max_len:
                continue
            per_d[d] += 1
            last = max_len - self._point_source_distance(x, y)
            if last >= d:
                delta[d] += 1
                delta[last - (last - d) % 2 + 2] -= 1
        self._npts = sum(per_parity)
        first = [0] * (max_len + 1)
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

    def _build_geometry(self):
        tx, ty = self.target

        def parity_distance(p):
            d = abs(p[0] - tx) + abs(p[1] - ty)
            return d & 1, d

        pts = sorted((p for p in box_points(self.box) if p in self.region), key=parity_distance)
        self._pid = pid = {p: i for i, p in enumerate(pts)}
        self._target_pid = pid[self.target]
        n = len(pts)
        self._dist_target = np.array([parity_distance(p)[1] for p in pts], dtype=np.intp)
        self._dist_source = np.array([self._point_source_distance(*p) for p in pts], dtype=np.intp)
        x0, y0 = self.box.lo
        nbr = np.full((n, 4), n, dtype=np.intp)
        for i, (x, y) in enumerate(pts):
            for d, (_, dx, dy) in enumerate(MOVES):
                nbr[i, d] = pid.get((x + dx, y + dy), n)
        return nbr


def _reference_layers(table):
    """Every layer by four gathers per cell, one per move, a colliding move reading the zero column.

    Object slabs throughout: the reference for the build's per-class
    successor sums and its int64 layers.  The reference keeps a zero
    column, class ``auto.classes``, for the colliding moves to read; it
    must stay all zero, and the layers are returned without it, as the
    build stores them.
    """
    nc = table.auto.classes
    stride = nc + 1
    step = np.array(table.auto.step, dtype=np.intp).T  # step[d][c]: the class after move d
    layers, prev = [], None
    for t in range(table.max_length + 1):
        nr = table._nrows[t]
        cur = np.zeros((nr + 1, stride), dtype=object)
        if t == 0:
            cur[:nr, :nc] = 1
        else:
            succ = np.frombuffer(table._succ[t], dtype=np.intc).reshape(nr + 1, 4)[:nr]
            succ = succ.astype(np.intp) * stride
            acc = None
            for d in range(4):
                g = prev[succ[:, d, None] + step[d]]
                acc = g if acc is None else np.add(acc, g, out=acc)
            cur[:nr, :nc] = acc
        assert not cur[:, nc].any()
        prev = cur.ravel()
        layers.append(cur[:, :nc].ravel().tolist())
    return layers


def _layers(table):
    """The table's layers as lists, whichever way each is stored."""
    return [list(layer) for layer in table.export_layers()]


def _assert_layers_match_reference(table):
    """The layers equal the reference's, and a layer is an ``array('q')`` exactly when its counts fit int64."""
    for t, layer in enumerate(table.export_layers()):
        if _count_bits(t) <= 63:
            assert type(layer) is array and layer.typecode == "q", t
        else:
            assert type(layer) is list, t
    layers = _layers(table)
    assert layers == _reference_layers(table)
    assert all(type(cell) is int for layer in layers for cell in layer)
    return layers


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_table(Z, (0, 0), (30, 30), 2, 2),
        lambda: build_table(Z, (0, 0), (5, 3), 4, 3),
        # classes derived with two extra terms, and a class without successors
        lambda: build_table(Z, (0, 0), (5, 3), 5, 2),
    ],
    ids=["int64-then-object", "girth-4", "girth-5"],
)
def test_layers_match_four_gather_reference(make):
    table = make()
    layers = _assert_layers_match_reference(table)
    if table.girth == 2:  # cells reach 2**61 (first at t=58), so the build switches to object slabs
        assert max(map(max, layers)) >= 1 << 61


@pytest.mark.parametrize("girth", [1, 2, 3])
@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_layers_match_four_gather_reference(k, c, girth):
    tables = _family_tables(k, c, girth)
    assert tables
    for table in tables:
        _assert_layers_match_reference(table)


def test_stacked_fill_matches_each_table_built_alone():
    # (target, extra) from the origin at girth 2: a block that reaches 2**61 at t=58, one
    # that reaches it at t=46 and ends at t=60 (so the first is switched to object early),
    # and one that ends at t=5
    specs = [((30, 30), 2), ((5, 3), 26), ((2, 1), 1)]
    alone = [build_table(Z, (0, 0), target, 2, extra) for target, extra in specs]
    family = [CountTable.sized(Z, t.target, 2, t.lengths, sources=t.sources) for t in alone]
    fill_tables(family)
    for table, lone in zip(family, alone):
        assert _assert_layers_match_reference(table) == _layers(lone)
    firsts = [next((t for t, layer in enumerate(_layers(table)) if max(layer) >= 1 << 61), None)
              for table in family]
    assert firsts == [58, 46, None]
    assert [table.max_length for table in family] == [64, 60, 5]


def test_family_of_mixed_girths_is_refused(monkeypatch):
    def no_geometry(self):
        raise AssertionError("geometry built for a refused family")

    monkeypatch.setattr(CountTable, "_build_geometry", no_geometry)
    tables = [CountTable.sized(Z, (3, 2), girth, (5, 7), sources=[(0, 0)]) for girth in (2, 1)]
    with pytest.raises(ValueError, match="girth"):
        fill_tables(tables)


def _assert_setup_matches_reference(table):
    ref = _PerPointTable(table.region, table.target, table.girth, table.lengths, sources=table.sources)
    assert (table._npts, table._nrows, table._band) == (ref._npts, ref._nrows, ref._band)
    assert list(table._pid.items()) == list(ref._pid.items())  # the pid order too
    assert table._target_pid == ref._target_pid
    for name in ("_dist_target", "_dist_source"):
        got, want = getattr(table, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert table._rows == ref._rows
    assert [s if s is None else list(s) for s in table._succ] == [s if s is None else list(s) for s in ref._succ]
    assert _assert_layers_match_reference(table) == _layers(ref)


@st.composite
def _setup_instances(draw):
    """A region of each class with array membership, a target and sources in it, and lengths."""
    pt = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    kind = draw(st.sampled_from(("full", "box", "points", "aztec")))
    if kind == "full":
        region = Z
    elif kind == "box":
        lo = draw(pt)
        region = LatticeBox(lo, (lo[0] + draw(st.integers(0, 5)), lo[1] + draw(st.integers(0, 5))))
    elif kind == "points":
        region = PointSetRegion(draw(st.sets(pt, min_size=1, max_size=40)))
    else:
        region = AztecRegion(draw(st.integers(1, 4)))
    members = [p for p in box_points(LatticeBox(Point(-5, -5), Point(5, 5))) if p in region]
    target = draw(st.sampled_from(members))
    sources = draw(st.lists(st.sampled_from(members), min_size=1, max_size=4))
    lengths = draw(st.lists(st.integers(0, 10), min_size=1, max_size=3))
    return region, target, draw(st.integers(1, 3)), lengths, sources


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_setup_instances())
def test_setup_matches_per_point_reference(inst):
    region, target, girth, lengths, sources = inst
    _assert_setup_matches_reference(CountTable(region, target, girth, lengths, sources=sources))


@pytest.mark.parametrize("c", [2, 3])
def test_family_setup_matches_per_point_reference(c):
    # the multi-source tables over the interior of A_3' plus each target
    tables = {id(e.table): e.table for e in partition_family(3, OmegaParams(c, 0.5), girth=2)}
    assert max(len(table.sources) for table in tables.values()) > 1
    for table in tables.values():
        _assert_setup_matches_reference(table)


@st.composite
def _dp_instances(draw):
    """A small box or holed point-set region, girth 1..3, and a nonempty source set.

    The sources are one point, a few, or the whole region.  With one source
    the band's two ends come from the same source-target distance, so only
    several sources at different distances check that each end takes the
    right one.
    """
    w, h = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    box_pts = [(x, y) for x in range(w + 1) for y in range(h + 1)]
    if draw(st.booleans()):
        region = LatticeBox(Point(0, 0), Point(w, h))
        pts = box_pts
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(box_pts), max_size=len(box_pts)))
        pts = [p for p, k in zip(box_pts, keep) if k]
        assume(len(pts) >= 2)
        region = PointSetRegion(pts)
    girth = draw(st.integers(1, 3))
    target = Point(*draw(st.sampled_from(pts)))
    kind = draw(st.sampled_from(("one", "few", "all")))
    if kind == "one":
        origin = Point(*draw(st.sampled_from(pts)))
        sources = [origin]
        d = abs(origin.x - target.x) + abs(origin.y - target.y)
        lengths = [d + 2 * j for j in range(draw(st.integers(0, 2)) + 1)]
    else:
        sources = pts if kind == "all" else draw(st.lists(st.sampled_from(pts), min_size=2, max_size=4))
        lengths = draw(st.lists(st.integers(0, 7), min_size=1, max_size=3))
    return region, pts, girth, target, {Point(*p) for p in sources}, lengths


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_dp_instances())
def test_dp_matches_oracle_on_small_regions(inst):
    """Every count the table answers equals a brute-force or top-down count.

    A cell is keyed by a window's class, not the window; this checks every
    window of every class, short windows that are not walks from a source
    included, against a top-down count over the window's points.
    """
    region, pts, girth, target, sources, lengths = inst
    table = CountTable(region, target, girth, lengths, sources=sources)
    for start in map(Point._make, pts):
        for length in table.lengths:
            want = enumerate_low_girth_walks(region, start, target, length, girth).count
            d = abs(start.x - target.x) + abs(start.y - target.y)
            if start in sources or length == 0 or d > length or (d - length) % 2:
                assert table.count_from(start, length) == want
            else:  # a reachable start that is not a source
                with pytest.raises(TableDomainError):
                    table.count_from(start, length)
    windows = _reference_windows(girth)
    memo = {}
    answered = 0
    for x, y in pts:
        for w, (offsets, _) in windows.items():
            history = [(x + dx, y + dy) for dx, dy in reversed(offsets)]
            if not all(p in region for p in history):
                continue
            moves = "".join(DIRECTIONS[d] for d in w)
            for t in range(table.max_length + 1):
                try:
                    got = table.completion_count((x, y), moves, t)
                except ValueError:  # TableDomainError, or a point or window outside the box
                    continue
                want = _reference_counts(region, None, target, girth, t, memo, history)
                assert got == want, (x, y, moves, t)
                answered += 1
    assert answered
