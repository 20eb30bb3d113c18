"""The bitmask partition geometry against brute-force recounts."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawkit.aztec import (
    AztecRegion,
    OmegaParams,
    Partition,
    _Diamond,
    _dual_edge_to_primal,
    boundary_vertices,
    dual_vertices,
    make_partition,
    partition_to_path,
    path_to_partition,
    staircase_partition,
)
from sawkit.glauber import _flip, enumerate_omega, glauber_step, make_chain
from sawkit.lattice import LatticeBox, Point, Walk
from sawkit.oracle import _self_avoiding, _walk_dfs
from sawkit.sampling import RngStream
from helpers import box_points

OFFSETS = ((2, 0), (-2, 0), (0, 2), (0, -2))


def _boundary(cls) -> int:
    """Dual edges from cls to anything outside it, counted one vertex at a time."""
    return sum(1 for a, b in cls for da, db in OFFSETS if (a + da, b + db) not in cls)


def _connected(cls) -> bool:
    cls = set(cls)
    if not cls:
        return False
    start = next(iter(cls))
    seen, stack = {start}, [start]
    while stack:
        a, b = stack.pop()
        for da, db in OFFSETS:
            u = (a + da, b + db)
            if u in cls and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(cls)


def _diamond_points(k) -> list[Point]:
    """The points of A_k', x-major as a box scan lists them."""
    return [p for p in box_points(LatticeBox((-k, -k), (k, k))) if p in AztecRegion(k)]


@cache
def _primal_to_dual(k):
    """Every primal edge of A_k', smaller end first, -> the (i, j) bits of the dual edge it crosses."""
    d = _Diamond.get(k)
    out = {}
    for i, v in enumerate(d.verts):
        for u in ((v[0] + 2, v[1]), (v[0], v[1] + 2)):
            j = d.index.get(u)
            if j is not None:
                out[_dual_edge_to_primal(v, u)] = (i, j)
    return out


def test_every_primal_edge_crosses_one_dual_edge():
    # the per-column tables name, for every primal edge, the dual edge it crosses
    for k in (1, 2, 3, 4):
        region = AztecRegion(k)
        d = _Diamond.get(k)
        to_dual = _primal_to_dual(k)
        edges = {(p, q) for p in _diamond_points(k) for q in (Point(p.x + 1, p.y), Point(p.x, p.y + 1)) if q in region}
        assert set(to_dual) == edges and len(set(to_dual.values())) == len(edges)
        # column c is col_prefix[c + 1] ^ col_prefix[c]: the prefixes are nested and run from 0 to all_mask
        assert len(d.col_prefix) == 2 * k + 1 and d.col_prefix[0] == 0 and d.col_prefix[-1] == d.all_mask
        assert all(lo & hi == lo for lo, hi in zip(d.col_prefix, d.col_prefix[1:]))
        cols = [hi ^ lo for lo, hi in zip(d.col_prefix, d.col_prefix[1:])]
        assert sum(m.bit_count() for m in cols) == d.n
        assert sum(cols) == d.all_mask
        for c, m in enumerate(cols):
            assert d.verts_of(m) == [v for v in d.verts if v[0] == 2 * (c - k) + 1]
        for (p, q), (i, j) in to_dual.items():
            if q.y == p.y:  # crosses a vertical dual edge, bits i and i + 1 of one column
                assert (i, j) == (d.cross_bits[p.x + k] + p.y, d.cross_bits[p.x + k] + p.y + 1)
                assert any((m >> i & 1) and (m >> j & 1) for m in cols)
            elif p.y == 0:  # the row-1 dual edge between columns p.x + k - 1 and p.x + k
                assert (i, j) == (d.cross_bits[p.x + k - 1] + 1, d.cross_bits[p.x + k] + 1)
                assert d.verts[i][1] == d.verts[j][1] == 1
        for s, keep in d.prefix_steps:
            for m in cols:
                low = m & -m
                assert keep & m == m & ~(low * ((1 << s) - 1))


def _reference_path_to_partition(k: int, walk: Walk) -> Partition:
    """The flood-fill path_to_partition: cut the crossed dual edges, then fill both sides."""
    pts = walk.points()
    if len(pts) < 2:
        raise ValueError("walk must have at least one edge")
    d = _Diamond.get(k)
    if any(abs(x) + abs(y) > k for x, y in pts):
        raise ValueError("walk leaves the diamond")
    if len(set(pts)) != len(pts):
        raise ValueError("walk must be self-avoiding")
    for endpoint in (pts[0], pts[-1]):
        if abs(endpoint.x) + abs(endpoint.y) != k:
            raise ValueError(f"endpoint {endpoint} not on the diamond boundary")
    nbr_masks = d.nbr_masks.copy()
    to_dual = _primal_to_dual(k)
    for p, q in zip(pts, pts[1:]):
        i, j = to_dual[(p, q) if p < q else (q, p)]
        nbr_masks[i] &= ~(1 << j)
        nbr_masks[j] &= ~(1 << i)

    def fill(seed, within):
        comp = frontier = seed
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                grow |= nbr_masks[b.bit_length() - 1]
                frontier ^= b
            frontier = grow & within & ~comp
            comp |= frontier
        return comp

    c1 = fill(d.anchor_bit, d.all_mask)
    rest = d.all_mask ^ c1
    if not rest or fill(rest & -rest, rest) != rest:
        raise ValueError("walk does not induce a 2-partition")
    return Partition(k, c1, (d.boundary_size(c1), d.boundary_size(rest)))


def _outcome(f, k, walk):
    try:
        return f(k, walk)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("k, walks", [(1, 12), (2, 524), (3, 53508)])
def test_path_to_partition_matches_flood_fill_on_every_short_walk(k, walks):
    # every boundary-to-boundary self-avoiding walk of at most 14 moves, touching the boundary mid-path or not
    bpts = boundary_vertices(k)
    region = AztecRegion(k)
    seen = raised = 0
    for s in bpts:
        for moves in _walk_dfs(region, s, [t for t in bpts if t != s], range(1, 15), _self_avoiding):
            walk = Walk(s, moves)
            got = _outcome(path_to_partition, k, walk)
            assert got == _outcome(_reference_path_to_partition, k, walk), walk.to_text()
            seen += 1
            raised += isinstance(got, str)
    assert seen == walks
    assert 0 < raised < walks or k == 1


def test_path_to_partition_matches_flood_fill_on_every_one_and_two_move_walk():
    # from every point, boundary or not, in every direction: steps off each edge of the diamond included
    for k in (1, 2, 3, 4):
        for start in _diamond_points(k):
            for moves in [a + b for a in "URDL" for b in ("", *"URDL")]:
                walk = Walk(start, moves)
                got = _outcome(path_to_partition, k, walk)
                assert got == _outcome(_reference_path_to_partition, k, walk), (k, walk.to_text())


def test_path_to_partition_inverts_partition_to_path_both_ways():
    # the closing arc differs with the walk's direction and with the halves its ends lie on
    params = OmegaParams(3, 0.5)
    for k in (1, 2, 3, 4):
        omega = enumerate_omega(k, params)
        lower_ends = 0
        for p in omega:
            walk = partition_to_path(p)
            back = Walk(walk.end, walk.moves[::-1].translate(str.maketrans("URDL", "DLUR")))
            assert back.points() == walk.points()[::-1]
            assert path_to_partition(k, walk) == p
            assert path_to_partition(k, back) == p
            lower_ends += (walk.start.y <= 0) + (walk.end.y <= 0)
        assert 0 < lower_ends < 2 * len(omega)


_STEPS = st.lists(st.tuples(st.integers(0, 99), st.booleans()), min_size=1, max_size=60)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(k=st.integers(4, 8), start=st.integers(0, 10**6), on_boundary=st.integers(0, 3), steps=_STEPS)
def test_path_to_partition_matches_flood_fill_on_random_walks(k, start, on_boundary, steps):
    """Random walks in A_k': mostly self-avoiding ones that may stop at, or run on past, a boundary point;
    now and then a step to any neighbour, which may revisit a point or leave the diamond."""
    pool = boundary_vertices(k) if on_boundary else _diamond_points(k)
    x, y = first = pool[start % len(pool)]
    visited = {(x, y)}
    moves = []
    for pick, stop in steps:
        nbrs = [(m, (x + dx, y + dy)) for m, (dx, dy) in zip("URDL", ((0, 1), (1, 0), (0, -1), (-1, 0)))]
        fresh = [(m, q) for m, q in nbrs if q not in visited and abs(q[0]) + abs(q[1]) <= k]
        choices = fresh if fresh and pick < 97 else nbrs
        m, (x, y) = choices[pick % len(choices)]
        moves.append(m)
        visited.add((x, y))
        if abs(x) + abs(y) > k or (stop and abs(x) + abs(y) == k):
            break
    walk = Walk(first, "".join(moves))
    assert _outcome(path_to_partition, k, walk) == _outcome(_reference_path_to_partition, k, walk)


def test_boundary_sizes_and_round_trip_exhaustive():
    params = OmegaParams(3, 0.5)
    for k in (1, 2, 3):
        verts = dual_vertices(k)
        d = _Diamond.get(k)
        omega = enumerate_omega(k, params)
        assert omega
        for p in omega:
            c1 = p.class1
            c2 = verts - c1
            assert p.class2 == c2
            assert p.boundary_sizes == (_boundary(c1), _boundary(c2))
            assert d.boundary_size(p.mask) == _boundary(c1)
            assert path_to_partition(k, partition_to_path(p)) == p
            assert make_partition(k, c1) == p


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(k=st.integers(3, 6), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 3000))
def test_flip_valid_matches_recount(k, seed, steps):
    params = OmegaParams(2.0, 0.5)
    d = _Diamond.get(k)
    budget = params.budget(k)
    state = make_chain(k, params, staircase_partition(k), RngStream(seed))
    for _ in range(steps):
        glauber_step(state)
    m = state.mask
    assert (state.b_mask, state.b_comp) == (_boundary(d.verts_of(m)), _boundary(d.verts_of(d.all_mask ^ m)))
    for v in range(d.n):
        inside = m >> v & 1
        res = _flip(d, budget, m, state.b_mask, state.b_comp, v)
        leaving = set(d.verts_of(m if inside else d.all_mask ^ m)) - {d.verts[v]}
        joining = set(d.verts) - leaving
        sizes = (_boundary(leaving), _boundary(joining))
        valid = _connected(leaving) and _connected(joining) and max(sizes) <= budget
        assert (res is not None) == valid
        if res is not None:
            assert res == (sizes if inside else sizes[::-1])
