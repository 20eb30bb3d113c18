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
    boundary_vertices,
    dual_vertices,
    make_partition,
    partition_family,
    partition_to_path,
    path_to_partition,
    sample_partition,
    staircase_partition,
)
from sawkit.glauber import glauber_step, make_chain
from sawkit.lattice import MOVES, LatticeBox, Point, Walk
from sawkit.oracle import _self_avoiding, _walk_dfs
from sawkit.sampling import RngStream
from helpers import box_points, cut_edges, flip, omega, primal_edges

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
    return {edge: (i, j) for i, j, edge in primal_edges(k)}


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
            else:  # the dual edge of row p.y + 1 between columns p.x + k - 1 and p.x + k
                assert (i, j) == (d.cross_bits[p.x + k - 1] + p.y + 1, d.cross_bits[p.x + k] + p.y + 1)
                assert d.verts[i][1] == d.verts[j][1] == 2 * p.y + 1
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


def _outcome(f, *args):
    try:
        return f(*args)
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
    for k in (1, 2, 3, 4):
        space = omega(k, 3)
        lower_ends = 0
        for p in space:
            walk = partition_to_path(p)
            back = Walk(walk.end, walk.moves[::-1].translate(str.maketrans("URDL", "DLUR")))
            assert back.points() == walk.points()[::-1]
            assert path_to_partition(k, walk) == p
            assert path_to_partition(k, back) == p
            lower_ends += (walk.start.y <= 0) + (walk.end.y <= 0)
        assert 0 < lower_ends < 2 * len(space)


def _reference_partition_to_path(p: Partition) -> Walk:
    """The point-graph partition_to_path: the cut's primal edges as an adjacency dict, walked end to end."""
    edges = cut_edges(_Diamond.get(p.k), p.mask)
    if not edges:
        raise ValueError("no between-class edges")
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    ends = sorted(q for q, nb in adj.items() if len(nb) == 1)
    if len(ends) != 2 or any(len(nb) > 2 for nb in adj.values()):
        raise ValueError("between-class edges do not form a single path")
    cur, prev, pts = ends[0], None, [ends[0]]
    while cur != ends[1]:
        nxt = [q for q in adj[cur] if q != prev]
        if len(nxt) != 1:
            raise ValueError("between-class edges do not form a single path")
        prev, cur = cur, nxt[0]
        pts.append(cur)
    if len(pts) != len(edges) + 1:
        raise ValueError("between-class edges do not form a single path")
    move_of = {(dx, dy): m for m, dx, dy in MOVES}
    return Walk(pts[0], "".join(move_of[b.x - a.x, b.y - a.y] for a, b in zip(pts, pts[1:])))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("C", [2, 3])
def test_partition_to_path_matches_point_graph_walk_on_omega(k, C):
    for p in omega(k, C):
        assert partition_to_path(p) == _reference_partition_to_path(p)


def test_partition_to_path_matches_point_graph_walk_on_samples():
    k, params, girth = 8, OmegaParams(2, 0.5), 2
    family = partition_family(k, params, girth)
    rng = RngStream(8)
    for _ in range(2_000):
        p, _ = sample_partition(k, params, girth, rng, family=family)
        assert partition_to_path(p) == _reference_partition_to_path(p)


@pytest.mark.parametrize("k", range(1, 9))
def test_partition_to_path_matches_point_graph_walk_on_any_mask(k):
    """Masks of a cut from (-k, 0) to (k, 0), and one in four uniform, each then with up to three bits
    flipped: open cuts, cuts touching the boundary between their ends, closed loops and points of degree 4."""
    d = _Diamond.get(k)
    rng = RngStream(k)
    cols = [hi ^ lo for lo, hi in zip(d.col_prefix, d.col_prefix[1:])]
    masks = [0, d.all_mask]
    while len(masks) < 10_000:
        if rng.uniform_int(4) == 0:
            mask = rng.getrandbits(d.n)
        else:  # class 1 is the lowest 1 to h - 1 faces of each column of h faces
            mask = sum(((1 << rng.uniform_int(col.bit_count() - 1) + 1) - 1) * (col & -col) for col in cols)
        for _ in range(rng.uniform_int(4)):
            mask ^= 1 << rng.uniform_int(d.n)
        masks.append(mask)
    got = [_outcome(partition_to_path, Partition(k, m, (0, 0))) for m in masks]
    assert got == [_outcome(_reference_partition_to_path, Partition(k, m, (0, 0))) for m in masks]
    walks = sum(isinstance(g, Walk) for g in got)
    assert got.count("no between-class edges") >= 2 and 0 < walks < len(got)


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
    for k in (1, 2, 3):
        verts = dual_vertices(k)
        d = _Diamond.get(k)
        space = omega(k, 3)
        assert space
        for p in space:
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
        res = flip(d, budget, m, state.b_mask, state.b_comp, v)
        leaving = set(d.verts_of(m if inside else d.all_mask ^ m)) - {d.verts[v]}
        joining = set(d.verts) - leaving
        sizes = (_boundary(leaving), _boundary(joining))
        valid = _connected(leaving) and _connected(joining) and max(sizes) <= budget
        assert (res is not None) == valid
        if res is not None:
            assert res == (sizes if inside else sizes[::-1])
