"""The bitmask partition geometry against brute-force recounts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sawkit.aztec import (
    OmegaParams,
    _Diamond,
    aztec_region,
    dual_vertices,
    make_partition,
    partition_to_path,
    path_to_partition,
    staircase_partition,
)
from sawkit.glauber import _flip_valid, enumerate_omega, glauber_step, make_chain
from sawkit.lattice import Point
from sawkit.sampling import RngStream

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


def test_every_primal_edge_crosses_one_dual_edge():
    for k in (1, 2, 3, 4):
        region = aztec_region(k)
        edges = {(p, q) for p in region.points() for q in (Point(p.x + 1, p.y), Point(p.x, p.y + 1)) if q in region}
        d = _Diamond.get(k)
        assert set(d.primal_to_dual) == edges
        assert len(set(d.primal_to_dual.values())) == len(edges)


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
        b_in, b_out = (state.b_mask, state.b_comp) if inside else (state.b_comp, state.b_mask)
        res = _flip_valid(d, budget, m, b_in, b_out, v)
        leaving = set(d.verts_of(m if inside else d.all_mask ^ m)) - {d.verts[v]}
        joining = set(d.verts) - leaving
        sizes = (_boundary(leaving), _boundary(joining))
        valid = _connected(leaving) and _connected(joining) and max(sizes) <= budget
        assert (res is not None) == valid
        if res is not None:
            assert res == sizes
