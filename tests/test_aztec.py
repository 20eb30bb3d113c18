import math
from collections import Counter
from statistics import NormalDist

import pytest

from sawkit.aztec import (
    AztecRegion,
    _Diamond,
    OmegaParams,
    arc_gap,
    boundary_vertices,
    dual_vertices,
    in_omega,
    make_partition,
    outer_boundary_edge_count,
    partition_family,
    partition_to_path,
    path_to_partition,
    sample_partition,
    staircase_partition,
    width_certificate,
)
from sawkit.cli import main
from sawkit.counting import CountTable, ResourceLimitError, _family_bytes
from sawkit.glauber import enumerate_omega
from sawkit.lattice import LatticeBox, Point, Walk, manhattan
from sawkit.sampling import RngStream
from helpers import box_points, omega


def test_region_counts():
    box = LatticeBox(Point(-3, -3), Point(3, 3))
    assert sum(p in AztecRegion(1) for p in box_points(box)) == 5
    assert len(boundary_vertices(1)) == 4
    assert sum(p in AztecRegion(2) for p in box_points(box)) == 13
    assert len(boundary_vertices(2)) == 8


def test_dual_vertex_counts():
    assert len(dual_vertices(1)) == 4
    assert len(dual_vertices(2)) == 12
    assert len(dual_vertices(4)) == 40
    for k in range(1, 13):
        assert len(dual_vertices(k)) == 2 * k * (k + 1)


def test_anchor_is_bit_zero():
    for k in range(1, 13):
        d = _Diamond(k)
        assert d.anchor_bit == 1 << d.index[min(dual_vertices(k))] == 1


def test_outer_boundary_edges():
    for k in (1, 2, 5, 12):
        assert outer_boundary_edge_count(k) == 8 * k


def test_k1_bijection_by_hand():
    w = Walk(Point(-1, 0), "RR")
    p = path_to_partition(1, w)
    assert p.boundary_sizes == (6, 6)
    assert {p.class1, p.class2} == {frozenset({(-1, 1), (1, 1)}), frozenset({(-1, -1), (1, -1)})}
    assert min(dual_vertices(1)) in p.class1
    assert partition_to_path(p).to_text() == w.to_text()


def test_paper_figure_path_k4():
    walk = Walk(Point(-2, -2), "UURURRRU")
    part = path_to_partition(4, walk)
    assert part.boundary_sizes == (24, 24)
    assert partition_to_path(part).to_text() == walk.to_text()


def test_path_to_partition_errors():
    with pytest.raises(ValueError):
        path_to_partition(2, Walk(Point(0, 0), "R"))  # interior endpoints
    with pytest.raises(ValueError):
        path_to_partition(2, Walk(Point(-2, 0), "RLRL"))  # not self-avoiding
    # touching boundary mid-path can pinch off extra components
    with pytest.raises(ValueError):
        path_to_partition(2, Walk(Point(2, 0), "LULU"))


def test_partition_validation():
    with pytest.raises(ValueError):
        make_partition(1, set())  # empty class
    with pytest.raises(ValueError):
        make_partition(2, {(-3, -1), (3, 1)})  # disconnected class
    with pytest.raises(ValueError):
        make_partition(2, {(-1, -1), (-1, 1), (1, -1), (1, 1)})  # ring complement splits
    enclosed = make_partition(3, {(-1, -1), (-1, 1), (1, -1), (1, 1)})
    with pytest.raises(ValueError):
        partition_to_path(enclosed)  # cut is a cycle, not a path


def test_edge_boundary_identity():
    # sum of class boundaries = 8k + 2 * cut size
    for k in (1, 2):
        for p in omega(k, 2):
            cut = len(partition_to_path(p))
            assert sum(p.boundary_sizes) == 8 * k + 2 * cut


def test_in_omega():
    params = OmegaParams(0.5, 1.0)  # slack 0: budget exactly 6k
    w = Walk(Point(-1, 0), "RR")
    assert in_omega(path_to_partition(1, w), params)
    corner = path_to_partition(2, Walk(Point(2, 0), "LU"))
    assert max(corner.boundary_sizes) > OmegaParams(0.5, 1.0).budget(2)
    assert not in_omega(corner, OmegaParams(0.5, 1.0))


def test_no_partition_beats_6k():
    # exhaustively at k=2: a budget below 6k admits nothing
    from sawkit.oracle import enumerate_partitions

    assert enumerate_partitions(2, OmegaParams(2, 0.5), budget=11).count == 0
    assert enumerate_partitions(2, OmegaParams(2, 0.5), budget=12).count > 0


def test_width_certificate_antipodal():
    params = OmegaParams(1, 0.5)
    rep = width_certificate(8, params, Point(-8, 0), Point(8, 0), 2)
    assert rep.admissible and rep.certified
    assert rep.bound == 16 * 2 + 4 * params.slack(8)
    assert rep.boundary_points <= rep.bound


def test_width_certificate_aligned_pair():
    params = OmegaParams(1, 0.5)
    rep = width_certificate(8, params, Point(1, -7), Point(1, 7), 0)
    assert rep.admissible and rep.certified
    assert rep.boundary_points <= 4 * params.slack(8) + 4


def test_width_certificate_counts_the_diamond_boundary_in_the_box():
    params = OmegaParams(2, 0.5)
    for k in (1, 2, 3, 5):
        bpts = boundary_vertices(k)
        for p1 in bpts:
            for p2 in bpts:
                for ell in range(3):
                    lo = (min(p1.x, p2.x) - ell, min(p1.y, p2.y) - ell)
                    hi = (max(p1.x, p2.x) + ell, max(p1.y, p2.y) + ell)
                    want = sum(
                        1
                        for x in range(lo[0], hi[0] + 1)
                        for y in range(lo[1], hi[1] + 1)
                        if abs(x) + abs(y) == k
                    )
                    assert width_certificate(k, params, p1, p2, ell).boundary_points == want, (k, p1, p2, ell)


def test_width_certificate_inadmissible_pair():
    # corner-to-corner pairs violate the nearly-antipodal conditions
    params = OmegaParams(1, 0.5)
    rep = width_certificate(8, params, Point(8, 0), Point(0, 8), 0)
    assert not rep.admissible and not rep.certified
    with pytest.raises(ValueError):
        width_certificate(8, params, Point(0, 0), Point(8, 0), 1)


def test_staircase_partition():
    for k in (2, 3, 4, 8):
        p = staircase_partition(k)
        assert in_omega(p, OmegaParams(2, 0.5))
        assert len(partition_to_path(p)) == 2 * k


def test_sample_partition_k1():
    params = OmegaParams(0.5, 1.0)  # budget 6: exactly the two antipodal cuts
    omega = enumerate_omega(1, params)
    assert len(omega) == 2
    rng = RngStream(42)
    fam = partition_family(1, params, girth=2)
    seen = Counter()
    for _ in range(2000):
        part, _ = sample_partition(1, params, 2, rng, family=fam)
        seen[part.class1] += 1
    assert set(seen) == {p.class1 for p in omega}
    assert abs(seen.most_common()[0][1] / 2000 - 0.5) < 4 * math.sqrt(0.25 / 2000)


def test_sample_partition_stays_in_omega():
    params = OmegaParams(2, 0.5)
    fam = partition_family(2, params, girth=2)
    rng = RngStream(43)
    for _ in range(200):
        part, rep = sample_partition(2, params, 2, rng, family=fam)
        assert in_omega(part, params)
        assert rep.attempts >= 1


def _tables(fam):
    """The distinct tables a family's cells read, in family order."""
    return list({id(e.table): e.table for e in fam}.values())


@pytest.mark.parametrize("k, C", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_boundary_path_facts_hold_on_omega(k, C):
    # the two facts the family prunes by, on every partition of Omega
    boundary = set(boundary_vertices(k))
    for p in omega(k, C):
        pts = partition_to_path(p).points()
        assert boundary.isdisjoint(pts[1:-1])
        L, m = len(pts) - 1, arc_gap(k, pts[0], pts[-1])
        assert sorted(p.boundary_sizes) == sorted((L + 2 * m, L + 2 * (4 * k - m)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_weight_is_omega_at_girth_2(k):
    # girth 2 and slack <= 4 leave no room for a cycle: every walk is accepted
    fam = partition_family(k, OmegaParams(2, 0.5), girth=2)
    assert sum(e.count for e in fam) == len(omega(k, 2))


@pytest.mark.parametrize("C, k, l_star, size", [(2, 3, 1, 238), (3, 3, 2, 526), (2, 4, 2, 6206), (3, 4, 3, 15438)])
def test_family_weight_is_omega_at_l_star(C, k, l_star, size):
    """The Omega fact: at l*, half the largest excess L - d(s, t) of the family's cells, W(l*) = |Omega|."""
    params = OmegaParams(C, 0.5)
    excess = [e.length + 1 - manhattan(*e.label[0]) for e in partition_family(k, params, girth=1)]
    assert max(excess) == 2 * l_star
    assert partition_family(k, params, l_star).cumulative[-1] == len(omega(k, C)) == size


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_unranks_onto_omega(k):
    """Every (cell, index) of the girth-2 family induces its own partition, and together they are Omega."""
    params = OmegaParams(2, 0.5)
    parts = []
    for e in partition_family(k, params, girth=2):
        (s, _), move = e.label
        for index in range(e.count):
            walk = Walk(Point(*s), move + e.table.unrank(e.start, e.length, index))
            assert walk.is_self_avoiding()
            parts.append(path_to_partition(k, walk))
            assert in_omega(parts[-1], params)
    assert len(set(parts)) == len(parts)
    assert set(parts) == set(omega(k, 2))


def _wilson(successes, n, confidence):
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    p = successes / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


@pytest.mark.parametrize("k, C, girth, weight, size", [(3, 3, 1, 802, 526), (4, 2, 1, 8902, 6206)])
def test_acceptance_is_omega_over_family_weight(k, C, girth, weight, size):
    # every walk of Omega is in the family exactly once, so acceptance is |Omega| / W
    params = OmegaParams(C, 0.5)
    fam = partition_family(k, params, girth)
    assert sum(e.count for e in fam) == weight
    assert len(omega(k, C)) == size
    rng = RngStream(7001)
    accepted = 5000
    proposals = sum(sample_partition(k, params, girth, rng, family=fam)[1].attempts for _ in range(accepted))
    lo, hi = _wilson(accepted, proposals, 0.999)
    assert lo <= size / weight <= hi


def test_memory_cap_bounds_the_family(monkeypatch, tmp_path):
    """A cap above every table's own estimate but below the family's refuses the family, before any geometry."""
    k, params = 3, OmegaParams(2, 0.5)
    tables = _tables(partition_family(k, params, girth=2))
    largest, family = max(_family_bytes([t]) for t in tables), _family_bytes(tables)
    assert largest < family
    cap = (largest + family) // 2

    def no_geometry(self):
        raise AssertionError("geometry built before the family's memory cap check")

    monkeypatch.setattr(CountTable, "_build_geometry", no_geometry)
    with pytest.raises(ResourceLimitError, match="tables"):
        partition_family(k, params, girth=2, memory_cap=cap)
    argv = ["aztec", "sample", "--k", "3", "--C", "2", "--eps", "0.5", "--l", "2", "--seed", "1",
            "--out", str(tmp_path / "out"), "--memory-cap", str(cap)]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()


def test_boundary_vertices_sorted_count():
    for k in (1, 2, 5):
        bv = boundary_vertices(k)
        assert len(bv) == 4 * k
        assert bv == sorted(bv)
