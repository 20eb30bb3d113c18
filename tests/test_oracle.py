import pytest

from sawkit.aztec import OmegaParams
from sawkit.lattice import FullLattice, LatticeBox, Point
from sawkit.oracle import (
    _chi2_sf,
    enumerate_low_girth_walks,
    enumerate_partitions,
    enumerate_saws,
    enumerate_walks,
    low_girth_walk_counts,
    saw_counts,
    uniformity_test,
)

Z = FullLattice()


def test_saw_counts():
    assert enumerate_saws(Z, Point(0, 0), Point(1, 1), 2).count == 2
    assert enumerate_saws(Z, Point(0, 0), Point(1, 1), 4).count == 4
    assert enumerate_saws(Z, Point(0, 0), Point(2, 1), 3).count == 3


def test_low_girth_counts():
    assert enumerate_low_girth_walks(Z, Point(0, 0), Point(1, 0), 3, 1).count == 2
    # with 2l >= length the girth restriction collapses to self-avoidance
    assert (
        enumerate_low_girth_walks(Z, Point(0, 0), Point(1, 1), 4, 2).count
        == enumerate_saws(Z, Point(0, 0), Point(1, 1), 4).count
    )
    assert enumerate_low_girth_walks(Z, Point(0, 0), Point(0, 0), 0, 1).count == 1


@pytest.mark.parametrize("region", [Z, LatticeBox(Point(-1, -1), Point(3, 2))], ids=["z2", "box"])
def test_counts_by_length_match_the_enumerations(region):
    """One DFS over a set of lengths counts what one enumeration per length lists."""
    end, lengths = Point(2, 1), [3, 5, 7, 9]
    for girth in (1, 2, 3):
        assert low_girth_walk_counts(region, Point(0, 0), end, lengths, girth) == {
            n: enumerate_low_girth_walks(region, Point(0, 0), end, n, girth).count for n in lengths
        }
    assert saw_counts(region, Point(0, 0), end, lengths) == {
        n: enumerate_saws(region, Point(0, 0), end, n).count for n in lengths
    }
    with pytest.raises(ValueError):
        saw_counts(region, Point(0, 0), end, [3, 17])
    with pytest.raises(ValueError):
        low_girth_walk_counts(region, Point(0, 0), end, lengths, 0)


def test_enumeration_is_deterministic_and_duplicate_free():
    res = enumerate_saws(Z, Point(0, 0), Point(2, 2), 6)
    moves = [w.moves for w in res.items]
    assert moves == sorted(set(moves), key=moves.index)
    again = enumerate_saws(Z, Point(0, 0), Point(2, 2), 6)
    assert [w.moves for w in again.items] == moves
    # fixed DFS order U, R, D, L makes the first walk the lexicographically U-first one
    assert moves[0].startswith("U")


def test_cap_is_a_hard_error():
    with pytest.raises(ValueError):
        enumerate_saws(Z, Point(0, 0), Point(1, 0), 17)
    with pytest.raises(ValueError):
        enumerate_partitions(5, OmegaParams(2, 0.5))


def test_region_restriction():
    corridor = LatticeBox(Point(0, -1), Point(1, 1))
    assert enumerate_saws(corridor, Point(0, 0), Point(1, 0), 5).count == 0
    assert enumerate_low_girth_walks(corridor, Point(0, 0), Point(1, 0), 5, 1).count == 2


def test_partition_engines_agree_at_small_k():
    from sawkit.oracle import _partitions_by_paths, _partitions_by_subsets

    for k, budget in ((1, 6), (1, 7), (2, 12), (2, 14)):
        subsets = {p.class1 for p in _partitions_by_subsets(k, budget)}
        paths = {p.class1 for p in _partitions_by_paths(k, budget)}
        assert subsets == paths


def _partitions_by_all_paths(k: int, budget: int):
    """The unpruned path enumeration: every self-avoiding walk between boundary points, boundary visits and all."""
    from sawkit.aztec import AztecRegion, boundary_vertices, path_to_partition
    from sawkit.lattice import Walk
    from sawkit.oracle import _self_avoiding, _walk_dfs

    bpts = sorted(boundary_vertices(k))
    out = set()
    for i, s in enumerate(bpts):
        for moves in _walk_dfs(AztecRegion(k), s, bpts[i + 1 :], range(1, budget - 4 * k + 1), _self_avoiding):
            try:
                part = path_to_partition(k, Walk(s, moves))
            except ValueError:
                continue
            if max(part.boundary_sizes) <= budget:
                out.add(part)
    return out


@pytest.mark.parametrize("C", [2, 3])
def test_pruned_path_engine_matches_unpruned_at_k3(C):
    from sawkit.oracle import _partitions_by_paths

    budget = OmegaParams(C, 0.5).budget(3)
    pruned = _partitions_by_paths(3, budget)
    assert len(set(pruned)) == len(pruned)
    assert set(pruned) == _partitions_by_all_paths(3, budget)


def test_uniformity_test_balanced():
    rep = uniformity_test(["a", "b"] * 500, ["a", "b"])
    assert rep["max_dev_sigmas"] == 0.0
    assert rep["dof"] == 1


def test_uniformity_test_flags_concentration():
    rep = uniformity_test(["a"] * 1000, ["a", "b"])
    assert rep["max_dev_sigmas"] > 4.0
    assert rep["p_value"] < 1e-4


def test_uniformity_test_rejects_outside_support():
    with pytest.raises(ValueError):
        uniformity_test(["a", "c"], ["a", "b"])


# (x, dof, P(X >= x)) from scipy.stats.chi2.sf, the tail the closed form replaced
@pytest.mark.parametrize(
    "x,dof,p",
    [
        (3.84, 1, 0.05004352124870519),
        (914.0, 1, 8.880038904154943e-201),
        (5.0, 2, 0.0820849986238988),
        (7.0, 3, 0.07189777249646509),
        (200.0, 199, 0.4667457435013782),
        (282.0, 199, 9.803585328035877e-05),
        (1000.0, 999, 0.48513148927490146),
        (3014.0, 999, 8.78249176167669e-201),
    ],
)
def test_chi2_tail_matches_pinned_values(x, dof, p):
    assert _chi2_sf(x, dof) == pytest.approx(p, rel=1e-9)

