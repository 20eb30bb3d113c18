import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sawkit.lattice import Point, Walk
from sawkit.paths import (
    GoodEdgeMapError,
    base_path,
    bump,
    bumpable_good_edges,
    corner_count,
    good_edge_map,
    is_non_adjacent,
    sample_shortest_path,
    straight_indices,
    straight_pair_count,
    unbump,
)
from sawkit.sampling import RngStream


def test_sample_shortest_path_degenerate():
    rng = RngStream(1)
    assert sample_shortest_path(rng, 1, 0).moves == "R"
    assert sample_shortest_path(rng, 0, 3).moves == "UUU"


def test_sample_shortest_path_two_paths():
    rng = RngStream(2)
    seen = Counter(sample_shortest_path(rng, 1, 1).moves for _ in range(4000))
    assert set(seen) == {"RU", "UR"}
    assert abs(seen["RU"] / 4000 - 0.5) < 4 * math.sqrt(0.25 / 4000)


def test_sample_shortest_path_uniform_over_three():
    rng = RngStream(3)
    n = 30_000
    seen = Counter(sample_shortest_path(rng, 2, 1).moves for _ in range(n))
    p = 1 / 3
    sigma = math.sqrt(p * (1 - p) / n)
    assert set(seen) == {"RRU", "RUR", "URR"}
    for m in seen:
        assert abs(seen[m] / n - p) < 4 * sigma


def test_straight_pair_count():
    assert straight_pair_count(Walk(Point(0, 0), "RRR")) == 2
    assert straight_pair_count(Walk(Point(0, 0), "RURU")) == 0
    assert straight_pair_count(Walk(Point(0, 0), "RRUUR")) == 2


def test_bump_examples():
    w = bump(Walk(Point(0, 0), "RRRRR"), {1, 3, 4})
    assert len(w) == 11 and w.end == (5, 0)
    assert Point(1, -1) in w.points()
    assert bump(Walk(Point(0, 0), "RU"), ()).moves == "RU"
    w2 = bump(Walk(Point(0, 0), "UU"), {2})
    assert w2.moves == "ULUR" and w2.end == (0, 2) and w2.is_self_avoiding()


def test_bump_errors():
    with pytest.raises(ValueError):
        bump(Walk(Point(0, 0), "RU"), {3})
    with pytest.raises(ValueError):
        bump(Walk(Point(0, 0), "RD"), {2})  # only U and R moves can be bumped


def test_unbump():
    assert unbump(Walk(Point(0, 0), "ULUR")).moves == "UU"
    assert unbump(Walk(Point(0, 0), "RURU")).moves == "RURU"
    with pytest.raises(ValueError):
        unbump(Walk(Point(0, 0), "LU"))
    with pytest.raises(ValueError):
        unbump(Walk(Point(0, 0), "DRD"))


@st.composite
def _bumped_paths(draw):
    """A monotone path and a set of pairwise non-adjacent straight indices of it."""
    moves = draw(st.lists(st.sampled_from("RU"), max_size=16))
    b = Walk(Point(0, 0), "".join(moves))
    chosen = []
    for i in straight_indices(b):
        if (not chosen or i - chosen[-1] > 1) and draw(st.booleans()):
            chosen.append(i)
    return b, chosen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_bumped_paths())
def test_bump_unbump_round_trip(case):
    b, m = case
    assert is_non_adjacent(m)
    a = bump(b, m)
    assert len(a) == len(b) + 2 * len(m)
    assert a.end == b.end
    assert a.is_self_avoiding()
    assert unbump(a) == b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_bump_unbump_round_trip_any_indices(data):
    moves = "".join(data.draw(st.lists(st.sampled_from("RU"), max_size=16)))
    w = Walk(Point(0, 0), moves)
    m = data.draw(st.sets(st.integers(1, len(moves)))) if moves else set()
    a = bump(w, m)
    assert len(a) == len(w) + 2 * len(m)
    assert (a.start, a.end) == (w.start, w.end)
    assert unbump(a) == w
    # an L or D that does not begin an LUR or DRU is no bump image
    i = data.draw(st.integers(0, len(a)))
    stray = a.moves[:i] + data.draw(st.sampled_from("LD")) + a.moves[i:]
    assume(stray[i : i + 3] not in ("LUR", "DRU"))
    with pytest.raises(ValueError):
        unbump(Walk(Point(0, 0), stray))


def test_base_path_of_shortest_path_is_itself():
    for moves in ("RRUU", "RURU", "UUU", "R"):
        assert base_path(Walk(Point(0, 0), moves)).moves == moves


def test_base_path_inverts_single_bumps():
    b = Walk(Point(0, 0), "RRRR")
    assert base_path(bump(b, {2})).moves == "RRRR"
    assert base_path(Walk(Point(0, 0), "RDRU")).moves == "RR"


def test_base_path_validation():
    with pytest.raises(ValueError):
        base_path(Walk(Point(1, 0), "RU"))  # start not at origin
    with pytest.raises(ValueError):
        base_path(Walk(Point(0, 0), "RL"))  # not self-avoiding
    with pytest.raises(ValueError):
        base_path(Walk(Point(0, 0), "LL"))  # endpoint outside first quadrant


def test_good_edge_map_examples():
    assert good_edge_map(Walk(Point(0, 0), "RRRR")) == (0, 1, 2, 3)
    assert good_edge_map(Walk(Point(0, 0), "RDRU")) == (0, 2)


def _is_good_edge_map(entries, walk, base) -> bool:
    """One entry per base edge, strictly increasing, each super-parallel to its base edge."""
    if len(entries) != len(base.moves) or any(b <= a for a, b in zip(entries, entries[1:])):
        return False
    apts, bpts = walk.points(), base.points()
    for j, k in enumerate(entries):
        axis = 1 if base.moves[j] == "U" else 0  # a U edge keeps its y, an R edge its x
        if walk.moves[k] != base.moves[j] or apts[k][axis] != bpts[j][axis]:
            return False
    return True


def test_good_edge_map_conditions_on_random_bumps():
    rng = RngStream(5)
    pyrng = random.Random(5)
    for _ in range(500):
        n1, n2 = pyrng.randint(1, 9), pyrng.randint(1, 9)
        b = sample_shortest_path(rng, n1, n2)
        m = []
        for i in straight_indices(b):
            if all(abs(i - j) > 1 for j in m) and pyrng.random() < 0.5:
                m.append(i)
        a = bump(b, m)
        assert _is_good_edge_map(good_edge_map(a), a, base_path(a))


def test_good_edge_map_can_fail_on_adversarial_walks():
    # a walk that loops over the top of a sub-box; no strictly increasing
    # super-parallel assignment exists for its base path
    pts_moves = "DRRRRUUUUULLD" + "R"
    w = Walk(Point(0, 0), pts_moves)
    assert w.is_self_avoiding() and w.end == (3, 3)
    with pytest.raises(GoodEdgeMapError):
        good_edge_map(w)


def test_bumpable_good_edges():
    assert bumpable_good_edges(Walk(Point(0, 0), "RRRR")) == (1, 2, 3, 4)
    assert bumpable_good_edges(Walk(Point(0, 0), "RDRU")) == (3,)


def test_corner_count():
    assert corner_count(Walk(Point(0, 0), "RRR")) == 2
    assert corner_count(Walk(Point(0, 0), "RU")) == 3
    assert corner_count(Walk(Point(0, 0), "RURU")) == 5


def test_non_adjacent_predicate():
    assert is_non_adjacent((2, 4, 9))
    assert not is_non_adjacent((2, 3))


def test_straight_pair_concentration_small():
    # lemma-style bound at n=60 with eps=0.05
    n, eps = 60, 0.05
    threshold = n / 2 - 2 * math.log(n) - math.sqrt(-n * math.log(eps))
    rng = RngStream(6)
    ok = sum(1 for _ in range(400) if straight_pair_count(sample_shortest_path(rng, 30, 30)) >= threshold)
    assert ok >= 0.95 * 400

