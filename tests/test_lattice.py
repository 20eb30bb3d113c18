import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from sawkit.aztec import AztecRegion, _InteriorRegion
from sawkit.lattice import (
    FullLattice,
    LatticeBox,
    Point,
    PointSetRegion,
    Region,
    Walk,
    step,
)


def test_step_unit_displacements():
    assert step(Point(0, 0), "R") == (1, 0)
    assert step(Point(2, 3), "D") == (2, 2)
    assert step(Point(-1, 0), "L") == (-2, 0)


def test_points_of():
    assert Walk(Point(0, 0), "RU").points() == [(0, 0), (1, 0), (1, 1)]
    assert Walk(Point(0, 0), "").points() == [(0, 0)]
    assert Walk(Point(0, 0), "RL").points() == [(0, 0), (1, 0), (0, 0)]


def test_self_avoidance():
    assert Walk(Point(0, 0), "RU").is_self_avoiding()
    assert not Walk(Point(0, 0), "RL").is_self_avoiding()
    assert not Walk(Point(0, 0), "RULD").is_self_avoiding()


def test_walk_rejects_bad_moves():
    with pytest.raises(ValueError):
        Walk(Point(0, 0), "RX")


def test_codec_round_trip():
    for text in ("(0,0)", "(3,-4)URDL", "(-1,2)RRUU"):
        assert Walk.from_text(text).to_text() == text
    with pytest.raises(ValueError):
        Walk.from_text("0,0 RU")


def test_regions_answer_membership():
    regions = (FullLattice(), LatticeBox(Point(0, -1), Point(2, 1)), PointSetRegion([(0, 0), (2, 1)]), AztecRegion(2))
    assert all(isinstance(r, Region) for r in regions)
    probes = [(0, 0), (2, 1), (1, 1), (2, 2), (-2, 0), (3, 0)]
    assert [[p in r for p in probes] for r in regions] == [
        [True] * 6,
        [True, True, True, False, False, False],
        [True, True, False, False, False, False],
        [True, False, True, False, True, False],
    ]


class _Disk(Region):
    """A region that answers only ``__contains__``, so arrays take the base-class fallback."""

    def __contains__(self, p: tuple) -> bool:
        return p[0] ** 2 + p[1] ** 2 <= 10


_ARRAY_REGIONS = [
    FullLattice(),
    LatticeBox(Point(-2, -1), Point(3, 2)),
    PointSetRegion([(0, 0), (2, 1), (-3, 4), (5, -5)]),
    AztecRegion(3),
    _InteriorRegion(3, Point(0, -3)),
    _InteriorRegion(4, Point(2, 2)),
    _Disk(),
]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=60))
def test_contains_array_matches_contains(points):
    xs = np.array([x for x, _ in points], dtype=np.intp)
    ys = np.array([y for _, y in points], dtype=np.intp)
    for region in _ARRAY_REGIONS:
        got = region.contains_array(xs, ys)
        assert got.dtype == bool and got.shape == xs.shape
        assert got.tolist() == [p in region for p in points], region


def test_box_validation():
    with pytest.raises(ValueError):
        LatticeBox(Point(1, 0), Point(0, 0))
    box = LatticeBox.spanning(Point(3, -1), Point(0, 4))
    assert box.lo == (0, -1) and box.hi == (3, 4)


_INVERSE = str.maketrans("URDL", "DLUR")

_move_strings = st.one_of(
    st.text("URDL", max_size=40),
    st.text("URDL", min_size=200, max_size=260),
    # out and back along the same moves: every such walk returns to its start
    st.text("URDL", max_size=120).map(lambda m: m + m[::-1].translate(_INVERSE)),
    # monotone, so self-avoiding, then a short tail that may run into it
    st.tuples(st.text("UR", min_size=200, max_size=260), st.text("URDL", max_size=6)).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), _move_strings)
def test_is_self_avoiding_matches_distinct_points(start, moves):
    """The int encoding of the points agrees with the set of ``points()``."""
    walk = Walk(Point(*start), moves)
    pts = walk.points()
    assert walk.is_self_avoiding() == (len(set(pts)) == len(pts))


def test_walk_rejects_moves_outside_urdl():
    for moves in ("RX", "u", "urdl", "Ur", "R" * 300 + " ", "UR\n", " ", "\t", "U\u00a0R", "\u00dc", "\uff35", "R\u0301"):
        with pytest.raises(ValueError, match="U, R, D, L"):
            Walk(Point(0, 0), moves)
    for moves in (None, 5, b"UR", ["U", "R"], ("U",), bytearray(b"U")):
        with pytest.raises(ValueError, match="U, R, D, L"):
            Walk(Point(0, 0), moves)
