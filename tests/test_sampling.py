import copy
import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawkit.aztec import OmegaParams, partition_family
from sawkit.counting import CountTable, build_table
from sawkit.lattice import FullLattice, LatticeBox, Point, PointSetRegion, step
from sawkit.oracle import enumerate_low_girth_walks, uniformity_test
from sawkit.sampling import (
    RngStream,
    SamplingBudgetError,
    make_family,
    sample_length_then_walk,
    sample_low_girth_walk,
    sample_low_girth_walk_from,
    sample_saw,
    unrank_family,
)

Z = FullLattice()


def test_uniform_int_edges():
    rng = RngStream(1)
    assert rng.uniform_int(1) == 0
    with pytest.raises(ValueError):
        rng.uniform_int(0)


def test_uniform_int_small_mean():
    rng = RngStream(2)
    n = 100_000
    mean = sum(rng.uniform_int(2) for _ in range(n)) / n
    assert abs(mean - 0.5) < 4 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 8, 31, 32, 64, 100])
def test_uniform_int_power_of_two_draws_once(m):
    """A bound of 2**m takes exactly one getrandbits(m): every m-bit value is below it."""
    for seed in range(20):
        rng, twin = RngStream(seed), RngStream(seed)
        assert rng.uniform_int(2**m) == twin.getrandbits(m)
        assert rng.getrandbits(64) == twin.getrandbits(64)


def test_uniform_int_huge_bound():
    rng = RngStream(3)
    bound = 10**100
    xs = [rng.uniform_int(bound) for _ in range(10_000)]
    assert all(0 <= x < bound for x in xs)
    # leading-digit frequencies consistent with uniform on [0, 10^100)
    lead = Counter(str(x).zfill(100)[0] for x in xs)
    p = 1 / 10
    sigma = math.sqrt(p * (1 - p) / len(xs))
    assert all(abs(lead.get(d, 0) / len(xs) - p) < 4 * sigma for d in "0123456789")


# the girth-restricted walk count (0,0) -> (100,100) at k=6, l=2: a 233-bit bound
SAW_N200_COUNT = 10966926098348152475368969683325540961436718313493273299841458638298400


def _reference_uniform_int(rng, bound):
    """The draw rule from its statement: (bound - 1).bit_length() bits until below bound."""
    bits = (bound - 1).bit_length()
    while (x := rng.getrandbits(bits)) >= bound:
        pass
    return x


@pytest.mark.parametrize("bound", [1, 2, 3, 144, 255, 256, 257, 2**64 + 1, SAW_N200_COUNT])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_uniform_ints_is_that_many_uniform_ints(bound, count):
    block, single, reference = RngStream(8, 3), RngStream(8, 3), RngStream(8, 3)
    xs = block.uniform_ints(bound, count)
    assert xs == [single.uniform_int(bound) for _ in range(count)]
    assert xs == [_reference_uniform_int(reference, bound) for _ in range(count)]
    # the block consumed exactly the bits of the single draws
    assert block.getrandbits(64) == single.getrandbits(64) == reference.getrandbits(64)


def test_uniform_ints_rejects_bad_arguments():
    rng = RngStream(1)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            rng.uniform_ints(bound, 5)
    with pytest.raises(ValueError, match="count must be >= 0"):
        rng.uniform_ints(144, -1)


def test_rng_streams_deterministic_and_independent():
    a1 = [RngStream(9, 4).getrandbits(32) for _ in range(4)]
    a2 = [RngStream(9, 4).getrandbits(32) for _ in range(4)]
    b = [RngStream(9, 5).getrandbits(32) for _ in range(4)]
    assert a1 == a2
    assert a1 != b


def _stream_bytes(seed: int, stream: int, n: int) -> bytes:
    """The first n bytes of stream (seed, stream) from the format's statement."""
    out, j = b"", 0
    while len(out) < n:
        out += hashlib.shake_256(b"sawkit.rng:%d:%d:%d" % (seed, stream, j)).digest(64 << min(j, 10))
        j += 1
    return out[:n]


def test_stream_format_known_answer():
    rng = RngStream(1, 0)
    assert rng.getrandbits(512).to_bytes(64, "little") == hashlib.shake_256(b"sawkit.rng:1:0:0").digest(64)
    assert rng.getrandbits(8) == hashlib.shake_256(b"sawkit.rng:1:0:1").digest(128)[0]
    # a substream is the stream of the same seed under its own id
    assert RngStream(1, 0).substream(5).getrandbits(64) == RngStream(1, 5).getrandbits(64)


# 64 B, doubling to 64 KiB: blocks 0..9 hold 65,472 bytes and blocks 10 and 11 64 KiB each,
# so a read past 131,008 bytes crosses the first block, every doubling and the cap.
PAST_THE_CAP = 131_008 + 100


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["bits", "bytes"]), st.one_of(st.integers(0, 100), st.integers(0, 40_000)),
                  st.integers(0, 7)),
        min_size=1, max_size=12,
    ),
    st.integers(0, 3),
)
def test_reads_are_split_invariant(reads, seed):
    """Any mix of getrandbits and uniform_ints reads the stream's bytes in order, one block held at a time."""
    total = sum(n for _, n, _ in reads)
    reads = reads + [("bytes", max(0, PAST_THE_CAP - total), 0)]
    want = _stream_bytes(seed, 2, sum(n for _, n, _ in reads))
    rng, pos = RngStream(seed, 2), 0
    for kind, n, drop in reads:
        if kind == "bytes":
            assert bytes(rng.uniform_ints(256, n)) == want[pos : pos + n]
        else:
            # k = 8n - drop bits read n bytes and keep the top k bits
            k = max(0, 8 * n - drop)
            assert rng.getrandbits(k) == int.from_bytes(want[pos : pos + n], "little") >> (8 * n - k)
        pos += n
        assert len(rng._buf) <= 64 << 10
    assert RngStream(seed, 2).getrandbits(8 * pos) == int.from_bytes(want, "little")


def test_zero_bit_draws_read_nothing():
    rng, twin = RngStream(4), RngStream(4)
    assert rng.getrandbits(0) == 0 and rng.uniform_int(1) == 0 and rng.uniform_ints(1, 5) == [0] * 5
    assert rng.getrandbits(64) == twin.getrandbits(64)
    with pytest.raises(ValueError):
        rng.getrandbits(-1)


def test_family_unrank_is_a_bijection():
    """One index below the family total gives each (cell, walk) of the family exactly once."""
    family = partition_family(3, OmegaParams(2, 0.5), girth=2)
    total = family.cumulative[-1]
    got = [unrank_family(family, u) for u in range(total)]
    pairs = {(entry.label, moves) for entry, moves in got}
    assert len(pairs) == total
    assert pairs == {(e.label, e.table.unrank(e.start, e.length, i)) for e in family for i in range(e.count)}
    for index in (-1, total):
        with pytest.raises(ValueError, match="outside"):
            unrank_family(family, index)
    # a family draw is that unranking at one uniform_int below the total
    for seed in range(20):
        entry, walk = sample_length_then_walk(family, RngStream(seed))
        assert (entry, walk.moves) == unrank_family(family, RngStream(seed).uniform_int(total))


def test_sample_low_girth_walk_trivial_split():
    table = build_table(Z, (0, 0), (1, 1), 1, 0)
    rng = RngStream(7)
    seen = Counter(sample_low_girth_walk(table, rng, 2).moves for _ in range(2000))
    assert set(seen) == {"UR", "RU"}
    assert abs(seen["UR"] - 1000) < 4 * math.sqrt(2000 * 0.25)


def test_sample_low_girth_walk_uniform_len3():
    table = build_table(Z, (0, 0), (1, 0), 1, 1)
    rng = RngStream(8)
    support = [w.moves for w in enumerate_low_girth_walks(Z, Point(0, 0), Point(1, 0), 3, 1).items]
    samples = [sample_low_girth_walk(table, rng, 3).moves for _ in range(20_000)]
    rep = uniformity_test(samples, support)
    assert rep["max_dev_sigmas"] < 4


def test_sample_walks_are_valid():
    table = build_table(Z, (0, 0), (3, 2), 2, 2)
    rng = RngStream(10)
    for _ in range(50):
        w = sample_low_girth_walk(table, rng, 9)
        assert w.end == (3, 2) and len(w) == 9
        pts = w.points()
        for i, p in enumerate(pts):
            assert p not in pts[max(0, i - 4):i]  # no revisit within 2l steps


def test_sample_saw_accepts_first_when_window_covers_length():
    table = build_table(Z, (0, 0), (1, 1), 2, 1)
    rep = sample_saw(table, RngStream(11), 4)
    assert rep.attempts == 1 and rep.walk.is_self_avoiding()


def test_sample_saw_budget_exhaustion():
    # corridor where no SAW of length 5 exists but low-girth walks do
    corridor = LatticeBox(Point(0, -1), Point(1, 1))
    table = build_table(corridor, (0, 0), (1, 0), 1, 2)
    with pytest.raises(SamplingBudgetError) as exc:
        sample_saw(table, RngStream(12), 5, max_attempts=64)
    assert exc.value.attempts == 64


def test_determinism_bit_exact():
    table = build_table(Z, (0, 0), (4, 4), 2, 2)
    walks1 = [sample_saw(table, RngStream(99, i), 12).walk.to_text() for i in range(5)]
    walks2 = [sample_saw(table, RngStream(99, i), 12).walk.to_text() for i in range(5)]
    assert walks1 == walks2


def test_family_single_entry():
    table = build_table(Z, (0, 0), (1, 1), 2, 1)
    family = make_family([("only", table, Point(0, 0), 4)])
    entry, walk = sample_length_then_walk(family, RngStream(13))
    assert entry.label == "only" and len(walk) == 4


def test_one_count_per_walk_draw(monkeypatch):
    """A walk draw counts its start once; a family draw takes the cell's stored count instead."""
    table = build_table(Z, (0, 0), (2, 1), 2, 2)
    family = make_family([(length, table, Point(0, 0), length) for length in table.lengths])
    want = [sample_length_then_walk(family, RngStream(5)) for _ in range(2)]
    want_walk = sample_low_girth_walk(table, RngStream(6), table.lengths[-1])
    calls = []
    count_from = CountTable.count_from
    monkeypatch.setattr(CountTable, "count_from", lambda self, *a: calls.append(a) or count_from(self, *a))
    assert [sample_length_then_walk(family, RngStream(5)) for _ in range(2)] == want
    assert calls == []
    assert sample_low_girth_walk(table, RngStream(6), table.lengths[-1]) == want_walk
    assert len(calls) == 1


def test_family_proportional_weights():
    # entry counts 1 and 3: frequencies 1/4 and 3/4
    t1 = build_table(Z, (0, 0), (1, 0), 1, 0)
    t3 = build_table(Z, (0, 0), (2, 1), 1, 0)
    fam = make_family([("a", t1, Point(0, 0), 1), ("b", t3, Point(0, 0), 3)])
    assert [e.count for e in fam] == [1, 3]
    rng = RngStream(14)
    n = 20_000
    seen = Counter(sample_length_then_walk(fam, rng)[0].label for _ in range(n))
    p = 1 / 4
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(seen["a"] / n - p) < 4 * sigma


def test_family_union_uniformity():
    # union of lengths 2 and 4 for (1,1): 2 + 4 = 6 equally likely walks
    table = build_table(Z, (0, 0), (1, 1), 2, 1)
    fam = make_family([(L, table, Point(0, 0), L) for L in (2, 4)])
    rng = RngStream(15)
    samples = [sample_length_then_walk(fam, rng)[1].moves for _ in range(30_000)]
    support = [w.moves for L in (2, 4)
               for w in enumerate_low_girth_walks(Z, Point(0, 0), Point(1, 1), L, 2).items]
    rep = uniformity_test(samples, support)
    assert rep["max_dev_sigmas"] < 4


def test_family_all_zero():
    corridor = LatticeBox(Point(0, -1), Point(1, 1))
    table = build_table(corridor, (0, 0), (1, 0), 1, 2)
    assert make_family([("x", table, Point(0, 1), 3)]) == []
    with pytest.raises(ValueError):
        sample_length_then_walk([], RngStream(16))


def _reference_unrank(table: CountTable, start: Point, length: int, index: int) -> str:
    """Unranking from public calls only, the successor counts recomputed at every step.

    The moves that do not collide with the window are taken in URDL order,
    each weighted by ``completion_count`` of its next state (a ValueError is
    a 0: a step off the region); the first whose count the index falls in
    is taken, less the counts of the moves before it.
    """
    span = 2 * table.girth
    pts, window, moves = [Point(*start)], "", ""
    for t in range(length, 0, -1):
        for m in "URDL":
            q = step(pts[-1], m)
            if q in pts[-span - 1 :]:
                continue
            w = (window + m)[-span:]
            try:
                c = table.completion_count(q, w, t - 1)
            except ValueError:
                c = 0
            if index < c:
                break
            index -= c
        else:
            raise AssertionError(f"successor counts sum below the index at t={t}")
        moves, window = moves + m, w
        pts.append(q)
    return moves


@st.composite
def _descent_cases(draw):
    """(table, start, length): one-source tables on a box or Z^2, and Aztec family cells for k <= 3."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        family = partition_family(k, OmegaParams(draw(st.sampled_from((2, 3))), 0.5), draw(st.integers(1, 3)))
        entry = draw(st.sampled_from(family))
        return entry.table, entry.start, entry.length
    girth = draw(st.integers(1, 3))
    target = Point(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    region = FullLattice()
    if draw(st.booleans()):
        lo = Point(min(0, target.x) - draw(st.integers(0, 2)), min(0, target.y) - draw(st.integers(0, 2)))
        hi = Point(max(0, target.x) + draw(st.integers(0, 2)), max(0, target.y) + draw(st.integers(0, 2)))
        region = LatticeBox(lo, hi)
    table = build_table(region, Point(0, 0), target, girth, draw(st.integers(0, 3)))
    length = draw(st.sampled_from([L for L in table.lengths if table.count_from(table.origin, L)]))
    return table, table.origin, length


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_descent_cases())
def test_unrank_matches_reference_unrank(case):
    """Every index gives the walk of a descent that sums successor counts at each step."""
    table, start, length = case
    for index in range(table.count_from(start, length)):
        assert table.unrank(start, length, index) == _reference_unrank(table, start, length, index)


def test_unrank_guard_on_inconsistent_counts():
    """A layer whose cells no longer sum to the counts above it fails at the first step."""
    table = build_table(Z, (0, 0), (3, 2), 2, 2)
    length = 9
    broken = copy.copy(table)
    broken._vals = list(table._vals)
    broken._vals[length - 1] = [0] * len(table._vals[length - 1])
    with pytest.raises(AssertionError):
        broken.unrank(table.origin, length, 0)
    assert len(table.unrank(table.origin, length, 0)) == length  # the original is untouched


def test_unrank_index_out_of_range_raises_value_error():
    table = build_table(Z, (0, 0), (3, 2), 2, 2)
    for length in table.lengths:
        count = table.count_from(table.origin, length)
        for index in (-1, count):
            with pytest.raises(ValueError, match="outside"):
                table.unrank(table.origin, length, index)


def test_zero_count_raises_value_error():
    # (1, 0) is missing, so no walk of length 2 joins the two points
    table = CountTable(PointSetRegion([(0, 0), (2, 0), (0, 1)]), (2, 0), 1, [2], sources=[(0, 0)])
    assert table.count_from((0, 0), 2) == 0
    parity = build_table(Z, (0, 0), (1, 1), 1, 1)
    for tab, start, length in ((table, Point(0, 0), 2), (parity, Point(0, 1), 2)):
        with pytest.raises(ValueError, match="outside"):
            tab.unrank(start, length, 0)
        with pytest.raises(ValueError, match="no girth-restricted walk"):
            sample_low_girth_walk_from(tab, RngStream(1), start, length)


@pytest.mark.parametrize("region, target, girth, k", [
    (Z, (1, 1), 1, 2),
    (Z, (2, 1), 2, 2),
    (LatticeBox(Point(-1, -1), Point(2, 2)), (2, 2), 3, 4),
    (LatticeBox(Point(0, -1), Point(1, 1)), (1, 0), 1, 4),
], ids=["z2-l1", "z2-l2", "box-l3", "corridor-l1"])
def test_unrank_is_the_lexicographic_bijection(region, target, girth, k):
    """Indices 0..N-1 give every enumerated walk once, in URDL-lexicographic order."""
    table = build_table(region, (0, 0), target, girth, k)
    for length in table.lengths:
        walks = [table.unrank(table.origin, length, i) for i in range(table.count_from(table.origin, length))]
        support = enumerate_low_girth_walks(region, Point(0, 0), Point(*target), length, girth).items
        assert walks == sorted((w.moves for w in support), key=lambda m: ["URDL".index(c) for c in m])
