"""Exact proportional sampling of girth-restricted walks, rejection to SAWs.

Every random choice is one exactly uniform integer below an exact count,
never a floating-point weight.  ``RngStream.uniform_int`` holds the one
draw rule: (bound - 1).bit_length() bits until the value is below the
bound.  ``RngStream.uniform_ints`` is the same rule in block form, with
the bits of as many single draws in the same order.  For bounds up to 256
it reads them from whole 32-bit words: ``getrandbits(32 * m)`` is m
Mersenne Twister outputs, lowest word first, and ``getrandbits(b)`` for
b <= 32 is the top b bits of one output, so byte 4i + 3 of the word
block, shifted right by 8 - b, is single draw i.  A round draws only as
many words as values are still needed, so it never takes a word the
single draws would not.  A walk costs one draw: a uniform index below its
start's count, unranked down the table by ``CountTable.unrank``, a
bijection from the indices to the walks.  A family cell costs one more
draw, below the family's total.  So the sampled distribution is exactly
proportional to the DP counts, and identical seed and stream id
reproduce identical output bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .counting import CountTable
from .lattice import Point, Walk


class SamplingBudgetError(RuntimeError):
    """Rejection loop exhausted its attempt budget."""

    def __init__(self, attempts: int, message: str):
        super().__init__(message)
        self.attempts = attempts


class RngStream:
    """Deterministic pseudo-random bit stream with independent substreams.

    The underlying generator is seeded from SHA-256 of (seed, stream id),
    so identical (seed, stream) pairs always reproduce the same bits and
    distinct stream ids are independent for all practical purposes.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        digest = hashlib.sha256(f"sawkit.rng:{self.seed}:{self.stream}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))
        # the generator's own method: rng.getrandbits(k) costs no wrapper frame
        self.getrandbits = self._rng.getrandbits

    def substream(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)

    def uniform_int(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound), arbitrary-precision bounds.

        Draws ``getrandbits`` of (bound - 1)'s bit length until the value is
        below the bound, so a power-of-two bound never rejects and a bound
        of 1 draws no bits.
        """
        if bound <= 0:
            raise ValueError("bound must be >= 1")
        bits = (bound - 1).bit_length()
        x = self.getrandbits(bits)
        while x >= bound:
            x = self.getrandbits(bits)
        return x

    def uniform_ints(self, bound: int, count: int) -> list[int]:
        """``count`` draws of ``uniform_int(bound)``: the same values and the same bits.

        A bound of 2..256 takes the word-block path of the module docstring:
        each round keeps the top byte of each word, and one
        ``bytes.translate`` shifts it down and deletes the values past the
        bound.
        """
        if bound <= 0:
            raise ValueError("bound must be >= 1")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        bits = (bound - 1).bit_length()
        draw = self.getrandbits
        out = []
        if 1 <= bits <= 8:
            table, delete = _byte_tables(bound)
            while count:
                kept = draw(32 * count).to_bytes(4 * count, "little")[3::4].translate(table, delete)
                out += kept
                count -= len(kept)
            return out
        for _ in range(count):
            x = draw(bits)
            while x >= bound:
                x = draw(bits)
            out.append(x)
        return out


@lru_cache(maxsize=None)
def _byte_tables(bound: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments mapping a word's top byte to a draw below bound <= 256.

    The table shifts a byte down to the top (bound - 1).bit_length() bits;
    the deleted bytes are those whose draw is bound or more.
    """
    shift = 8 - (bound - 1).bit_length()
    return bytes(x >> shift for x in range(256)), bytes(x for x in range(256) if x >> shift >= bound)


@dataclass(frozen=True)
class SampleReport:
    """One accepted sample plus the rejection bookkeeping that produced it."""

    attempts: int
    walk: Walk


def sample_low_girth_walk(table: CountTable, rng: RngStream, length: int) -> Walk:
    """One exactly-uniform girth-restricted walk of the given length from the table's one source."""
    return sample_low_girth_walk_from(table, rng, table.origin, length)


def sample_low_girth_walk_from(
    table: CountTable, rng: RngStream, start: Point, length: int, count: int | None = None
) -> Walk:
    """One exactly-uniform girth-restricted walk of the given length from a source of the table.

    ``count`` is the start's ``count_from``, when the caller already holds it.
    """
    start = Point(*start)
    if count is None:
        count = table.count_from(start, length)
    if not count:
        raise ValueError(f"no girth-restricted walk of length {length} from {start}")
    return Walk(start, table._unrank(start, length, rng.uniform_int(count)))


def sample_saw(
    table: CountTable, rng: RngStream, length: int, max_attempts: int = 1000
) -> SampleReport:
    """Uniform self-avoiding walk via rejection of girth-restricted walks.

    Rejection preserves uniformity on the self-avoiding subset.  Raises
    SamplingBudgetError after max_attempts rejections, which signals
    parameters outside the regime where acceptance is bounded away from 0.
    """
    for attempt in range(1, max_attempts + 1):
        walk = sample_low_girth_walk(table, rng, length)
        if walk.is_self_avoiding():
            return SampleReport(attempt, walk)
    raise SamplingBudgetError(
        max_attempts,
        f"no self-avoiding walk accepted in {max_attempts} attempts (length {length})",
    )


@dataclass(frozen=True)
class FamilyEntry:
    """One (start, target, length) cell of an indexed table family."""

    label: object
    table: CountTable
    start: Point
    length: int
    count: int


class Family(list):
    """Family cells in draw order, with their running count totals.

    ``cumulative[i]`` is the sum of the counts of cells 0..i, computed once
    when the family is made; the cells must not change afterwards.
    """

    def __init__(self, entries=()):
        super().__init__(entries)
        self.cumulative = list(accumulate(e.count for e in self))


def make_family(entries) -> Family:
    """Materialize (label, table, start, length) tuples with their exact counts.

    Cells without walks are dropped, so every cell of a family has a
    positive count.
    """
    out = []
    for label, table, start, length in entries:
        c = table.count_from(start, length)
        if c:
            out.append(FamilyEntry(label, table, Point(*start), length, c))
    return Family(out)


def sample_length_then_walk(family: Family, rng: RngStream) -> tuple[FamilyEntry, Walk]:
    """Draw a family cell proportional to its exact count, then a walk in it.

    The joint distribution is uniform over the disjoint union of all walks
    covered by the family.  The cell is the first whose running total
    exceeds a uniform pick below the family total; its walk is drawn below
    the cell's stored count, which is its start's ``count_from``.
    """
    if not family:
        raise ValueError("the family has no cells")
    cumulative = family.cumulative
    entry = family[bisect_right(cumulative, rng.uniform_int(cumulative[-1]))]
    return entry, sample_low_girth_walk_from(entry.table, rng, entry.start, entry.length, entry.count)
