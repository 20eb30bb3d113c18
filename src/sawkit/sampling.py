"""Exact proportional sampling of girth-restricted walks, rejection to SAWs.

Every random choice follows one rule with exact integer weights, never
floating point: to draw below a count, take ``getrandbits`` of the count's
bit length until the value is below it (no draw for a count of 1).
``uniform_bignat`` applies the rule to pick a family cell and
``CountTable.draw_moves`` applies it inline at every step of a walk, so
the sampled distribution is exactly proportional to the DP counts.
Identical seed and stream id reproduce identical output bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
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
        return uniform_bignat(self, bound)


def uniform_bignat(rng: RngStream, bound: int) -> int:
    """Exactly uniform integer in [0, bound) for arbitrary-precision bounds."""
    if bound <= 0:
        raise ValueError("bound must be >= 1")
    if bound == 1:
        return 0
    bits = bound.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < bound:
            return x


@dataclass(frozen=True)
class SampleReport:
    """One accepted sample plus the rejection bookkeeping that produced it."""

    requested_length: int
    attempts: int
    walk: Walk


def sample_low_girth_walk(table: CountTable, rng: RngStream, length: int) -> Walk:
    """One exactly-uniform girth-restricted walk of the given length from the table's one source."""
    return sample_low_girth_walk_from(table, rng, table.origin, length)


def sample_low_girth_walk_from(table: CountTable, rng: RngStream, start: Point, length: int) -> Walk:
    """One exactly-uniform girth-restricted walk of the given length from a source of the table."""
    return Walk(Point(*start), table.draw_moves(start, length, rng))


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
            return SampleReport(length, attempt, walk)
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
    exceeds a uniform pick below the family total.
    """
    if not family:
        raise ValueError("the family has no cells")
    cumulative = family.cumulative
    entry = family[bisect_right(cumulative, uniform_bignat(rng, cumulative[-1]))]
    return entry, sample_low_girth_walk_from(entry.table, rng, entry.start, entry.length)
