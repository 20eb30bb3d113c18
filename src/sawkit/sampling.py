"""Exact proportional sampling of girth-restricted walks, rejection to SAWs.

Every random choice is one exactly uniform integer below an exact count,
never a floating-point weight.  ``RngStream.uniform_int`` holds the one
draw rule: (bound - 1).bit_length() bits until the value is below the
bound.

The bits come from a counter-based stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).  Block j of stream
(seed, s) is ``shake_256(b"sawkit.rng:<seed>:<s>:<j>").digest(64 << min(j, 10))``:
64 bytes at first, doubling up to 64 KiB.  The stream is its blocks read
in order as one byte string, so a substream is two ints and a counter, a
per-sample one mostly hashes only its first 64-byte block, and a long
one (a Glauber run) hashes 64 KiB at a time.  A hash per draw would cost
about a microsecond per draw and would tie the bytes to the way they are
read in draws.
``getrandbits(k)`` reads the next ceil(k / 8) bytes as a little-endian
int and keeps its top k bits; k = 0 reads nothing.  ``uniform_ints`` is
the draw rule in block form: for bounds up to 256 each draw reads one
byte, so a round reads as many bytes as values are still needed and keeps
the top bits of each.  Those are the bytes the single draws would read,
in the same order, and a byte past the bound is rejected by both, so a
block draw equals that many single draws and leaves the stream where they
would.

A walk costs one draw: a uniform index below its start's count, unranked
down the table by ``CountTable.unrank``, a bijection from the indices to
the walks.  A family proposal costs one draw too: a uniform index below
the family's total, whose cell is the first whose running total exceeds
it and whose remainder is unranked in that cell (``unrank_family``).  So
the sampled distribution is exactly proportional to the DP counts, and
identical seed and stream id reproduce identical output bit for bit.
"""

from __future__ import annotations

import hashlib
import operator
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


# Block j of a stream holds 64 << min(j, _BLOCK_DOUBLINGS) bytes.
_BLOCK_DOUBLINGS = 10


class RngStream:
    """Deterministic random byte stream (seed, stream), SHAKE-256 in counter mode.

    Identical (seed, stream) pairs always reproduce the same bytes, and
    distinct stream ids are independent for all practical purposes.  The
    stream holds at most one block: the one it is reading.
    """

    __slots__ = ("seed", "stream", "_next_block", "_buf", "_pos")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._next_block = 0
        self._buf = b""
        self._pos = 0

    def substream(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)

    def _read(self, n: int) -> bytes:
        """The next n bytes of the stream, hashing blocks as they are reached."""
        pos = self._pos
        buf = self._buf
        if pos + n <= len(buf):
            self._pos = pos + n
            return buf[pos : pos + n]
        parts = [buf[pos:]]
        n -= len(buf) - pos
        while True:
            j = self._next_block
            self._next_block = j + 1
            buf = hashlib.shake_256(b"sawkit.rng:%d:%d:%d" % (self.seed, self.stream, j)).digest(
                64 << min(j, _BLOCK_DOUBLINGS)
            )
            if n <= len(buf):
                break
            parts.append(buf)
            n -= len(buf)
        parts.append(buf[:n])
        self._buf = buf
        self._pos = n
        return b"".join(parts)

    def getrandbits(self, k: int) -> int:
        """The top k bits of the next ceil(k / 8) bytes, read as a little-endian int."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        n = (k + 7) >> 3
        return int.from_bytes(self._read(n), "little") >> ((n << 3) - k)

    def uniform_int(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound), arbitrary-precision bounds.

        Draws ``getrandbits`` of (bound - 1)'s bit length until the value is
        below the bound, so a power-of-two bound never rejects and a bound
        of 1 reads nothing.
        """
        if bound <= 0:
            raise ValueError("bound must be >= 1")
        bits = (bound - 1).bit_length()
        x = self.getrandbits(bits)
        while x >= bound:
            x = self.getrandbits(bits)
        return x

    def uniform_ints(self, bound: int, count: int) -> list[int]:
        """``count`` draws of ``uniform_int(bound)``: the same values from the same bytes.

        A bound of 2..256 takes the byte path of the module docstring: each
        round reads one byte per value still needed, and one
        ``bytes.translate`` shifts each down to its top bits and deletes
        the values past the bound.  Any other bound makes ``count`` calls
        of ``uniform_int``.
        """
        if bound <= 0:
            raise ValueError("bound must be >= 1")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not 2 <= bound <= 256:
            return [self.uniform_int(bound) for _ in range(count)]
        table, delete = _byte_tables(bound)
        out = []
        while count:
            kept = self._read(count).translate(table, delete)
            out += kept
            count -= len(kept)
        return out


@lru_cache(maxsize=None)
def _byte_tables(bound: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments mapping a byte to a draw below bound <= 256.

    The table shifts a byte down to its top (bound - 1).bit_length() bits;
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


def sample_low_girth_walk_from(table: CountTable, rng: RngStream, start: Point, length: int) -> Walk:
    """One exactly-uniform girth-restricted walk of the given length from a source of the table."""
    start = Point(*start)
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


def unrank_family(family: Family, index: int) -> tuple[FamilyEntry, str]:
    """Walk number ``index`` of the family's disjoint union: its cell and its moves.

    The cell is the first whose running total exceeds the index, and the
    index less the earlier cells' total is unranked in it by
    ``CountTable.unrank``'s descent.  So this is a bijection from
    [0, total) to the (cell, walk) pairs, and a uniform index picks cell i
    with probability count_i / total and, given i, a uniform index below
    count_i: the joint law of a cell draw followed by a walk draw.  An
    index that is not an integer (a float, a Fraction) raises TypeError.
    """
    index = operator.index(index)
    cumulative = family.cumulative
    i = bisect_right(cumulative, index)
    if index < 0 or i == len(cumulative):
        raise ValueError(f"index {index} outside [0, {cumulative[-1] if cumulative else 0})")
    entry = family[i]
    return entry, entry.table._unrank(entry.start, entry.length, index - cumulative[i - 1] if i else index)


def draw_family(family: Family, rng: RngStream) -> tuple[FamilyEntry, str]:
    """One draw below the family's total, unranked: a cell and the moves of a walk in it."""
    if not family:
        raise ValueError("the family has no cells")
    return unrank_family(family, rng.uniform_int(family.cumulative[-1]))


def sample_length_then_walk(family: Family, rng: RngStream) -> tuple[FamilyEntry, Walk]:
    """Draw a family cell proportional to its exact count, and a walk in it, in one draw.

    The joint distribution is uniform over the disjoint union of all walks
    covered by the family (``unrank_family``).
    """
    entry, moves = draw_family(family, rng)
    return entry, Walk(entry.start, moves)
