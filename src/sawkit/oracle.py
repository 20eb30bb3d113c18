"""Brute-force enumerators and statistical testers.

Everything here is intentionally naive: depth-first enumeration with
visited-set pruning, in the move order of ``lattice.MOVES`` so output
is deterministic and diffable.  These are the ground truth the dynamic
program and the samplers are tested against.  Caps are hard errors, never
silent truncation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .lattice import MOVES, FullLattice, Point, Region, Walk

DEFAULT_WALK_CAP = 16
DEFAULT_PARTITION_CAP = 4


@dataclass
class EnumerationResult:
    """Outcome of an exhaustive enumeration."""

    instance: dict
    items: list = field(repr=False)
    count: int = 0

    def __post_init__(self) -> None:
        self.count = len(self.items)


def _check_cap(length: int, cap: int) -> None:
    if length > cap:
        raise ValueError(f"enumeration length {length} exceeds cap {cap}")


def _walk_dfs(
    region: Region,
    start: Point,
    ends,
    lengths,
    admit: Callable[[list[Point], tuple[int, int]], bool],
) -> list[str]:
    """Shared DFS core: every walk from start whose length is in ``lengths``
    and that stops on a point of ``ends``, as move strings in DFS order.

    ``admit(pts, candidate)`` filters each extension.  A branch is pruned
    only when no end is within the steps it has left.
    """
    full = isinstance(region, FullLattice)
    contains = region.__contains__
    ends = [(e[0], e[1]) for e in ends]
    end_set = set(ends)
    lengths = frozenset(lengths)
    # every step flips the parity of x + y: drop the lengths no end can close
    sx, sy = start
    lengths = frozenset(n for n in lengths if any((sx + sy + n - ex - ey) % 2 == 0 for ex, ey in ends))
    if not lengths:
        return []
    max_len = max(lengths)
    near: dict[tuple[int, int], int] = {}  # distance to the nearest end
    out: list[str] = []
    moves: list[str] = []
    pts: list[tuple[int, int]] = [(sx, sy)]

    def rec() -> None:
        p = pts[-1]
        n = len(moves)
        if n in lengths and p in end_set:
            out.append("".join(moves))
        gap = near.get(p)
        if gap is None:
            gap = near[p] = min(abs(p[0] - ex) + abs(p[1] - ey) for ex, ey in ends)
        if n == max_len or gap > max_len - n:
            return
        x, y = p
        for m, dx, dy in MOVES:
            np_ = (x + dx, y + dy)
            if not full and not contains(np_):
                continue
            if not admit(pts, np_):
                continue
            pts.append(np_)
            moves.append(m)
            rec()
            pts.pop()
            moves.pop()

    rec()
    return out


def _self_avoiding(pts: list[tuple[int, int]], np_: tuple[int, int]) -> bool:
    return np_ not in pts


def enumerate_walks(
    region: Region, start: Point, end: Point, length: int, cap: int = DEFAULT_WALK_CAP
) -> EnumerationResult:
    """All length-`length` walks start -> end inside the region (revisits allowed)."""
    _check_cap(length, cap)
    moves = _walk_dfs(region, start, [end], [length], lambda pts, np_: True)
    return EnumerationResult(
        {"kind": "walks", "start": tuple(start), "end": tuple(end), "length": length},
        [Walk(Point(*start), m) for m in moves],
    )


def enumerate_saws(
    region: Region, start: Point, end: Point, length: int, cap: int = DEFAULT_WALK_CAP
) -> EnumerationResult:
    """All self-avoiding walks start -> end of exactly the given length."""
    _check_cap(length, cap)
    moves = _walk_dfs(region, start, [end], [length], _self_avoiding)
    return EnumerationResult(
        {"kind": "saw", "start": tuple(start), "end": tuple(end), "length": length},
        [Walk(Point(*start), m) for m in moves],
    )


def enumerate_low_girth_walks(
    region: Region,
    start: Point,
    end: Point,
    length: int,
    girth: int,
    cap: int = DEFAULT_WALK_CAP,
) -> EnumerationResult:
    """Walks with no revisit within 2*girth steps (no cycle of length <= 2*girth)."""
    _check_cap(length, cap)
    moves = _walk_dfs(region, start, [end], [length], _low_girth_admit(girth))
    return EnumerationResult(
        {
            "kind": "low-girth",
            "start": tuple(start),
            "end": tuple(end),
            "length": length,
            "girth": girth,
        },
        [Walk(Point(*start), m) for m in moves],
    )


def _low_girth_admit(girth: int):
    """``_walk_dfs`` filter: no revisit within 2*girth steps."""
    if girth < 1:
        raise ValueError("girth parameter must be >= 1")
    window = 2 * girth + 1  # checking one extra point is harmless by parity

    def admit(pts: list[tuple[int, int]], np_: tuple[int, int]) -> bool:
        return np_ not in pts[-window:]

    return admit


def _counts_by_length(region, start, end, lengths, admit) -> dict[int, int]:
    """Walks start -> end of each length in ``lengths`` that ``admit`` passes, from one DFS."""
    lengths = sorted(set(lengths))
    if lengths:
        _check_cap(lengths[-1], DEFAULT_WALK_CAP)
    found = Counter(map(len, _walk_dfs(region, start, [end], lengths, admit)))
    return {n: found[n] for n in lengths}


def saw_counts(region: Region, start: Point, end: Point, lengths) -> dict[int, int]:
    """``enumerate_saws(...).count`` for every length in ``lengths``, from one DFS."""
    return _counts_by_length(region, start, end, lengths, _self_avoiding)


def low_girth_walk_counts(region: Region, start: Point, end: Point, lengths, girth: int) -> dict[int, int]:
    """``enumerate_low_girth_walks(...).count`` for every length in ``lengths``, from one DFS."""
    return _counts_by_length(region, start, end, lengths, _low_girth_admit(girth))


def enumerate_partitions(k: int, params, budget: int | None = None, cap: int = DEFAULT_PARTITION_CAP):
    """All contiguous 2-partitions of the order-k Aztec diamond meeting the budget.

    Exhaustive subset enumeration is used through k = 2; for k = 3, 4 the
    partitions are enumerated through their boundary paths, which is
    exhaustive over the same set whenever the perimeter budget is below 8k
    (the budget excludes partitions whose cut does not reach the outer
    boundary).  Both engines agree at k <= 2 (tested).
    """
    if k > cap:
        raise ValueError(f"exhaustive partition enumeration capped at k={cap}")
    if budget is None:
        budget = params.budget(k)
    if k <= 2:
        items = _partitions_by_subsets(k, budget)
    else:
        if budget >= 8 * k:
            raise ValueError("path-based enumeration requires budget < 8k")
        items = _partitions_by_paths(k, budget)
    items.sort(key=lambda p: sorted(p.class1))
    return EnumerationResult({"kind": "partitions", "k": k, "budget": budget}, items)


def _partitions_by_subsets(k: int, budget: int):
    from . import aztec

    verts = sorted(aztec.dual_vertices(k))
    anchor = verts[0]
    rest = [v for v in verts if v != anchor]
    items = []
    for bits in range(2 ** len(rest)):
        class1 = {anchor}
        for i, v in enumerate(rest):
            if bits >> i & 1:
                class1.add(v)
        if len(class1) == len(verts):
            continue
        try:
            part = aztec.make_partition(k, class1)
        except ValueError:
            continue
        if max(part.boundary_sizes) <= budget:
            items.append(part)
    return items


def _partitions_by_paths(k: int, budget: int):
    """Partitions through their boundary paths: self-avoiding walks between
    boundary points whose interior stays off the boundary.  By the boundary
    fact of ``aztec``'s docstring a walk through a boundary point induces no
    2-partition, so the DFS extends from no boundary point but its start."""
    from . import aztec

    region = aztec.AztecRegion(k)
    bpts = sorted(aztec.boundary_vertices(k))
    boundary = set(bpts)
    max_len = budget - 4 * k  # cut length + larger outer share (>= 4k) <= budget

    def admit(pts: list[tuple[int, int]], np_: tuple[int, int]) -> bool:
        return (len(pts) == 1 or pts[-1] not in boundary) and np_ not in pts

    seen = set()
    items = []
    for i, s in enumerate(bpts):
        # one DFS per source reports every later target at every length
        for moves in _walk_dfs(region, s, bpts[i + 1 :], range(1, max_len + 1), admit):
            part = aztec.path_to_partition(k, Walk(Point(*s), moves))
            if max(part.boundary_sizes) <= budget and part.mask not in seen:
                seen.add(part.mask)
                items.append(part)
    return items


def _chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with integer dof >= 1, in closed form.

    With y = x/2, the tail is the Poisson sum e^-y * sum_{i<m} y^i/i! for
    dof = 2m, and erfc(sqrt(y)) + e^-y * sum_{i<m} y^(i+1/2)/Gamma(i+3/2)
    for dof = 2m+1.  Each term is exp of its logarithm, taken with lgamma,
    so no power or factorial overflows and no e^-y underflows on its own.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    m, odd = divmod(dof, 2)
    log_y = math.log(y)
    terms = [math.exp((i + 0.5 * odd) * log_y - y - math.lgamma(i + 1 + 0.5 * odd)) for i in range(m)]
    if odd:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def uniformity_test(samples: Sequence, support: Iterable) -> dict:
    """Frequency diagnostics of samples against a finite uniform support.

    Returns per-element deviations in sigma units, the worst deviation, a
    chi-square statistic with |support|-1 degrees of freedom and its upper
    tail p-value by ``_chi2_sf``'s closed form.  A sample outside the
    support is a hard failure (it indicates a sampler bug, not bad luck).
    """
    support = list(support)
    if not support:
        raise ValueError("support must be nonempty")
    idx = {s: i for i, s in enumerate(support)}
    counts = [0] * len(support)
    outside = []
    for s in samples:
        i = idx.get(s)
        if i is None:
            outside.append(s)
        else:
            counts[i] += 1
    if outside:
        raise ValueError(f"{len(outside)} samples outside the support, e.g. {outside[0]!r}")
    n = len(samples)
    p = 1.0 / len(support)
    sigma = math.sqrt(p * (1.0 - p) / n) if n else float("inf")
    devs = [abs(c / n - p) / sigma for c in counts] if n else [0.0] * len(support)
    expected = n * p
    chi2 = sum((c - expected) ** 2 / expected for c in counts) if n else 0.0
    dof = len(support) - 1
    p_value = _chi2_sf(chi2, dof) if dof > 0 and n else 1.0
    return {
        "n": n,
        "support_size": len(support),
        "counts": counts,
        "max_dev_sigmas": max(devs) if devs else 0.0,
        "chi2": chi2,
        "dof": dof,
        "p_value": p_value,
    }
