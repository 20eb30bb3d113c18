"""Shortest-path statistics, bumping, base paths, and good-edge mappings.

Move indices in this module are 1-based (matching b_1..b_n notation);
edge indices in a good-edge map are 0-based (edge j joins points j and
j+1).  All base-path operations assume the canonical frame: walks start
at the origin and end at a point with nonnegative coordinates.
"""

from __future__ import annotations

from .lattice import Point, Walk


class GoodEdgeMapError(ValueError):
    """The segment-wise construction produced no valid good-edge mapping."""


def sample_shortest_path(rng, n1: int, n2: int) -> Walk:
    """Uniformly random monotone path (0,0) -> (n1,n2), by bag draws."""
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    r, u = n1, n2
    moves = []
    while r + u:
        if rng.uniform_int(r + u) < r:
            moves.append("R")
            r -= 1
        else:
            moves.append("U")
            u -= 1
    return Walk(Point(0, 0), "".join(moves))


def straight_pair_count(walk: Walk) -> int:
    """Number of positions where two consecutive moves share a direction."""
    m = walk.moves
    return sum(1 for i in range(len(m) - 1) if m[i] == m[i + 1])


def straight_indices(walk: Walk) -> tuple[int, ...]:
    """1-based move indices i >= 2 with moves[i-1] == moves[i]."""
    m = walk.moves
    return tuple(i for i in range(2, len(m) + 1) if m[i - 2] == m[i - 1])


def is_non_adjacent(indices) -> bool:
    s = sorted(indices)
    return all(b - a > 1 for a, b in zip(s, s[1:]))


def bump(walk: Walk, indices) -> Walk:
    """Replace move i by DRU (if R) or LUR (if U) at each selected index.

    Pure local substitution; the result has length len+2|M| and unchanged
    endpoints, but is guaranteed self-avoiding only for non-adjacent
    straight indices of a monotone path.
    """
    sel = set(int(i) for i in indices)
    for i in sel:
        if not 1 <= i <= len(walk.moves):
            raise ValueError(f"move index {i} out of range 1..{len(walk.moves)}")
        if walk.moves[i - 1] not in "UR":
            raise ValueError(f"move {i} is {walk.moves[i-1]!r}; only U and R moves can be bumped")
    out = []
    for i, m in enumerate(walk.moves, 1):
        if i in sel:
            out.append("DRU" if m == "R" else "LUR")
        else:
            out.append(m)
    return Walk(walk.start, "".join(out))


def unbump(walk: Walk) -> Walk:
    """Invert bumping: rewrite LUR -> U and DRU -> R left to right."""
    m = walk.moves
    out = []
    i = 0
    while i < len(m):
        c = m[i]
        if c == "L":
            if m[i : i + 3] != "LUR":
                raise ValueError("not an unambiguous bump image (stray L)")
            out.append("U")
            i += 3
        elif c == "D":
            if m[i : i + 3] != "DRU":
                raise ValueError("not an unambiguous bump image (stray D)")
            out.append("R")
            i += 3
        else:
            out.append(c)
            i += 1
    return Walk(walk.start, "".join(out))


def corner_count(walk: Walk) -> int:
    """Internal direction changes plus 2 (both endpoints count as corners)."""
    m = walk.moves
    return sum(1 for i in range(len(m) - 1) if m[i] != m[i + 1]) + 2


# -- base path ----------------------------------------------------------------


def _require_canonical(walk: Walk) -> list[Point]:
    pts = walk.points()
    if pts[0] != (0, 0):
        raise ValueError("walk must start at the origin")
    end = pts[-1]
    if end.x < 0 or end.y < 0:
        raise ValueError("walk must end at (n1,n2) >= (0,0)")
    if not walk.is_self_avoiding():
        raise ValueError("walk must be self-avoiding")
    return pts


def _base_path_data(walk: Walk):
    """Base-path moves plus the anchor bookkeeping the good-edge map needs.

    Returns (moves, anchors, rbar, q_idx) where anchors is the list of
    (index-in-walk, point) for R_0..R_m, q_idx indexes the first point of
    the final stretch touching a target line, and rbar is the corner where
    the base path bends onto that line.
    """
    pts = _require_canonical(walk)
    target = pts[-1]
    moves: list[str] = []
    anchors = [(0, pts[0])]
    i = 0
    cur = pts[0]
    if cur == target:
        return "", anchors, cur, 0
    while True:
        j = None
        for m in range(i + 1, len(pts)):
            q = pts[m]
            if cur.x <= q.x <= target.x and cur.y <= q.y <= target.y:
                j = m
                break
        assert j is not None, "walk ends at the target, which lies in every box"
        nxt = pts[j]
        if nxt != target:
            # shortest route along the box boundary is the monotone L-path
            if nxt.x == cur.x or nxt.y == target.y:
                moves.append("U" * (nxt.y - cur.y) + "R" * (nxt.x - cur.x))
            else:
                moves.append("R" * (nxt.x - cur.x) + "U" * (nxt.y - cur.y))
            anchors.append((j, nxt))
            cur, i = nxt, j
            continue
        # final stretch: which target line does the walk touch first?
        q_idx = next(m for m in range(i, len(pts)) if pts[m].y == target.y or pts[m].x == target.x)
        if pts[q_idx].y == target.y:
            rbar = Point(cur.x, target.y)
            moves.append("U" * (target.y - cur.y) + "R" * (target.x - cur.x))
        else:
            rbar = Point(target.x, cur.y)
            moves.append("R" * (target.x - cur.x) + "U" * (target.y - cur.y))
        return "".join(moves), anchors, rbar, q_idx


def base_path(walk: Walk) -> Walk:
    """The canonical monotone shortest path associated with a walk.

    Built by the iterated lattice-box projection: repeatedly jump to the
    walk's next point inside the box spanned by the current anchor and the
    target, extending along the box boundary; the final stretch bends at
    the corner on whichever target line the walk touches first.
    """
    moves, _, _, _ = _base_path_data(walk)
    return Walk(Point(0, 0), moves)


def _super_parallel(bpt: Point, bmove: str, apt: Point, amove: str) -> bool:
    if bmove != amove:
        return False
    if bmove == "U":
        return apt.y == bpt.y
    if bmove == "R":
        return apt.x == bpt.x
    return False


def good_edge_map(walk: Walk) -> tuple[int, ...]:
    """Segment-wise least-index construction of a good edge mapping.

    Entry j is the walk edge assigned to base edge j; the entries strictly
    increase, and each assigned walk edge is super-parallel to its base
    edge (same direction, same coordinate slice).  For each base edge, in
    order, the least not-yet-used walk edge that is super-parallel to it is
    selected inside the walk stretch between the enclosing anchors (the
    final stretch is split at the first target-line touch).  Raises
    GoodEdgeMapError if some base edge cannot be matched.
    """
    bmoves, anchors, rbar, q_idx = _base_path_data(walk)
    apts = walk.points()
    amoves = walk.moves
    bpts = Walk(Point(0, 0), bmoves).points()

    # search window (walk index range) for each base edge, in base order
    last_anchor_idx = anchors[-1][0]
    windows: list[tuple[int, int]] = []
    for (ai, apt), (aj, bqt) in zip(anchors, anchors[1:]):
        seg_edges = abs(bqt.x - apt.x) + abs(bqt.y - apt.y)
        windows.extend([(ai, aj)] * seg_edges)
    pre_edges = abs(rbar.x - anchors[-1][1].x) + abs(rbar.y - anchors[-1][1].y)
    post_edges = abs(apts[-1].x - rbar.x) + abs(apts[-1].y - rbar.y)
    windows.extend([(last_anchor_idx, q_idx)] * pre_edges)
    windows.extend([(q_idx, len(amoves))] * post_edges)
    if len(windows) != len(bmoves):
        raise AssertionError("segment bookkeeping out of sync with base path")

    entries: list[int] = []
    prev = -1
    for j, (lo, hi) in enumerate(windows):
        bpt, bmove = bpts[j], bmoves[j]
        found = -1
        for k in range(max(lo, prev + 1), hi):
            if _super_parallel(bpt, bmove, apts[k], amoves[k]):
                found = k
                break
        if found < 0:
            raise GoodEdgeMapError(
                f"no super-parallel walk edge for base edge {j} in range [{max(lo, prev+1)},{hi})"
            )
        entries.append(found)
        prev = found
    return tuple(entries)


def bumpable_good_edges(walk: Walk) -> tuple[int, ...]:
    """Good-edge move indices (1-based) whose single bump stays self-avoiding.

    Each candidate is checked by direct simulation: perform the bump and
    test self-avoidance of the result.
    """
    return tuple(k + 1 for k in good_edge_map(walk) if bump(walk, (k + 1,)).is_self_avoiding())
