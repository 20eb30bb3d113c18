"""Glauber dynamics on perimeter-constrained Aztec partitions.

The chain proposes a uniformly random dual vertex and flips its class; the
move is accepted only when the result is again a contiguous partition
inside the perimeter budget, else the chain holds (self-loop).  This
symmetric-proposal variant has a symmetric transition matrix, so the
uniform distribution on the state space is stationary.  Conductance and
the mixing-time lower bound 1/(4*Phi) are computed in exact rational
arithmetic on exhaustively enumerated state spaces, and the mixing time
by an integer doubling search over powers of the transition counts.

Each step costs only the flipped vertex's neighbourhood, by three
locality facts:

* Endpoints.  Flipping face v toggles the cut edges on the sides of v's
  primal square that lie inside the diamond.  An interior face toggles all
  four sides, so each corner twice, and the cut's endpoints (its
  odd-degree points) stay.  A face with |a|+|b| = 2k has its two outer
  sides outside, so only its two corners on |x|+|y| = k change parity:
  they swap into or out of the endpoint set.  No face has one or three
  outer sides.
* Connectivity.  Let v lie in class A with ``same`` >= 2 neighbours in A
  and at least one in the other class B.  A corner of v is joined when
  two adjacent side-neighbours u and w and their common neighbour x != v
  all lie in A.  Then A - {v} stays connected iff exactly same - 1 of
  v's corners are joined.  A joined corner links its two sides without v.
  Going round v, a side in B splits the A-neighbours into runs, so any
  two of them not linked by joined corners are parted, both ways round,
  by a face in B or off the diamond (a side, or a corner's diagonal).  An
  A-path between them would close a loop through v with such a face on
  each side.  B is connected and meets the boundary, and the outside is
  connected, so no such path exists: A - {v} has same - joined
  components.  The proof needs both classes connected and the cut open,
  which every chain state has.  A closed cut breaks it: at k=4, with
  class 2 = {(1,1), (1,3), (3,1)} and v = (3,3), the rule refuses the
  flip, yet class 1 stays connected the long way round.  No flip runs a
  flood fill.
* Read set.  ``_flip`` reads only v's 3x3 block of the mask: v, its
  side-neighbours, and the diagonals in its corner masks.  Its one test
  of the whole class, that v is not alone in it, is local in a chain
  state: v's class is connected, so it is {v} exactly when v has no
  neighbour in it (same == 0).  The boundary changes, 2*same - 4 for v's
  class and 4 - 2*other for the other, are local as well; only the budget
  test reads the sizes.  So before the budget test a verdict is a function
  of v and at most 2^9 block bits, and ``_verdict`` caches it per face
  under those bits.  A step is one lookup and the budget test, which also
  settles self-loops: at k=8 (C=2, eps=0.5) about 80% of proposals pick a
  face with no neighbour in the other class, which holds.

Budgets of 8k + 4 or more (k >= 2) admit a class enclosed by the other:
one interior face has boundary 4 and its complement 8k + 4.  Such a cut
is a closed curve with no endpoints, so the chain refuses those budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .aztec import OmegaParams, Partition, _Diamond
from .lattice import Point
from .sampling import RngStream


def _flip(d: _Diamond, budget: int, mask: int, b_mask: int, b_comp: int, v: int) -> tuple[int, int] | None:
    """New (b_mask, b_comp) after flipping vertex v of mask, or None when invalid.

    b_mask is the boundary of the class ``mask``, b_comp of its complement.
    Connectivity is the corner rule of the module's Connectivity fact, so
    mask must be a chain state: both classes connected, the cut open.
    """
    bit = 1 << v
    if mask & bit:
        leaving, b_leave, b_join = mask, b_mask, b_comp
    else:
        leaving, b_leave, b_join = d.all_mask ^ mask, b_comp, b_mask
    if leaving == bit:
        return None  # class would become empty
    near = d.nbr_masks[v]
    same = (near & leaving).bit_count()
    other = near.bit_count() - same
    if other == 0:
        return None  # not adjacent to the class it joins
    od = d.outside_deg[v]
    new_b_leave = b_leave - (od + other) + same
    new_b_join = b_join - other + od + same
    if new_b_leave > budget or new_b_join > budget:
        return None
    if same > 1:
        joined = 0
        for corner in d.corner_masks[v]:
            if leaving & corner == corner:
                joined += 1
        if joined != same - 1:
            return None
    return (new_b_leave, new_b_join) if mask & bit else (new_b_join, new_b_leave)


def _verdict(d: _Diamond, mask: int, v: int) -> int | None:
    """``_flip``'s verdict on face v of chain state mask, before the budget test.

    None when no budget admits the flip, else the changes (dm, dc) of the
    mask's and the complement's boundary sizes packed as
    ``(dm + 4) << 4 | (dc + 4)``; each change lies in -4..4.  It is cached
    in ``d.flip_blocks[v]`` under v's block bits (the Read set fact).  A
    miss is filled by ``_flip`` itself from sizes 0 under budget 4, which
    every change meets, so ``_flip`` stays the one flip rule.
    """
    lo, win, verdicts = d.flip_blocks[v]
    key = mask >> lo & win
    if key not in verdicts:
        res = _flip(d, 4, mask, 0, 0, v)
        verdicts[key] = None if res is None else (res[0] + 4) << 4 | (res[1] + 4)
    return verdicts[key]


def _flips(d: _Diamond, budget: int, p: Partition):
    """Canonical masks of the partitions one valid flip away from p, one per vertex."""
    b1, b2 = p.boundary_sizes
    for v in range(d.n):
        r = _verdict(d, p.mask, v)
        if r is not None and b1 + (r >> 4) - 4 <= budget and b2 + (r & 15) - 4 <= budget:
            yield d.canonical(p.mask ^ (1 << v))


# The most faces one uniform_ints call in advance draws.  It bounds the list
# advance holds on a long run, and the bytes of one round (a byte per face
# below 257 faces); the faces drawn do not depend on it.
_DRAW_BLOCK = 4096


@dataclass
class ChainState:
    """Mutable Glauber chain state; the current partition is always in Omega.

    ``odd`` holds the odd-degree points of the cut, its two endpoints, and
    is replaced (never mutated) when a flip changes them.  ``in_s`` says
    whether they are ordered (the slow cut S), and ``crossings`` counts
    the moves that changed it.
    """

    diamond: _Diamond
    budget: int
    mask: int
    b_mask: int
    b_comp: int
    odd: frozenset[Point]
    in_s: bool
    rng: RngStream
    step: int = 0
    moves: int = 0
    crossings: int = 0

    @property
    def partition(self) -> Partition:
        d = self.diamond
        if self.mask & d.anchor_bit:
            return Partition(d.k, self.mask, (self.b_mask, self.b_comp))
        return Partition(d.k, d.all_mask ^ self.mask, (self.b_comp, self.b_mask))

    def endpoints(self) -> tuple[Point, Point]:
        if len(self.odd) != 2:
            raise ValueError("cut does not have exactly two endpoints")
        a, b = self.odd
        return (a, b) if a < b else (b, a)

    def advance(self, steps: int) -> int:
        """Run ``steps`` proposals; returns how many of them moved the chain.

        The faces come from ``uniform_ints`` in blocks, the same draws as
        one ``uniform_int`` per step.  Below 257 faces (k <= 10) a block
        reads one byte per face, as many bytes per round as faces still
        needed, which are the bytes the single draws read (the
        ``sampling`` module docstring).  Each proposal looks up
        ``_verdict``'s cache under the face's block bits (the module's Read
        set fact), then makes the budget test.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return 0  # leaves the verdict caches unbuilt
        d = self.diamond
        blocks = d.flip_blocks
        budget = self.budget
        mask = self.mask
        b_mask = self.b_mask
        b_comp = self.b_comp
        moves = 0
        left = steps
        while left > 0:
            block = _DRAW_BLOCK if left > _DRAW_BLOCK else left
            left -= block
            for v in self.rng.uniform_ints(d.n, block):
                lo, win, verdicts = blocks[v]
                try:
                    r = verdicts[mask >> lo & win]
                except KeyError:
                    r = _verdict(d, mask, v)
                if r is None:
                    continue
                new_b_mask = b_mask + (r >> 4) - 4
                new_b_comp = b_comp + (r & 15) - 4
                if new_b_mask > budget or new_b_comp > budget:
                    continue
                mask ^= 1 << v
                b_mask, b_comp = new_b_mask, new_b_comp
                moves += 1
                if d.outside_deg[v]:
                    # an outer face: its two corners on |x|+|y| = k change parity
                    a, b = d.verts[v]
                    sa = 1 if a > 0 else -1
                    sb = 1 if b > 0 else -1
                    self.odd = self.odd ^ {Point((a + sa) // 2, (b - sb) // 2), Point((a - sa) // 2, (b + sb) // 2)}
                    in_s = _ordered(self.endpoints())
                    if in_s != self.in_s:
                        self.crossings += 1
                        self.in_s = in_s
        self.mask = mask
        self.b_mask = b_mask
        self.b_comp = b_comp
        self.step += steps
        self.moves += moves
        return moves


def check_open_cuts(k: int, params: OmegaParams) -> None:
    """ValueError when Omega's budget admits a closed cut (a class enclosed by the other)."""
    budget = params.budget(k)
    if k >= 2 and budget >= 8 * k + 4:
        raise ValueError(
            f"budget {budget} >= 8k+4 = {8 * k + 4} admits a class enclosed by the other, "
            "whose cut has no endpoints; lower C"
        )


def make_chain(k: int, params: OmegaParams, start: Partition, rng: RngStream) -> ChainState:
    if start.k != k:
        raise ValueError(f"start partition has order {start.k}, the chain order {k}")
    check_open_cuts(k, params)
    d = _Diamond.get(k)
    if max(start.boundary_sizes) > params.budget(k):
        raise ValueError("start partition outside Omega")
    ends = d.cut_endpoints(start.mask)
    return ChainState(
        diamond=d,
        budget=params.budget(k),
        mask=start.mask,
        b_mask=start.boundary_sizes[0],
        b_comp=start.boundary_sizes[1],
        odd=frozenset(ends),
        in_s=_ordered(ends),
        rng=rng,
    )


def glauber_step(state: ChainState) -> bool:
    """One proposal; returns True when the chain moved (False on self-loop)."""
    return state.advance(1) == 1


def _ordered(endpoints: tuple[Point, Point]) -> bool:
    a, b = endpoints
    return (a.x - b.x) * (a.y - b.y) >= 0


def ordered_endpoints(p: Partition) -> bool:
    """The slow cut S: both endpoint coordinates weakly ordered the same way."""
    return _ordered(_Diamond.get(p.k).cut_endpoints(p.mask))


def enumerate_omega(k: int, params: OmegaParams, cap: int = oracle.DEFAULT_PARTITION_CAP) -> list[Partition]:
    """All partitions in Omega, label symmetry quotiented by the anchor vertex."""
    return oracle.enumerate_partitions(k, params, cap=cap).items


@dataclass(frozen=True)
class CutReport:
    """Exact conductance data of one cut of the state space."""

    state_count: int
    cut_size: int
    mass: Fraction
    flow: Fraction
    ratio: Fraction
    mixing_lower_bound: Fraction | None


def conductance_of_cut(omega: list[Partition], params: OmegaParams, cut) -> CutReport:
    """Exact Q(S, S-bar)/pi(S) for the cut selected by the predicate.

    pi is uniform on omega, P(w, w') = 1/|V| per valid single-vertex flip.
    If the selected set has mass above 1/2 its complement is used; an empty
    selection (or empty complement) is an error.
    """
    if not omega:
        raise ValueError("empty state space")
    k = omega[0].k
    check_open_cuts(k, params)
    d = _Diamond.get(k)
    budget = params.budget(k)
    masks = {p.mask: p for p in omega}
    in_cut = {m: bool(cut(p)) for m, p in masks.items()}
    s_masks = [m for m, f in in_cut.items() if f]
    if 2 * len(s_masks) > len(masks):
        s_masks = [m for m, f in in_cut.items() if not f]
        in_cut = {m: not f for m, f in in_cut.items()}
    if not s_masks:
        raise ValueError("cut selects an empty set (or everything)")
    crossings = 0
    for m in s_masks:
        for m2 in _flips(d, budget, masks[m]):
            if m2 not in masks:
                raise AssertionError("valid flip left the enumerated state space")
            if not in_cut[m2]:
                crossings += 1
    n = len(masks)
    mass = Fraction(len(s_masks), n)
    flow = Fraction(crossings, n * d.n)
    ratio = flow / mass
    bound = None if ratio == 0 else Fraction(1, 4) / ratio
    return CutReport(n, len(s_masks), mass, flow, ratio, bound)


@dataclass
class ChainTrace:
    """Recorded observables of one chain run."""

    steps: int
    crossings: int
    moves: int
    records: list = field(default_factory=list)
    final: Partition | None = None


def run_chain(
    k: int,
    params: OmegaParams,
    steps: int,
    rng: RngStream,
    start: Partition | None = None,
    record_every: int = 1,
) -> ChainTrace:
    """Run the chain, tracking endpoint observables and S <-> S-bar crossings.

    The trace records (step, endpoints, in_S, boundary sizes) every
    record_every steps (plus step 0); crossings of the ordered-endpoints
    cut are counted at every step regardless.
    """
    from .aztec import staircase_partition

    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    check_open_cuts(k, params)  # bad k or params are refused before the start is built
    if start is None:
        start = staircase_partition(k)
    state = make_chain(k, params, start, rng)

    def snapshot() -> tuple:
        a, b = state.endpoints()
        return (state.step, (tuple(a), tuple(b)), state.in_s, (state.b_mask, state.b_comp))

    records = [snapshot()]
    for _ in range(steps // record_every):
        state.advance(record_every)
        records.append(snapshot())
    state.advance(steps % record_every)
    return ChainTrace(steps=steps, crossings=state.crossings, moves=state.moves,
                      records=records, final=state.partition)


def transition_counts(omega: list[Partition], params: OmegaParams) -> tuple[list[list[int]], int]:
    """Integer transition matrix M with P = M/|V|, over the enumerated space."""
    if not omega:
        raise ValueError("empty state space")
    k = omega[0].k
    check_open_cuts(k, params)
    d = _Diamond.get(k)
    budget = params.budget(k)
    idx = {p.mask: i for i, p in enumerate(omega)}
    n = len(omega)
    mat = [[0] * n for _ in range(n)]
    for i, p in enumerate(omega):
        out = 0
        for m2 in _flips(d, budget, p):
            mat[i][idx[m2]] += 1
            out += 1
        mat[i][i] = d.n - out
    return mat, d.n


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _mat_pow(m: list[list[int]], e: int) -> list[list[int]]:
    """M^e for e >= 1 by repeated squaring."""
    if e == 1:
        return m
    half = _mat_pow(m, e // 2)
    sq = _mat_mul(half, half)
    return _mat_mul(sq, m) if e & 1 else sq


def _tv_ok(mt: list[list[int]]) -> bool:
    """max-over-starts TV(P^t(s,.), uniform) <= 1/4 for P^t = M^t/|V|^t, in integers."""
    n = len(mt)
    d_tot = sum(mt[0])  # every row of M^t sums to |V|^t
    return all(2 * sum(abs(n * x - d_tot) for x in row) <= n * d_tot for row in mt)


def _tv_ok_exact(mat: list[list[int]], t: int) -> bool:
    """The worst-start TV test at step t >= 1 by one matrix power: the reference for the search."""
    return _tv_ok(_mat_pow(mat, t))


def exact_mixing_time(omega: list[Partition], params: OmegaParams) -> int:
    """Smallest t >= 1 with worst-start total-variation distance d(t) <= 1/4, exactly.

    M = |V|*P is symmetric, so one reachability pass from state 0 decides
    irreducibility.  A reducible chain, or one with no self-loop (so possibly
    periodic), is refused with ValueError; otherwise d(t) -> 0.  M is squared
    until d(2^j) <= 1/4, then t is bisected below 2^j by products of the
    cached squares.  Bisection is exact because d(t) is nonincreasing for any
    chain: P^(t+1)(x,.) - pi averages P^t(y,.) - pi over y ~ P(x,.).
    """
    mat, _ = transition_counts(omega, params)
    n = len(mat)
    seen, todo = {0}, [0]
    while todo:
        todo += [j for j, x in enumerate(mat[todo.pop()]) if x and j not in seen]
        seen.update(todo)
    if len(seen) < n:
        raise ValueError(f"chain is reducible: {n - len(seen)} of {n} states unreachable from the first")
    if not any(row[i] for i, row in enumerate(mat)):
        raise ValueError("chain has no self-loop, so it may be periodic")
    squares = [mat]  # squares[i] = M^(2^i)
    while not _tv_ok(squares[-1]):
        squares.append(_mat_mul(squares[-1], squares[-1]))
    t, m = 0, None  # the largest t found with d(t) > 1/4, high bit first, and M^t (None at t = 0)
    for i in range(len(squares) - 2, -1, -1):
        cand = squares[i] if m is None else _mat_mul(m, squares[i])
        if not _tv_ok(cand):
            t, m = t + (1 << i), cand
    return t + 1
