import math
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from sawkit import oracle
from sawkit.aztec import OmegaParams, staircase_partition
from sawkit.glauber import (
    _Diamond,
    _flip,
    _ordered,
    _verdict,
    check_open_cuts,
    conductance_of_cut,
    enumerate_omega,
    exact_mixing_time,
    glauber_step,
    make_chain,
    ordered_endpoints,
    run_chain,
    transition_counts,
)
from sawkit.sampling import RngStream

PARAMS = OmegaParams(3, 0.5)


def test_k1_chain_is_all_self_loops():
    # budget 6: only the two antipodal cuts, and no flip can stay in budget
    params = OmegaParams(0.5, 1.0)
    omega = enumerate_omega(1, params)
    assert len(omega) == 2
    state = make_chain(1, params, omega[0], RngStream(1))
    for _ in range(200):
        assert not glauber_step(state)
    assert state.partition.class1 == omega[0].class1


def test_transition_matrix_symmetric_doubly_stochastic():
    for k in (1, 2, 3):
        omega = enumerate_omega(k, PARAMS)
        mat, vdeg = transition_counts(omega, PARAMS)
        n = len(mat)
        assert all(mat[i][j] == mat[j][i] for i in range(n) for j in range(n))
        assert all(sum(row) == vdeg for row in mat)


def test_disconnecting_flip_is_rejected():
    # moving the middle of a 3-cell class would disconnect it
    params = OmegaParams(6, 1.0)  # generous budget so only connectivity can block
    omega = enumerate_omega(2, params)
    d = _Diamond.get(2)
    for p in omega:
        m = d.mask_of(p.class1)
        b1, b2 = p.boundary_sizes
        for v in range(d.n):
            res = _flip(d, params.budget(2), m, b1, b2, v)
            if res is None:
                continue
            # accepted flips must keep both classes connected
            m2 = m ^ (1 << v)
            assert d.connected(m2 & d.all_mask) or m2 == 0
            assert d.connected(d.all_mask ^ m2) or m2 == d.all_mask


def test_chain_stays_in_omega_and_mixes_small():
    omega = enumerate_omega(2, PARAMS)
    budget = PARAMS.budget(2)
    state = make_chain(2, PARAMS, staircase_partition(2), RngStream(7))
    seen = set()
    for _ in range(20_000):
        glauber_step(state)
        assert max(state.b_mask, state.b_comp) <= budget
        seen.add(state.partition.class1)
    assert seen == {p.class1 for p in omega}


def test_chain_empirical_uniformity_thinned():
    # thin to near-independent samples (t_mix = 87 at these parameters)
    omega = enumerate_omega(2, PARAMS)
    d = _Diamond.get(2)
    state = make_chain(2, PARAMS, staircase_partition(2), RngStream(11))
    counts = Counter()
    kept = 0
    for i in range(1_000_000):
        glauber_step(state)
        if (i + 1) % 250 == 0:
            m = state.mask if state.mask & d.anchor_bit else d.all_mask ^ state.mask
            counts[m] += 1
            kept += 1
    p = 1 / len(omega)
    sigma = math.sqrt(p * (1 - p) / kept)
    canon = []
    for part in omega:
        m = d.mask_of(part.class1)
        if not m & d.anchor_bit:
            m = d.all_mask ^ m
        canon.append(m)
    devs = [abs(counts.get(m, 0) / kept - p) / sigma for m in canon]
    assert max(devs) < 4.0


def test_conductance_report_k2():
    omega = enumerate_omega(2, PARAMS)
    rep = conductance_of_cut(omega, PARAMS, ordered_endpoints)
    assert rep.ratio > 0
    assert rep.mixing_lower_bound == Fraction(1, 4) / rep.ratio
    assert rep.mass <= Fraction(1, 2)


def test_conductance_cut_of_everything_errors():
    omega = enumerate_omega(2, PARAMS)
    with pytest.raises(ValueError):
        conductance_of_cut(omega, PARAMS, lambda p: True)


def test_conductance_decreasing_k2_k3():
    r2 = conductance_of_cut(enumerate_omega(2, PARAMS), PARAMS, ordered_endpoints).ratio
    r3 = conductance_of_cut(enumerate_omega(3, PARAMS), PARAMS, ordered_endpoints).ratio
    assert r2 > r3


@pytest.mark.parametrize(
    "k,C,expected", [(1, 3, 2), (2, 3, 87), (2, 4, 87), (2, 5, 57)], ids=["k1-C3", "k2-C3", "k2-C4", "k2-C5"]
)
def test_exact_mixing_time_bounds(k, C, expected):
    params = OmegaParams(C, 0.5)
    omega = enumerate_omega(k, params)
    tmix = exact_mixing_time(omega, params)
    assert tmix == expected
    rep = conductance_of_cut(omega, params, ordered_endpoints)
    assert Fraction(tmix) >= rep.mixing_lower_bound
    # mixed at t, not yet at t-1 (minimality), each by one direct matrix power
    from sawkit.glauber import _tv_ok_exact

    mat, _ = transition_counts(omega, params)
    assert _tv_ok_exact(mat, tmix)
    assert not _tv_ok_exact(mat, tmix - 1)


def test_reducible_space_at_tight_budget():
    # with C=2 the k=2 space contains four corner cuts no flip can leave
    params = OmegaParams(2, 0.5)
    omega = enumerate_omega(2, params)
    mat, _ = transition_counts(omega, params)
    isolated = [i for i, row in enumerate(mat) if all(mat[i][j] == 0 for j in range(len(mat)) if j != i)]
    assert len(isolated) == 4
    with pytest.raises(ValueError, match="reducible"):
        exact_mixing_time(omega, params)


def test_periodic_chain_refused(monkeypatch):
    # a two-state flip-flop is irreducible but has period 2: its TV never falls below 1/2
    monkeypatch.setattr("sawkit.glauber.transition_counts", lambda omega, params: ([[0, 1], [1, 0]], 1))
    with pytest.raises(ValueError, match="self-loop"):
        exact_mixing_time([], PARAMS)


def test_ordered_endpoints_floor():
    for k in (2, 3):
        omega = enumerate_omega(k, PARAMS)
        assert sum(1 for p in omega if ordered_endpoints(p)) >= comb(2 * k, k)


def test_run_chain_zero_steps():
    trace = run_chain(2, PARAMS, 0, RngStream(5))
    assert len(trace.records) == 1 and trace.crossings == 0


def test_run_chain_records_and_crossings():
    trace = run_chain(2, PARAMS, 50_000, RngStream(6), record_every=5000)
    assert trace.crossings > 0  # the small space crosses the cut freely
    assert len(trace.records) == 11
    step0 = trace.records[0]
    assert step0[0] == 0 and isinstance(step0[2], bool)


def _reference_flip_valid(d, budget, mask, b_in, b_out, v):
    """Flip validity by whole-class flood fill; b_in is the boundary of v's class, b_out of the other."""
    bit = 1 << v
    leaving = mask if mask & bit else d.all_mask ^ mask
    joining = d.all_mask ^ leaving
    if leaving == bit:
        return None
    same = (d.nbr_masks[v] & leaving).bit_count()
    other = (d.nbr_masks[v] & joining).bit_count()
    if other == 0:
        return None
    od = d.outside_deg[v]
    new_b_leave = b_in - (od + other) + same
    new_b_join = b_out - other + od + same
    if max(new_b_leave, new_b_join) > budget:
        return None
    if same > 1 and not d.connected(leaving ^ bit):
        return None
    return new_b_leave, new_b_join


def _reference_flip(d, budget, mask, b_mask, b_comp, v):
    """_reference_flip_valid in _flip's argument order: (mask, complement)."""
    if mask >> v & 1:
        return _reference_flip_valid(d, budget, mask, b_mask, b_comp, v)
    res = _reference_flip_valid(d, budget, mask, b_comp, b_mask, v)
    return None if res is None else res[::-1]


def _no_flood_fill(self, *args):
    raise AssertionError("a flip ran a flood fill")


def test_flip_valid_matches_whole_class_flood(monkeypatch):
    # every partition of Omega and every vertex for k <= 3 at C=3, k=4 at C=2,
    # and k=2 under budget 24, where one class can enclose the other
    cases = [(1, PARAMS.budget(1)), (2, PARAMS.budget(2)), (3, PARAMS.budget(3)), (2, 24),
             (4, OmegaParams(2, 0.5).budget(4))]
    for k, budget in cases:
        d = _Diamond.get(k)
        flips = [(p.mask, *p.boundary_sizes, v)
                 for p in oracle.enumerate_partitions(k, PARAMS, budget=budget).items for v in range(d.n)]
        want = [_reference_flip(d, budget, *f) for f in flips]
        with monkeypatch.context() as m:
            m.setattr(_Diamond, "component", _no_flood_fill)
            m.setattr(_Diamond, "connected", _no_flood_fill)
            assert [_flip(d, budget, *f) for f in flips] == want
    assert len(flips) == 6_206 * 40


def test_corner_rule_needs_an_open_cut():
    # class 2 is an L of three faces enclosed by class 1 at k=4.  v's
    # class-1 neighbours (5,3) and (3,5) have their diagonal (5,5) off the
    # diamond, so the corner rule refuses, yet they meet the long way round
    d = _Diamond.get(4)
    inner = d.mask_of([(1, 1), (1, 3), (3, 1)])
    mask, v = d.all_mask ^ inner, d.index[(3, 3)]
    sizes = (d.boundary_size(mask), d.boundary_size(inner))
    assert sizes == (40, 8)
    assert _reference_flip_valid(d, 40, mask, *sizes, v) == (40, 8)
    assert d.connected(mask ^ (1 << v)) and d.connected(inner | 1 << v)
    assert _flip(d, 40, mask, *sizes, v) is None
    closed = OmegaParams(8, 0.5)
    assert closed.budget(4) == 40
    with pytest.raises(ValueError, match="admits a class enclosed"):
        make_chain(4, closed, d.partition(mask), RngStream(1))


def _reference_run(k, params, steps, rng, record_every):
    """run_chain's trace, from whole-class flood fills and whole-cut endpoints."""
    d = _Diamond.get(k)
    budget = params.budget(k)
    start = staircase_partition(k)
    mask, (b_mask, b_comp) = start.mask, start.boundary_sizes

    def snapshot(step):
        a, b = d.cut_endpoints(mask)
        return (step, (tuple(a), tuple(b)), in_s, (b_mask, b_comp))

    in_s = _ordered(d.cut_endpoints(mask))
    records, moves, crossings = [snapshot(0)], 0, 0
    for i in range(1, steps + 1):
        v = rng.uniform_int(d.n)
        res = _reference_flip(d, budget, mask, b_mask, b_comp, v)
        if res is not None:
            mask ^= 1 << v
            b_mask, b_comp = res
            moves += 1
            new_in_s = _ordered(d.cut_endpoints(mask))
            crossings += new_in_s != in_s
            in_s = new_in_s
        if i % record_every == 0:
            records.append(snapshot(i))
    return records, moves, crossings, d.partition(mask)


@pytest.mark.parametrize("k", [2, 3, 4, 8])
@pytest.mark.parametrize("C", [2, 3])
def test_chain_matches_whole_diamond_reference(k, C):
    params = OmegaParams(C, 0.5)
    steps, seed = 20_000, 100 * k + C
    d = _Diamond.get(k)
    state = make_chain(k, params, staircase_partition(k), RngStream(seed))
    endpoint_moves = 0
    for _ in range(steps):
        odd = state.odd
        if glauber_step(state):
            assert state.endpoints() == d.cut_endpoints(state.mask)
            endpoint_moves += state.odd != odd
    assert 0 < endpoint_moves < state.moves
    trace = run_chain(k, params, steps, RngStream(seed), record_every=97)
    records, moves, crossings, final = _reference_run(k, params, steps, RngStream(seed), 97)
    assert (trace.records, trace.moves, trace.crossings, trace.final) == (records, moves, crossings, final)
    assert state.partition == final and state.moves == moves
    # a record per step, and a record_every past the run: all of it is the remainder
    for record_every, n in [(1, 5_000), (steps + 1, steps)]:
        trace = run_chain(k, params, n, RngStream(seed), record_every=record_every)
        want = _reference_run(k, params, n, RngStream(seed), record_every)
        assert (trace.records, trace.moves, trace.crossings, trace.final) == want
        assert len(trace.records) == 1 + n // record_every


@pytest.mark.parametrize("k, C_open, C_closed", [(2, 5.6, 5.7), (3, 5.7, 5.8), (8, 7.0, 7.1)])
def test_closed_cut_budgets_are_refused(k, C_open, C_closed):
    # 8k + 4: one interior face against its complement, the smallest enclosed class
    open_params, closed_params = OmegaParams(C_open, 0.5), OmegaParams(C_closed, 0.5)
    assert open_params.budget(k) == 8 * k + 3 and closed_params.budget(k) == 8 * k + 4
    check_open_cuts(k, open_params)
    assert run_chain(k, open_params, 10, RngStream(1)).steps == 10
    with pytest.raises(ValueError, match=f"budget {8 * k + 4} "):
        check_open_cuts(k, closed_params)
    with pytest.raises(ValueError, match="admits a class enclosed"):
        run_chain(k, closed_params, 10, RngStream(1))
    # the exact diagnostics flip every face of every state, so they refuse it too
    with pytest.raises(ValueError, match="admits a class enclosed"):
        conductance_of_cut([staircase_partition(k)], closed_params, ordered_endpoints)
    with pytest.raises(ValueError, match="admits a class enclosed"):
        transition_counts([staircase_partition(k)], closed_params)
    check_open_cuts(1, OmegaParams(100, 0.5))  # k=1 has no interior face to enclose


def test_advance_is_that_many_glauber_steps():
    # 10,000 steps span three face-draw blocks
    block, single = (make_chain(3, PARAMS, staircase_partition(3), RngStream(2)) for _ in range(2))
    assert block.advance(10_000) == sum(glauber_step(single) for _ in range(10_000)) == block.moves
    fields = ("mask", "b_mask", "b_comp", "odd", "in_s", "step", "moves", "crossings")
    assert [getattr(block, f) for f in fields] == [getattr(single, f) for f in fields]
    assert block.crossings > 0 and block.rng.getrandbits(64) == single.rng.getrandbits(64)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        block.advance(-1)


@pytest.mark.parametrize("k,C", [(2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_cached_verdict_is_flip(k, C):
    # a fresh diamond, so the states below fill its caches and then read them back
    params = OmegaParams(C, 0.5)
    budget = params.budget(k)
    d = _Diamond(k)
    for p in enumerate_omega(k, params):
        b_mask, b_comp = p.boundary_sizes
        for v in range(d.n):
            r = _verdict(d, p.mask, v)
            got = None
            if r is not None:
                got = (b_mask + (r >> 4) - 4, b_comp + (r & 15) - 4)
                if max(got) > budget:
                    got = None
            assert got == _flip(d, budget, p.mask, b_mask, b_comp, v)


def test_verdict_caches_are_lazy_and_bounded(monkeypatch):
    monkeypatch.setattr(_Diamond, "_cache", {})
    params = OmegaParams(2, 0.5)
    trace = run_chain(8, params, 0, RngStream(1))
    d = _Diamond.get(8)
    assert "flip_blocks" not in vars(d)  # a run of no steps builds no cache
    state = make_chain(8, params, trace.final, RngStream(1))
    assert "flip_blocks" not in vars(d)
    state.advance(200_000)
    for lo, win, verdicts in d.flip_blocks:
        assert win & 1 and win.bit_count() <= 9
        assert all(key & ~win == 0 for key in verdicts) and len(verdicts) <= 512
    assert sum(len(verdicts) for _, _, verdicts in d.flip_blocks) > d.n


def test_chain_past_256_faces_matches_reference():
    # k=11 has 264 faces, so advance draws each from two bytes, not one byte per face
    params = OmegaParams(2, 0.5)
    assert _Diamond.get(11).n == 264
    trace = run_chain(11, params, 5_000, RngStream(11), record_every=97)
    want = _reference_run(11, params, 5_000, RngStream(11), 97)
    assert (trace.records, trace.moves, trace.crossings, trace.final) == want
    assert trace.moves > 0


def test_start_partition_of_another_order_is_refused():
    params = OmegaParams(2, 0.5)
    with pytest.raises(ValueError, match="order 4, the chain order 8"):
        run_chain(8, params, 100, RngStream(1), start=staircase_partition(4))
    with pytest.raises(ValueError, match="order 8, the chain order 4"):
        make_chain(4, params, staircase_partition(8), RngStream(1))


def test_endpoints_reject_a_closed_cut():
    state = make_chain(2, PARAMS, staircase_partition(2), RngStream(1))
    state.odd = frozenset()
    with pytest.raises(ValueError, match="exactly two endpoints"):
        state.endpoints()
