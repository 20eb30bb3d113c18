"""The acceptance suite: one callable per criterion, with pinned tolerances.

Each criterion returns (passed, details); ``run_criteria`` prints one
PASS/FAIL line per criterion.  Statistical criteria use fixed seeds, so
the whole suite is deterministic.  Criterion 4 runs the two large
instances (n=200 and n=300 walk sampling, ``CALIBRATION_INSTANCES``) live
and requires the exact number of attempts each seeded run takes, and a
rate of at least 0.5; together they take about 2-3 s and 0.5 GB peak RSS
on a 2-vCPU machine.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import aztec, glauber, oracle
from .combinatorics import binomial_bound_check, closed_walk_count, walk_count
from .counting import build_table
from .lattice import DIRECTIONS, FullLattice, Point, step
from .paths import (
    base_path,
    bump,
    bumpable_good_edges,
    corner_count,
    is_non_adjacent,
    sample_shortest_path,
    straight_indices,
    straight_pair_count,
    unbump,
)
from .sampling import RngStream, sample_low_girth_walk, sample_saw

_Z = FullLattice()


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str


def _four_sigma_uniform(samples, support) -> tuple[bool, str]:
    rep = oracle.uniformity_test(samples, support)
    ok = rep["max_dev_sigmas"] < 4.0 and rep["p_value"] > 1e-4
    return ok, f"max dev {rep['max_dev_sigmas']:.2f}σ, chi2 p={rep['p_value']:.3g}, support {rep['support_size']}"


# -- 1: walk-count formula -------------------------------------------------------


def criterion_1() -> tuple[bool, str]:
    checked = 0
    for n1 in range(0, 6):
        for n2 in range(0, 6 - n1):
            for t in range(0, 3):
                expected = oracle.enumerate_walks(_Z, Point(0, 0), Point(n1, n2), n1 + n2 + 2 * t).count
                if walk_count(n1, n2, t) != expected:
                    return False, f"mismatch at (n1={n1}, n2={n2}, t={t})"
                checked += 1
    return True, f"{checked} instances match exhaustive enumeration exactly"


# -- 2: closed walks -------------------------------------------------------------


def criterion_2() -> tuple[bool, str]:
    expected = [1, 4, 36, 400]
    for k in range(4):
        if closed_walk_count(k) != expected[k]:
            return False, f"closed_walk_count({k}) != {expected[k]}"
        enum = oracle.enumerate_walks(_Z, Point(0, 0), Point(0, 0), 2 * k).count
        if enum != expected[k]:
            return False, f"enumeration({k}) gave {enum}"
    return True, "values 1, 4, 36, 400 match enumeration for k <= 3"


# -- 3: DP vs oracle -------------------------------------------------------------


def criterion_3() -> tuple[bool, str]:
    cells = 0
    saw_cells = 0
    girths = (1, 2, 3)
    for n1 in range(0, 13):
        for n2 in range(n1, 13 - n1):
            n = n1 + n2
            if n == 0 or n > 12:
                continue
            kmax = (12 - n) // 2
            lengths = [n + 2 * j for j in range(kmax + 1)]
            # one DFS per (n1, n2, girth) counts every length; a girth-l walk of length <= 2l is a SAW
            saws_by_length = oracle.saw_counts(
                _Z, Point(0, 0), Point(n1, n2), [L for L in lengths if L <= 2 * max(girths)]
            )
            for girth in girths:
                table = build_table(_Z, Point(0, 0), Point(n1, n2), girth, kmax)
                oracle_counts = oracle.low_girth_walk_counts(_Z, Point(0, 0), Point(n1, n2), lengths, girth)
                for length in lengths:
                    got = table.low_girth_walk_count(length)
                    want = oracle_counts[length]
                    if got != want:
                        return False, f"DP {got} != oracle {want} at ({n1},{n2}) L={length} l={girth}"
                    cells += 1
                    if 2 * girth >= length:
                        saws = saws_by_length[length]
                        if got != saws:
                            return False, f"DP {got} != SAW count {saws} at ({n1},{n2}) L={length} l={girth}"
                        saw_cells += 1
    # direction symmetry spot checks
    for n1, n2, k, girth in ((3, 1, 2, 2), (4, 2, 1, 1), (5, 2, 1, 3)):
        a = build_table(_Z, Point(0, 0), Point(n1, n2), girth, k).counts()
        b = build_table(_Z, Point(0, 0), Point(n2, n1), girth, k).counts()
        if a != b:
            return False, f"asymmetry at ({n1},{n2}) vs ({n2},{n1})"
    return True, f"{cells} DP cells exact ({saw_cells} of them also equal the SAW count)"


# -- 4: sandwich + acceptance monotone in l + the large instances live ------------


def _acceptance_rate(n1: int, n2: int, k: int, girth: int, draws: int, seed: int) -> tuple[float, int]:
    table = build_table(_Z, Point(0, 0), Point(n1, n2), girth, k)
    rng = RngStream(seed)
    length = n1 + n2 + 2 * k
    attempts = 0
    for _ in range(draws):
        rep = sample_saw(table, rng, length, max_attempts=100_000)
        attempts += rep.attempts
    return draws / attempts, attempts


CALIBRATION_DRAWS = 2000
# name, n1, n2, k, l, seed, attempts.  n=300 takes k = ceil(300^0.55)/2 = 12, the smallest k
# of that scale keeping l*delta > 1.  The seeded run is exact, so its attempt count is pinned.
CALIBRATION_INSTANCES = (
    ("saw-n200-k6-l2", 100, 100, 6, 2, 20240801, 2029),
    ("saw-n300-k12-l2", 150, 150, 12, 2, 20240802, 2136),
)


def criterion_4() -> tuple[bool, str]:
    # sandwich P_k <= W_k^l on a desk-scale sweep
    for n1, n2 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (1, 0), (5, 0)):
        n = n1 + n2
        kmax = max(0, (10 - n) // 2)
        for girth in (1, 2, 3):
            table = build_table(_Z, Point(0, 0), Point(n1, n2), girth, kmax)
            for j in range(kmax + 1):
                length = n + 2 * j
                saws = oracle.enumerate_saws(_Z, Point(0, 0), Point(n1, n2), length).count
                if saws > table.low_girth_walk_count(length):
                    return False, f"P_k > W_k^l at ({n1},{n2}) L={length} l={girth}"
    # W_k^l nonincreasing in l at fixed length
    for n1, n2, k in ((3, 3, 2), (4, 2, 2)):
        counts = [
            build_table(_Z, Point(0, 0), Point(n1, n2), girth, k).low_girth_walk_count(n1 + n2 + 2 * k)
            for girth in (1, 2, 3)
        ]
        if not counts[0] >= counts[1] >= counts[2]:
            return False, f"W_k^l not nonincreasing in l at ({n1},{n2},{k}): {counts}"
    # acceptance rate nondecreasing in l (within 2 sigma)
    draws = 1200
    rates = [_acceptance_rate(7, 7, 3, girth, draws, seed=401 + girth)[0] for girth in (1, 2, 3)]
    for lo, hi in zip(rates, rates[1:]):
        sigma = math.sqrt(lo * (1 - lo) / draws + hi * (1 - hi) / draws)
        if hi < lo - 2 * sigma:
            return False, f"acceptance not monotone in l: {['%.3f' % r for r in rates]}"
    # the large instances, live
    cal = []
    for name, n1, n2, k, girth, seed, pinned in CALIBRATION_INSTANCES:
        rate, attempts = _acceptance_rate(n1, n2, k, girth, CALIBRATION_DRAWS, seed)
        cal.append(f"{name}: rate {rate:.3f} ({attempts} attempts)")
        if attempts != pinned:
            return False, f"{cal[-1]}, expected {pinned} attempts"
        if rate < 0.5:
            return False, f"{cal[-1]} below 0.5"
    return True, f"sandwich exact; acceptance rates in l: {['%.3f' % r for r in rates]}; {', '.join(cal)}"


# -- 5: sampler uniformity --------------------------------------------------------


def criterion_5() -> tuple[bool, str]:
    draws = 50_000
    notes = []
    # low-girth sets (the proportional sampler itself)
    for n1, n2, length, girth, seed in (
        (1, 0, 3, 1, 501),
        (1, 1, 4, 2, 502),
        (1, 1, 6, 2, 503),
        (2, 1, 5, 1, 504),
    ):
        support = [
            w.moves
            for w in oracle.enumerate_low_girth_walks(_Z, Point(0, 0), Point(n1, n2), length, girth).items
        ]
        if not 0 < len(support) <= 200:
            return False, f"support size {len(support)} out of range at ({n1},{n2},{length},{girth})"
        k = (length - n1 - n2) // 2
        table = build_table(_Z, Point(0, 0), Point(n1, n2), girth, k)
        rng = RngStream(seed)
        samples = [sample_low_girth_walk(table, rng, length).moves for _ in range(draws)]
        ok, txt = _four_sigma_uniform(samples, support)
        notes.append(f"walks({n1},{n2},L{length},l{girth}): {txt}")
        if not ok:
            return False, notes[-1]
    # SAW sets through rejection
    for n1, n2, length, girth, seed in ((1, 1, 4, 1, 511), (2, 1, 5, 1, 512), (2, 2, 6, 2, 513)):
        support = [w.moves for w in oracle.enumerate_saws(_Z, Point(0, 0), Point(n1, n2), length).items]
        if not 0 < len(support) <= 100:
            return False, f"SAW support size {len(support)} out of range"
        k = (length - n1 - n2) // 2
        table = build_table(_Z, Point(0, 0), Point(n1, n2), girth, k)
        rng = RngStream(seed)
        samples = [sample_saw(table, rng, length).walk.moves for _ in range(draws)]
        ok, txt = _four_sigma_uniform(samples, support)
        notes.append(f"saws({n1},{n2},L{length}): {txt}")
        if not ok:
            return False, notes[-1]
    return True, "; ".join(notes)


# -- 6: straight-pair concentration ----------------------------------------------


def criterion_6() -> tuple[bool, str]:
    n = 200
    threshold = n / 2 - 2 * math.log(n) - math.sqrt(n * math.log(100))
    rng = RngStream(601)
    good = sum(
        1 for _ in range(1000) if straight_pair_count(sample_shortest_path(rng, 100, 100)) >= threshold
    )
    return good >= 990, f"{good}/1000 paths above threshold {threshold:.2f} (need >= 990)"


# -- 7: bump round-trip ------------------------------------------------------------


def _random_bump_pair(rng: RngStream, pyrng: random.Random, max_side: int = 12):
    while True:
        n1 = pyrng.randint(0, max_side)
        n2 = pyrng.randint(0, max_side)
        if n1 + n2 >= 2:
            break
    b = sample_shortest_path(rng, n1, n2)
    candidates = list(straight_indices(b))
    pyrng.shuffle(candidates)
    chosen: list[int] = []
    for i in candidates:
        if all(abs(i - j) > 1 for j in chosen) and pyrng.random() < 0.6:
            chosen.append(i)
    return b, sorted(chosen)


def criterion_7() -> tuple[bool, str]:
    rng = RngStream(701)
    pyrng = random.Random(701)
    for _ in range(1000):
        b, m = _random_bump_pair(rng, pyrng)
        assert is_non_adjacent(m)
        a = bump(b, m)
        if not a.is_self_avoiding() or len(a) != len(b) + 2 * len(m):
            return False, f"bump broke on {b.to_text()} M={m}"
        if unbump(a).moves != b.moves:
            return False, f"unbump failed on {a.to_text()}"
    return True, "1000 random (B, M): bumps self-avoiding, unbump recovers B"


# -- 8: good-edge bound -------------------------------------------------------------


def criterion_8() -> tuple[bool, str]:
    rng = RngStream(801)
    pyrng = random.Random(801)
    worst = None
    for _ in range(500):
        b, m = _random_bump_pair(rng, pyrng)
        a = bump(b, m)
        n = len(b)
        k = len(m)
        lower = n - corner_count(base_path(a)) - 8 * k
        got = len(bumpable_good_edges(a))
        if got < lower:
            return False, f"only {got} bumpable good edges, bound {lower}, walk {a.to_text()}"
        margin = got - lower
        if worst is None or margin < worst:
            worst = margin
    return True, f"500 bumped walks: |bumpable good edges| >= n - corners - 8k (min margin {worst})"


# -- 9: Aztec geometry ---------------------------------------------------------------


def _bfs_distance(k: int, a: Point, b: Point) -> int:
    if a == b:
        return 0
    region = aztec.AztecRegion(k)
    frontier = [a]
    dist = {a: 0}
    while frontier:
        nxt = []
        for p in frontier:
            for q in (step(p, m) for m in DIRECTIONS):
                if q in region and q not in dist:
                    dist[q] = dist[p] + 1
                    if q == b:
                        return dist[q]
                    nxt.append(q)
        frontier = nxt
    raise ValueError("unreachable")


def criterion_9() -> tuple[bool, str]:
    for k in range(1, 13):
        if aztec.outer_boundary_edge_count(k) != 8 * k:
            return False, f"outer boundary edges wrong at k={k}"
        if len(aztec.dual_vertices(k)) != 2 * k * (k + 1):
            return False, f"|V(A_k)| wrong at k={k}"
    for k in range(1, 9):
        for p in aztec.boundary_vertices(k):
            if _bfs_distance(k, p, Point(-p.x, -p.y)) != 2 * k:
                return False, f"antipodal distance wrong at k={k}, {p}"
        for x in range(0, k + 1):
            y = k - x
            if _bfs_distance(k, Point(x, y), Point(x, -y)) != 2 * k - 2 * x:
                return False, f"aligned distance wrong at k={k}, x={x}"
    return True, "8k boundary edges (k<=12); antipodal 2k and aligned 2k-2x distances (k<=8)"


# -- 10: partition bijection + uniformity ---------------------------------------------


def criterion_10() -> tuple[bool, str]:
    params = aztec.OmegaParams(2, 0.5)
    # bijection round-trips on the full enumerated spaces
    for k in (1, 2, 3):
        for part in glauber.enumerate_omega(k, params):
            walk = aztec.partition_to_path(part)
            back = aztec.path_to_partition(k, walk)
            if back.class1 != part.class1:
                return False, f"bijection failed at k={k}"
    # ordered-endpoint floor
    for k in (2, 3):
        omega = glauber.enumerate_omega(k, params)
        cnt = sum(1 for p in omega if glauber.ordered_endpoints(p))
        if cnt < comb(2 * k, k):
            return False, f"|S|={cnt} < C(2k,k)={comb(2*k,k)} at k={k}"
    # sampler uniformity over Omega at k=2
    omega2 = glauber.enumerate_omega(2, params)
    support = [tuple(sorted(p.class1)) for p in omega2]
    family = aztec.partition_family(2, params, girth=2)
    rng = RngStream(1001)
    samples = []
    for _ in range(50_000):
        part, _rep = aztec.sample_partition(2, params, 2, rng, family=family)
        samples.append(tuple(sorted(part.class1)))
    ok, txt = _four_sigma_uniform(samples, support)
    if not ok:
        return False, f"sampled partitions not uniform: {txt}"
    return True, f"bijections exact for k<=3; |S| floors hold; k=2 sampling {txt}"


# -- 11: Glauber contrast ----------------------------------------------------------------


def criterion_11() -> tuple[bool, str]:
    params = aztec.OmegaParams(3, 0.5)
    omegas = {k: glauber.enumerate_omega(k, params) for k in (2, 3, 4)}
    reps = {k: glauber.conductance_of_cut(omega, params, glauber.ordered_endpoints) for k, omega in omegas.items()}
    ratios = {k: rep.ratio for k, rep in reps.items()}
    if not ratios[2] > ratios[3] > ratios[4]:
        return False, f"conductance not strictly decreasing: {ratios}"
    tmix = glauber.exact_mixing_time(omegas[2], params)
    bound = reps[2].mixing_lower_bound
    if Fraction(tmix) < bound:
        return False, f"t_mix {tmix} below conductance bound {bound}"
    slow = aztec.OmegaParams(1, 0.5)
    trace = glauber.run_chain(8, slow, 10**6, RngStream(1101), record_every=100_000)
    if trace.crossings != 0:
        return False, f"k=8 trace crossed S boundary {trace.crossings} times in 1e6 steps"
    ratio_txt = ", ".join(f"k={k}: {r} ({float(r):.5f})" for k, r in ratios.items())
    return True, (
        f"conductance strictly decreasing [{ratio_txt}]; t_mix(k=2)={tmix} >= 1/(4Φ_S)={float(bound):.2f}; "
        f"k=8 trace: 0 crossings in 1e6 steps ({trace.moves} accepted moves)"
    )


# -- 12: binomial bounds -------------------------------------------------------------------


def criterion_12() -> tuple[bool, str]:
    pyrng = random.Random(1201)
    done = 0
    while done < 1000:
        n = pyrng.randint(30, 2500)
        x = pyrng.randint(-(n // 10), n // 10)
        k = pyrng.randint(0, n // 10)
        if n + x - k < max(abs(x), k):
            continue
        if not binomial_bound_check(n, x, k):
            return False, f"bound failed at (n={n}, x={x}, k={k})"
        done += 1
    return True, "1000 random valid triples certified (exact rational vs enclosed exponential)"


# -- 13: determinism ------------------------------------------------------------------------


def _read_tree(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def criterion_13() -> tuple[bool, str]:
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            "saw": ["sample", "saw", "--n1", "6", "--n2", "5", "--k", "2", "--l", "2",
                     "--seed", "11", "--count", "3", "--format", "svg"],
            "aztec": ["aztec", "sample", "--k", "2", "--C", "2.0", "--eps", "0.5", "--l", "2",
                       "--seed", "7", "--count", "2", "--format", "svg"],
        }
        for name, argv in runs.items():
            d1 = os.path.join(tmp, name + "_1")
            d2 = os.path.join(tmp, name + "_2")
            if cli_main(argv + ["--out", d1]) != 0 or cli_main(argv + ["--out", d2]) != 0:
                return False, f"{name}: sampling command failed"
            t1, t2 = _read_tree(d1), _read_tree(d2)
            if t1 != t2:
                return False, f"{name}: repeated run not byte-identical"
            d3 = os.path.join(tmp, name + "_rerun")
            if cli_main(["rerun", os.path.join(d1, "manifest.json"), "--out", d3]) != 0:
                return False, f"{name}: rerun failed"
            if _read_tree(d3) != t1:
                return False, f"{name}: manifest rerun not byte-identical"
    return True, "saw + aztec sampling runs and manifest reruns byte-identical"


CRITERIA = [
    (1, "walk-count formula vs enumeration", criterion_1),
    (2, "closed walk counts", criterion_2),
    (3, "girth DP vs brute-force oracle", criterion_3),
    (4, "count sandwich and acceptance behavior", criterion_4),
    (5, "sampler uniformity (4-sigma, chi-square)", criterion_5),
    (6, "straight-pair concentration", criterion_6),
    (7, "bump round-trip", criterion_7),
    (8, "good-edge lower bound", criterion_8),
    (9, "Aztec geometry", criterion_9),
    (10, "partition bijection and uniformity", criterion_10),
    (11, "Glauber conductance contrast", criterion_11),
    (12, "binomial sandwich bounds", criterion_12),
    (13, "byte-identical reruns", criterion_13),
]


def run_criteria(selected=None, echo=print) -> list[CriterionResult]:
    results = []
    for number, name, func in CRITERIA:
        if selected is not None and number not in selected:
            continue
        try:
            passed, details = func()
        except Exception as exc:  # an unexpected error is a failure, not a crash
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        result = CriterionResult(number, name, passed, details)
        results.append(result)
        echo(f"{'PASS' if passed else 'FAIL'}  criterion {number:2d}  {name}: {details}")
    return results
