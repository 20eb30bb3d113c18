"""Exact walk-count formulas and certified binomial sandwich predicates.

Counts are plain Python integers (arbitrary precision, exact).  The bound
predicate compares an exact rational against e^q using interval bounds on
the exponential computed in rational arithmetic with rigorous Taylor
remainders, so a ``True``/``False`` verdict can never be a rounding
artifact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def walk_count(n1: int, n2: int, t: int) -> int:
    """Number of length-(n1+n2+2t) lattice walks from (0,0) to (n1,n2).

    Equals C(n+2t, t) * C(n+2t, n1+t) with n = n1+n2: the t indices holding
    the two reverse move kinds and the n1+t indices holding one coordinate's
    moves determine the walk.
    """
    if n1 < 0 or n2 < 0 or t < 0:
        raise ValueError("walk_count requires nonnegative arguments")
    n = n1 + n2
    return comb(n + 2 * t, t) * comb(n + 2 * t, n1 + t)


def closed_walk_count(k: int) -> int:
    """Number of closed lattice walks of length 2k: C(2k, k)^2."""
    if k < 0:
        raise ValueError("closed_walk_count requires k >= 0")
    return comb(2 * k, k) ** 2


# -- certified comparison of rationals against e^q ---------------------------


def _exp_bounds_nonneg(q: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of e^q for q >= 0 via argument reduction + Taylor."""
    a = int(q)  # floor for q >= 0
    f = q - a
    # bounds on e itself
    s = Fraction(0)
    fact = 1
    for i in range(terms + 1):
        if i > 0:
            fact *= i
        s += Fraction(1, fact)
    e_lo, e_hi = s, s + Fraction(2, fact * (terms + 1))
    # bounds on e^f, 0 <= f < 1: remainder of the N-term Taylor sum is at
    # most twice the first omitted term
    sf = Fraction(0)
    power = Fraction(1)
    fact = 1
    for i in range(terms + 1):
        if i > 0:
            fact *= i
            power *= f
        sf += power / fact
    rem = power * f * 2 / (fact * (terms + 1))
    f_lo, f_hi = sf, sf + rem
    return e_lo**a * f_lo, e_hi**a * f_hi


def compare_with_exp(r: Fraction, q: Fraction) -> int:
    """Certified sign of r - e^q: -1, 0, or +1.

    Equality is only possible at q = 0 (e^q is irrational for rational
    q != 0), so interval refinement always terminates.
    """
    r = Fraction(r)
    q = Fraction(q)
    if r <= 0:
        return -1
    if q == 0:
        return -1 if r < 1 else (0 if r == 1 else 1)
    terms = 8
    while True:
        if q > 0:
            lo, hi = _exp_bounds_nonneg(q, terms)
        else:
            plo, phi = _exp_bounds_nonneg(-q, terms)
            lo, hi = 1 / phi, 1 / plo
        if r < lo:
            return -1
        if r > hi:
            return 1
        terms *= 2


def binomial_bound_check(n: int, x: int, k: int) -> bool:
    """Certified check of the binomial sandwich around C(n+x, k).

    Verifies, with exact rational arithmetic on the binomial side and
    certified enclosures on the exponential side, that

        (n^k/k!) exp((2kx-k^2+k)/(2n) - (2k|x|+2k^2)/n)
            <= C(n+x, k) <= (n^k/k!) exp((2kx-k^2+k)/(2n)).

    Preconditions: |x| <= n/10, k <= n/10, and n+x-k >= max(|x|, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if abs(x) * 10 > n or k * 10 > n:
        raise ValueError("requires |x| <= n/10 and k <= n/10")
    if n + x - k < abs(x) or n + x - k < k:
        raise ValueError("requires n+x-k >= |x| and n+x-k >= k")
    ratio = Fraction(comb(n + x, k) * factorial(k), n**k)
    q_upper = Fraction(2 * k * x - k * k + k, 2 * n)
    q_lower = q_upper - Fraction(2 * k * abs(x) + 2 * k * k, n)
    return compare_with_exp(ratio, q_lower) >= 0 and compare_with_exp(ratio, q_upper) <= 0
