from fractions import Fraction

import pytest

from sawkit.combinatorics import (
    binomial_bound_check,
    closed_walk_count,
    compare_with_exp,
    walk_count,
)
from sawkit.lattice import FullLattice, Point
from sawkit.oracle import enumerate_walks


def test_walk_count_examples():
    assert walk_count(1, 1, 0) == 2
    assert walk_count(1, 0, 1) == 9
    assert walk_count(2, 1, 1) == 50


def test_walk_count_symmetry():
    for n1 in range(5):
        for n2 in range(5):
            for t in range(4):
                assert walk_count(n1, n2, t) == walk_count(n2, n1, t)


def test_walk_count_matches_enumeration():
    z = FullLattice()
    for n1 in range(0, 4):
        for n2 in range(0, 4 - n1):
            for t in range(0, 3):
                enum = enumerate_walks(z, Point(0, 0), Point(n1, n2), n1 + n2 + 2 * t).count
                assert walk_count(n1, n2, t) == enum


def test_closed_walk_counts():
    assert [closed_walk_count(k) for k in range(4)] == [1, 4, 36, 400]
    for k in range(4):
        assert closed_walk_count(k) == walk_count(0, 0, k)


def test_compare_with_exp():
    assert compare_with_exp(Fraction(1), Fraction(0)) == 0
    assert compare_with_exp(Fraction(5, 2), Fraction(1)) < 0  # 2.5 < e
    assert compare_with_exp(Fraction(3), Fraction(1)) > 0
    assert compare_with_exp(Fraction(1, 8), Fraction(-2)) < 0  # 0.125 < e^-2
    assert compare_with_exp(Fraction(1, 7), Fraction(-2)) > 0


def test_binomial_bound_examples():
    assert binomial_bound_check(100, 5, 3)
    assert binomial_bound_check(1000, -20, 40)
    assert binomial_bound_check(50, 0, 1)  # upper bound holds with equality


def test_binomial_bound_preconditions():
    with pytest.raises(ValueError):
        binomial_bound_check(100, 20, 3)  # |x| > n/10
    with pytest.raises(ValueError):
        binomial_bound_check(100, 0, 20)  # k > n/10
    with pytest.raises(ValueError):
        binomial_bound_check(0, 0, 0)
