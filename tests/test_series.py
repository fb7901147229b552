from fractions import Fraction

import pytest

from steinberg_lab import series
from steinberg_lab.errors import DomainError, NotApplicable
from steinberg_lab.rootsys import build
from steinberg_lab.suites import SIGN_CALCULUS_TYPES


def test_poincare_closed_a1():
    assert series.poincare_closed(build("A", 1), 4) == [1, 2, 2, 2, 2]


def test_poincare_closed_equals_bfs():
    for fam, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2)]:
        sys = build(fam, rank)
        assert series.poincare_closed(sys, 8) == series.poincare_bfs(sys, 8)


def test_poincare_leading_coefficient():
    for fam, rank in [("B", 3), ("F", 4), ("E", 6)]:
        coeffs = series.poincare_closed(build(fam, rank), 5)
        assert coeffs[0] == 1
        assert all(c > 0 for c in coeffs[1:])


def test_a_type_closed_form():
    # (1 - x^(d+1)) / (1 - x)^(d+1), expanded
    sys = build("A", 2)
    coeffs = series.poincare_closed(sys, 6)
    expected = []
    for n in range(7):
        c = (n + 2) * (n + 1) // 2
        if n >= 3:
            c -= (n - 1) * (n - 2) // 2
        expected.append(c)
    assert coeffs == expected


def test_s_value():
    assert series.s_value(1, Fraction(1, 2)) == 3
    assert series.s_value(0, Fraction(1, 3)) == 1
    assert series.s_value(2, Fraction(1, 9)) == (1 - Fraction(1, 729)) / Fraction(8, 9) ** 3
    assert series.s_value(2, Fraction(1, 4)) > 0
    with pytest.raises(DomainError):
        series.s_value(1, Fraction(3, 2))


def test_tail_bound_monotone_and_positive():
    sys = build("A", 2)
    prev = None
    for r in range(10):
        b = series.tail_bound(sys, 3, r, 3)
        assert b > 0
        if prev is not None:
            assert b <= prev
        prev = b
    assert series.tail_bound(sys, 5, 6, 3) < series.tail_bound(sys, 3, 6, 3)
    assert series.tail_bound(sys, 3, 10, 3) < Fraction(1, 100)


def test_lambda_partial_sums():
    lam = series.lambda_a2n_partial(1, 3, 8)
    assert lam.partial_sums[0] == 1
    # radius 1: three coarse chambers at fine distance three
    assert lam.partial_sums[1] == 1 - Fraction(3, 9)
    for r in range(6, 9):
        assert abs(lam.partial_sums[r] - 1) <= lam.tail_bounds[r]
    assert lam.certified_radii()


def test_lambda_rejects_even_q():
    with pytest.raises(ValueError):
        series.lambda_a2n_partial(1, 4, 4)


def test_lambda_tvoth():
    g2 = build("G", 2)
    assert series.lambda_tvoth(g2, 3, 7) == 7
    a3 = build("A", 3)
    expected = 5 * (1 - Fraction(1, 81)) / (1 - Fraction(1, 9)) ** 2
    assert series.lambda_tvoth(a3, 3, 5) == expected
    assert series.lambda_tvoth(build("D", 5), 3, 2) != 0
    assert series.lambda_tvoth(build("E", 6), 3, 1) != 0
    with pytest.raises(NotApplicable):
        series.lambda_tvoth(build("A", 2), 3, 1)
    with pytest.raises(ValueError):
        series.lambda_tvoth(g2, 3, 0)


# lambda_tvoth(sys, 3, 1) on the types whose fixed facet is positive-dimensional;
# on every other sign-calculus type it is the chamber count 1
LAMBDA_TVOTH_Q3 = {
    ("A", 3): Fraction(5, 4),
    ("A", 5): Fraction(91, 64),
    ("A", 7): Fraction(205, 128),
    ("D", 5): Fraction(41, 40),
    ("D", 7): Fraction(365, 364),
    ("E", 6): Fraction(6643, 6400),
}


def test_lambda_tvoth_values_on_every_sign_calculus_type():
    for fam, rank in SIGN_CALCULUS_TYPES:
        assert series.lambda_tvoth(build(fam, rank), 3, 1) == LAMBDA_TVOTH_Q3.get((fam, rank), 1)
