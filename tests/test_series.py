from fractions import Fraction

import pytest

from oracles import lambda_tvoth
from steinberg_lab import series
from steinberg_lab.apartment import base_chambers, central_chamber, chambers_within, distance
from steinberg_lab.errors import BudgetExceeded, DomainError, NotApplicable
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


# the types and degrees on which Bott's product is checked against its factors
BOTT_TYPES = (
    [("A", r) for r in range(1, 10)]
    + [(fam, r) for fam in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _bott_by_convolution(exponents, n):
    """Bott's product to degree n, convolving the truncated factor series
    (sum_{k <= m} x^k) * (sum_j x^(jm)) one exponent at a time."""
    coeffs = [1] + [0] * n
    for m in exponents:
        factor = [0] * (n + 1)
        for k in range(min(m, n) + 1):
            for jm in range(0, n + 1 - k, m):
                factor[k + jm] += 1
        coeffs = [sum(coeffs[i] * factor[d - i] for i in range(d + 1)) for d in range(n + 1)]
    return coeffs


def test_poincare_closed_matches_factor_convolution():
    for fam, rank in BOTT_TYPES:
        sys = build(fam, rank)
        for n in (0, 1, 5, 12, 30):
            assert series.poincare_closed(sys, n) == _bott_by_convolution(sys.exponents, n)


def test_poincare_bfs_sizes_the_ball_before_enumerating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr("steinberg_lab.apartment.chambers_within", unreachable)
    monkeypatch.setattr("steinberg_lab.apartment._h_shells", unreachable)
    with pytest.raises(BudgetExceeded, match="93513976 alcoves exceed the budget of 2000000"):
        series.poincare_bfs(build("E", 8), 30)


def test_type_a_sum_is_the_affine_a_series():
    # on the exponents 1..d of A_d the product telescopes
    for d in range(1, 9):
        for x in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 9), Fraction(-1, 3), Fraction(1, 81)):
            assert series.poincare_value(build("A", d), x) == (1 - x ** (d + 1)) / (1 - x) ** (d + 1)
    assert series.poincare_value(build("A", 1), Fraction(1, 2)) == 3
    with pytest.raises(DomainError):
        series.poincare_value(build("A", 1), Fraction(3, 2))


def test_tail_bound_monotone_and_positive():
    sys = build("A", 2)
    prev = None
    for r in range(10):
        b = series.tail_bound(sys, 3, r)
        assert b > 0
        if prev is not None:
            assert b <= prev
        prev = b
    assert series.tail_bound(sys, 5, 6) < series.tail_bound(sys, 3, 6)
    assert series.tail_bound(sys, 3, 10) < Fraction(1, 100)


def test_tail_bound_exponent_is_the_positive_root_count():
    b2 = build("B", 2)
    for q in (3, 5):
        x = Fraction(1, q)
        for r in (0, 3, 7):
            prefix = sum(c * x**l for l, c in enumerate(series.poincare_closed(b2, r)))
            assert series.tail_bound(b2, q, r) == q**4 * (series.poincare_value(b2, x) - prefix)


def test_lambda_partial_sums():
    lam = series.lambda_a2n_partial(1, 3, 8)
    assert lam.partial_sums[0] == 1
    # radius 1: three coarse chambers at fine distance three
    assert lam.partial_sums[1] == 1 - Fraction(3, 9)
    for r in range(6, 9):
        assert abs(lam.partial_sums[r] - 1) <= lam.tail_bounds[r]
    assert lam.certified_radii()


@pytest.mark.parametrize("n, q, radius", [(1, 3, 12), (1, 5, 12), (2, 3, 4)])
def test_lambda_shell_sums_match_the_chamber_by_chamber_sum(n, q, radius):
    # each coarse chamber cf at coarse distance d adds q^d (-1)^de / q^de, de the fine
    # distance between the central chambers of the base and of cf
    lam = series.lambda_a2n_partial(n, q, radius)
    sys = build("A", 2 * n)
    base_f, _ = base_chambers(sys)
    c0 = central_chamber(base_f)
    running, partials = Fraction(0), []
    for d, shell in enumerate(chambers_within(base_f, radius)):
        for cf in shell:
            de = distance(c0, central_chamber(cf))
            running += Fraction(q**d) * Fraction((-1) ** de, q**de)
        partials.append(running)
    assert lam.partial_sums == partials
    assert lam.tail_bounds == [series.tail_bound(sys, q, r) for r in range(radius + 1)]
    x = Fraction(1, q)
    prefix = sum(c * x**l for l, c in enumerate(series.poincare_closed(sys, radius)))
    assert lam.tail_bounds[-1] == q ** len(sys.positive_roots) * (series.poincare_value(sys, x) - prefix)


def test_lambda_rejects_even_q():
    with pytest.raises(ValueError):
        series.lambda_a2n_partial(1, 4, 4)
    with pytest.raises(ValueError, match="radius must be nonnegative"):  # once read as 0
        series.lambda_a2n_partial(1, 3, -1)


def test_lambda_tvoth():
    g2 = build("G", 2)
    assert lambda_tvoth(g2, 3, 7) == 7
    a3 = build("A", 3)
    expected = 5 * (1 - Fraction(1, 81)) / (1 - Fraction(1, 9)) ** 2
    assert lambda_tvoth(a3, 3, 5) == expected
    assert lambda_tvoth(build("D", 5), 3, 2) != 0
    assert lambda_tvoth(build("E", 6), 3, 1) != 0
    with pytest.raises(NotApplicable):
        lambda_tvoth(build("A", 2), 3, 1)
    with pytest.raises(ValueError):
        lambda_tvoth(g2, 3, 0)


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
        assert lambda_tvoth(build(fam, rank), 3, 1) == LAMBDA_TVOTH_Q3.get((fam, rank), 1)
