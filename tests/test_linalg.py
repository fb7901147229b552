"""The precomputed coordinate map, cross-checked against Gaussian elimination."""

from fractions import Fraction
from itertools import product

import pytest

from steinberg_lab import tables
from steinberg_lab.apartment import facet_functional
from steinberg_lab.errors import HalfIntegralityViolation, NotARoot
from steinberg_lab.linalg import LeftInverse, solve_exact
from steinberg_lab.rootsys import _ambient_all_roots, build
from steinberg_lab.suites import ACCEPTANCE_TYPES


def test_from_ambient_matches_solve_exact_on_plate_roots():
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        for v in _ambient_all_roots(fam, rank):
            expected = solve_exact(sys._ambient_simples, v)
            assert all(x.denominator == 1 for x in expected)
            assert sys.from_ambient(v) == tuple(int(x) for x in expected)


def test_from_ambient_rejects_off_span_and_non_integral():
    with pytest.raises(NotARoot, match="span"):
        build("A", 2).from_ambient([1, 1, 1])
    with pytest.raises(NotARoot, match="integral"):
        build("B", 2).from_ambient([Fraction(1, 2), 0])


def test_coordinates_match_solve_exact_on_and_off_the_span():
    # the A3 simple roots span the sum-zero hyperplane of Q^4; the F4 ones,
    # with a column of halves, span Q^4; the E6 ones span the 6-space of Q^8
    # that holds 72 of the 240 E8 roots
    grid = list(product((-1, Fraction(1, 2), 0, 2), repeat=4))
    cases = [
        (build("A", 3)._ambient_simples, grid),
        (build("F", 4)._ambient_simples, grid),
        (build("E", 6)._ambient_simples, _ambient_all_roots("E", 8)),
    ]
    off_span = []
    for cols, inputs in cases:
        inverse = LeftInverse(cols)
        off = 0
        for v in inputs:
            expected = solve_exact(cols, v)
            assert inverse.coordinates(v) == expected
            half = expected is not None and all((2 * x).denominator == 1 for x in expected)
            assert inverse.doubled(v) == ([int(2 * x) for x in expected] if half else None)
            off += expected is None
        off_span.append(off)
    assert 0 < off_span[0] < 4**4
    assert off_span[1:] == [0, 240 - 72]


def test_facet_expansion_matches_solve_exact():
    # the facet functional with values (2i+1)/2 is also checked at every
    # root against the solved coordinates
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        values = [Fraction(2 * i + 1, 2) for i in range(rank)]
        full_rank_sets = [sys.simples]
        if tables.expected_sigma_a_size(sys) == rank:
            full_rank_sets.append(tuple(tables.sigma_a_table(sys)))
        for members in full_rank_sets:
            inverse = LeftInverse(members)
            fn = facet_functional(sys, members, dict(zip(members, values)))
            for alpha in sys.roots:
                expected = solve_exact(members, alpha)
                coords = inverse.coordinates(alpha)
                assert coords == expected
                doubled = inverse.doubled(alpha)
                assert all(type(x) is int for x in doubled)
                assert doubled == [2 * c for c in coords]
                assert fn[alpha] == 2 * sum(c * v for c, v in zip(expected, values))


def test_doubled_rejects_thirds_in_g2():
    # over {(0,1), (3,1)} the short simple root is (-1/3) (0,1) + (1/3) (3,1)
    g2 = build("G", 2)
    members = [(0, 1), (3, 1)]
    inverse = LeftInverse(members)
    assert inverse.coordinates((1, 0)) == [Fraction(-1, 3), Fraction(1, 3)]
    assert inverse.doubled((1, 0)) is None
    assert inverse.doubled((0, 1)) == [2, 0]
    with pytest.raises(HalfIntegralityViolation):
        facet_functional(g2, members, {m: Fraction(1, 2) for m in members})


def test_dependent_members_raise_value_error():
    dependent = [(1, 0, 1), (2, 0, 2)]
    with pytest.raises(ValueError, match="dependent"):
        LeftInverse(dependent)
    with pytest.raises(ValueError, match="dependent"):
        solve_exact(dependent, (1, 0, 1))
    b2 = build("B", 2)
    a = b2.simples[0]
    neg = tuple(-c for c in a)
    with pytest.raises(ValueError, match="dependent"):
        facet_functional(b2, [a, neg], {a: Fraction(1, 2), neg: Fraction(1, 2)})
