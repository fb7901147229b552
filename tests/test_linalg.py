"""Coordinates read without a solver, cross-checked against Gaussian elimination."""

import re
from fractions import Fraction

import pytest

from oracles import solve_many
from steinberg_lab import tables
from steinberg_lab.apartment import facet_functional
from steinberg_lab.errors import NotARoot
from steinberg_lab.linalg import solve_exact
from steinberg_lab.rootsys import _ambient_all_roots, build
from steinberg_lab.suites import ACCEPTANCE_TYPES, SIGN_CALCULUS_TYPES


def _full_rank_sigma_tables(types):
    for fam, rank in types:
        sys = build(fam, rank)
        table = tuple(tables.sigma_a_table(sys))
        if len(table) == rank:
            yield sys, table


def test_from_ambient_matches_solve_exact_on_plate_roots():
    # the plates and the simple roots are both held doubled, which leaves the
    # coordinates of one over the other unchanged
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        plates = _ambient_all_roots(fam, rank)
        for v, expected in zip(plates, solve_many(sys._ambient_simples, plates), strict=True):
            assert all(x.denominator == 1 for x in expected)
            assert sys.from_ambient([Fraction(x, 2) for x in v]) == tuple(int(x) for x in expected)


def test_solve_many_matches_solve_exact():
    # the one-reduction reference the cross-checks below use, against the per-rhs solve
    e6 = build("E", 6)
    cases = [
        (e6._ambient_simples, _ambient_all_roots("E", 6) + [(1,) * 8, (0,) * 8]),
        (tables.sigma_a_table(build("B", 3)), build("B", 3).roots),
        ([(1, 0, 1), (0, 1, 1)], [(1, 1, 2), (1, 1, 1), (2, -3, -1)]),
    ]
    for columns, rhss in cases:
        assert solve_many(columns, rhss) == [solve_exact(columns, v) for v in rhss]
    assert None in solve_many(*cases[0])
    with pytest.raises(ValueError, match="dependent"):
        solve_many([(1, 0, 1), (2, 0, 2)], [(1, 0, 1)])


def test_from_ambient_rejects_off_span_and_non_integral():
    # 2 eps1 - 2 eps2 is twice alpha_1 of A2: in the root lattice, but no root
    a2 = build("A", 2)
    assert solve_exact([[Fraction(x, 2) for x in s] for s in a2._ambient_simples], [2, -2, 0]) == [2, 0]
    for fam, rank, vec in [("A", 2, [1, 1, 1]), ("B", 2, [Fraction(1, 2), 0]), ("A", 2, [2, -2, 0])]:
        with pytest.raises(NotARoot, match=re.escape(f"{tuple(vec)} is not a root of {fam}{rank}")):
            build(fam, rank).from_ambient(vec)


def test_coroot_pairings_are_the_doubled_coordinates_over_orthogonal_sets():
    # over an orthogonal basis beta_i, 2 alpha = sum_i <alpha, beta_i_vee> beta_i
    checked = []
    for sys, table in _full_rank_sigma_tables(sorted(set(ACCEPTANCE_TYPES) | set(SIGN_CALCULUS_TYPES))):
        for alpha, coords in zip(sys.roots, solve_many(table, sys.roots), strict=True):
            assert [sys.root_pairing(alpha, b) for b in table] == [2 * c for c in coords]
        checked.append(str(sys.type))
    assert len(checked) == 22


def test_facet_expansion_matches_solve_exact():
    # the facet functional with values (2i+1)/2 is also checked at every
    # root against the solved coordinates
    sets = 0
    for sys, members in _full_rank_sigma_tables(ACCEPTANCE_TYPES):
        values = [Fraction(2 * i + 1, 2) for i in range(len(members))]
        fn = facet_functional(sys, members, dict(zip(members, values)))
        for alpha, expected in zip(sys.roots, solve_many(members, sys.roots), strict=True):
            assert type(fn[alpha]) is int
            assert fn[alpha] == 2 * sum(c * v for c, v in zip(expected, values))
        sets += 1
    assert sets == 14


def test_facet_functional_rejects_members_that_are_not_orthogonal():
    # over {(0,1), (3,1)} the short simple root of G2 has coordinates in thirds;
    # no orthogonal set can give those, and a general basis is refused
    g2 = build("G", 2)
    members = [(0, 1), (3, 1)]
    with pytest.raises(ValueError, match=re.escape("members (0, 1) and (3, 1) are not orthogonal")):
        facet_functional(g2, members, {m: Fraction(1, 2) for m in members})
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        if rank > 1:
            with pytest.raises(ValueError, match="not orthogonal"):
                facet_functional(sys, sys.simples, {m: Fraction(1, 2) for m in sys.simples})


def test_dependent_members_raise_value_error():
    dependent = [(1, 0, 1), (2, 0, 2)]
    with pytest.raises(ValueError, match="dependent"):
        solve_exact(dependent, (1, 0, 1))
    # pairwise orthogonal roots are independent, so a dependent pair fails orthogonality
    b2 = build("B", 2)
    a = b2.simples[0]
    neg = tuple(-c for c in a)
    with pytest.raises(ValueError, match="not orthogonal"):
        facet_functional(b2, [a, neg], {a: Fraction(1, 2), neg: Fraction(1, 2)})
