"""Property tests of the integer pairing path over ACCEPTANCE_TYPES, and of
the chamber metric, translations and facet reflections in rank two.

Examples are derandomized, so every run checks the same cases.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_lab.apartment import (
    E_LEVEL,
    F_LEVEL,
    base_chambers,
    chambers_within,
    distance,
    extended_simple_roots,
    reflect,
    translate,
)
from steinberg_lab.rootsys import _neg, build, strongly_orthogonal
from steinberg_lab.suites import ACCEPTANCE_TYPES

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def root_pairs(draw):
    sys = build(*draw(st.sampled_from(ACCEPTANCE_TYPES)))
    return sys, draw(st.sampled_from(sys.roots)), draw(st.sampled_from(sys.roots))


@SETTINGS
@given(root_pairs())
def test_pairing_is_integral_and_two_on_the_diagonal(case):
    sys, a, b = case
    assert type(sys.root_pairing(a, b)) is int
    assert sys.root_pairing(a, a) == 2


@SETTINGS
@given(root_pairs())
def test_reflection_maps_roots_to_roots_and_is_an_involution(case):
    sys, beta, v = case
    img = sys.reflect_root(beta, v)
    assert sys.is_root(img)
    assert sys.reflect_root(beta, img) == v


@st.composite
def vectors_and_roots(draw):
    sys = build(*draw(st.sampled_from(ACCEPTANCE_TYPES)))
    v = tuple(draw(st.lists(st.integers(-3, 3), min_size=sys.type.rank, max_size=sys.type.rank)))
    return sys, v, draw(st.sampled_from(sys.roots))


@SETTINGS
@given(vectors_and_roots())
def test_pairing_and_reflection_of_any_lattice_vector(case):
    # the two-rho-even check pairs 2 rho, not a root, with every coroot
    sys, v, beta = case
    assert sys.root_pairing(v, beta) == 2 * sys.inner(v, beta) / sys.inner(beta, beta)
    img = sys.reflect_root(beta, v)
    assert img == tuple(a - sys.root_pairing(v, beta) * b for a, b in zip(v, beta))
    assert sys.reflect_root(beta, img) == v


@SETTINGS
@given(root_pairs())
def test_strong_orthogonality_survives_negating_one_member(case):
    sys, a, b = case
    if a in (b, _neg(b)):
        return
    so = strongly_orthogonal(sys, a, b)
    assert strongly_orthogonal(sys, _neg(a), b) == so
    assert strongly_orthogonal(sys, a, _neg(b)) == so


@SETTINGS
@given(root_pairs())
def test_pairing_products_are_bounded(case):
    sys, a, b = case
    product = sys.root_pairing(a, b) * sys.root_pairing(b, a)
    if a in (b, _neg(b)):
        assert product == 4
    else:
        assert product in {0, 1, 2, 3}


@cache
def _ball(fam, rank, level):
    cf, ce = base_chambers(build(fam, rank))
    return [c for shell in chambers_within(ce if level == E_LEVEL else cf, 3) for c in shell]


@st.composite
def chamber_triples(draw):
    fam, rank = draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2)]))
    ball = _ball(fam, rank, draw(st.sampled_from([E_LEVEL, F_LEVEL])))
    return tuple(draw(st.sampled_from(ball)) for _ in range(3))


coweights = st.lists(st.integers(-3, 3), min_size=2, max_size=2)


@SETTINGS
@given(chamber_triples())
def test_distance_is_a_metric(case):
    a, b, c = case
    assert distance(a, b) == distance(b, a)
    assert (distance(a, b) == 0) == (a == b)
    assert distance(a, c) <= distance(a, b) + distance(b, c)


@SETTINGS
@given(chamber_triples(), coweights, coweights)
def test_translations_compose(case, xi1, xi2):
    c = case[0]
    both = [x + y for x, y in zip(xi1, xi2)]
    assert translate(translate(c, xi1), xi2) == translate(c, both)


@SETTINGS
@given(chamber_triples(), st.integers(0, 2))
def test_facet_reflection_is_an_involution(case, k):
    c = case[0]
    r = extended_simple_roots(c)[k]
    wall = (r, c.value(r))
    assert reflect(reflect(c, wall), wall) == c
