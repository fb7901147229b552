"""Property tests of the integer pairing path over ACCEPTANCE_TYPES.

Examples are derandomized, so every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
