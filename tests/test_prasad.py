import re
from fractions import Fraction

import pytest

from steinberg_lab import prasad, tables
from steinberg_lab.errors import NonIntegralPairing
from steinberg_lab.rootsys import build
from steinberg_lab.suites import PLATE_TYPES


def test_triviality_examples():
    assert prasad.prasad_trivial(build("A", 2))
    assert not prasad.prasad_trivial(build("A", 1))
    assert prasad.prasad_trivial(build("D", 4))
    assert not prasad.prasad_trivial(build("E", 7))
    assert prasad.prasad_trivial(build("E", 8))
    assert prasad.prasad_trivial(build("G", 2))


def test_triviality_matches_halfsum_oracle():
    for fam, rank in [("A", 4), ("B", 3), ("C", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4)]:
        sys = build(fam, rank)
        two_rho = [0] * rank
        for r in sys.ambient_root_table():
            if sys.is_positive(r):
                for i, c in enumerate(r):
                    two_rho[i] += c
        assert prasad.prasad_trivial(sys) == all(c % 2 == 0 for c in two_rho)


def test_chi_on_torus_e7():
    sys = build("E", 7)
    xi = tables.chi_test_coweights(sys)[0]
    assert sys.pairing(sys.two_rho, xi) == 3
    assert prasad.chi_on_torus(sys, xi) == -1


def test_two_rho_pairs_to_two_with_every_simple_coroot():
    for fam, rank in PLATE_TYPES:
        sys = build(fam, rank)
        assert all(sys.root_pairing(sys.two_rho, s) == 2 for s in sys.simples)
        # the simple coroots' rows are sys.cartan, and 2 rho is the sum of the positive roots
        assert all(sys.pairing(sys.two_rho, row) == 2 for row in sys.cartan)
        for xi in tables.chi_test_coweights(sys):
            expected = sum(sys.pairing(r, xi) for r in sys.positive_roots)
            assert sys.pairing(sys.two_rho, xi) == expected


def test_chi_on_simple_coroots_is_trivial():
    for fam, rank in [("A", 3), ("B", 4), ("G", 2)]:
        sys = build(fam, rank)
        for xi in sys.cartan:
            assert prasad.chi_on_torus(sys, xi) == 1


def test_chi_is_multiplicative():
    sys = build("C", 3)
    xi1 = (0, 0, 1)  # omega_3_vee
    xi2 = sys.cartan[0]  # alpha_1_vee
    both = [a + b for a, b in zip(xi1, xi2)]
    lhs = prasad.chi_on_torus(sys, both)
    rhs = prasad.chi_on_torus(sys, xi1) * prasad.chi_on_torus(sys, xi2)
    assert lhs == rhs


def test_non_integral_pairing_raises():
    sys = build("A", 1)
    with pytest.raises(NonIntegralPairing):
        prasad.chi_on_torus(sys, [Fraction(1, 3)])
    # <2 rho, xi> = 0 here, but the row itself is fractional: it is refused where it enters
    with pytest.raises(NonIntegralPairing, match=re.escape("<(0, 1), xi> = -1/3")):
        prasad.chi_on_torus(build("A", 2), (Fraction(1, 3), Fraction(-1, 3)))


def test_d2n_identity():
    out1 = prasad.d2n_character_identity(1)
    assert out1.skipped
    out2 = prasad.d2n_character_identity(2)
    assert not out2.skipped and out2.holds and out2.branch == "all-even"
    out3 = prasad.d2n_character_identity(3)
    assert out3.holds and out3.branch == "parity-match"
    out4 = prasad.d2n_character_identity(4)
    assert out4.holds and out4.branch == "all-even"
