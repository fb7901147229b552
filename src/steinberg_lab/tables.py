"""Classified strongly-orthogonal sets and the ordered sign bases.

Classical entries are written in the ambient epsilon coordinates and
translated to simple-root coordinates through the plate realizations;
exceptional entries are written over the simple roots directly.
"""

from __future__ import annotations

from .errors import NotApplicable
from .rootsys import _add, _basis, _neg, _scale, _sub


def _eps(sys, i):
    dim = len(sys._ambient_simples[0])
    return _basis(dim, i - 1)


def _combo(sys, coeffs):
    """Integer combination of simple roots, from a dict of 1-based index to coefficient."""
    d = sys.type.rank
    out = [0] * d
    for i, c in coeffs.items():
        out[i - 1] = c
    return tuple(out)


def _eps_pairs(sys, first, count):
    """-eps_a - eps_b, eps_b - eps_a for a = first, first + 2, ... (count pairs) and b = a + 1."""
    out = []
    for a in range(first, first + 2 * count, 2):
        ea, eb = _eps(sys, a), _eps(sys, a + 1)
        out.append(sys.from_ambient(_sub(_neg(ea), eb)))
        out.append(sys.from_ambient(_sub(eb, ea)))
    return out


def is_a2n(sys):
    return sys.type.family == "A" and sys.type.rank % 2 == 0


def sigma_a_table(sys):
    """The classified maximal strongly-orthogonal set, first tabled form."""
    fam, d = sys.type.family, sys.type.rank
    if is_a2n(sys):
        raise NotApplicable("no such set exists in type A of even rank")
    if fam == "A":
        n = (d + 1) // 2
        return [
            sys.from_ambient(_add(_neg(_eps(sys, i)), _eps(sys, 2 * n + 1 - i)))
            for i in range(1, n + 1)
        ]
    if fam == "B":
        out = _eps_pairs(sys, 1, d // 2)
        if d % 2 == 1:
            out.append(sys.from_ambient(_neg(_eps(sys, d))))
        return out
    if fam == "C":
        return [sys.from_ambient(_scale(-2, _eps(sys, i))) for i in range(1, d + 1)]
    if fam == "D":
        return _eps_pairs(sys, 1, d // 2)
    if fam == "G":
        return [_neg(sys.highest_root), _combo(sys, {1: -1})]
    if fam == "F":
        return [
            _neg(sys.highest_root),
            _combo(sys, {2: -1, 3: -2, 4: -2}),
            _combo(sys, {2: -1, 3: -2}),
            _combo(sys, {2: -1}),
        ]
    if fam == "E" and d == 6:
        return [
            _neg(sys.highest_root),
            _combo(sys, {1: -1, 3: -1, 4: -1, 5: -1, 6: -1}),
            _combo(sys, {3: -1, 4: -1, 5: -1}),
            _combo(sys, {4: -1}),
        ]
    if fam == "E" and d == 7:
        return [
            _neg(sys.highest_root),
            _combo(sys, {2: -1, 3: -1, 4: -2, 5: -2, 6: -2, 7: -1}),
            _combo(sys, {2: -1, 3: -1, 4: -2, 5: -1}),
            _combo(sys, {2: -1}),
            _combo(sys, {3: -1}),
            _combo(sys, {5: -1}),
            _combo(sys, {7: -1}),
        ]
    if fam == "E" and d == 8:
        return [
            _neg(sys.highest_root),
            _combo(sys, {1: -2, 2: -2, 3: -3, 4: -4, 5: -3, 6: -2, 7: -1}),
            _combo(sys, {2: -1, 3: -1, 4: -2, 5: -2, 6: -2, 7: -1}),
            _combo(sys, {2: -1, 3: -1, 4: -2, 5: -1}),
            _combo(sys, {2: -1}),
            _combo(sys, {3: -1}),
            _combo(sys, {5: -1}),
            _combo(sys, {7: -1}),
        ]
    raise NotApplicable(str(sys.type))


def sigma_a_alt_table(sys):
    """Alternative tabled representative (more negated simple roots), or None."""
    fam, d = sys.type.family, sys.type.rank
    if fam == "A" and d % 2 == 1:
        n = (d + 1) // 2
        return [_combo(sys, {2 * i - 1: -1}) for i in range(1, n + 1)]
    if fam == "D" and d % 2 == 1:
        return _eps_pairs(sys, 2, (d - 1) // 2)
    if fam == "E" and d == 6:
        return [
            _combo(sys, {2: -1, 3: -1, 4: -2, 5: -1}),
            _combo(sys, {2: -1}),
            _combo(sys, {3: -1}),
            _combo(sys, {5: -1}),
        ]
    return None


# positions in sigma_a_table of each sign-basis member, where they differ
_SIGN_ORDER = {
    "G2": (1, 0),
    "F4": (0, 3, 2, 1),
    "E7": (0, 3, 4, 1, 5, 2, 6),
    "E8": (0, 4, 5, 1, 6, 2, 7, 3),
}


def sign_basis(sys):
    """The ordered basis (beta_1 ... beta_r) used by the sign calculus.

    The order matters: bit i of every sign vector refers to beta_i.  Types
    with an alternative table use it (odd A, odd D, E6); the rest use the
    first table, reordered as in the uniqueness argument.
    """
    if is_a2n(sys):
        raise NotApplicable("no sign basis in type A of even rank")
    alt = sigma_a_alt_table(sys)
    if alt is not None:
        return alt
    table = sigma_a_table(sys)
    return [table[i] for i in _SIGN_ORDER.get(str(sys.type), range(len(table)))]


def chi_test_coweights(sys):
    """Representatives of Y / Y^2 used by the character-compatibility check.

    Each is an integer coweight row, its values on the simple roots: a
    fundamental coweight omega_i_vee is the unit row e_i; the E6 row is
    (alpha_1_vee - alpha_3_vee + alpha_5_vee - alpha_6_vee) / 3 and the E7
    row (alpha_2_vee + alpha_5_vee + alpha_7_vee) / 2.
    """
    fam, d = sys.type.family, sys.type.rank
    if fam == "B" or (fam == "A" and d % 2 == 1):
        return [_basis(d, 0)]
    if fam == "C":
        return [_basis(d, d - 1)]
    if fam == "D":
        out = [_basis(d, d - 1)]
        if d % 2 == 0:
            out.append(_basis(d, 0))
        return out
    if fam == "E" and d == 6:
        return [(1, 0, -1, 0, 1, -1)]
    if fam == "E" and d == 7:
        return [(0, 1, 0, -1, 1, -1, 1)]
    # E8, F4, G2: the relevant group is trivial.
    return []
