"""Strongly-orthogonal root sets: construction, condition (C1), classification."""

from __future__ import annotations

from collections import namedtuple

from . import tables
from .errors import BudgetExceeded
from .rootsys import (
    _neg,
    apply_word,
    canonical_set,
    levi_support,
    parabolic_roots,
    strongly_orthogonal,
    support_components,
    weyl_orbit,
    word_to_dominant,
)

_ORBIT_BUDGET = 1_000_000  # the largest Weyl group an orbit search closes


C1Witness = namedtuple("C1Witness", "alpha beta")


def so_set(sys, members):
    """A strongly orthogonal set: its members, in order, as a tuple of root tuples.

    Raises NotARoot for a non-root, ProportionalPair for a repeated or negated
    member, and ValueError for a pair that is not strongly orthogonal.  Pairwise
    orthogonal roots are linearly independent, so a set that passes fits the rank."""
    members = tuple(map(sys.check_root, members))
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not strongly_orthogonal(sys, a, b):
                raise ValueError(f"{a} and {b} are not strongly orthogonal")
    return members


def so_complement(sys, members):
    """Roots strongly orthogonal to every member, in root order; a closed subsystem.
    A non-root member raises NotARoot.  Every signed root sum is a positive sum triple
    read with signs, so a symmetric set is closed iff no triple has exactly two inside."""
    mask = _common_row(sys, members, strong=True)
    comp = tuple(r for j, r in enumerate(sys.roots) if mask >> j & 1)
    comp_set = set(comp)
    for r in comp:
        if _neg(r) not in comp_set:
            raise AssertionError("complement not symmetric")
    half = len(sys.positive_roots)  # bit half + i is positive root i
    inside = [mask >> j & 1 for j in range(half, 2 * half)]
    if any(inside[i] + inside[j] + inside[k] == 2 for i, j, k in sys.positive_sum_triples):
        raise AssertionError("complement not closed")
    return comp


def sigma_a(sys):
    """Recursive highest-root construction of the classified set.

    Takes the highest root of each irreducible component, then recurses on
    the strongly-orthogonal complement inside that component.  Components
    are processed in lexicographic order of their smallest member.  This is
    Kostant's cascade; every subsystem reached is parabolic (an index set).
    """
    members = _sigma_rec(sys, range(sys.type.rank))
    return so_set(sys, members)


def _orthogonal_simples(sys, comp, dom):
    """Indices in comp orthogonal to dom; if dom is dominant, they support its orthogonal roots."""
    return [i for i in comp if sys.coroot(dom)[i] == 0]


def _sigma_rec(sys, support):
    out = []
    for comp in support_components(sys, support):
        top = max(parabolic_roots(sys, comp), key=lambda r: (sum(r), r))
        out.append(top)
        # top is long in comp, so the roots orthogonal to it are strongly
        # orthogonal to it: |alpha + top|^2 would exceed the longest length
        out.extend(_sigma_rec(sys, _orthogonal_simples(sys, comp, top)))
    return out


def _common_row(sys, members, *, strong):
    """The AND of the members' orthogonal rows, or of their strongly orthogonal
    rows when strong is true; every root for no member.  Raises NotARoot, naming
    the vector, for a member that is not a root."""
    mask = (1 << len(sys.roots)) - 1
    for m in members:
        mask &= sys.orthogonal_row(sys.check_root(m))[strong]
    return mask


def satisfies_c1(sys, members):
    """First witness (alpha in members, beta in Phi) of condition (C1), or None.

    members is a sequence of roots, such as `so_set` returns; a non-root raises
    NotARoot.  beta must be orthogonal to every member except alpha, with
    <alpha, beta_vee> odd; the first such beta in root order is the witness.
    """
    members = [sys.check_root(m) for m in members]
    for alpha in members:
        mask = _common_row(sys, [m for m in members if m != alpha], strong=False)
        for j, beta in enumerate(sys.roots):
            if mask >> j & 1 and sys.root_pairing(alpha, beta) % 2:
                return C1Witness(alpha=alpha, beta=beta)
    return None


# -- conjugacy -------------------------------------------------------------


# status is "yes", "no" or "unknown"; word lists reflections, as roots, applied left to right
ConjugacyResult = namedtuple("ConjugacyResult", "status word method")


def _normal_form(sys, members):
    """Deterministic highest-root normal form of a +/- insensitive set.

    Returns (frozenset of positive representatives, word of reflections).
    """
    word = []
    result = []

    def rec(support, items):
        for comp in support_components(sys, support):
            outside = [i for i in range(sys.type.rank) if i not in comp]
            local = [m for m in items if not any(m[i] for i in outside)]
            if not local:
                continue
            target = max([m for m in local if sys.is_long(m)] or local)
            # simples in descending index order, as the certificate words expect
            dom, w = word_to_dominant(sys, [sys.simples[i] for i in reversed(comp)], target)
            word.extend(w)
            imgs = [sys.pos_rep(apply_word(sys, w, m)) for m in local]
            result.append(dom)
            rest_items = [m for m in imgs if m != dom]
            if not rest_items:
                continue
            rest = _orthogonal_simples(sys, comp, dom)
            if not sys.is_long(dom):
                # Items remain after a short dominant root only with two strongly
                # orthogonal short members: C_n, n >= 4, leaving the parabolic C_{n-2}
                # (in B_n the remainder D_{n-1} of e_1 is not parabolic; none remain)
                roots = [r for r in parabolic_roots(sys, rest) if strongly_orthogonal(sys, r, dom)]
                rest = levi_support(sys, roots)
                if roots != parabolic_roots(sys, rest):
                    raise AssertionError("remainder of a short dominant root is not parabolic")
            # reflections inside this component fix the other components,
            # so the recursion can run per component independently
            rec(rest, rest_items)

    rec(range(sys.type.rank), [sys.pos_rep(m) for m in members])
    return frozenset(result), tuple(word)


def verify_certificate(sys, members, word, target):
    """True iff the reflection word, applied left to right, maps every member
    into target up to sign."""
    target = {sys.pos_rep(t) for t in target}
    return all(sys.pos_rep(apply_word(sys, word, m)) in target for m in members)


def is_conjugate_subset_of(sys, members, target):
    """Decide whether some Weyl image of members lies inside target.

    Both are sequences of roots, such as `so_set` returns; member signs are
    treated as free on both sides.  Returns a ConjugacyResult whose word,
    when applied left to right, maps members into target up to signs; every
    "yes" word has passed verify_certificate.  "no" answers are only produced
    by the orbit search, run exactly when |W| is within the budget, or by an
    invariant screen; the normal-form route answers "yes" or falls through.
    """
    a = [sys.check_root(m) for m in members]
    b = [sys.check_root(m) for m in target]
    if len(a) > len(b):
        return ConjugacyResult("no", (), "size screen")
    # an irreducible system has at most two root lengths, so is_long names the length
    lengths_a = list(map(sys.is_long, a))
    lengths_b = list(map(sys.is_long, b))
    if any(lengths_a.count(v) > lengths_b.count(v) for v in (False, True)):
        return ConjugacyResult("no", (), "length screen")
    if len(a) == len(b):
        nf_a, word_a = _normal_form(sys, a)
        nf_b, word_b = _normal_form(sys, b)
        if nf_a == nf_b:
            word = tuple(word_a) + tuple(reversed(word_b))
            if verify_certificate(sys, a, word, b):
                return ConjugacyResult("yes", word, "normal form")
    if sys.weyl_order() <= _ORBIT_BUDGET:
        target_canon_members = {sys.pos_rep(t) for t in b}

        def test(canon):
            return set(canon) <= target_canon_members

        found = weyl_orbit(sys, a, _ORBIT_BUDGET, target=test)
        if found is None:
            return ConjugacyResult("no", (), "orbit exhausted")
        _, word = found
        if not verify_certificate(sys, a, word, b):
            raise AssertionError("orbit certificate failed verification")
        return ConjugacyResult("yes", word, "orbit")
    return ConjugacyResult("unknown", (), "budget")


# -- enumeration -----------------------------------------------------------


def enumerate_so_sets(sys):
    """Representatives of the W-conjugacy classes of strongly-orthogonal sets.

    Signs are treated as free (every class has an all-positive member).
    The empty set is included.  Raises BudgetExceeded when the Weyl group
    is too large for a full orbit closure.
    """
    if sys.weyl_order() > _ORBIT_BUDGET:
        raise BudgetExceeded(f"|W({sys.type})| = {sys.weyl_order()} exceeds the budget of {_ORBIT_BUDGET}")
    pos = sys.positive_roots
    n = len(pos)
    # the positive roots are the last n of sys.roots
    adjacent = [sys.orthogonal_row(r)[1] >> n for r in pos]
    cliques = [()]

    def grow(prefix, candidates):
        # lowest index first, so each clique follows the cliques it extends
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            nxt = prefix + (c,)
            cliques.append(nxt)
            grow(nxt, candidates & adjacent[c])

    grow((), (1 << n) - 1)
    seen_canon = {}
    for clique in cliques:
        members = [pos[i] for i in clique]
        canon = canonical_set(sys, members)
        if canon in seen_canon:
            continue
        orbit = weyl_orbit(sys, canon, _ORBIT_BUDGET)
        rep = min(orbit)
        for img in orbit:
            seen_canon[img] = rep
    reps = sorted(set(seen_canon.values()), key=lambda c: (len(c), c))
    return [so_set(sys, rep) for rep in reps]


def is_maximal_so(sys, members):
    comp = so_complement(sys, members)
    return len(comp) == 0


def is_maximal_orthogonal(sys, members):
    """No root outside +/- the set is plainly orthogonal to all members; a
    non-root member raises NotARoot.  A root is not orthogonal to itself, so
    the members' rows already leave +/- the members out."""
    return _common_row(sys, members, strong=False) == 0


class AnismaxReport(namedtuple("AnismaxReport", "system clauses classes")):
    """The classification clauses of one system (description -> verdict) and
    its class representatives, as enumerate_so_sets returns them."""

    __slots__ = ()

    @property
    def ok(self):
        return all(self.clauses.values())


def verify_anismax(sys):
    """Exhaustive check of the classification clauses for one system."""
    reps = enumerate_so_sets(sys)
    c1_free = [rep for rep in reps if satisfies_c1(sys, rep) is None]
    c1_free_maximal = [rep for rep in c1_free if len(rep) > 0 and is_maximal_so(sys, rep)]
    clauses = {}
    if tables.is_a2n(sys):
        clauses["every nonempty class satisfies (C1)"] = not any(len(rep) > 0 for rep in c1_free)
        clauses["no maximal (C1)-free set exists"] = not c1_free_maximal
        return AnismaxReport(str(sys.type), clauses, reps)
    sa = sigma_a(sys)
    clauses["unique maximal (C1)-free class"] = len(c1_free_maximal) == 1
    clauses["algorithm output is in that class"] = (
        len(c1_free_maximal) == 1
        and is_conjugate_subset_of(sys, sa, c1_free_maximal[0]).status == "yes"
        and len(sa) == len(c1_free_maximal[0])
    )
    clauses["maximal as plain-orthogonal set"] = is_maximal_orthogonal(sys, sa)
    clauses["every (C1)-free class embeds in it"] = all(
        is_conjugate_subset_of(sys, rep, sa).status == "yes" for rep in c1_free
    )
    return AnismaxReport(str(sys.type), clauses, reps)
