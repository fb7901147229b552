"""Named verification suites with machine-readable reports.

Each suite runs a battery of exact checks and returns a SuiteReport, whose
checks are the dicts of the JSON report.  Every check belongs to a family of
CHECKS, which holds its description and provenance.  RADIUS_DEFAULTS names
the suites that take q and a radius, and their default radius; LIMITS holds
every cap that `verify` puts on those options.  All
comparisons are exact (integers or reduced fractions rendered as strings).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HalfIntegralityViolation

ACCEPTANCE_TYPES = [
    ("A", 1), ("A", 3), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]

# the types whose roots suite_rootsys and suite_prasad read off the plates
PLATE_TYPES = ACCEPTANCE_TYPES + [("A", 2), ("A", 4)]

TRICHOTOMY_TYPES = [
    ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2), ("F", 4),
]

SIGN_CALCULUS_TYPES = (
    [("A", d) for d in (1, 3, 5, 7)]
    + [("B", d) for d in range(2, 9)]
    + [("C", d) for d in range(2, 9)]
    + [("D", d) for d in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


# Each check family's (description, provenance); provenance is table, derived or
# definition.  A check's id is its family, followed by "-" and a tag (a type, q or
# n) where a suite runs the family over several of them.
CHECKS = {
    # rootsys
    "closure-vs-plates": (
        "reflection closure reproduces the classical plate enumeration", "derived"),
    "two-rho-even": ("<2 rho, alpha_vee> is even on every coroot", "table"),
    "coxeter-parity": ("coxeter number odd exactly in type A of even rank", "table"),
    "negation-stability": ("strong orthogonality survives negating one member", "table"),
    "orthogonal-long": ("orthogonal pairs with a long member are strongly orthogonal", "table"),
    # sorth
    "sigma-size": ("constructed set has the tabled cardinality", "table"),
    "sigma-table": ("constructed set conjugate to the tabled one, with certificate", "table"),
    "odd-height": ("every tabled member is a signed root of odd height", "table"),
    "half-integral-expansion": (
        "every root expands over the full-rank set in half-integers", "table"),
    "short-coeff-even": ("long positive roots have even coefficients on short simples", "table"),
    "trichotomy": ("every class is (C1)-witnessed or embeds in the maximal set", "table"),
    "two-short": ("two short members force type C of rank at least 4", "table"),
    # apartment
    "distance-doubling": ("fine distance is twice the coarse distance on translations", "table"),
    "central-count": ("exactly one fine chamber avoids every coarse wall", "derived"),
    "central-formula": ("interleaving construction matches the brute-force filter", "table"),
    "central-count-A3": ("no fine chamber of type A3 avoids every coarse wall", "table"),
    "central-distance-A2": (
        "central chambers of adjacent coarse chambers are three apart", "table"),
    "facet-relation": ("weighted facet values of every chamber sum to one half-unit", "table"),
    "facet-functional": ("facet functional stays half-integral on every root", "table"),
    "triangle-A2": ("gallery distance satisfies the triangle inequality", "derived"),
    # cochain
    "character": ("constraints solve to the tabled character uniquely", "table"),
    "coroot-trivial": ("solved character is +1 on every simple coroot action", "table"),
    "chi-compat": ("solved character matches the torus character on test coweights", "table"),
    "wall-counts": ("separating wall counts (total, even-height)", "table"),
    "panel-zeros": ("normalized vectors sum to zero across every sampled panel", "table"),
    "extension-matches-iwahori": (
        "extension from one chamber reproduces the normalized vector", "derived"),
    "class-value-k1": ("one recursion step divides by (1 - q)", "table"),
    "class-value-k2": ("later steps multiply by 2/(1 - q)", "derived"),
    # series
    "poincare": ("closed form equals the alcove count to degree 10", "derived"),
    "lambda-A2": ("partial sums stay within the exact tail bound of 1", "table"),
    "lambda-tail": ("tail bound at the top radius", "derived"),
    "s-value": ("type-A sum at 1/2 with one-dimensional fixed part", "derived"),
    "tail-monotone": ("tail bound decreases with the radius", "derived"),
    # tree
    "shell-counts": ("chamber counts per shell are 1, then 2 q^n", "derived"),
    "shell-sums": ("per-shell absolute sums of the base vector are constant at 2", "table"),
    "hctest": ("panel sums of normalized vectors vanish everywhere sampled", "table"),
    "legendre-support": ("sign cochain: two zeros and an even +/-1 split", "table"),
    "extension": ("harmonic extension sums to zero at every interior panel", "table"),
    "iwahori-harmonic": ("base vector panel sums vanish", "derived"),
    "axis-distance": ("axis distances agree with the apartment line", "derived"),
    # prasad
    "triviality": ("lattice membership of rho matches the recomputed half-sum", "derived"),
    "torus-value-E7": ("nonsquare torus value at the order-two coweight", "table"),
    "d2n-identity": ("parity identity for type D of rank 2n", "table"),
    "d2n-skip-n1": ("degenerate rank-two case reports skipped", "definition"),
}

RADIUS_DEFAULTS = {"cochain": 4, "series": 10, "tree": 8}
# The largest value of each (suite, option) that verify accepts.  The tree works on id
# runs, so its cost grows with q, not with its ball: 1223 is the largest odd q whose
# radius-2 ball, 1 + 2q + 2q^2 chambers, has under three million.
LIMITS = {
    ("cochain", "radius"): 40, ("series", "radius"): 12, ("tree", "radius"): 12, ("tree", "q"): 1223,
}


class SuiteReport:
    """One suite's checks, each the dict the JSON report holds."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def add(self, id_, description, value, expected, provenance):
        """Record one check; provenance is table, derived or definition."""
        value_s = _render(value)
        expected_s = _render(expected)
        status = "pass" if value_s == expected_s else "fail"
        self.checks.append({
            "id": id_, "description": description, "status": status,
            "value": value_s, "expected": expected_s, "provenance": provenance,
        })

    def check(self, family, value, expected, tag=None):
        """Record one check of a CHECKS family, with id family-tag when a tag is given."""
        description, provenance = CHECKS[family]
        id_ = family if tag is None else f"{family}-{tag}"
        self.add(id_, description, value, expected, provenance)

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.checks)

    def to_dict(self):
        return {"suite": self.suite, "checks": self.checks}


def _render(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_render(x) for x in v) + "]"
    return str(v)


# -- root systems -------------------------------------------------------------


def suite_rootsys():
    from .rootsys import build
    rep = SuiteReport("rootsys")
    for fam, rank in PLATE_TYPES:
        sys = build(fam, rank)
        tag = f"{fam}{rank}"
        rep.check("closure-vs-plates", list(sys.roots) == sys.ambient_root_table(), True, tag)
        even = all(sys.root_pairing(sys.two_rho, alpha) % 2 == 0 for alpha in sys.roots)
        rep.check("two-rho-even", even, True, tag)
        odd = sys.coxeter_number() % 2 == 1
        rep.check("coxeter-parity", odd, fam == "A" and rank % 2 == 0, tag)
    for fam, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        n = len(sys.roots)
        everything = (1 << n) - 1
        long_mask = sum(1 << j for j, r in enumerate(sys.roots) if sys.is_long(r))
        rows = list(map(sys.orthogonal_row, sys.roots))
        # roots[n - 1 - i] is -roots[i]
        neg_ok = not any(strong & ~rows[n - 1 - i][1] for i, (_, strong) in enumerate(rows))
        sto_ok = not any(
            orth & (everything if sys.is_long(a) else long_mask) & ~strong
            for a, (orth, strong) in zip(sys.roots, rows)
        )
        rep.check("negation-stability", neg_ok, True, f"{fam}{rank}")
        rep.check("orthogonal-long", sto_ok, True, f"{fam}{rank}")
    return rep


# -- strongly orthogonal sets --------------------------------------------------


def _doubles_every_root(sys, members):
    """Is sum_b <a, b_vee> b = 2a on every root a (over an orthogonal basis, twice the
    coordinates of a root are its coroot pairings; Humphreys, 9.4)?  The sum is M a for
    M = sum_b b (x) coroot(b), and the roots include the simple basis: read M = 2I."""
    rows = [sys.coroot(b) for b in members]
    d = range(sys.type.rank)
    return all(sum(b[i] * row[j] for b, row in zip(members, rows)) == 2 * (i == j) for i in d for j in d)


def suite_sorth():
    from . import sorth, tables
    from .rootsys import _neg, build
    rep = SuiteReport("sorth")
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        tag = f"{fam}{rank}"
        sa = sorth.sigma_a(sys)
        table = sorth.so_set(sys, tables.sigma_a_table(sys))
        rep.check("sigma-size", len(sa), len(table), tag)
        res = sorth.is_conjugate_subset_of(sys, sa, table)
        rep.check("sigma-table", res.status == "yes", True, tag)
        odd_ok = all(
            sum(_neg(m)) % 2 == 1 if all(c <= 0 for c in m) else sum(m) % 2 == 1
            for m in table
        )
        rep.check("odd-height", odd_ok, True, tag)
        if len(sa) == rank:
            rep.check("half-integral-expansion", _doubles_every_root(sys, table), True, tag)
    for fam, rank in [("B", 3), ("C", 4), ("F", 4)]:
        sys = build(fam, rank)
        ok = True
        for a in sys.positive_roots:
            if sys.is_long(a):
                if any(
                    c % 2 != 0
                    for c, s in zip(a, sys.simples)
                    if not sys.is_long(s)
                ):
                    ok = False
        rep.check("short-coeff-even", ok, True, f"{fam}{rank}")
    classes = {}
    for fam, rank in TRICHOTOMY_TYPES:
        report = sorth.verify_anismax(build(fam, rank))
        classes[fam, rank] = report.classes
        rep.check("trichotomy", report.ok, True, f"{fam}{rank}")
    for fam, rank in TRICHOTOMY_TYPES:
        sys = build(fam, rank)
        two_short_ok = True
        for rep_set in classes[fam, rank]:
            shorts = [m for m in rep_set if not sys.is_long(m)]
            if len(shorts) >= 2 and not (fam == "C" and rank >= 4):
                two_short_ok = False
        rep.check("two-short", two_short_ok, True, f"{fam}{rank}")
    return rep


# -- apartment ------------------------------------------------------------------


def suite_apartment(seed=20240817):
    import random
    from . import apartment, tables
    from .rootsys import build
    rep = SuiteReport("apartment")
    rng = random.Random(seed)
    for fam, rank in [("A", 2), ("C", 2), ("G", 2)]:
        sys = build(fam, rank)
        cf, ce = apartment.base_chambers(sys)
        ok = True
        for _ in range(100):
            xi = [rng.randint(-3, 3) for _ in range(rank)]
            de = apartment.distance(ce, apartment.translate(ce, xi))
            df = apartment.distance(cf, apartment.translate(cf, xi))
            if de != 2 * df:
                ok = False
        rep.check("distance-doubling", ok, True, f"{fam}{rank}")
    # central chambers
    for rank, total in [(2, 4), (4, 16)]:
        sys = build("A", rank)
        cf, _ = apartment.base_chambers(sys)
        cells = apartment.e_chambers_in_f_chamber(cf)
        central = [c for c in cells if apartment.is_central(c)]
        rep.check("central-count", (len(cells), len(central)), (total, 1), f"A{rank}")
        formula_ok = apartment.central_chamber(cf) == central[0]
        rep.check("central-formula", formula_ok, True, f"A{rank}")
    sys3 = build("A", 3)
    cf3, _ = apartment.base_chambers(sys3)
    central3 = sum(1 for c in apartment.e_chambers_in_f_chamber(cf3) if apartment.is_central(c))
    rep.check("central-count-A3", central3, 0)
    # adjacent central chambers sit at distance three
    sys = build("A", 2)
    cf, _ = apartment.base_chambers(sys)
    c0 = apartment.central_chamber(cf)
    dists = []
    for neighbor in apartment.wall_neighbors(cf).values():
        dists.append(apartment.distance(c0, apartment.central_chamber(neighbor)))
    rep.check("central-distance-A2", sorted(dists), [3, 3, 3])
    # facet relation identity on sampled chambers
    for fam, rank in [("A", 2), ("B", 2), ("G", 2)]:
        sys = build(fam, rank)
        _, ce = apartment.base_chambers(sys)
        ok = True
        for shell in apartment.chambers_within(ce, 3):
            for ch in shell:
                ext, rel = apartment.affine_relation(ch)
                if sum(c * ch.value(r) for c, r in zip(rel, ext)) != 1:
                    ok = False
        rep.check("facet-relation", ok, True, f"{fam}{rank}")
    # half-integrality of facet functionals on full-rank sets
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        members = tables.sigma_a_table(sys)
        if len(members) != rank:
            continue
        values = {m: Fraction(2 * i + 1, 2) for i, m in enumerate(members)}
        try:
            apartment.facet_functional(sys, members, values)
            ok = True
        except HalfIntegralityViolation:
            ok = False
        rep.check("facet-functional", ok, True, f"{fam}{rank}")
    # triangle inequality, sampled
    sys = build("A", 2)
    _, ce = apartment.base_chambers(sys)
    ball = [c for shell in apartment.chambers_within(ce, 3) for c in shell][:12]
    dist = [[apartment.distance(a, b) for b in ball] for a in ball]
    idx = range(len(ball))
    ok = all(row[c] <= row[b] + dist[b][c] for row in dist for b in idx for c in idx)
    rep.check("triangle-A2", ok, True)
    return rep


# -- cochain ---------------------------------------------------------------------


def suite_cochain(q=3, radius=RADIUS_DEFAULTS["cochain"]):
    from . import apartment, cochain, prasad, tables
    from .rootsys import build
    rep = SuiteReport("cochain")
    # sign calculus: solve, compare, gfdstab, character compatibility
    for fam, rank in SIGN_CALCULUS_TYPES:
        sys = build(fam, rank)
        tag = f"{fam}{rank}"
        solved = cochain.solved_character(sys)
        chi = solved.character
        expected = cochain.eic_character(sys)
        rep.check("character", chi.values_on_basis(), expected.values_on_basis(), tag)
        trivial = all(chi.value(action) == 1 for action in solved.coroot_actions)
        rep.check("coroot-trivial", trivial, True, tag)
        compat = True
        for xi in tables.chi_test_coweights(sys):
            lhs = chi.value(cochain.coroot_action(sys, solved.members, xi))
            rhs = prasad.chi_on_torus(sys, xi)
            if lhs != rhs:
                compat = False
        rep.check("chi-compat", compat, True, tag)
    # wall-count ratios
    for fam, rank, expect in [("A", 3, (4, 2)), ("D", 5, (8, 4)), ("E", 6, (8, 4))]:
        rr = cochain.r1_r2(build(fam, rank))
        rep.check("wall-counts", (rr.r1, rr.r2), expect, f"{fam}{rank}")
    # panel sums of normalized vectors in small apartments
    for fam, rank in [("A", 1), ("A", 2)]:
        sys = build(fam, rank)
        _, ce = apartment.base_chambers(sys)
        ball = [c for shell in apartment.chambers_within(ce, radius) for c in shell]
        refs = [c for shell in apartment.chambers_within(ce, 2) for c in shell]
        panels = {
            frozenset((ch, other)) for ch in ball for other in apartment.wall_neighbors(ch).values()
        }
        ok = True
        for ref in refs:
            vec = cochain.iwahori_vector(ref, q, radius + 3)
            for panel in panels:
                if cochain.panel_sum(panel, vec) != 0:
                    ok = False
        rep.check("panel-zeros", ok, True, f"{fam}{rank}")
    # harmonic extension from a single chamber equals the normalized vector
    sys = build("A", 2)
    _, ce = apartment.base_chambers(sys)
    ball = [c for shell in apartment.chambers_within(ce, radius) for c in shell]
    ext = cochain.extend_by_harmonicity(ce, Fraction(1), q, radius)
    vec = cochain.iwahori_vector(ce, q, radius)
    rep.check("extension-matches-iwahori", all(ext.value(c) == vec.value(c) for c in ball), True)
    # support recursion values
    rep.check("class-value-k1", cochain.a2n_class_value(1, 3, 1), Fraction(-1, 2))
    rep.check("class-value-k2", cochain.a2n_class_value(2, 3, 1), Fraction(1, 2))
    return rep


# -- series ----------------------------------------------------------------------


def suite_series(q=3, radius=RADIUS_DEFAULTS["series"]):
    from . import series
    from .rootsys import build
    rep = SuiteReport("series")
    for fam, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("A", 3)]:
        sys = build(fam, rank)
        closed = series.poincare_closed(sys, 10)
        rep.check("poincare", closed, series.poincare_bfs(sys, 10), f"{fam}{rank}")
    lam = series.lambda_a2n_partial(1, q, radius)
    top = len(lam.partial_sums) - 1
    rep.check("lambda-A2", set(range(6, top + 1)) <= set(lam.certified_radii()), True, f"q{q}")
    if top >= 12:
        rep.check("lambda-tail", lam.tail_bounds[top] < Fraction(1, 100), True, f"q{q}")
    else:
        rep.check("lambda-tail", "radius<12", "radius<12", f"q{q}")
    rep.check("s-value", series.poincare_value(build("A", 1), Fraction(1, 2)), Fraction(3))
    bounds = series._tail_bounds(build("A", 2), q, 8)
    rep.check("tail-monotone", all(a >= b for a, b in zip(bounds, bounds[1:])), True)
    return rep


# -- tree ------------------------------------------------------------------------


def tree_hctest_depths(q):
    """(r_inner, panel_depth) of the tree suite's hctest; the radius must exceed r_inner.

    At q = 3 every interior panel is checked against the chambers within 3
    of the base; above, the balls are wider, so the references stop at 1
    and the panels at depth 5.
    """
    return (3, None) if q <= 3 else (1, 5)


def suite_tree(q=3, radius=RADIUS_DEFAULTS["tree"]):
    from . import tree_oracle
    rep = SuiteReport("tree")
    tag = f"q{q}"
    ball = tree_oracle.build_ball(q, radius)
    counts = tree_oracle.chamber_count_by_distance(ball)
    rep.check("shell-counts", counts, [1] + [2 * q**n for n in range(1, radius + 1)], tag)
    sums = tree_oracle.shell_abs_sums(q, counts)
    rep.check("shell-sums", sums[1:], [Fraction(2)] * radius, tag)
    hc = tree_oracle.verify_hctest(ball, *tree_hctest_depths(q))
    rep.check("hctest", hc.failures, 0, tag)
    base = tree_oracle.legendre_base(ball)
    support = (sum(1 for v in base.values() if v == 0), sum(v * v for v in base.values()))
    rep.check("legendre-support", support, (2, Fraction(q - 1)), tag)
    rep.check("extension", tree_oracle.verify_extension(ball, base).failures, 0, tag)
    iwa = tree_oracle.verify_iwahori_harmonic(ball, panel_depth=min(radius - 1, 5))
    rep.check("iwahori-harmonic", iwa.failures, 0, tag)
    axis_ok = all(
        tree_oracle._run_distance(ball, 1, ball.axis_chamber(k)) == abs(k)
        for k in range(-radius, radius + 1)
    )
    rep.check("axis-distance", axis_ok, True, tag)
    return rep


# -- prasad ----------------------------------------------------------------------


def suite_prasad():
    from . import prasad, tables
    from .rootsys import build
    rep = SuiteReport("prasad")
    for fam, rank in PLATE_TYPES:
        sys = build(fam, rank)
        # oracle: recompute the half-sum from the plate enumeration
        table = sys.ambient_root_table()
        two_rho = [0] * rank
        for r in table:
            if sys.is_positive(r):
                for i, c in enumerate(r):
                    two_rho[i] += c
        oracle = all(c % 2 == 0 for c in two_rho)
        rep.check("triviality", prasad.prasad_trivial(sys), oracle, f"{fam}{rank}")
    sys7 = build("E", 7)
    xi = tables.chi_test_coweights(sys7)[0]
    rep.check("torus-value-E7", prasad.chi_on_torus(sys7, xi), -1)
    for n in (2, 3, 4):
        out = prasad.d2n_character_identity(n)
        rep.check("d2n-identity", (out.skipped, out.holds), (False, True), f"n{n}")
    rep.check("d2n-skip-n1", prasad.d2n_character_identity(1).skipped, True)
    return rep


SUITES = {
    "rootsys": suite_rootsys,
    "prasad": suite_prasad,
    "sorth": suite_sorth,
    "apartment": suite_apartment,
    "cochain": suite_cochain,
    "series": suite_series,
    "tree": suite_tree,
}


def run_suite(name, q=3, radius=None):
    """Run one suite, forwarding q, and radius when given, to a suite in RADIUS_DEFAULTS."""
    if name not in RADIUS_DEFAULTS:
        return SUITES[name]()
    if radius is None:
        return SUITES[name](q=q)
    return SUITES[name](q=q, radius=radius)
