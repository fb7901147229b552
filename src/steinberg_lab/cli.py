"""Command line driver: verification suites, set printing, table emission."""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import suites
from .errors import BudgetExceeded, InvalidRank, NotApplicable, check_q, read_budget

USAGE_ERROR = 2
CHECK_ERROR = 1


def _fail_usage(message):
    print(f"error: {message}", file=_sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _is_prime_power(n):
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True  # n itself prime (or 1)


def cmd_sigma_a(args):
    from . import sorth, tables
    from .rootsys import build
    try:
        system = build(args.family, args.rank)
    except InvalidRank as exc:
        _fail_usage(str(exc))
    out = {"type": f"{args.family}{args.rank}"}
    sa = sorth.sigma_a(system)
    out["members"] = [list(m) for m in sa]
    out["size"] = len(sa)
    try:
        table = sorth.so_set(system, tables.sigma_a_table(system))
    except NotApplicable:
        witness = sorth.satisfies_c1(system, sa)
        out["note"] = "every nonempty strongly orthogonal set satisfies (C1); no classified set exists"
        out["c1_witness"] = {
            "alpha": list(witness.alpha),
            "beta": list(witness.beta),
        }
        _emit(out, args.format)
        return 0
    res = sorth.is_conjugate_subset_of(system, sa, table)
    verified = res.status == "yes"
    out["matches_table"] = verified
    out["certificate_reflections"] = [list(r) for r in res.word]
    out["certificate_method"] = res.method
    _emit(out, args.format)
    return 0 if verified else CHECK_ERROR


def cmd_verify(args):
    try:
        check_q(args.q)
    except ValueError as exc:
        _fail_usage(str(exc))
    if not _is_prime_power(args.q):
        print(f"warning: q = {args.q} is not a prime power", file=_sys.stderr)
    try:
        read_budget(None)
    except ValueError as exc:
        _fail_usage(str(exc))
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    if args.radius is not None:
        if args.radius < 0:
            _fail_usage("--radius must be nonnegative")
        if args.suite != "all" and args.suite not in suites.RADIUS_DEFAULTS:
            _fail_usage(f"suite {args.suite} takes no --radius")
    if "tree" in names:
        radius = suites.RADIUS_DEFAULTS["tree"] if args.radius is None else args.radius
        tree_min = suites.tree_hctest_depths(args.q)[0] + 1
        if radius < tree_min:
            _fail_usage(f"--radius {radius} is below the tree minimum {tree_min} at q={args.q}")
        from . import tree_oracle
        try:
            tree_oracle.build_ball(args.q, radius)  # O(radius): sizes the ball, enumerates nothing
        except BudgetExceeded as exc:
            _fail_usage(f"tree ball at q={args.q}, radius {radius}: {exc}")
    reports = []
    for name in sorted(names):
        try:
            reports.append(suites.run_suite(name, q=args.q, radius=args.radius))
        except Exception as exc:  # keep emitting the partial report
            crashed = suites.SuiteReport(name)
            crashed.add("suite-crashed", f"{type(exc).__name__}: {exc}", False, True, "derived")
            reports.append(crashed)
    payload = {"reports": [r.to_dict() for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for rep in reports:
        for c in rep.checks:
            print(f"{rep.suite:10s} {c['status']:4s} {c['id']}: {c['value']} (expected {c['expected']})")
    ok = all(r.ok for r in reports)
    print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else CHECK_ERROR


def _sign_rows():
    from . import cochain
    from .rootsys import build
    rows = []
    for fam, rank in suites.SIGN_CALCULUS_TYPES:
        system = build(fam, rank)
        solved = cochain.solved_character(system).character
        reference = cochain.eic_character(system)
        rows.append(
            {
                "type": f"{fam}{rank}",
                "computed": solved.values_on_basis(),
                "reference": reference.values_on_basis(),
                "match": solved == reference,
            }
        )
    return rows


def _sract_rows():
    from . import cochain
    from .rootsys import build
    rows = []
    for fam, rank in suites.SIGN_CALCULUS_TYPES:
        solved = cochain.solved_character(build(fam, rank))
        for k, action in enumerate(solved.coroot_actions, start=1):
            value = solved.character.value(action)
            rows.append(
                {
                    "type": f"{fam}{rank}",
                    "coroot": k,
                    "action": str(action),
                    "char_value": value,
                    "match": value == 1,
                }
            )
    return rows


def _r1r2_rows():
    from .cochain import r1_r2
    from .rootsys import build
    rows = []
    for fam, rank in suites.SIGN_CALCULUS_TYPES:
        try:
            rr = r1_r2(build(fam, rank))
        except NotApplicable:  # the sign basis fixes a vertex
            continue
        rows.append(
            {
                "type": f"{fam}{rank}",
                "r1": rr.r1,
                "r2": rr.r2,
                "match": rr.r1 == 2 * rr.r2,
            }
        )
    return rows


def cmd_tables(args):
    if args.eic:
        rows = _sign_rows()
    elif args.sract:
        rows = _sract_rows()
    else:  # the argparse group is required
        rows = _r1r2_rows()
    _emit_rows(rows, args.format)
    return 0


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


def _emit_rows(rows, fmt):
    if fmt == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    if not rows:
        return
    keys = list(rows[0])
    if fmt == "csv":
        import csv
        writer = csv.writer(_sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([row[k] for k in keys] for row in rows)
        return
    # markdown
    print("| " + " | ".join(keys) + " |")
    print("|" + "|".join(["---"] * len(keys)) + "|")
    for row in rows:
        print("| " + " | ".join(str(row[k]) for k in keys) + " |")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="steinberg-lab",
        description="Exact verification suites for apartment and cochain combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sigma = sub.add_parser("sigma-a", help="print the classified strongly orthogonal set")
    p_sigma.add_argument("family", choices=list("ABCDEFG"))
    p_sigma.add_argument("rank", type=int)
    p_sigma.add_argument("--format", choices=["json", "text"], default="text")
    p_sigma.set_defaults(func=cmd_sigma_a)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite",
        choices=sorted(suites.SUITES) + ["all"],
    )
    p_verify.add_argument("--q", type=int, default=3)
    p_verify.add_argument("--radius", type=int, default=None)
    p_verify.add_argument("--json", metavar="PATH", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="emit computed tables with a match column")
    group = p_tables.add_mutually_exclusive_group(required=True)
    group.add_argument("--eic", action="store_true")
    group.add_argument("--sract", action="store_true")
    group.add_argument("--r1r2", action="store_true")
    p_tables.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)  # argparse exits with 2 on usage errors
    try:
        code = args.func(args)
    except InvalidRank as exc:
        _fail_usage(str(exc))
    raise SystemExit(code)


if __name__ == "__main__":
    main()
