"""Command line driver: verification suites, set printing, table emission."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys as _sys
from contextlib import redirect_stdout

from . import suites
from .errors import InvalidRank, NotApplicable, check_q

USAGE_ERROR = 2
CHECK_ERROR = 1


def _fail_usage(message):
    print(f"error: {message}", file=_sys.stderr)
    raise SystemExit(USAGE_ERROR)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Is n >= 2 prime: Miller-Rabin on the first 13 prime bases, exact below 3.3 * 10^24
    (Sorenson and Webster, Math. Comp. 86, 2017); above, on base 2 alone, so a composite
    may pass."""
    if any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _PRIME_BASES if n < 3317044064679887385961981 else (2,):
        x = pow(a, (n - 1) >> s, n)
        if x != 1:
            for _ in range(s - 1):  # a^d, a^2d, ..., up to a^((n-1)/2) or the first n - 1
                if x == n - 1:
                    break
                x = x * x % n
            if x != n - 1:
                return False
    return True


def _is_prime_power(q):
    """Is the odd q >= 3 some p^k: prime, or an exact k-th power, k prime, of a prime power.
    Exact below 3.3 * 10^24 (see _is_prime); above, the warning it feeds is advisory."""
    top = max(q.bit_length() - 53, 0)
    log2_q = math.log2(q >> top) + top  # read off q's top 53 bits
    for k in filter(_is_prime, range(2, q.bit_length())):  # p^(ab) = (p^a)^b: prime k suffice
        # start at q^(1/k), to some 46 bits, plus one: a first Newton step lands at or above
        # the root's floor from anywhere (AM-GM), but from far below it lands far above
        s = max(int(log2_q / k) - 52, 0)
        r = (int(2 ** (log2_q / k - s)) + 1) << s
        r = ((k - 1) * r + q // r ** (k - 1)) // k
        while (y := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = y
        if r < 3:  # 3^k > q for this and every larger k
            break
        if r**k == q:
            return _is_prime_power(r)
    return _is_prime(q)


def cmd_sigma_a(args):
    if args.rank > (limit := suites.LIMITS["sigma-a", "rank"]):
        _fail_usage(f"rank {args.rank} is above the sigma-a limit {limit}")
    from . import sorth, tables
    from .rootsys import build
    system = build(args.family, args.rank)
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
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    if args.radius is not None:
        if args.radius < 0:
            _fail_usage("--radius must be nonnegative")
        if args.suite != "all" and args.suite not in suites.RADIUS_DEFAULTS:
            _fail_usage(f"suite {args.suite} takes no --radius")
    for (suite, option), limit in suites.LIMITS.items():
        if suite in names and (value := getattr(args, option)) is not None and value > limit:
            _fail_usage(f"--{option} {value} is above the {suite} limit {limit}")
    if "tree" in names:
        radius = suites.RADIUS_DEFAULTS["tree"] if args.radius is None else args.radius
        tree_min = suites.tree_hctest_depths(args.q)[0] + 1
        if radius < tree_min:
            _fail_usage(f"--radius {radius} is below the tree minimum {tree_min} at q={args.q}")
    json_out = None
    if args.json:
        try:  # opened before any suite runs, so an unwritable path is a usage error
            json_out = open(args.json, "w", encoding="utf-8")
        except OSError as exc:
            _fail_usage(f"cannot write --json {args.json}: {exc.strerror}")
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
    if json_out:
        with json_out:
            json_out.write(text + "\n")
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
    with redirect_stdout(io.StringIO()) as report:  # the status is known before any write
        try:
            code = args.func(args)
        except InvalidRank as exc:
            _fail_usage(str(exc))
    try:
        print(report.getvalue(), end="", flush=True)
    except BrokenPipeError:  # the reader left; stdout to the null device quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
