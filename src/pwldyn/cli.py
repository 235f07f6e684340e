"""Command-line front end.

Subcommands:
  entropy        exact entropy or certified bounds at a parameter in (4, 8)
  table1         summary table for the first three levels, as CSV
  certify-alpha  rational bracket of the first entropy transition
  certify-beta   rational bracket of the second entropy transition
  graph          invariant graph export (json, svg, dot of its digraph)
  measure        plateau-capture profile of a regime
  verify         run the internal cross-check suite

Rationals on the command line may be "num/den", integers, or decimal
strings (converted exactly).  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from pwldyn import band48, certify, graphs, markov, measure
from pwldyn.planemap import Params
from pwldyn.rationals import format_decimal, parse_rational, rational_str


def _emit(text: str, out: str | None):
    """Write to stdout, or to `out` (resolved against $PWLDYN_OUT_DIR if set)."""
    if out:
        base = os.environ.get("PWLDYN_OUT_DIR")
        path = os.path.join(base, out) if base and not os.path.isabs(out) else out
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_b(args) -> Fraction:
    """Parameter from --b, reducing (a, b) to the a = -1 slice when given."""
    b = parse_rational(args.b)
    a = parse_rational(args.a) if getattr(args, "a", None) else Fraction(-1)
    if a >= 0:
        raise ValueError(f"only the a < 0 regime is supported; got a = {rational_str(a)}")
    return b / -a  # scaling by 1/|a| conjugates (a, b) to (-1, b/|a|)


def cmd_entropy(args) -> int:
    b = _resolve_b(args)
    digits = args.digits
    while True:
        res = band48.entropy_or_bounds(b, digits)
        try:
            text = res.decimal(args.digits)
            break
        except ValueError:
            # The bracket straddles a rounding boundary at the requested
            # places; a tighter bracket decides the rounding.
            digits += 3
    lc = res.level
    print(f"b = {rational_str(b)}  class {lc}")
    if res.kind == "exact":
        print(f"entropy = ln(root({res.lo_root.poly})) = {text}")
    else:
        print(f"entropy in {text}")
        print(f"  lower root poly: {res.lo_root.poly}")
        print(f"  upper root poly: {res.hi_root.poly}")
    return 0


def cmd_table1(args) -> int:
    _emit(band48.table_csv(places=args.digits), args.out)
    return 0


def _cmd_certify(tag: str, args) -> int:
    ci = certify.certify(tag, args.upper, args.lower)
    if not certify.verify_certificate(ci):
        print("certificate re-verification failed", file=sys.stderr)
        return 1
    _emit(ci.to_json_str(), args.out)
    return 0


def cmd_graph(args) -> int:
    g = graphs.build_gamma(args.regime, parse_rational(args.b))
    if args.format == "json":
        import json

        _emit(json.dumps(g.to_json(), indent=2) + "\n", args.out)
    elif args.format == "svg":
        _emit(g.to_svg() + "\n", args.out)
    elif args.format == "dot":
        if args.regime != "band48":
            raise ValueError("digraph export is available for the band48 regime only")
        lower, _, _ = band48.cover_digraphs(parse_rational(args.b))
        _emit(lower.to_dot() + "\n", args.out)
    return 0


def cmd_measure(args) -> int:
    rep = measure.full_measure_report(args.regime, parse_rational(args.b), args.depth)
    _emit(rep.to_csv(), args.out)
    frac = rep.uncaptured_fraction(args.depth)
    print(f"uncaptured fraction at depth {args.depth}: {format_decimal(frac, 12)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    import random

    random.seed(20_26)
    failures = []

    def check(name: str, fn):
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure, not a crash of verify
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(("PASS " if ok else "FAIL ") + name)
        if not ok:
            failures.append(name)

    def invariance() -> bool:
        spans = {
            "negb": lambda u: -2 - 6 * u,
            "alpha": lambda u: Fraction(-1) + u * Fraction(1, 4),
            "beta": lambda u: Fraction(2, 3) + u * Fraction(1, 21),
            "band48": lambda u: 4 + 4 * u,
        }
        for regime, f in spans.items():
            for _ in range(5):
                u = Fraction(random.randint(1, 9999), 10001)
                b = f(u)
                g = graphs.build_gamma(regime, b)
                if not graphs.verify_invariance(g, Params.standard(b)).ok:
                    return False
                graphs.orbit_marks(regime, b)
        return True

    def digraph_cross_check() -> bool:
        for n in range(2):
            for letter in "STUV":
                lo, hi, _, _ = band48.LevelClass(n, letter).interval()
                if not band48.cross_check_entropy((lo + hi) / 2):
                    return False
        return True

    def certificates() -> bool:
        ci = certify.certify("alpha", 6, 8)
        return (
            certify.verify_certificate(ci)
            and ci.hi == Fraction(-910224, 1114103)
            and ci.lo == Fraction(-116508784, 142605321)
        )

    def orderings() -> bool:
        return band48.verify_root_ordering(10) and band48.roots_strictly_decreasing(10)

    def rome_vs_direct() -> bool:
        for _ in range(20):
            nn = random.randint(2, 8)
            labels = [f"n{i}" for i in range(nn)]
            edges = [
                (labels[i], labels[j])
                for i in range(nn)
                for j in range(nn)
                if random.random() < 0.3
            ]
            dg = markov.digraph_from_edges(labels, edges)
            full = markov.rome_char_poly_full(dg, markov.find_rome(dg))
            if full != markov.direct_char_poly(dg):
                return False
        return True

    check("graph invariance + orbit relations (random b, all regimes)", invariance)
    check("digraphs from the graph match the closed-form polynomials", digraph_cross_check)
    check("transition certificates reproduce and re-verify", certificates)
    check("root orderings and monotone decrease (levels <= 10)", orderings)
    check("rome characteristic polynomial == direct determinant", rome_vs_direct)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="pwldyn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("entropy", help="entropy at a parameter in (4,8)")
    p.add_argument("--b", required=True)
    p.add_argument("--a", help="optional a < 0; (a,b) is rescaled to the a=-1 slice")
    p.add_argument("--digits", type=int, default=5)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("table1", help="CSV of the level 0-2 classes")
    p.add_argument("--digits", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table1)

    for tag in ("alpha", "beta"):
        p = sub.add_parser(f"certify-{tag}", help=f"certified bracket of the {tag} transition")
        p.add_argument("--upper", type=int, required=True, help="period 3*2^k of the positive-entropy side")
        p.add_argument("--lower", type=int, required=True, help="period 2^k of the zero-entropy side")
        p.add_argument("--out")
        p.set_defaults(fn=lambda a, _t=tag: _cmd_certify(_t, a))

    p = sub.add_parser("graph", help="invariant graph export")
    p.add_argument("--regime", required=True, choices=graphs.REGIMES)
    p.add_argument("--b", required=True)
    p.add_argument("--format", default="json", choices=("json", "svg", "dot"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("measure", help="plateau-capture profile")
    p.add_argument("--regime", required=True, choices=("negb", "alpha", "beta"))
    p.add_argument("--b", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("verify", help="internal cross-check suite")
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # Library functions raise ValueError for arguments outside their
        # domain; report it like any other bad argument.
        ap.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
