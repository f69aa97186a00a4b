"""Command-line front door.

Three subcommands: `classify` reduces an exact exponent vector into the
fundamental polytope and reports its face data, `verify` runs one of the
numeric verification suites and exits nonzero on tolerance failure, and
`scheme` emits or checks the degeneration scheme. Only `verify` takes the
run settings `--tol`, `--quad` and `--seed`.

Exit codes: 0 pass, 1 numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import random
import re
import sys
from fractions import Fraction

from . import scheme as scheme_mod
from .biortho import (
    EllipticParams,
    continuous_inner_product,
    elliptic_continuous_system,
    elliptic_discrete_system,
    random_discrete_draw,
)
from .errors import EbiorthoError
from .exponents import ExponentVector, norm_valuation, rtilde_valuation
from .limits import (
    LIMIT_FACES,
    limit_target,
    limit_value,
    nr_measure,
    pastro_p,
    pastro_system,
    richardson,
    sb_measure,
    sigma2_measure,
    sigma2_series,
    sigma_measure,
)
from .polytope import (
    face_name,
    face_of,
    is_system,
    is_z_dependent,
    reduce_to_P,
)

__all__ = ["main", "parse_rational"]

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
# Tokens argparse must read as values, not options: negative integers,
# decimals (so they reach parse_rational and its error) and fractions.
_NEGATIVE_NUMBER_RE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

def parse_rational(token: str) -> Fraction:
    """Exact rational from 'a' or 'a/b'; decimal notation is rejected."""
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not an exact rational: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {token!r}") from None


# ---------------------------------------------------------------------------
# classify


def _fmt7(v: ExponentVector) -> str:
    a = ", ".join(str(x) for x in v.a6)
    return f"({a}; {v.zeta})"


def cmd_classify(args) -> int:
    try:
        vals = [parse_rational(t) for t in args.vector]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        v = ExponentVector(vals[:4], vals[4:6], vals[6])
        v.require_balanced()
        word, red = reduce_to_P(v)
    except EbiorthoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"input:   {_fmt7(v)}")
    steps = [
        "flip" if s[0] == "flip" else "translate(" + ", ".join(map(str, s[1])) + ")"
        for s in word
    ]
    print("word:    " + (" ; ".join(steps) or "(identity)"))
    print(f"reduced: {_fmt7(red)}")
    sig = face_of(red.a6)[0]
    tight = (
        ", ".join("-".join(str(p) for p in lab) for lab in sig.tight)
        if sig.tight
        else "none"
    )
    print(f"tile:    {sig.tile} (dim {sig.dim}; tight: {tight})")
    print(f"zeta:    {red.zeta}")
    print(f"z-dependent: {is_z_dependent(red)}")
    sysq = is_system(red.a6)
    print(f"system:  {sysq}")
    if sysq:
        print(f"face:    {face_name(red.a6)}")
    print(f"valuation rtilde n=1: {rtilde_valuation(red, 1)}")
    print(f"valuation norm   n=1: {norm_valuation(red, 1)}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify: shared helpers


def _report(rows, tol: float) -> int:
    worst = 0.0
    for label, resid in rows:
        print(f"  {label:<42s} {resid:.3e}")
        worst = max(worst, resid)
    ok = worst < tol
    print(f"max residual {worst:.3e}  tol {tol:.1e}  ->  {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# verify suites


def verify_elliptic_discrete(args) -> int:
    tol = args.tol or 1e-9
    N, draws = args.N, args.draws
    one = lambda z: 1.0
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(draws):
        _, masses = random_discrete_draw(rng, N=N)
        worst = max(worst, abs(masses.apply(one, one) - 1))
    rows = [(f"<1,1> = 1 over {draws} draws", worst)]
    nmax = min(N, 4)
    for trial in range(2):
        par, masses = random_discrete_draw(rng, N=N, degree=nmax)
        off, diag = elliptic_discrete_system(par, masses).residuals(nmax)
        rows.append((f"biorthogonality off-diagonal (draw {trial})", off))
        rows.append((f"diagonal vs norm formula (draw {trial})", diag))
    return _report(rows, tol)


def verify_elliptic_continuous(args) -> int:
    tol = args.tol or 1e-6
    one = lambda z: 1.0
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    full = continuous_inner_product(one, one, par, quad=args.quad)
    double = continuous_inner_product(one, one, par, quad=2 * args.quad)
    rows = [
        (f"<1,1> = 1 at {args.quad} nodes", abs(full - 1)),
        ("node-doubling stability", abs(double - full)),
    ]
    # u0 q^-2 = 0.8: the unit circle is admissible for degrees n, m <= 2
    par = EllipticParams((0.9, 0.89, 0.885, 0.88), (0.2, None), 0.5, 0.05)
    off, diag = elliptic_continuous_system(par, args.quad).residuals(2)
    rows.append(("biorthogonality off-diagonal, n,m <= 2", off))
    rows.append(("diagonal vs norm formula, n <= 2", diag))
    return _report(rows, tol)


def verify_pastro(args) -> int:
    tol = args.tol or 1e-8
    A, B, q = 0.55, 0.4, 0.45
    off, diag = pastro_system(A, B, q, args.quad).residuals(args.nmax)
    # B = q is a removable singularity of the series: its mean over
    # B = q(1 +- 1e-5) must meet the monomial w^n A^n q^(-n/2).
    mono = 0.0
    w = cmath.exp(0.7j)
    for n in range(7):
        mean = sum(pastro_p(n, w, A, q * (1 + h), q) for h in (1e-5, -1e-5)) / 2
        mono = max(mono, abs(mean - w**n * A**n * q ** (-n / 2)))
    rows = [
        (f"biorthogonality off-diagonal, n,m <= {args.nmax}", off),
        ("diagonal vs closed-form norm", diag),
        ("B = q(1 +- 1e-5) mean vs monomial, n <= 6", mono),
    ]
    return _report(rows, tol)


def verify_limit(args) -> int:
    face = args.face
    gap = 0.25 if face == "1111pp" else 0.5
    tol = args.tol or (1e-2 if face == "1111pp" else 1e-4)
    ladder = [10 ** (-2 - 0.5 * i) for i in range(7)]
    # the table's p = 1e-2, 1e-3, 1e-4 are ladder entries 0, 2 and 4
    table = (0, 2, 4)
    print(f"face {face}: relative error vs closed-form limit")
    cols = "".join(f"  p={ladder[i]:<8.0e}" for i in table)
    print("  n " + cols + "  extrapolated")
    rows = []
    for n in range(1, 5):
        tgt = limit_target(face, n)
        vals = [limit_value(face, n, p) for p in ladder]
        errs = [abs(vals[i] - tgt) / abs(tgt) for i in table]
        ex = abs(richardson(vals, ladder, gap) - tgt) / abs(tgt)
        print(f"  {n} " + "".join(f"  {e:<10.3e}" for e in errs) + f"  {ex:.3e}")
        rows.append((f"extrapolated limit error, n = {n}", ex))
    return _report(rows, tol)


def verify_measures(args) -> int:
    tol = args.tol or 1e-12
    q = 0.35
    one = lambda z: 1.0

    def solved(ts):
        prod = 1.0
        for x in ts:
            prod *= x
        return q / prod

    def resid(measure):
        # quad reaches every circle integral; the series kinds ignore it
        return abs(measure.apply(one, one, quad=args.quad) - 1)

    rows = []
    a = (0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0)
    t = [0.4, 0.5, 0.7, None, 0.45, 0.55]
    t[3] = solved([x for x in t if x is not None])
    rows.append(("NR normalization", resid(nr_measure(a, t, q))))

    a = tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5))
    t = [0.8, 0.7, 0.5, 0.6, 0.75]
    t = t + [solved(t)]
    rows.append(("SB normalization", resid(sb_measure(a, t, q))))

    a = (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    t = [0.8, 0.5, 0.6, 0.7, 0.45]
    t = t + [solved(t)]
    rows.append(("Sigma normalization", resid(sigma_measure(a, t, q))))

    a = (Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4))
    t = [0.75, 0.65, 0.5, 0.6, 0.55]
    t = t + [solved(t)]
    rows.append(("Sigma2 series normalization", resid(sigma2_series(a, t, q))))
    rows.append(("Sigma2 integral normalization", resid(sigma2_measure(a, t, q, 0.9))))
    return _report(rows, tol)


SUITES = {
    "elliptic-discrete": verify_elliptic_discrete,
    "elliptic-continuous": verify_elliptic_continuous,
    "pastro": verify_pastro,
    "limit": verify_limit,
    "measures": verify_measures,
}


# ---------------------------------------------------------------------------
# scheme


def cmd_scheme(args) -> int:
    if args.check_appendix:
        issues = scheme_mod.check_appendix() + scheme_mod.check_askey()
        if issues:
            for msg in issues:
                print(f"MISMATCH: {msg}")
            return EXIT_NUMERIC
        sch = scheme_mod.build_scheme()
        print(f"appendix check: {len(sch.systems)}/38 systems match")
        return EXIT_PASS
    if args.askey:
        rows, edges = scheme_mod.askey_subscheme()
        for label, mid, system, family, discrete in rows:
            disc = discrete if discrete else "-"
            print(f"{label:<9s} {system:<8s} {family:<22s} {disc}")
        print(f"{len(rows)} rows, {len(edges)} edges")
        return EXIT_PASS
    if args.format == "json":
        text = scheme_mod.emit_json()
    elif args.format == "dot":
        text = scheme_mod.emit_dot(include_as=args.all)
    else:
        text = scheme_mod.emit_tsv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


def count(token: str) -> int:
    """argparse type: an integer of at least 1."""
    n = int(token)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def tolerance(token: str) -> float:
    """argparse type: a tolerance in (0, 1e-2]."""
    tol = float(token)
    if not 0.0 < tol <= 1e-2:
        raise argparse.ArgumentTypeError("must lie in (0, 1e-2]")
    return tol


def node_count(token: str) -> int:
    """argparse type: an even node count of at least 8."""
    quad = int(token)
    if quad < 8 or quad % 2:
        raise argparse.ArgumentTypeError("must be even and at least 8")
    return quad


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ebiortho",
        description="Elliptic biorthogonal functions: classify, verify, scheme.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="reduce an exponent vector and report")
    cl.add_argument(
        "vector",
        nargs=7,
        metavar="RAT",
        help="7 exact rationals: alpha0..alpha3 gamma0 gamma1 zeta",
    )
    # argparse (before Python 3.13) takes a token such as -1/2 for an
    # option; read it as a value, as it reads -1.
    cl._negative_number_matcher = _NEGATIVE_NUMBER_RE

    vf = sub.add_parser("verify", help="run a numeric verification suite")
    vf.add_argument("kind", choices=SUITES)
    vf.add_argument("--tol", type=tolerance, help="tolerance (default: the suite's)")
    vf.add_argument("--quad", type=node_count, default=512, help="quadrature nodes")
    vf.add_argument("--seed", type=int, default=0, help="seed for random draws")
    vf.add_argument("--N", type=count, default=5, help="discrete measure size")
    vf.add_argument("--draws", type=count, default=20, help="random draws")
    vf.add_argument("--nmax", type=count, default=5, help="max degree")
    vf.add_argument("--face", choices=LIMIT_FACES, default="1111pp", help="limit face")

    sc = sub.add_parser("scheme", help="emit or check the degeneration scheme")
    sc.add_argument("--format", choices=["json", "dot", "tsv"], default="json")
    sc.add_argument("--out", default=None, help="output path (default stdout)")
    sc.add_argument("--check-appendix", action="store_true")
    sc.add_argument("--askey", action="store_true")
    sc.add_argument("--all", action="store_true", help="include -as nodes in DOT")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "verify":
            return SUITES[args.kind](args)
        return cmd_scheme(args)
    except EbiorthoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
