"""The three workloads: their ops, and the correctness gate on each op.

A round is one pass over the seeded batch of ops of a run; a run repeats
rounds over the same batch.  Ops run one after another (a closed loop
with one client), each timed on its own.  Outputs are checked only after
the whole round, outside the timed window, with the library called
directly and never through the traced `Api`.  Ops are timed by the CPU
time of the thread that runs them (every op is pure computation in one
thread), so that the reference copy can run in a second thread where it
must.

An op fails on an unexpected exception, on the wrong error type, on a
residual at or over its tolerance, on a digest mismatch or on a broken
invariant.  Every check is a (residual, tolerance) pair; an exact check
has residual 0 when it holds and 1 when it does not, against tolerance 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from time import thread_time
from typing import Callable

import inputs

# The library under test, and the frozen copy of it in bench/ref that every
# run times next to it as its speed reference (see run.py).
LIBRARY = "ebiortho"
REFERENCE = "ebiortho_ref"
# Ops that take from half a second to seconds, long enough for the host to
# change speed in between.  For these the copy runs the op at the same time
# in a second thread: the two take turns at the interpreter every 5 ms.
# Shorter ops run one after the other; taking turns at them made the ratio
# noisier, as the thread that starts first runs its first turn alone.
CONCURRENT_KINDS = {"scheme", "continuous", "doubling"}

RESIDUAL_FLOOR = 1e-15
MARGIN_MIN = -15.0

# sha256 of the emitter outputs at the commit that defined this benchmark.
SCHEME_DIGESTS = {
    "emit_json": "3203e88099fb6461e2bcf0e46eb599e51a8596a2d0454e22823a0f5ad6c7a417",
    "emit_dot": "8807ec5cca3e056033c859b5c1bfac57164867c5eec275cfd578bee7f19d9a4c",
    "emit_dot_all": "26d8302e3a4dd63023e5a13e13539a39690ad9d205094d2b0d0e3ff4f33d58de",
    "emit_tsv": "901fa222ff8a9c30fe73e58c7e82494e1b36fe40a1153b56ec6530d4a8eed25f",
}

# Default tolerances of the `ebiortho verify` suites (and of the
# kernel-identity acceptance test).
TOL_CONTINUOUS = 1e-6
TOL_DISCRETE = 1e-9
TOL_PASTRO = 1e-8
TOL_MEASURES = 1e-12
TOL_LIMIT = {"1111pp": 1e-2, "40as": 1e-4}
TOL_KERNEL = 1e-12

VERIFY_QUAD = 512
DISCRETE_UNIT_DRAWS = 10
DISCRETE_MATRIX_DRAWS = 2
DISCRETE_MATRIX_SIZE = 5  # min(N, 4) + 1, as in `verify elliptic-discrete`
DISCRETE_MAX_COND = 1e4
# Fixed (n, m) entries of the Pastro matrix, n, m <= 5: the seed draws
# (A, B, q) only, so every batch costs about the same.
PASTRO_PAIRS = ((1, 1), (3, 3), (5, 5), (0, 4), (4, 0), (2, 5), (5, 2), (1, 3), (3, 1))
KERNEL_DRAWS = 30


def ONE(z):
    return 1.0


@dataclass
class Op:
    """One timed operation: `run(api)` is timed, `check` is not.

    `check(out, outs)` returns (residual, tolerance) pairs; `outs` maps
    every op key of the round to its output.  An op with `expect` set
    passes exactly when `run` raises that error type.
    """

    kind: str
    key: object
    run: Callable
    check: Callable | None = None
    expect: type | None = None


def _mod(package: str, name: str):
    return importlib.import_module(f"{package}.{name}")


def exact(holds: bool) -> tuple[float, float]:
    return (0.0 if holds else 1.0, 1.0)


def _margin(residual: float, tol: float) -> float:
    if not math.isfinite(residual):
        return MARGIN_MIN
    return max(MARGIN_MIN, math.log10(tol / max(residual, RESIDUAL_FLOOR)))


def verdict(op: Op, outs: dict, errs: dict) -> tuple[bool, float, str | None]:
    """(ok, margin digits, reason) for one op after its round."""
    exc = errs.get(op.key)
    if op.expect is not None:
        checks = [exact(isinstance(exc, op.expect))]
        reason = f"expected {op.expect.__name__}, got {type(exc).__name__ if exc else 'no error'}"
    elif exc is not None:
        return False, MARGIN_MIN, f"{type(exc).__name__}: {exc}"
    else:
        try:
            checks = op.check(outs[op.key], outs)
        except Exception as err:  # a gate that cannot evaluate is a failure
            return False, MARGIN_MIN, f"check raised {type(err).__name__}: {err}"
        reason = None
    bad = [(r, t) for r, t in checks if not r < t]
    margin = min(_margin(r, t) for r, t in checks)
    if not bad:
        return True, margin, None
    if reason is None:
        reason = f"residual {bad[0][0]:.3e} not below tolerance {bad[0][1]:.1e}"
    return False, margin, reason


def _time_reference(ref, i: int, out: list) -> None:
    ops, api = ref
    t0 = thread_time()
    try:
        ops[i].run(api)
    except Exception:  # the expected errors; the reference copy is not gated
        pass
    out.append(thread_time() - t0)


def run_round(ops, api, tracer=None, stats=None, ref=None, ref_first=False) -> dict:
    """Run `ops` in order, timing each; then gate every output.

    With `ref` = (reference ops, reference api), op i of the frozen
    reference copy runs right after op i (right before it when
    `ref_first`, at the same time in a second thread when its kind is in
    CONCURRENT_KINDS) and is timed apart, so that both see the host at the
    same speed."""
    outs, errs, latencies, ref_latencies = {}, {}, [], []
    for i, op in enumerate(ops):
        side = None
        if ref and op.kind in CONCURRENT_KINDS:
            side = threading.Thread(target=_time_reference, args=(ref, i, ref_latencies))
            side.start()
        elif ref and ref_first:
            _time_reference(ref, i, ref_latencies)
        t0 = thread_time()
        with tracer.op(i, op.kind) if tracer else contextlib.nullcontext():
            try:
                outs[op.key] = op.run(api)
            except Exception as exc:
                errs[op.key] = exc
        latencies.append(thread_time() - t0)
        if side:
            side.join()
        elif ref and not ref_first:
            _time_reference(ref, i, ref_latencies)
    rows = []
    for op, latency in zip(ops, latencies):
        ok, margin, reason = verdict(op, outs, errs)
        rows.append([op.kind, latency, ok, margin, reason])
    return {
        "duration": sum(latencies),
        "ops": rows,
        "ref_latencies": ref_latencies,
        "stats": stats(outs) if stats else {},
    }


# ---------------------------------------------------------------------------
# scheme: one cold build per fresh interpreter, then checks and emitters

SCHEME_OUTPUTS = ("emit_json", "emit_dot", "emit_dot_all", "emit_tsv")


def _scheme_run(api):
    api.build_scheme()
    return (
        api.check_appendix(),
        api.check_askey(),
        api.emit_json(),
        api.emit_dot(),
        api.emit_dot(include_as=True),
        api.emit_tsv(),
    )


def _scheme_check(out, outs, digests):
    appendix, askey, *texts = out
    checks = [exact(appendix == []), exact(askey == [])]
    for name, text in zip(SCHEME_OUTPUTS, texts):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        checks.append(exact(digest == digests[name]))
    return checks


def scheme_ops(seed: int, package: str = LIBRARY, digests=SCHEME_DIGESTS):
    """The scheme workload takes no input; the seed is ignored, and the
    ops hold no library types, so `package` is too."""
    return [Op("scheme", 0, _scheme_run, partial(_scheme_check, digests=digests))], None


# ---------------------------------------------------------------------------
# classify: the chain `ebiortho classify` runs, once per point


def _classify_run(api, v):
    word, red = api.reduce_to_P(v)
    faces = api.face_of(red.a6)
    zdep = api.is_z_dependent(red)
    system = api.is_system(red.a6)
    name = api.face_name(red.a6) if system else None
    vals = (
        api.rtilde_valuation(red, 1),
        api.norm_valuation(red, 1),
        api.valuation_deficit(red),
    )
    return word, red, faces, zdep, system, name, vals


def _classify_check(out, outs, v):
    from ebiortho.polytope import apply_word, in_P, point_in_tile

    word, red, faces, _, _, _, vals = out
    return [
        exact(apply_word(word, v) == red),
        exact(in_P(red)),
        exact(point_in_tile(red.a6, faces[0].tile)),
        exact(vals[2] >= 0),
    ]


def _classify_stats(outs) -> dict:
    from ebiortho.polytope import tiles

    ntiles = len(tiles())
    done = [o for o in outs.values() if o is not None]
    return {
        "points": len(done),
        "word_steps": sum(len(o[0]) for o in done),
        "tile_hits": sum(len(o[2]) for o in done),
        "tiles_tested": ntiles * len(done),
        "systems": sum(1 for o in done if o[4]),
    }


def classify_ops(seed: int, package: str = LIBRARY, size: int = inputs.CLASSIFY_POINTS,
                 unbalanced: int = inputs.CLASSIFY_UNBALANCED):
    DomainError = _mod(package, "errors").DomainError
    ExponentVector = _mod(package, "exponents").ExponentVector

    ops = []
    for i, (vec, balanced) in enumerate(
        inputs.classify_points(seed, size, unbalanced)
    ):
        v = ExponentVector.from7(vec)
        if balanced:
            ops.append(Op("point", i, partial(_classify_run, v=v),
                          partial(_classify_check, v=v)))
        else:
            ops.append(Op("unbalanced", i, partial(_classify_run, v=v),
                          expect=DomainError))
    return ops, _classify_stats


# ---------------------------------------------------------------------------
# verify: quadrature ops, series ops and a few CLI calls


def _continuous_run(api, par, quad):
    return api.continuous_inner_product(ONE, ONE, par, quad=quad)


def _pastro_run(api, n, m, A, B, q):
    return api.pastro_inner_product(
        lambda w: api.pastro_p(n, w, A, B, q),
        lambda w: api.pastro_q(m, w, A, B, q),
        A, B, q, quad=VERIFY_QUAD,
    )


def _pastro_check(out, outs, n, m, A, B, q):
    from ebiortho.qkernel import qpoch_finite

    if n != m:
        return [(abs(out), TOL_PASTRO)]
    h = (A * B / q) ** n * qpoch_finite(q, q, n) / qpoch_finite(A * B / q, q, n)
    return [(abs(out - h), TOL_PASTRO)]


def _measure_run(api, ctor, args, series):
    m = getattr(api, ctor)(*args)
    if series:
        return api.apply_series(m, ONE, ONE)
    return api.apply_integral(m, ONE, ONE, quad=VERIFY_QUAD)


def _unit_check(out, outs, tol):
    return [(abs(out - 1), tol)]


def _cancellation(par, spec, nmax: int) -> float:
    """Largest sum(|terms|) / |sum(terms)| over the sums <R_n, R~_n>, n <= nmax.

    For nmax = 0 this is the point-mass condition with which the discrete
    suite rejects ill-conditioned draws; the matrix ops apply the same
    bound to every degree they evaluate."""
    discrete_inner_product = _mod(REFERENCE, "biortho").discrete_inner_product
    rtilde = _mod(REFERENCE, "biortho").rtilde

    sw = par.swapped_u()
    points = [par.t[0] * par.q**k for k in range(spec.N + 1)]
    weights = [
        discrete_inner_product(lambda z, zk=zk: 1.0 if abs(z - zk) < 1e-9 else 0.0,
                               ONE, par, spec)
        for zk in points
    ]
    worst = 0.0
    for n in range(nmax + 1):
        terms = [w * rtilde(n, zk, par) * rtilde(n, zk, sw) for w, zk in zip(weights, points)]
        worst = max(worst, sum(abs(x) for x in terms) / max(abs(sum(terms)), 1e-300))
    return worst


def discrete_draws(rng, count: int, nmax: int):
    """`count` well-conditioned discrete draws (t, u0, q, p), as plain numbers.

    This untimed input selection runs on the frozen reference copy, so the
    inputs do not depend on the code under test."""
    biortho = _mod(REFERENCE, "biortho")
    EbiorthoError = _mod(REFERENCE, "errors").EbiorthoError
    spec = biortho.DiscreteSpec(inputs.DISCRETE_N)
    out = []
    for draw in inputs.discrete_candidates(rng):
        t, u0, q, p = draw
        try:
            cond = _cancellation(biortho.EllipticParams(t, (u0, None), q, p), spec, nmax)
        except EbiorthoError:
            continue
        if cond <= DISCRETE_MAX_COND:
            out.append(draw)
            if len(out) == count:
                return out


def _matrix_run(api, par, sw, spec, n, m):
    v = api.discrete_inner_product(
        lambda z: api.rtilde(n, z, par), lambda z: api.rtilde(m, z, sw), par, spec
    )
    return v, (api.norm_formula(n, par) if n == m else None)


def _matrix_check(out, outs, d, n, m):
    v, h = out
    if n == m:
        return [(abs(v - h) / abs(h), TOL_DISCRETE)]
    scale = max(abs(outs[("mat", d, n, n)][0]), abs(outs[("mat", d, m, m)][0]))
    return [(abs(v) / scale, TOL_DISCRETE)]


# The `verify limit` configuration.  These inputs are fixed, not seeded:
# the suite's tolerances were set for exactly this configuration.
LIMIT_Q, LIMIT_T, LIMIT_Z = 0.65, (2.0, 1.3, 3.1, 1.0), 1.3
LIMIT_U0 = {"1111pp": 0.369, "40as": 0.4}
LIMIT_VECTOR = {
    "1111pp": ((Fraction(-1, 4), 0, Fraction(1, 4), Fraction(1, 2)),
               (0, Fraction(1, 2)), Fraction(-1, 4)),
    "40as": ((0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2)), 0),
}
LIMIT_LADDER = {
    "1111pp": tuple(10 ** (-2 - 0.5 * i) for i in range(7)),
    "40as": tuple(10 ** (-2.5 - 0.5 * i) for i in range(6)),
}


def _limit_point(face, p, EllipticParams):
    """Parameters and evaluation point of the `verify limit` family at p."""
    q, T, Z = LIMIT_Q, LIMIT_T, LIMIT_Z
    u0 = LIMIT_U0[face]
    u1 = q / (math.prod(T) * u0)
    if face == "1111pp":
        t = (T[0] * p**-0.25, T[1], T[2] * p**0.25, T[3] * p**0.5)
        return EllipticParams(t, (u0, u1 * p**0.5), q, p), Z * p**-0.25
    return EllipticParams(T, (u0 * p**0.5, u1 * p**0.5), q, p), Z


def _ladder_run(api, face, n, v, EllipticParams):
    def fn(p):
        par, z = _limit_point(face, p, EllipticParams)
        return api.rtilde(n, z, par)

    lim, _ = api.numeric_limit(fn, v, LIMIT_LADDER[face])
    u = (LIMIT_U0[face], LIMIT_Q / (math.prod(LIMIT_T) * LIMIT_U0[face]))
    closed = api.pastro_P if face == "1111pp" else api.aw_phi43
    return lim, closed(n, LIMIT_Z, LIMIT_T, u, LIMIT_Q)


def _ladder_check(out, outs, face):
    lim, target = out
    return [(abs(lim - target) / abs(target), TOL_LIMIT[face])]


def _kernel_run(api, pr, p, q, x):
    return (
        api.qpoch_infinite(pr, pr),
        api.theta(x, pr),
        api.theta(p * x, p),
        api.theta(x, p),
        api.elliptic_gamma(x, p, q),
        api.elliptic_gamma(p * q / x, p, q),
    )


def _kernel_check(out, outs, pr, x):
    qp, th, thpx, thx, g1, g2 = out
    lhs = qp * th
    rhs = sum((-x) ** n * pr ** (n * (n - 1) / 2) for n in range(-40, 41))
    r2 = -thx / x
    return [
        (abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0), TOL_KERNEL),
        (abs(thpx - r2) / max(abs(thpx), abs(r2), 1.0), TOL_KERNEL),
        (abs(g1 * g2 - 1.0), TOL_KERNEL),
    ]


_REPORT_RE = re.compile(r"max residual (\S+)\s+tol (\S+)\s+->\s+(PASS|FAIL)")


def _cli_run(api, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.main(argv)
    return rc, buf.getvalue()


def _cli_check(out, outs):
    rc, text = out
    found = _REPORT_RE.findall(text)
    checks = [exact(rc == 0), exact(len(found) == 1)]
    if found:
        checks.append((float(found[0][0]), float(found[0][1])))
    return checks


def verify_ops(seed: int, package: str = LIBRARY):
    biortho = _mod(package, "biortho")
    EllipticParams = biortho.EllipticParams
    ExponentVector = _mod(package, "exponents").ExponentVector

    def rng(part):
        return inputs.rng_for("verify", seed, part)

    ops = []
    # quadrature: continuous <1,1> at the CLI's 512 nodes, its node doubling,
    # Pastro matrix entries and the integral limit measures
    for s in range(len(inputs.CONTINUOUS_STRATA)):
        par = EllipticParams(*inputs.continuous_params(rng(f"continuous{s}"), s))
        ops.append(Op("continuous", ("cont", s),
                      partial(_continuous_run, par=par, quad=VERIFY_QUAD),
                      partial(_unit_check, tol=TOL_CONTINUOUS)))
        ops.append(Op("doubling", ("dbl", s),
                      partial(_continuous_run, par=par, quad=2 * VERIFY_QUAD),
                      lambda out, outs, s=s: [(abs(out - outs[("cont", s)]), TOL_CONTINUOUS)]))
    A, B, q = inputs.pastro_params(rng("pastro"))
    for n, m in PASTRO_PAIRS:
        args = dict(n=n, m=m, A=A, B=B, q=q)
        ops.append(Op("pastro", ("pastro", n, m), partial(_pastro_run, **args),
                      partial(_pastro_check, **args)))
    for kind, ctor in (("NR", "nr_measure"), ("SB", "sb_measure"),
                       ("Sigma2-integral", "sigma2_measure")):
        params = inputs.measure_params(rng(kind), kind)
        ops.append(Op("measure_integral", ("measure", kind),
                      partial(_measure_run, ctor=ctor, args=params, series=False),
                      partial(_unit_check, tol=TOL_MEASURES)))

    # series: discrete sums, the discrete biorthogonality matrices, limit
    # ladders, series limit measures and kernel-identity draws
    spec = biortho.DiscreteSpec(inputs.DISCRETE_N)
    for d, (t, u0, q_, p) in enumerate(discrete_draws(rng("discrete"), DISCRETE_UNIT_DRAWS, 0)):
        par = EllipticParams(t, (u0, None), q_, p)
        ops.append(Op("discrete", ("disc", d),
                      lambda api, par=par: api.discrete_inner_product(ONE, ONE, par, spec),
                      partial(_unit_check, tol=TOL_DISCRETE)))
    draws = discrete_draws(rng("matrix"), DISCRETE_MATRIX_DRAWS, DISCRETE_MATRIX_SIZE - 1)
    for d, (t, u0, q_, p) in enumerate(draws):
        par = EllipticParams(t, (u0, None), q_, p)
        sw = par.swapped_u()
        for n in range(DISCRETE_MATRIX_SIZE):
            for m in range(DISCRETE_MATRIX_SIZE):
                ops.append(Op("discrete_matrix", ("mat", d, n, m),
                              partial(_matrix_run, par=par, sw=sw, spec=spec, n=n, m=m),
                              partial(_matrix_check, d=d, n=n, m=m)))
    for face in ("1111pp", "40as"):
        v = ExponentVector(*LIMIT_VECTOR[face])
        for n in range(1, 5):
            ops.append(Op("ladder", ("ladder", face, n),
                          partial(_ladder_run, face=face, n=n, v=v,
                                  EllipticParams=EllipticParams),
                          partial(_ladder_check, face=face)))
    for kind, ctor in (("Sigma", "sigma_measure"), ("Sigma2", "sigma2_series"),
                       ("finite", "finite_measure")):
        params = inputs.measure_params(rng(kind), kind)
        ops.append(Op("measure_series", ("measure", kind),
                      partial(_measure_run, ctor=ctor, args=params, series=True),
                      partial(_unit_check, tol=TOL_MEASURES)))
    krng = rng("kernel")
    for i in range(KERNEL_DRAWS):
        pr, p, q_, x = inputs.kernel_draw(krng)
        ops.append(Op("kernel", ("kernel", i),
                      partial(_kernel_run, pr=pr, p=p, q=q_, x=x),
                      partial(_kernel_check, pr=pr, x=x)))

    # the command line, stdout captured
    cli_seed = inputs.derived_seed(seed)
    for j, argv in enumerate((
        ["verify", "elliptic-discrete", "--N", "3", "--draws", "4", "--seed", str(cli_seed)],
        ["verify", "limit", "--face", "40as"],
        ["verify", "measures"],
    )):
        ops.append(Op("cli", ("cli", j), partial(_cli_run, argv=argv), _cli_check))
    return ops, None


WORKLOADS = {"scheme": scheme_ops, "classify": classify_ops, "verify": verify_ops}
