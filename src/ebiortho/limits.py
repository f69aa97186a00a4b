"""Limiting families and measures of the elliptic biorthogonal functions.

Pastro polynomials with their circle measure, the finite-support limit
measure, the four infinite-support limit bilinear forms (beta-integral
type, symmetry-broken integral, double series, single series), and
numeric limit extraction: log-slope valuation estimates and the one
Richardson routine in p -> 0.  Every measure is a biortho.LimitMeasure,
whose one Gram routine is LimitMeasure.gram, and is built from lists of
its factors: the 1 / Gamma(t_r t_s) limits in the NR, SB, Sigma and
Sigma2 integral constants by one rule, _gamma_constants, the circle
weights (Pastro, NR, SB, Sigma2 integral) by the kernel's one builder,
qkernel._circle_weight, which also holds the one contour rule, and the series
weights (Sigma, Sigma2 series, finite) from one basic hypergeometric
term, _series_term.  The `verify limit` family also lives here:
limit_value evaluates rtilde along the p-dependent parameters of face
1111pp or 40as, limit_target the closed-form limit it tends to.

The Pastro polynomial p_n (Pastro, J. Math. Anal. Appl. 112 (1985)) is
summed as one q-binomial polynomial in w,

    p_n(w; A, B) = A^n / (AB/q;q)_n
                   * sum_{k<=n} [n k]_q (A;q)_k (B/q;q)_(n-k) (w / q^(1/2))^k,

which is its coefficient times 2phi1 rewritten term by term with
(B/q;q)_n / (q^(2-n)/B;q)_k = (B/q;q)_(n-k) prod_{j<k} (-B q^(n-2-j)) and
(q^-n;q)_k / (q;q)_k = (-1)^k q^(k(k-1)/2 - nk) [n k]_q.  The sum has no
divisor that vanishes at B = q, the removable singularity of the 2phi1
form, where it is the monomial A^n q^(-n/2) w^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations

from .errors import (
    BranchError,
    DomainError,
    HypothesisError,
    NonConvergence,
    PoleError,
)
from .biortho import BiorthogonalSystem, EllipticParams, LimitMeasure, rtilde
from .polytope import _as6, zeta_for
from .qkernel import _circle_weight, _qpoch_constant, check_quad, qpoch_finite

__all__ = [
    "pastro_P",
    "pastro_p",
    "pastro_q",
    "pastro_measure",
    "pastro_inner_product",
    "pastro_norm",
    "pastro_system",
    "LimitMeasure",
    "nr_measure",
    "sb_measure",
    "sigma2_measure",
    "sigma2_series",
    "sigma_measure",
    "finite_measure",
    "aw_phi43",
    "numeric_limit",
    "richardson",
    "LIMIT_FACES",
    "limit_value",
    "limit_target",
]

Q = Fraction

def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _series_term(k, q, numer, denom, z, m, vwp=None) -> complex:
    """Basic hypergeometric term (Gasper-Rahman, ch. 2) z^k q^(m C(k,2))
    prod (a; q)_k / ((q; q)_k prod (b; q)_k), a in numer, b in denom,
    times (1 - v q^(2k)) / (1 - v) when vwp = v (very-well-poised)."""
    val = z**k
    if m:
        val *= q ** (m * _binom2(k))
    if vwp is not None:
        val *= (1 - vwp * q ** (2 * k)) / (1 - vwp)
    den = qpoch_finite(q, q, k)
    for x in numer:
        val *= qpoch_finite(x, q, k)
    for x in denom:
        den *= qpoch_finite(x, q, k)
    return val / den


def _phi(numer, denom, q, x, nterms) -> complex:
    """Terminating basic hypergeometric sum with nterms terms."""
    out = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(nterms):
        out += term
        fac = x
        qk = q**k
        for a in numer:
            fac *= 1.0 - a * qk
        for b in denom:
            db = 1.0 - b * qk
            if abs(db) < 1e-14:
                raise PoleError("basic hypergeometric denominator vanishes")
            fac /= db
        term *= fac
    return out


# ---------------------------------------------------------------------------
# Pastro polynomials


def pastro_P(n, z, t, u, q) -> complex:
    """Polynomial limit family at the top biorthogonal-polynomial point.

    Evaluated as a terminating 3phi2 with one zero lower parameter; a
    second, 2phi1-based representation is evaluated as a cross-check.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    t0, t1, t2, t3 = (complex(x) for x in t)
    u0, u1 = (complex(x) for x in u)
    q = complex(q)
    if 0 in (z, t1, t2, t3, u0, u1):
        raise DomainError("pastro_P requires z, t1, t2, t3, u0, u1 != 0")
    # 3phi2(q^-n, t0/z, q/(u0 t1); t0 t2, 0; q, q)
    v1 = _phi([q ** (-n), t0 / z, q / (u0 * t1)], [q, t0 * t2], q, q, n + 1)
    # (1/(t3 u1);q)_n / (t0 t2;q)_n (q/(t1 u0))^n
    #   * 2phi1(q/(t1 u0), q^-n; q^(1-n) t3 u1; q, q/(t2 z))
    den = qpoch_finite(t0 * t2, q, n)
    if abs(den) < 1e-14:
        raise PoleError("pastro_P coefficient pole")
    coeff = qpoch_finite(1.0 / (t3 * u1), q, n) / den * (q / (t1 * u0)) ** n
    v2 = coeff * _phi(
        [q / (t1 * u0), q ** (-n)],
        [q, q ** (1 - n) * t3 * u1],
        q,
        q / (t2 * z),
        n + 1,
    )
    if abs(v1 - v2) > 1e-9 * max(abs(v1), 1.0):
        raise NonConvergence("pastro_P series representations disagree")
    return v1


def pastro_p(n, w, A, B, q) -> complex:
    """p_n(w; A, B): the first Pastro family in circle variables.

    One q-binomial polynomial in w, summed in a single pass:

        p_n(w; A, B) = A^n / (AB/q;q)_n
                       * sum_{k<=n} [n k]_q (A;q)_k (B/q;q)_(n-k) (w / q^(1/2))^k.

    It is Pastro's coefficient times 2phi1,
    (B/q;q)_n A^n / (AB/q;q)_n * 2phi1(A, q^-n; q^(2-n)/B; q, w q^(3/2) / B),
    rewritten term by term with

        (B/q;q)_n / (q^(2-n)/B;q)_k = (B/q;q)_(n-k) prod_{j<k} (-B q^(n-2-j)),
        (q^-n;q)_k / (q;q)_k = (-1)^k q^(k(k-1)/2 - nk) [n k]_q,

    so the sum has no divisor (q^(2-n)/B;q)_k, which is small near B = q,
    and at B = q, where (B/q;q)_(n-k) = 0 for k < n, it is the monomial
    A^n q^(-n/2) w^n.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    A, B, q, w = complex(A), complex(B), complex(q), complex(w)
    if q == 0 or B == 0:
        raise DomainError("pastro_p requires q != 0 and B != 0")
    b = B / q
    # qs[m] = q^m, lower[m] = (B/q;q)_m, den = (AB/q;q)_n
    qs = [1.0 + 0.0j]
    lower = [1.0 + 0.0j]
    den = 1.0 + 0.0j
    for m in range(n):
        lower.append(lower[m] * (1.0 - b * qs[m]))
        den *= 1.0 - A * b * qs[m]
        qs.append(qs[m] * q)
    if abs(den) < 1e-14:
        raise PoleError("pastro_p coefficient pole")
    x = w / q**0.5
    # term = [n k]_q (A;q)_k x^k
    term = 1.0 + 0.0j
    out = lower[n]
    for k in range(n):
        step = 1.0 - qs[k + 1]
        if abs(step) < 1e-14:
            raise PoleError("q-binomial denominator vanishes")
        term *= (1.0 - qs[n - k]) * (1.0 - A * qs[k]) * x / step
        out += term * lower[n - k - 1]
    return out * A**n / den


def pastro_q(n, w, A, B, q) -> complex:
    """q_n(w; A, B) = p_n(1/w; B, A)."""
    if w == 0:
        raise DomainError("pastro_q requires w != 0")
    return pastro_p(n, 1.0 / complex(w), B, A, q)


def pastro_measure(A, B, q) -> LimitMeasure:
    """The unit-circle bilinear form making p_n and q_m biorthogonal.

    Its weight is theta(rq w; q) / ((A w / rq; q)_infty (B / (w rq); q)_infty),
    rq = q^(1/2), times the constant (q;q)(AB/q;q) / ((A;q)(B;q)).
    """
    A, B, q = complex(A), complex(B), complex(q)
    if not 0 < abs(q) < 1:
        raise DomainError("0 < |q| < 1 required")
    rq = q**0.5
    pref, weight, log_weight = _circle_weight(
        [(q, 1, q), (A * B / q, 1, q), (A, -1, q), (B, -1, q)],
        [(rq, 1, 1, q), (rq, -1, 1, q), (A / rq, 1, -1, q), (B / rq, -1, -1, q)],
    )
    return LimitMeasure("SB_INTEGRAL", (pref,), weight, q, log_weight=log_weight)


def pastro_inner_product(f, g, A, B, q, quad: int = 512) -> complex:
    """<f, g> under pastro_measure, with quad checked before the weight is built."""
    check_quad(quad)
    return pastro_measure(A, B, q).apply(f, g, quad)


def pastro_norm(n, A, B, q) -> complex:
    """<p_n, q_n> in closed form: (AB/q)^n (q;q)_n / (AB/q;q)_n."""
    return (A * B / q) ** n * qpoch_finite(q, q, n) / qpoch_finite(A * B / q, q, n)


def pastro_system(A, B, q, quad: int = 512) -> BiorthogonalSystem:
    """p_n and q_m under pastro_measure, with pastro_norm."""
    return BiorthogonalSystem(
        lambda n: lambda w: pastro_p(n, w, A, B, q),
        lambda m: lambda w: pastro_q(m, w, A, B, q),
        partial(pastro_measure(A, B, q).gram, quad=quad),
        lambda n: pastro_norm(n, A, B, q),
    )


# ---------------------------------------------------------------------------
# Limit measures


def _measure_args(alpha, t, q):
    """(a, t, q) of a measure constructor: six exponents summing to 1 as
    Fractions, six complex t with the balancing prod t_r = q, complex q."""
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    if len(t) != 6:
        raise DomainError("need 6 t parameters")
    if sum(a) != 1:
        raise HypothesisError("exponents must sum to 1")
    prod = 1.0 + 0.0j
    for x in t:
        prod *= x
    if abs(prod - q) > 1e-9 * abs(q):
        raise DomainError("parameter balancing violated")
    return a, t, q


def _gamma_constants(a, t, q, inside=()):
    """The p -> 0 limits of the factors 1 / Gamma(t_r t_s), r < s, of the
    measure constant, with t_r = c_r p^alpha_r, as factors (x, e, q) of
    _qpoch_constant (Rains, Ann. Math. 2010).

    The exponent of t_r t_s is alpha_r + alpha_s, plus 1 when r and s both
    lie in inside (the SB triple or the Sigma2 pair).  1 / Gamma(t_r t_s)
    tends to (t_r t_s; q)_infty at exponent 0, to 1 / (q / (t_r t_s); q)_infty
    at exponent 1 and to 1 in between.
    """
    consts = []
    for r, s in combinations(range(6), 2):
        e = a[r] + a[s] + (1 if r in inside and s in inside else 0)
        if e == 0:
            consts.append((t[r] * t[s], 1, q))
        elif e == 1:
            consts.append((q / (t[r] * t[s]), -1, q))
    return consts


def nr_measure(alpha, t, q) -> LimitMeasure:
    """Beta-integral-type limit measure (all alpha_r >= 0)."""
    a, t, q = _measure_args(alpha, t, q)
    if any(x < 0 for x in a):
        raise HypothesisError("all alpha_r must be >= 0")
    consts = [(q, 1, q)] + _gamma_constants(a, t, q)
    # (z^2; q)(z^-2; q) = (1 - z^2)(1 - z^-2)(q z^2; q)(q z^-2; q); then
    # (q z^+-1 / t_r; q) for alpha_r = 1 and 1 / (t_r z^+-1; q) for alpha_r = 0
    factors = [(q, 2, 1, q), (q, -2, 1, q)]
    for r in range(6):
        for s in (1, -1):
            if a[r] == 1:
                factors.append((q / t[r], s, 1, q))
            elif a[r] == 0:
                factors.append((t[r], s, -1, q))
    pref, weight, log_weight = _circle_weight(consts, factors, zeros=(2, -2))
    return LimitMeasure(
        "NR_INTEGRAL", (pref / 2.0,), weight, q, log_weight=log_weight
    )


def _find_sb_triple(a, zeta):
    for trip in combinations(range(6), 3):
        if sum(a[i] for i in trip) != zeta:
            continue
        if all(zeta <= a[i] <= -zeta for i in trip) and all(
            -zeta <= a[i] <= 1 + zeta for i in range(6) if i not in trip
        ):
            return trip
    return None


def sb_measure(alpha, t, q) -> LimitMeasure:
    """Symmetry-broken integral limit measure, on the first triple (a,b,c)
    with alpha_a + alpha_b + alpha_c = zeta and the band conditions, which
    the measure records as triple; HypothesisError when there is none."""
    a, t, q = _measure_args(alpha, t, q)
    zeta = _negative_zeta(a)
    trip = _find_sb_triple(a, zeta)
    if trip is None:
        raise HypothesisError("no triple with alpha_a+alpha_b+alpha_c = zeta")
    consts = [(q, 1, q)] + _gamma_constants(a, t, q, trip)
    tprod = 1.0 + 0.0j
    for i in trip:
        tprod *= t[i]
    half = zeta == Q(-1, 2)

    # theta(q z / tprod; q) = (q z / tprod; q)(tprod / z; q); then, in r
    # order, (q / (t_r z); q) and 1 / (t_r / z; q) for r in the triple and
    # (q z / t_r; q) and 1 / (t_r z; q) off it, by the roles of alpha_r
    factors = [(q / tprod, 1, 1, q), (tprod, -1, 1, q)]
    for r in range(6):
        if r in trip:
            up, down, s = a[r] == -zeta, a[r] == zeta, -1
        else:
            up, down, s = a[r] == 1 + zeta, a[r] == -zeta, 1
        if up:
            factors.append((q / t[r], s, 1, q))
        if down:
            factors.append((t[r], s, -1, q))
    if half:
        # (z^2; q) / (q z^2; q) = 1 - z^2 is left to the weight
        for r in trip:
            if a[r] == Q(1, 2):
                factors.append((q / t[r], 1, 1, q))
            if a[r] == Q(-1, 2):
                factors.append((t[r], 1, -1, q))
    pref, weight, log_weight = _circle_weight(consts, factors, (2,) if half else ())
    return LimitMeasure(
        "SB_INTEGRAL", (pref,), weight, q, triple=trip, log_weight=log_weight
    )


def _negative_zeta(a) -> Fraction:
    """zeta_for(a), which the SB and Sigma2 measures need in [-1/2, 0)."""
    zeta = zeta_for(a)
    if not -Q(1, 2) <= zeta < 0:
        raise HypothesisError("need -1/2 <= zeta < 0")
    return zeta


def _sigma2_pair(a, limit4):
    """(zeta, pair) of a Sigma2 measure: the first pair with alpha_a =
    alpha_b = zeta (a, b <= 3 with limit4, the series form) and alpha_r
    in [-zeta, 1+zeta] elsewhere."""
    zeta = _negative_zeta(a)
    top = 4 if limit4 else 6
    pair = next(
        ((r, s) for r in range(top) for s in range(r + 1, top)
         if a[r] == a[s] == zeta),
        None,
    )
    if pair is None:
        where = " a,b <= 3" if limit4 else ""
        raise HypothesisError(f"no pair{where} with alpha_a = alpha_b = zeta")
    for r in range(6):
        if r not in pair and not -zeta <= a[r] <= 1 + zeta:
            raise HypothesisError("alpha_r outside [-zeta, 1+zeta]")
    return zeta, pair


def sigma2_measure(alpha, t, q, w) -> LimitMeasure:
    """Integral form of the double-series limit measure with free w, on
    the pair of _sigma2_pair, which the measure records."""
    a, t, q = _measure_args(alpha, t, q)
    w = complex(w)
    if w == 0:
        raise DomainError("sigma2_measure requires w != 0")
    zeta, pair = _sigma2_pair(a, limit4=False)
    ia, ib = pair
    ta, tb = t[ia], t[ib]
    half = zeta == Q(-1, 2)
    consts = [(q, 1, q)] + _gamma_constants(a, t, q, pair)

    # off the pair, in r order: (q z / t_r; q) for alpha_r = 1 + zeta and
    # 1 / (t_r z; q) for alpha_r = -zeta; then 1 / (t_a / z; q)(t_b / z; q),
    # 1 / (t_a z; q)(t_b z; q) and (1 - z^2) when zeta = -1/2, and
    # theta(w z; q) theta(q z / (t_a t_b w); q) as four factors
    factors = []
    for r in range(6):
        if r not in (ia, ib):
            if a[r] == 1 + zeta:
                factors.append((q / t[r], 1, 1, q))
            if a[r] == -zeta:
                factors.append((t[r], 1, -1, q))
    factors += [(ta, -1, -1, q), (tb, -1, -1, q)]
    if half:
        factors += [(ta, 1, -1, q), (tb, 1, -1, q)]
    factors += [
        (w, 1, 1, q),
        (q / w, -1, 1, q),
        (q / (ta * tb * w), 1, 1, q),
        (ta * tb * w, -1, 1, q),
    ]
    pref, weight, log_weight = _circle_weight(consts, factors, (2,) if half else ())
    # theta(x; q) = (x; q)(q / x; q) for x = t_a w and t_b w
    theta_w = _qpoch_constant(
        [(ta * w, 1, q), (q / (ta * w), 1, q), (tb * w, 1, q), (q / (tb * w), 1, q)]
    )
    return LimitMeasure(
        "SB_INTEGRAL",
        (pref,),
        lambda z: weight(z) / theta_w,
        q,
        pair=pair,
        log_weight=log_weight,
    )


def sigma2_series(alpha, t, q) -> LimitMeasure:
    """Double-series form of the same limit measure, based at t_a q^k and
    t_b q^k on the pair a, b <= 3 of _sigma2_pair, which it records."""
    a, t, q = _measure_args(alpha, t, q)
    zeta, pair = _sigma2_pair(a, limit4=True)
    ia, ib = pair
    half = zeta == Q(-1, 2)
    low = [r for r in range(6) if r not in pair and a[r] == -zeta]
    up = [r for r in range(6) if r not in pair and a[r] == 1 + zeta]

    shared = [
        (q / (t[r] * t[s]), -1, q)
        for r in range(6)
        for s in range(r + 1, 6)
        if a[r] + a[s] == 1
    ]

    def based_at(x, y):
        # the series at t_x q^k with companion t_y: its prefactor and the
        # arguments of _series_term after (k, q)
        tx, ty = t[x], t[y]
        consts = list(shared)
        if half:
            consts.append((q * tx**2, -1, q))
        for r in range(6):
            if r in low:
                consts.append((t[r] * ty, 1, q))
            if r in up:
                consts.append((q * tx / t[r], 1, q))
        # (t_y / t_x; q) = (1 - t_y / t_x)(q t_y / t_x; q), whose first
        # factor is taken as (t_x - t_y) / t_x, clear of the rounding of
        # the ratio where it nearly cancels
        consts.append((q * ty / tx, -1, q))
        numer = ([tx**2, tx * ty] if half else []) + [t[r] * tx for r in low]
        denom = [q * tx / ty] + [q * tx / t[r] for r in up]
        args = (numer, denom, q, 0, tx**2 if half else None)
        return _qpoch_constant(consts) * tx / (tx - ty), args

    prefs, args = zip(based_at(ia, ib), based_at(ib, ia))
    return LimitMeasure(
        "SIGMA2_SERIES",
        prefs,
        lambda i, k: _series_term(k, q, *args[i]),
        q,
        bases=(t[ia], t[ib]),
        pair=pair,
    )


def sigma_measure(alpha, t, q) -> LimitMeasure:
    """Single-series limit measure based at t_a q^k, a the first index
    <= 3 with alpha_a in [-1/2, 0) below every other alpha_r, which the
    measure records as base_index."""
    a, t, q = _measure_args(alpha, t, q)
    ia = next(
        (r for r in range(4)
         if -Q(1, 2) <= a[r] < 0 and all(a[s] > a[r] for s in range(6) if s != r)),
        None,
    )
    if ia is None:
        raise HypothesisError("no admissible series base index a <= 3")
    aa = a[ia]
    for r in range(6):
        if r != ia and not aa < a[r] <= 1 + aa:
            raise HypothesisError("alpha_r outside (alpha_a, 1 + alpha_a]")
    for r in range(6):
        for s in range(r + 1, 6):
            if ia in (r, s):
                continue
            if not 0 < a[r] + a[s] <= 1:
                raise HypothesisError("pair sums must lie in (0, 1]")
    if sum(aa + a[r] for r in range(6) if r != ia and a[r] + aa < 0) != 2 * aa:
        raise HypothesisError("mass-count constraint on alpha violated")
    ta = t[ia]
    half = aa == Q(-1, 2)
    Ncount = sum(1 for r in range(6) if r != ia and a[r] < -aa)

    consts = _gamma_constants(a, t, q)
    for r in range(6):
        if r != ia and a[r] == 1 + aa:
            consts.append((q * ta / t[r], 1, q))
        if r != ia and a[r] == -aa:
            consts.append((t[r] * ta, -1, q))
    if half:
        consts.append((q * ta**2, -1, q))
    pref = _qpoch_constant(consts)

    # the powers ((-1)^k q^C(k,2))^(Ncount - 2) (ta^(Ncount - 2) prod t_r)^k,
    # t_r over alpha_r + alpha_a < 0, are z^k q^((Ncount - 2) C(k,2))
    z = (-1) ** (Ncount - 2) * ta ** (Ncount - 2)
    for r in range(6):
        if r != ia and a[r] + aa < 0:
            z *= t[r]
    numer = [t[r] * ta for r in range(6) if r != ia and a[r] == -aa]
    denom = [q * ta / t[r] for r in range(6) if r != ia and a[r] == 1 + aa]
    args = (numer, denom, z, Ncount - 2, None)
    if half:
        args = ([ta**2] + numer, denom, z, Ncount - 2, ta**2)
    return LimitMeasure(
        "SIGMA_SERIES",
        (pref,),
        lambda i, k: _series_term(k, q, *args),
        q,
        bases=(ta,),
        base_index=ia,
    )


def finite_measure(alpha, t, N, q) -> LimitMeasure:
    """Finite limit measure with N+1 masses at t0 q^k.

    Each weight is a constant times a basic hypergeometric term in k,
    with one branch for alpha_0 = 0 and -1/2 and one for
    -1/2 < alpha_0 < 0; alpha and t are checked and the constant is
    built once, here.
    """
    a, t, q = _measure_args(alpha, t, q)
    a0 = a[0]
    if a[1] != -a0 or not -Q(1, 2) <= a0 <= 0:
        raise BranchError("need alpha_0 = -alpha_1 in [-1/2, 0]")
    if sum(a[2:]) != 1:
        raise BranchError("need alpha_2 + ... + alpha_5 = 1")
    for r in range(2, 6):
        if not a0 <= a[r] <= 1 + a0:
            raise BranchError("alpha_r outside [alpha_0, 1 + alpha_0]")
    for r in range(2, 6):
        for s in range(r + 1, 6):
            if a[r] + a[s] > 1:
                raise BranchError("alpha_r + alpha_s > 1")
    if sum(a0 + a[r] for r in range(2, 6) if a[r] < -a0) != 2 * a0:
        raise BranchError("mass-count constraint on alpha violated")
    if abs(t[0] * t[1] - q ** (-N)) > 1e-9 * abs(q ** (-N)):
        raise DomainError("t0 t1 = q^-N violated")
    if abs(t[2] * t[3] * t[4] * t[5] - q ** (N + 1)) > 1e-9 * abs(q ** (N + 1)):
        raise DomainError("t2 t3 t4 t5 = q^(N+1) violated")

    t0, t1 = t[0], t[1]
    const = 1.0 + 0.0j
    for r in range(2, 6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                const /= qpoch_finite(q / (t[r] * t[s]), q, N)

    if a0 in (0, Q(-1, 2)):
        # very-well-poised in t0^2; only the heads of the two endpoints
        # differ, alpha_r = alpha_0 and 1 + alpha_0 add the same factors
        low = [r for r in range(2, 6) if a[r] == a0]
        up = [r for r in range(2, 6) if a[r] == 1 + a0]
        numer = [q ** (-N), t0**2] + [t0 * t[r] for r in low + up]
        denom = [q * t0 / t1] + [q * t0 / t[r] for r in low + up]
        if a0 == 0:
            z, m = 1.0 / (t1 * t0**3 * q), -2
        else:
            z, m = q * t0 / t1, 2
            const *= (-t1 / t0) ** N * q ** _binom2(N)
        const /= qpoch_finite(t1 / t0, q, N)
        for r in low:
            z, m = -z * q * t0 / t[r], m + 1
        for r in up:
            z, m = -z / (t0 * t[r]), m - 1
            const *= (-t1 * t[r]) ** (-N) * q ** (-_binom2(N))
        for r in low + up:
            const *= qpoch_finite(t1 * t[r], q, N)
        vwp = t0**2
    else:
        # interior branch, -1/2 < alpha_0 < 0
        numer = [q ** (-N)] + [t0 * t[r] for r in range(2, 6) if a[r] == -a0]
        denom = [q * t0 / t[r] for r in range(2, 6) if a[r] in (a0, 1 + a0)]
        z, m, vwp = t0 ** (-2), -2, None
        for r in range(2, 6):
            if a[r] == a0:
                z *= q * t0**2
                m += 2
                const *= qpoch_finite(t1 * t[r], q, N)
            elif a0 < a[r] < -a0:
                z *= -t0 * t[r]
                m += 1
            elif a[r] == 1 + a0:
                const *= qpoch_finite(q * t0 / t[r], q, N)
    args = (numer, denom, z, m, vwp)
    return LimitMeasure(
        "FINITE_DISCRETE",
        (1.0,),
        lambda i, k: const * _series_term(k, q, *args),
        q,
        bases=(t0,),
        n_masses=N + 1,
    )


# ---------------------------------------------------------------------------
# Askey-Wilson type top limit and numeric limit extraction


def aw_phi43(n, z, t, u, q) -> complex:
    """Terminating 4phi3 limit family at the top orthogonal-polynomial
    point, normalized to 1 at z = t0."""
    t0, t1, t2, t3 = (complex(x) for x in t)
    q = complex(q)
    if z == 0 or t0 == 0:
        raise DomainError("aw_phi43 requires z != 0 and t0 != 0")

    def phi(zz):
        return _phi(
            [q ** (-n), q ** (n - 1) * t0 * t1 * t2 * t3, t0 * zz, t0 / zz],
            [q, t0 * t1, t0 * t2, t0 * t3],
            q,
            q,
            n + 1,
        )

    return phi(z) / phi(t0)


def numeric_limit(fn, v, p_seq) -> tuple[complex, float]:
    """Estimate lim p^-val fn(p) from samples along decreasing p.

    Returns (limit, valuation).  The valuation is estimated by log-log
    slope, snapped to the rational grid of the exponent vector; the limit
    is Richardson-extrapolated in the smallest exponent gap.
    """
    ps = [float(p) for p in p_seq]
    if len(ps) < 2 or any(b >= a for a, b in zip(ps, ps[1:])):
        raise DomainError("p_seq must be strictly decreasing, length >= 2")
    vals = [fn(p) for p in ps]
    if any(abs(x) == 0 for x in vals):
        raise NonConvergence("fn vanished along the sequence")
    slopes = [
        (math.log(abs(v2)) - math.log(abs(v1))) / (math.log(p2) - math.log(p1))
        for p1, p2, v1, v2 in zip(ps, ps[1:], vals, vals[1:])
    ]
    if any(abs(s1 - s2) > 0.1 for s1, s2 in zip(slopes, slopes[1:])):
        raise NonConvergence("log-slope estimates did not stabilize")
    den = math.lcm(*(x.denominator for x in v.as7()))
    val_exact = Q(round(slopes[-1] * den), den)
    scaled = [val * p ** (-float(val_exact)) for p, val in zip(ps, vals)]
    return richardson(scaled, ps, 1.0 / den), float(val_exact)


def richardson(vals, ps, gap: float) -> complex:
    """Limit p -> 0 of samples vals at ps whose corrections are a series
    in p^gap: iterated Richardson elimination of the p^(j*gap) orders."""
    tab = list(vals)
    n = len(tab)
    for j in range(1, n):
        nxt = []
        for i in range(n - j):
            r1 = ps[i] ** (j * gap)
            r2 = ps[i + j] ** (j * gap)
            nxt.append((tab[i + 1] * r1 - tab[i] * r2) / (r1 - r2))
        tab = nxt
    return tab[0]


# ---------------------------------------------------------------------------
# The `verify limit` family: rtilde along a p-dependent parameter path that
# tends to face 1111pp (Pastro polynomials) or 40as (Askey-Wilson 4phi3).

LIMIT_FACES = ("1111pp", "40as")
_LIMIT_Q = 0.65
_LIMIT_T = (2.0, 1.3, 3.1, 1.0)
_LIMIT_Z = 1.3
_LIMIT_U0 = {"1111pp": 0.369, "40as": 0.4}


def _limit_u(face: str) -> tuple[float, float]:
    if face not in LIMIT_FACES:
        raise DomainError(f"limit face must be one of {LIMIT_FACES}")
    T = _LIMIT_T
    u0 = _LIMIT_U0[face]
    return u0, _LIMIT_Q / (T[0] * T[1] * T[2] * T[3] * u0)


def limit_value(face: str, n: int, p: float) -> complex:
    """rtilde of degree n on the `verify limit` path of face at p."""
    q, T, Z = _LIMIT_Q, _LIMIT_T, _LIMIT_Z
    u0, u1 = _limit_u(face)
    if face == "1111pp":
        t = (T[0] * p**-0.25, T[1], T[2] * p**0.25, T[3] * p**0.5)
        par = EllipticParams(t, (u0, u1 * p**0.5), q, p)
        return rtilde(n, Z * p**-0.25, par)
    par = EllipticParams(T, (u0 * p**0.5, u1 * p**0.5), q, p)
    return rtilde(n, Z, par)


def limit_target(face: str, n: int) -> complex:
    """Closed-form p -> 0 limit of limit_value(face, n, p)."""
    closed = pastro_P if face == "1111pp" else aw_phi43
    return closed(n, _LIMIT_Z, _LIMIT_T, _limit_u(face), _LIMIT_Q)
