"""Limiting families and measures of the elliptic biorthogonal functions.

Pastro polynomials with their circle measure, the finite-support limit
weights, the four infinite-support limit bilinear forms (beta-integral
type, symmetry-broken integral, double series, single series), and
numeric limit extraction: log-slope valuation estimates and the one
Richardson routine in p -> 0.  The `verify limit` family also lives
here: limit_value evaluates rtilde along the p-dependent parameters of
face 1111pp or 40as, limit_target the closed-form limit it tends to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    BranchError,
    ContourError,
    DomainError,
    HypothesisError,
    NonConvergence,
    PoleError,
    SeriesDivergence,
)
from .biortho import EllipticParams, rtilde
from .polytope import _as6, zeta_for
from .qkernel import circle_mean, qpoch_finite, qpoch_infinite, theta

__all__ = [
    "pastro_P",
    "pastro_p",
    "pastro_q",
    "pastro_inner_product",
    "finite_weights",
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

# LimitMeasure.apply sums a series until ten successive terms fall below
# _SERIES_TOL relative to the running sum, within _SERIES_MAX_TERMS terms.
_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 400


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


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
    """p_n(w; A, B): the first Pastro family in circle variables."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    A, B, q, w = complex(A), complex(B), complex(q), complex(w)
    if abs(B - q) < 1e-14:
        # removable singularity: the series collapses to a monomial
        return w**n * A**n * q ** (-n / 2)
    den = qpoch_finite(A * B / q, q, n)
    if abs(den) < 1e-14:
        raise PoleError("pastro_p coefficient pole")
    coeff = qpoch_finite(B / q, q, n) / den * A**n
    rq = q**0.5
    return coeff * _phi(
        [A, q ** (-n)], [q, q ** (2 - n) / B], q, w * q * rq / B, n + 1
    )


def pastro_q(n, w, A, B, q) -> complex:
    """q_n(w; A, B) = p_n(1/w; B, A)."""
    return pastro_p(n, 1.0 / complex(w), B, A, q)


def pastro_inner_product(f, g, A, B, q, quad: int = 512) -> complex:
    """Unit-circle bilinear form making p_n and q_m biorthogonal."""
    A, B, q = complex(A), complex(B), complex(q)
    if abs(q) >= 1:
        raise DomainError("|q| < 1 required")
    rq = q**0.5
    if abs(A / rq) >= 1 or abs(B / rq) >= 1:
        raise ContourError("pole families cross the unit circle")
    pref = (
        qpoch_infinite(q, q)
        * qpoch_infinite(A * B / q, q)
        / (qpoch_infinite(A, q) * qpoch_infinite(B, q))
    )

    def integrand(w):
        val = f(w) * g(w) * theta(rq * w, q)
        val /= qpoch_infinite(A * w / rq, q)
        val /= qpoch_infinite(B / (w * rq), q)
        return val

    return pref * circle_mean(integrand, quad)


# ---------------------------------------------------------------------------
# Finite-support limit weights


def finite_weights(k, alpha, t, N, q) -> complex:
    """Weight of the k-th mass point t0 q^k of the finite limit measure.

    Three branches depending on alpha_0 = 0, in (-1/2, 0), or = -1/2.
    """
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    if len(t) != 6:
        raise DomainError("need 6 t parameters")
    if not 0 <= k <= N:
        raise DomainError("k must lie in 0..N")
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
    pair_tail = 1.0 + 0.0j
    for r in range(2, 6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                pair_tail /= qpoch_finite(q / (t[r] * t[s]), q, N)

    if a0 == 0:
        w = (1 - t0**2 * q ** (2 * k)) / (1 - t0**2)
        w *= qpoch_finite(q ** (-N), q, k) * qpoch_finite(t0**2, q, k)
        w /= qpoch_finite(q, q, k) * qpoch_finite(q * t0 / t1, q, k)
        w *= (1.0 / (t1 * t0**3 * q)) ** k * q ** (-2 * _binom2(k))
        w /= qpoch_finite(t1 / t0, q, N)
        for r in range(2, 6):
            if a[r] == 0:
                w *= (
                    qpoch_finite(t0 * t[r], q, k)
                    * qpoch_finite(t1 * t[r], q, N)
                    / qpoch_finite(q * t0 / t[r], q, k)
                )
                w *= (-q * t0 / t[r]) ** k * q ** _binom2(k)
            elif a[r] == 1:
                w *= (
                    qpoch_finite(t0 * t[r], q, k)
                    * qpoch_finite(t1 * t[r], q, N)
                    / qpoch_finite(q * t0 / t[r], q, k)
                )
                w *= (-t0 * t[r]) ** (-k) * (-t1 * t[r]) ** (-N)
                w *= q ** (-_binom2(k) - _binom2(N))
        return w * pair_tail

    if a0 == Q(-1, 2):
        w = (1 - t0**2 * q ** (2 * k)) / (1 - t0**2)
        w *= qpoch_finite(q ** (-N), q, k) * qpoch_finite(t0**2, q, k)
        w /= qpoch_finite(q, q, k) * qpoch_finite(q * t0 / t1, q, k)
        w /= qpoch_finite(t1 / t0, q, N)
        w *= (q * t0 / t1) ** k * (-t1 / t0) ** N
        w *= q ** (2 * _binom2(k) + _binom2(N))
        for r in range(2, 6):
            if a[r] == Q(-1, 2):
                w *= (
                    qpoch_finite(t0 * t[r], q, k)
                    * qpoch_finite(t1 * t[r], q, N)
                    * (-q * t0 / t[r]) ** k
                    * q ** _binom2(k)
                    / qpoch_finite(q * t0 / t[r], q, k)
                )
            elif a[r] == Q(1, 2):
                w *= (
                    qpoch_finite(t0 * t[r], q, k)
                    * qpoch_finite(t1 * t[r], q, N)
                    / qpoch_finite(q * t0 / t[r], q, k)
                )
                w *= (-t0 * t[r]) ** (-k) * (-t1 * t[r]) ** (-N)
                w *= q ** (-_binom2(k) - _binom2(N))
        return w * pair_tail

    # -1/2 < alpha_0 < 0
    w = qpoch_finite(q ** (-N), q, k) / qpoch_finite(q, q, k)
    w /= t0 ** (2 * k) * q ** (2 * _binom2(k))
    for r in range(2, 6):
        if a[r] == a0:
            w *= (q * t0**2) ** k * q ** (2 * _binom2(k))
            w /= qpoch_finite(q * t0 / t[r], q, k)
            w *= qpoch_finite(t1 * t[r], q, N)
        elif a0 < a[r] < -a0:
            w *= (-t0 * t[r]) ** k * q ** _binom2(k)
        if a[r] == -a0:
            w *= qpoch_finite(t0 * t[r], q, k)
        if a[r] == 1 + a0:
            w *= qpoch_finite(q * t0 / t[r], q, N)
            w /= qpoch_finite(q * t0 / t[r], q, k)
    return w * pair_tail


# ---------------------------------------------------------------------------
# Limit measures


_INTEGRAL_KINDS = ("NR_INTEGRAL", "SB_INTEGRAL")
_SERIES_KINDS = ("SIGMA_SERIES", "SIGMA2_SERIES", "FINITE_DISCRETE")


@dataclass(frozen=True)
class LimitMeasure:
    """A limit bilinear form at base q: a circle integral or a series.

    kind is one of NR_INTEGRAL, SB_INTEGRAL, SIGMA_SERIES, SIGMA2_SERIES,
    FINITE_DISCRETE.  For integral kinds weight is a function of z on the
    circle; an NR_INTEGRAL weight must satisfy w(1/z) = w(z), because
    apply averages w(z) (f(z) g(z) + f(1/z) g(1/z)) / 2 over the upper
    half circle.  For series kinds weight(i, k) multiplies f(b q^k) g(b q^k)
    for the i-th base point b of bases.  prefactors holds one factor per
    base point (a single one for the integral kinds).  n_masses is the
    length of the finite series; triple, pair and base_index record the
    exponent indices the SB, Sigma2 and Sigma measures were built on.
    """

    kind: str
    prefactors: tuple
    weight: object
    q: complex
    bases: tuple = ()
    n_masses: int | None = None
    triple: tuple | None = None
    pair: tuple | None = None
    base_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _INTEGRAL_KINDS + _SERIES_KINDS:
            raise DomainError(f"unknown limit-measure kind {self.kind!r}")
        if len(self.prefactors) != max(len(self.bases), 1):
            raise DomainError("need one prefactor per series base point")

    def apply(self, f, g, quad: int = 512) -> complex:
        q = self.q
        if self.kind == "NR_INTEGRAL":
            # the NR weight is inversion-symmetric, so the symmetrized
            # integrand has the same mean over half the nodes
            def integrand(z):
                zi = 1.0 / z
                return self.weight(z) * (f(z) * g(z) + f(zi) * g(zi)) / 2

            return self.prefactors[0] * circle_mean(
                integrand, quad, inversion_symmetric=True
            )
        if self.kind == "SB_INTEGRAL":
            return self.prefactors[0] * circle_mean(
                lambda z: self.weight(z) * f(z) * g(z), quad
            )
        if self.kind == "FINITE_DISCRETE":
            total = 0.0 + 0.0j
            for k in range(self.n_masses):
                zk = self.bases[0] * q**k
                total += self.weight(0, k) * f(zk) * g(zk)
            return self.prefactors[0] * total
        # one or two infinite series
        out = 0.0 + 0.0j
        for i, base in enumerate(self.bases):
            run_max = 0.0
            small = 0
            tot = 0.0 + 0.0j
            for k in range(_SERIES_MAX_TERMS):
                term = self.weight(i, k) * f(base * q**k) * g(base * q**k)
                tot += term
                run_max = max(run_max, abs(tot))
                if abs(term) < _SERIES_TOL * max(run_max, 1.0):
                    small += 1
                    if small >= 10:
                        break
                else:
                    small = 0
            else:
                raise SeriesDivergence("limit-measure series did not converge")
            out += self.prefactors[i] * tot
        return out


def _check_sum1(a):
    if sum(a) != 1:
        raise HypothesisError("exponents must sum to 1")


def _check_balance(t, prod_target):
    prod = 1.0 + 0.0j
    for x in t:
        prod *= x
    if abs(prod - prod_target) > 1e-9 * abs(prod_target):
        raise DomainError("parameter balancing violated")


def nr_measure(alpha, t, q) -> LimitMeasure:
    """Beta-integral-type limit measure (all alpha_r >= 0)."""
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    _check_sum1(a)
    if any(x < 0 for x in a):
        raise HypothesisError("all alpha_r must be >= 0")
    _check_balance(t, q)
    pref = qpoch_infinite(q, q) / 2.0
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 0:
                pref *= qpoch_infinite(t[r] * t[s], q)
            elif a[r] + a[s] == 1:
                pref /= qpoch_infinite(q / (t[r] * t[s]), q)
    for r in range(6):
        if a[r] == 0 and abs(t[r]) >= 1:
            raise ContourError("|t_r| >= 1 for a weight-denominator parameter")

    # (t_r, alpha_r == 1) for the parameters with alpha_r in {0, 1}
    roles = [(t[r], a[r] == 1) for r in range(6) if a[r] in (0, 1)]

    def weight(z):
        val = qpoch_infinite(z * z, q) * qpoch_infinite(1.0 / (z * z), q)
        for tr, upper in roles:
            if upper:
                val *= qpoch_infinite(q * z / tr, q)
                val *= qpoch_infinite(q / (tr * z), q)
            else:
                val /= qpoch_infinite(tr * z, q)
                val /= qpoch_infinite(tr / z, q)
        return val

    return LimitMeasure("NR_INTEGRAL", (pref,), weight, q)


def _find_sb_triple(a, zeta):
    for trip in combinations(range(6), 3):
        if sum(a[i] for i in trip) != zeta:
            continue
        if all(zeta <= a[i] <= -zeta for i in trip) and all(
            -zeta <= a[i] <= 1 + zeta for i in range(6) if i not in trip
        ):
            return trip
    return None


def sb_measure(alpha, t, q, triple=None) -> LimitMeasure:
    """Symmetry-broken integral limit measure.

    Requires a triple (a,b,c) with alpha_a + alpha_b + alpha_c = zeta and
    the associated band conditions; found automatically when not given.
    """
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    _check_sum1(a)
    zeta = _negative_zeta(a)
    if triple is None:
        triple = _find_sb_triple(a, zeta)
    if triple is None:
        raise HypothesisError("no triple with alpha_a+alpha_b+alpha_c = zeta")
    trip = tuple(sorted(triple))
    if sum(a[i] for i in trip) != zeta or not (
        all(zeta <= a[i] <= -zeta for i in trip)
        and all(-zeta <= a[i] <= 1 + zeta for i in range(6) if i not in trip)
    ):
        raise HypothesisError("triple violates the band conditions")
    _check_balance(t, q)

    inside = set(trip)
    pref = qpoch_infinite(q, q)
    for r in range(6):
        for s in range(r + 1, 6):
            both_in = r in inside and s in inside
            mixed = (r in inside) != (s in inside)
            if both_in and a[r] + a[s] == -1:
                pref *= qpoch_infinite(t[r] * t[s], q)
            if mixed and a[r] + a[s] == 0:
                pref *= qpoch_infinite(t[r] * t[s], q)
            if both_in and a[r] + a[s] == 0:
                pref /= qpoch_infinite(q / (t[r] * t[s]), q)
            if a[r] + a[s] == 1:
                pref /= qpoch_infinite(q / (t[r] * t[s]), q)
    tprod = 1.0 + 0.0j
    for i in trip:
        tprod *= t[i]
    half = zeta == Q(-1, 2)
    for r in range(6):
        in_den = (r in inside and a[r] == zeta) or (
            r not in inside and a[r] == -zeta
        )
        if half and r in inside and a[r] == Q(-1, 2):
            in_den = True
        if in_den and abs(t[r]) >= 1:
            raise ContourError(
                "|t_r| >= 1 for a weight-denominator parameter"
            )

    # (t_r, r in the triple, numerator role, denominator role), in r order
    roles = [
        (t[r], True, a[r] == -zeta, a[r] == zeta)
        if r in inside
        else (t[r], False, a[r] == 1 + zeta, a[r] == -zeta)
        for r in range(6)
    ]
    half_roles = [(t[r], a[r] == Q(1, 2), a[r] == Q(-1, 2)) for r in trip]

    def weight(z):
        val = theta(q * z / tprod, q)
        for tr, inner, up, down in roles:
            if inner:
                if up:
                    val *= qpoch_infinite(q / (tr * z), q)
                if down:
                    val /= qpoch_infinite(tr / z, q)
            else:
                if up:
                    val *= qpoch_infinite(q * z / tr, q)
                if down:
                    val /= qpoch_infinite(tr * z, q)
        if half:
            val *= qpoch_infinite(z * z, q) / qpoch_infinite(q * z * z, q)
            for tr, up, down in half_roles:
                if up:
                    val *= qpoch_infinite(q * z / tr, q)
                if down:
                    val /= qpoch_infinite(tr * z, q)
        return val

    return LimitMeasure("SB_INTEGRAL", (pref,), weight, q, triple=trip)


def _negative_zeta(a) -> Fraction:
    """zeta_for(a), which the SB and Sigma2 measures need in [-1/2, 0)."""
    zeta = zeta_for(a)
    if not -Q(1, 2) <= zeta < 0:
        raise HypothesisError("need -1/2 <= zeta < 0")
    return zeta


def _sigma2_pair(a, pair, limit4):
    """(zeta, pair) of a Sigma2 measure: alpha_a = alpha_b = zeta on the
    pair (found when None) and alpha_r in [-zeta, 1+zeta] elsewhere.  With
    limit4 (the series form) the pair must avoid the u-parameter slots."""
    zeta = _negative_zeta(a)
    if pair is None:
        top = 4 if limit4 else 6
        pair = next(
            ((r, s) for r in range(top) for s in range(r + 1, top)
             if a[r] == a[s] == zeta),
            None,
        )
    if pair is None:
        where = " a,b <= 3" if limit4 else ""
        raise HypothesisError(f"no pair{where} with alpha_a = alpha_b = zeta")
    ia, ib = pair
    if limit4 and (ia > 3 or ib > 3):
        raise HypothesisError("series pair must avoid the u-parameter slots")
    if a[ia] != zeta or a[ib] != zeta:
        raise HypothesisError("pair must carry exponent zeta")
    for r in range(6):
        if r not in (ia, ib) and not -zeta <= a[r] <= 1 + zeta:
            raise HypothesisError("alpha_r outside [-zeta, 1+zeta]")
    return zeta, pair


def sigma2_measure(alpha, t, q, w, pair=None) -> LimitMeasure:
    """Integral form of the double-series limit measure with free w."""
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    w = complex(w)
    _check_sum1(a)
    zeta, pair = _sigma2_pair(a, pair, limit4=False)
    ia, ib = pair
    _check_balance(t, q)
    ta, tb = t[ia], t[ib]
    half = zeta == Q(-1, 2)
    for r in range(6):
        if (r in (ia, ib) or a[r] == -zeta) and abs(t[r]) >= 1:
            raise ContourError(
                "|t_r| >= 1 for a weight-denominator parameter"
            )

    pref = qpoch_infinite(q, q)
    if half:
        pref *= qpoch_infinite(ta * tb, q)
    for r in range(6):
        if r not in (ia, ib) and a[r] == -zeta:
            pref *= qpoch_infinite(t[r] * ta, q)
            pref *= qpoch_infinite(t[r] * tb, q)
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                pref /= qpoch_infinite(q / (t[r] * t[s]), q)

    # (t_r, alpha_r == 1 + zeta, alpha_r == -zeta) off the pair, in r order
    roles = [
        (t[r], a[r] == 1 + zeta, a[r] == -zeta) for r in range(6) if r not in (ia, ib)
    ]
    theta_w = theta(ta * w, q) * theta(tb * w, q)

    def weight(z):
        val = 1.0 + 0.0j
        for tr, up, down in roles:
            if up:
                val *= qpoch_infinite(q * z / tr, q)
            if down:
                val /= qpoch_infinite(tr * z, q)
        val /= qpoch_infinite(ta / z, q) * qpoch_infinite(tb / z, q)
        if half:
            val *= (1 - z * z) / (qpoch_infinite(ta * z, q) * qpoch_infinite(tb * z, q))
        val *= theta(w * z, q) * theta(q * z / (ta * tb * w), q)
        val /= theta_w
        return val

    return LimitMeasure("SB_INTEGRAL", (pref,), weight, q, pair=pair)


def sigma2_series(alpha, t, q, pair=None) -> LimitMeasure:
    """Double-series form of the same limit measure; pair indices <= 3."""
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    _check_sum1(a)
    zeta, pair = _sigma2_pair(a, pair, limit4=True)
    ia, ib = pair
    _check_balance(t, q)
    half = zeta == Q(-1, 2)

    shared = 1.0 + 0.0j
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                shared /= qpoch_infinite(q / (t[r] * t[s]), q)

    def make_pref(x, y):
        # series based at t[x], companion t[y]
        pref = shared
        if half:
            pref /= qpoch_infinite(q * t[x] ** 2, q)
        for r in range(6):
            if r not in (ia, ib) and a[r] == -zeta:
                pref *= qpoch_infinite(t[r] * t[y], q)
            if r not in (ia, ib) and a[r] == 1 + zeta:
                pref *= qpoch_infinite(q * t[x] / t[r], q)
        pref /= qpoch_infinite(t[y] / t[x], q)
        return pref

    def weight(i, k):
        x, y = (ia, ib) if i == 0 else (ib, ia)
        tx, ty = t[x], t[y]
        val = q**k
        if half:
            val *= (
                qpoch_finite(q * tx**2, q, 2 * k)
                * qpoch_finite(tx**2, q, k)
                * qpoch_finite(tx * ty, q, k)
                / qpoch_finite(tx**2, q, 2 * k)
            )
        den = qpoch_finite(q, q, k) * qpoch_finite(q * tx / ty, q, k)
        for r in range(6):
            if r not in (ia, ib) and a[r] == -zeta:
                val *= qpoch_finite(t[r] * tx, q, k)
            if r not in (ia, ib) and a[r] == 1 + zeta:
                den *= qpoch_finite(q * tx / t[r], q, k)
        return val / den

    return LimitMeasure(
        "SIGMA2_SERIES",
        (make_pref(ia, ib), make_pref(ib, ia)),
        weight,
        q,
        bases=(t[ia], t[ib]),
        pair=pair,
    )


def sigma_measure(alpha, t, q, a_index=None) -> LimitMeasure:
    """Single-series limit measure based at t_a q^k."""
    a = _as6(alpha)
    t = tuple(complex(x) for x in t)
    q = complex(q)
    _check_sum1(a)
    if a_index is None:
        for r in range(4):
            if -Q(1, 2) <= a[r] < 0 and all(
                a[s] > a[r] for s in range(6) if s != r
            ):
                a_index = r
                break
    if a_index is None or not 0 <= a_index <= 3:
        raise HypothesisError("no admissible series base index a <= 3")
    ia = a_index
    aa = a[ia]
    if not -Q(1, 2) <= aa < 0:
        raise HypothesisError("alpha_a must lie in [-1/2, 0)")
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
    _check_balance(t, q)
    ta = t[ia]
    half = aa == Q(-1, 2)
    Ncount = sum(1 for r in range(6) if r != ia and a[r] < -aa)

    pref = 1.0 + 0.0j
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 0:
                pref *= qpoch_infinite(t[r] * t[s], q)
            if a[r] + a[s] == 1:
                pref /= qpoch_infinite(q / (t[r] * t[s]), q)
    for r in range(6):
        if r != ia and a[r] == 1 + aa:
            pref *= qpoch_infinite(q * ta / t[r], q)
        if r != ia and a[r] == -aa:
            pref /= qpoch_infinite(t[r] * ta, q)
    if half:
        pref /= qpoch_infinite(q * ta**2, q)

    small_prod = ta ** (Ncount - 2)
    for r in range(6):
        if r != ia and a[r] + aa < 0:
            small_prod *= t[r]

    def weight(i, k):
        val = 1.0 + 0.0j
        if half:
            val *= (
                (1 - ta**2 * q ** (2 * k))
                / (1 - ta**2)
                * qpoch_finite(ta**2, q, k)
            )
        den = qpoch_finite(q, q, k)
        for r in range(6):
            if r != ia and a[r] == -aa:
                val *= qpoch_finite(t[r] * ta, q, k)
            if r != ia and a[r] == 1 + aa:
                den *= qpoch_finite(q * ta / t[r], q, k)
        val *= ((-1) ** k * q ** _binom2(k)) ** (Ncount - 2)
        val *= small_prod**k
        return val / den

    return LimitMeasure(
        "SIGMA_SERIES", (pref,), weight, q, bases=(ta,), base_index=ia
    )


def finite_measure(alpha, t, N, q) -> LimitMeasure:
    """Finite limit measure with N+1 masses at t0 q^k."""
    a = _as6(alpha)
    tt = tuple(complex(x) for x in t)

    def weight(i, k):
        return finite_weights(k, a, tt, N, q)

    return LimitMeasure(
        "FINITE_DISCRETE",
        (1.0,),
        weight,
        complex(q),
        bases=(tt[0],),
        n_masses=N + 1,
    )


# ---------------------------------------------------------------------------
# Askey-Wilson type top limit and numeric limit extraction


def aw_phi43(n, z, t, u, q) -> complex:
    """Terminating 4phi3 limit family at the top orthogonal-polynomial
    point, normalized to 1 at z = t0."""
    t0, t1, t2, t3 = (complex(x) for x in t)
    q = complex(q)

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
        (math.log(abs(v2)) - math.log(abs(v1)))
        / (math.log(p2) - math.log(p1))
        for (p1, v1), (p2, v2) in zip(
            zip(ps, vals), zip(ps[1:], vals[1:])
        )
    ]
    if len(slopes) > 1:
        for s1, s2 in zip(slopes, slopes[1:]):
            if abs(s1 - s2) > 0.1:
                raise NonConvergence("log-slope estimates did not stabilize")
    den = 1
    for x in v.as7():
        den = den * x.denominator // math.gcd(den, x.denominator)
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
