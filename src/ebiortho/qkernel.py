"""Numeric kernel: q-symbols, theta functions, elliptic gamma, the
log series of elliptic-gamma pairs, and the shared circle quadrature.

All infinite products are truncated once their geometric tail bound
drops below the fixed tolerance _TOL = 1e-15; a product still above it
after _MAX_TERMS = 4000 factors raises SeriesDivergence instead of
returning a silently inaccurate value.

gamma_pair_log_series gives the continuous elliptic weight on the unit
circle as one cosine series: for |pq| < |t| < 1 and |z| = 1,

    log Gamma(t z; p, q) Gamma(t / z; p, q) = sum_{n>=1} c_n(t) (z^n + z^-n),
    c_n(t) = (t^n - (pq/t)^n) / (n (1 - p^n)(1 - q^n)),

from log Gamma(x) = sum_n (x^n - (pq/x)^n) / (n (1 - p^n)(1 - q^n)),
valid for |pq| < |x| < 1.  The series is cut by a tail bound at _TOL
and capped at _MAX_TERMS terms; a parameter outside that annulus, or
one whose terms do not fall below _TOL within the cap, is returned to
the caller for the product form.  cos_series evaluates the series at
z = exp(i phi), where z^n + z^-n = 2 cos(n phi).

circle_mean is the one unit-circle quadrature of the package: the
continuous elliptic inner product, the Pastro inner product and the
integral limit measures all average their integrands with it.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError, SeriesDivergence

__all__ = [
    "qpoch_finite",
    "qpoch_infinite",
    "theta",
    "theta_qp_finite",
    "theta_qp_prefix",
    "elliptic_gamma",
    "gamma_pair_log_series",
    "cos_series",
    "csum",
    "check_quad",
    "circle_mean",
]


_TOL = 1e-15
_MAX_TERMS = 4000


def qpoch_finite(x: complex, q: complex, n: int) -> complex:
    """(x;q)_n = prod_{r=0}^{n-1} (1 - x q^r).  Any q; n >= 0."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = 1.0 + 0.0j
    xq = complex(x)
    for _ in range(n):
        out *= 1.0 - xq
        xq *= q
    return out


def qpoch_infinite(x: complex, q: complex) -> complex:
    """(x;q)_infty, truncated when the geometric tail is below _TOL."""
    if abs(q) >= 1:
        raise DomainError("qpoch_infinite requires |q| < 1")
    out = 1.0 + 0.0j
    xq = complex(x)
    aq = abs(q)
    for _ in range(_MAX_TERMS):
        # tail bound: remaining log-factors are bounded by |xq|/(1-|q|)
        if abs(xq) / (1.0 - aq) < _TOL:
            return out
        out *= 1.0 - xq
        xq *= q
    raise SeriesDivergence("qpoch_infinite hit max_terms before converging")


def theta(x: complex, p: complex) -> complex:
    """theta(x;p) = (x;p)_infty (p/x;p)_infty."""
    if x == 0:
        raise DomainError("theta requires x != 0")
    if abs(p) >= 1:
        raise DomainError("theta requires |p| < 1")
    return qpoch_infinite(x, p) * qpoch_infinite(p / x, p)


def theta_qp_finite(x: complex, q: complex, p: complex, n: int) -> complex:
    """theta(x;q;p)_n = prod_{r=0}^{n-1} theta(x q^r; p).  |q| >= 1 allowed."""
    return theta_qp_prefix(x, q, p, n)[-1]


def theta_qp_prefix(x: complex, q: complex, p: complex, n: int) -> list:
    """[theta(x;q;p)_k for k = 0..n], one running product of n theta values.

    Entry k is bit-identical to theta_qp_finite(x, q, p, k): each is the
    same product taken in the same order.  A terminating theta series
    needs every k up to its length, at n theta evaluations in all
    instead of n(n+1)/2.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = [1.0 + 0.0j]
    xq = complex(x)
    for _ in range(n):
        out.append(out[-1] * theta(xq, p))
        xq *= q
    return out


def elliptic_gamma(x: complex, p: complex, q: complex) -> complex:
    """Gamma(x;p,q) = prod_{i,j>=0} (1 - p^{i+1} q^{j+1}/x) / (1 - p^i q^j x)."""
    if abs(p) >= 1 or abs(q) >= 1:
        raise DomainError("elliptic_gamma requires |p|, |q| < 1")
    if x == 0:
        raise DomainError("elliptic_gamma requires x != 0")
    out = 1.0 + 0.0j
    pi = 1.0 + 0.0j
    amax = max(abs(p), abs(q))
    for i in range(_MAX_TERMS):
        if abs(pi) * (abs(x) + 1.0 / abs(x)) / (1.0 - amax) < _TOL:
            return out
        # inner products in q at fixed power of p
        num = qpoch_infinite(pi * p * q / x, q)
        den = qpoch_infinite(pi * x, q)
        if abs(den) < _TOL * 1e-3:
            raise PoleError("elliptic_gamma argument within tolerance of a pole")
        out *= num / den
        pi *= p
    raise SeriesDivergence("elliptic_gamma hit max_terms before converging")


def gamma_pair_log_series(ts, p: complex, q: complex):
    """Series of sum_r log Gamma(t_r z) Gamma(t_r / z) on |z| = 1.

    Returns (coeffs, rest).  coeffs[n - 1] = sum_r c_n(t_r) over the
    parameters the series serves (see the module docstring), so that
    their log-product is 2 * cos_series(coeffs, z).  rest lists
    the parameters left to the product form: those outside
    |pq| < |t| < 1, and those whose tail bound
    4 rho^(m+1) / ((m+1)(1-rho)(1-|p|)(1-|q|)), rho = max(|t|, |pq/t|),
    stays at or above _TOL for every m <= _MAX_TERMS.  The choice rests
    on the moduli alone.
    """
    pq = p * q
    ap, aq, apq = abs(p), abs(q), abs(pq)
    series, rest, n_terms = [], [], 0
    for t in ts:
        at = abs(t)
        if not apq < at < 1:
            rest.append(t)
            continue
        rho = max(at, apq / at)
        scale = 4.0 / ((1.0 - rho) * (1.0 - ap) * (1.0 - aq))
        m = 1
        while m <= _MAX_TERMS and scale * rho ** (m + 1) / (m + 1) >= _TOL:
            m += 1
        if m > _MAX_TERMS:
            rest.append(t)
            continue
        series.append(t)
        n_terms = max(n_terms, m)
    duals = [pq / t for t in series]
    tn = [1.0 + 0.0j] * len(series)
    rn = [1.0 + 0.0j] * len(series)
    pn = qn = 1.0 + 0.0j
    coeffs = []
    for n in range(1, n_terms + 1):
        pn *= p
        qn *= q
        total = 0.0 + 0.0j
        for i in range(len(series)):
            tn[i] *= series[i]
            rn[i] *= duals[i]
            total += tn[i] - rn[i]
        coeffs.append(total / (n * (1.0 - pn) * (1.0 - qn)))
    return coeffs, rest


def cos_series(coeffs, z: complex) -> complex:
    """sum_{n>=1} coeffs[n - 1] cos(n phi) at z = exp(i phi).

    Reinsch's form of Clenshaw's recurrence: it runs on u = 2 cos(phi) -+ 2,
    taken from |1 -+ z|^2, so that its rounding error stays O(n eps) next
    to phi = 0 and pi, where the plain recurrence in cos(phi) loses
    O(n^2 eps).
    """
    x, y = z.real, z.imag
    b = d = 0.0 + 0.0j
    if x >= 0:
        u = -((1.0 - x) ** 2 + y * y)
        for c in reversed(coeffs):
            d += c + u * b
            b += d
        return d + 0.5 * u * b
    u = (1.0 + x) ** 2 + y * y
    for c in reversed(coeffs):
        d = c + u * b - d
        b = d - b
    return 0.5 * u * b - d


def csum(terms) -> complex:
    """Compensated (math.fsum) sum of complex terms."""
    terms = list(terms)
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def check_quad(quad: int) -> None:
    """Raise DomainError unless quad is a valid circle_mean node count."""
    if quad < 8 or quad % 2:
        raise DomainError("quad must be even and at least 8")


def circle_mean(fn, quad: int, inversion_symmetric: bool = False) -> complex:
    """Mean of fn over the quad midpoint nodes exp(2 pi i (j + 1/2) / quad).

    The midpoint grid avoids the double zeros at z = +-1, +-i of the
    elliptic weights; for integrands analytic on an annulus around the
    circle the rule converges geometrically in quad.  Node quad - 1 - j
    is 1/z_j, so when the caller passes inversion_symmetric=True for an
    fn with fn(1/z) = fn(z), the mean is taken over the upper half
    circle, nodes j < quad/2, which is the full rule at half the cost.
    """
    check_quad(quad)
    nodes = quad // 2 if inversion_symmetric else quad
    return csum(
        fn(cmath.exp(2j * cmath.pi * (j + 0.5) / quad)) for j in range(nodes)
    ) / nodes
