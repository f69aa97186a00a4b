"""Numeric kernel: q-symbols, theta functions, elliptic gamma, and the
shared circle quadrature.

All infinite products are truncated once their geometric tail bound
drops below the fixed tolerance _TOL = 1e-15; a product still above it
after _MAX_TERMS = 4000 factors raises SeriesDivergence instead of
returning a silently inaccurate value.  circle_mean is the one
unit-circle quadrature of the package: the continuous elliptic inner
product, the Pastro inner product and the integral limit measures all
average their integrands with it.
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
    "elliptic_gamma",
    "csum",
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
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = 1.0 + 0.0j
    xq = complex(x)
    for _ in range(n):
        out *= theta(xq, p)
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


def csum(terms) -> complex:
    """Compensated (math.fsum) sum of complex terms."""
    terms = list(terms)
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def circle_mean(fn, quad: int) -> complex:
    """Mean of fn over the quad midpoint nodes exp(2 pi i (j + 1/2) / quad).

    The midpoint grid avoids the double zeros at z = +-1, +-i of the
    elliptic weights; for integrands analytic on an annulus around the
    circle the rule converges geometrically in quad.
    """
    if quad < 8 or quad % 2:
        raise DomainError("quad must be even and at least 8")
    return csum(
        fn(cmath.exp(2j * cmath.pi * (j + 0.5) / quad)) for j in range(quad)
    ) / quad
