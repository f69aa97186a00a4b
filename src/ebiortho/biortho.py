"""Elliptic biorthogonal rational functions and their two inner products.

rtilde evaluates the terminating very-well-poised theta series; the
discrete inner product is a finite point-mass sum valid when t0*t1 is a
negative q-power (discrete_gram takes a matrix of them over one set of
masses), the continuous one a unit-circle quadrature of the
elliptic-gamma weight (continuous_weight; continuous_gram takes a matrix
of them from qkernel.circle_gram).  Both are normalized so that
<1,1> = 1.  random_discrete_params draws
well-conditioned discrete parameters for the verification suites and
tests.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from itertools import zip_longest

from .errors import (
    ContourError,
    DomainError,
    EbiorthoError,
    NonConvergence,
    NonFiniteValue,
    PoleError,
)
from .qkernel import (
    check_quad,
    circle_gram,
    csum,
    elliptic_gamma,
    gamma_pair_log_series,
    qpoch_factors,
    qpoch_infinite,
    qpoch_log_series,
    theta_qp_finite,
    theta_qp_prefix,
)

__all__ = [
    "EllipticParams",
    "DiscreteSpec",
    "rtilde",
    "check_symmetries",
    "discrete_inner_product",
    "discrete_gram",
    "norm_formula",
    "continuous_weight",
    "continuous_prefactor",
    "continuous_gram",
    "continuous_inner_product",
    "random_discrete_params",
]

BALANCE_TOL = 1e-12
_MAX_COND = 1e4
_MAX_DRAWS = 50


@dataclass(frozen=True)
class EllipticParams:
    """Parameters (t0..t3; u0, u1; q; p) with t0 t1 t2 t3 u0 u1 = p q.

    Pass u1 = None to solve for it from the balancing condition;
    otherwise the condition is verified to relative 1e-12.  All six
    parameters must be nonzero, so p = 0 and q = 0 are rejected too.
    """

    t: tuple[complex, complex, complex, complex]
    u: tuple[complex, complex]
    q: complex
    p: complex

    def __init__(self, t, u, q, p):
        t = tuple(complex(x) for x in t)
        if len(t) != 4:
            raise DomainError("need 4 t parameters")
        u = tuple(u)
        if len(u) != 2:
            raise DomainError("need 2 u parameters")
        if abs(p) >= 1:
            raise DomainError("|p| < 1 required")
        u0 = complex(u[0])
        if 0 in t or u0 == 0:
            raise DomainError("t0..t3 and u0 must be nonzero")
        if u[1] is None:
            u1 = p * q / (t[0] * t[1] * t[2] * t[3] * u0)
        else:
            u1 = complex(u[1])
        if u1 == 0:
            raise DomainError("u1 must be nonzero, which needs p q != 0")
        prod = t[0] * t[1] * t[2] * t[3] * u0 * u1
        if abs(prod - p * q) > BALANCE_TOL * abs(p * q):
            raise DomainError("balancing t0 t1 t2 t3 u0 u1 = p q violated")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", (u0, u1))
        object.__setattr__(self, "q", complex(q))
        object.__setattr__(self, "p", complex(p))

    def swapped_u(self) -> "EllipticParams":
        return EllipticParams(self.t, (self.u[1], self.u[0]), self.q, self.p)


@dataclass(frozen=True)
class DiscreteSpec:
    """Finite-measure data: t0 t1 = q^{-N}, point masses at t0 q^k."""

    N: int

    def validate(self, params: EllipticParams) -> None:
        if self.N < 0:
            raise DomainError("N must be nonnegative")
        t0, t1 = params.t[0], params.t[1]
        q, p = params.q, params.p
        if abs(t0 * t1 - q ** (-self.N)) > BALANCE_TOL * abs(q ** (-self.N)):
            raise DomainError("t0 t1 = q^-N violated")
        # reject q^k landing on an integer power of p: infinite point mass
        if abs(p) > 0:
            lp = math.log(abs(p))
            for k in range(1, self.N + 1):
                qk = q**k
                m = round(math.log(abs(qk)) / lp) if abs(qk) != 1 else 0
                if abs(qk - p**m) < 1e-9:
                    raise DomainError(
                        "q^k coincides with a power of p; point mass diverges"
                    )


def _theta_prod(args, q, p, k) -> complex:
    out = 1.0 + 0.0j
    for a in args:
        out *= theta_qp_finite(a, q, p, k)
    return out


def _product_at(prefixes, k) -> complex:
    """prod_a theta(a;q;p)_k, taking entry k of each prefix in order."""
    out = 1.0 + 0.0j
    for pre in prefixes:
        out *= pre[k]
    return out


def rtilde(n: int, z: complex, params: EllipticParams) -> complex:
    """The degree-n biorthogonal function, normalized to 1 at z = t0.

    The n + 1 terms of the terminating theta series are evaluated from
    running products: every theta Pochhammer symbol theta(a;q;p)_k is
    entry k of one qkernel.theta_qp_prefix, taken to n for the eight
    numerator and eight denominator parameters and to 2n for the two
    head symbols.  That is 20n theta evaluations, where rebuilding each
    symbol per term costs 10n(n+1); each term is the same product in the
    same order, so the value is unchanged.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if z == 0:
        raise DomainError("rtilde requires z != 0")
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    head_num = theta_qp_prefix(q * t0 / u0, q, p, 2 * n)
    head_den = theta_qp_prefix(t0 / u0, q, p, 2 * n)
    nums = [
        theta_qp_prefix(a, q, p, n)
        for a in (
            t0 / u0,
            p * q**n / (u0 * u1),
            q ** (-n),
            t0 * z,
            t0 / z,
            q / (u0 * t1),
            q / (u0 * t2),
            q / (u0 * t3),
        )
    ]
    dens = [
        theta_qp_prefix(a, q, p, n)
        for a in (
            q,
            q ** (1 - n) * t0 * u1 / p,
            q ** (n + 1) * t0 / u0,
            q * z / u0,
            q / (u0 * z),
            t0 * t1,
            t0 * t2,
            t0 * t3,
        )
    ]
    terms = []
    for k in range(n + 1):
        head = head_num[2 * k] / head_den[2 * k]
        num = _product_at(nums, k)
        den = 1.0 + 0.0j
        for pre in dens:
            fac = pre[k]
            if k > 0 and abs(fac) < 1e-13:
                raise PoleError("rtilde denominator theta factor vanishes")
            den *= fac
        terms.append(head * num / den * q**k)
    out = csum(terms)
    if not cmath.isfinite(out):
        raise NonFiniteValue("rtilde left the floating-point range")
    return out


def check_symmetries(n: int, z: complex, params: EllipticParams) -> dict[str, float]:
    """Residuals of the invariances of rtilde; all should be ~0.

    Checked: p-ellipticity in the t's and u's (with a compensating shift
    preserving balancing), the half-power-of-p shift identity, the
    q-inversion identity, and z -> pz, z -> 1/z invariance.
    """
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    base = rtilde(n, z, params)
    out: dict[str, float] = {}

    def resid(val):
        return abs(val - base) / max(abs(base), 1.0)

    shifted = EllipticParams((t0, t1 * p, t2 / p, t3), (u0, u1), q, p)
    out["t_ellipticity"] = resid(rtilde(n, z, shifted))
    shifted = EllipticParams((t0, t1, t2, t3), (u0 * p, u1 / p), q, p)
    out["u_ellipticity"] = resid(rtilde(n, z, shifted))

    rp = cmath.sqrt(p)
    shifted = EllipticParams(
        (t0 * rp, t1 / rp, t2 / rp, t3 / rp), (u0 * rp, u1 * rp), q, p
    )
    out["half_shift"] = resid(rtilde(n, z * rp, shifted))

    inverted = EllipticParams(
        (1 / t0, 1 / t1, 1 / t2, 1 / t3), (p / u0, p / u1), 1 / q, p
    )
    out["q_inversion"] = resid(rtilde(n, z, inverted))

    out["z_p_shift"] = resid(rtilde(n, p * z, params))
    out["z_inversion"] = resid(rtilde(n, 1 / z, params))
    return out


def _discrete_masses(params: EllipticParams, spec: DiscreteSpec):
    """Factors of the point masses at t0 q^k, 0 <= k <= N, and the closing factor.

    Returns ([(head_k, num_k, den_k) for k = 0..N], closing): the mass at
    t0 q^k is head_k num_k / den_k q^k times closing.  The symbols are
    entries of running products (qkernel.theta_qp_prefix), to 2N for the
    two head parameters and to N for the twelve others, so the N + 1
    masses cost 16N theta evaluations and the closing factor 8N more.
    """
    spec.validate(params)
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    N = spec.N
    closing_num = _theta_prod([q * t0 / u0, t1 * t2, t1 * t3, t1 * u1 / p], q, p, N)
    closing_den = _theta_prod(
        [t1 / t0, q / (u0 * t2), q / (u0 * t3), p * q / (u0 * u1)], q, p, N
    )
    if abs(closing_den) < 1e-250:
        raise PoleError("discrete measure closing factor hits a pole")
    closing = closing_num / closing_den
    head_num = theta_qp_prefix(q * t0 * t0, q, p, 2 * N)
    head_den = theta_qp_prefix(t0 * t0, q, p, 2 * N)
    nums = [
        theta_qp_prefix(a, q, p, N)
        for a in (t0 * t0, t0 * t1, t0 * t2, t0 * t3, t0 * u0, t0 * u1 / p)
    ]
    dens = [
        theta_qp_prefix(a, q, p, N)
        for a in (
            q,
            q * t0 / t1,
            q * t0 / t2,
            q * t0 / t3,
            q * t0 / u0,
            p * q * t0 / u1,
        )
    ]
    masses = []
    for k in range(N + 1):
        head = head_num[2 * k] / head_den[2 * k]
        num = _product_at(nums, k)
        den = _product_at(dens, k)
        if abs(den) < 1e-250:
            raise PoleError("discrete weight hits a pole")
        masses.append((head, num, den))
    return masses, closing


def discrete_gram(
    fs, gs, params: EllipticParams, spec: DiscreteSpec
) -> list[list[complex]]:
    """The matrix of discrete inner products <f, g> for f in fs, g in gs.

    Entry (i, j) is the finite sum over the point masses at t0 q^k,
    0 <= k <= N, of fs[i] and gs[j].  The masses are built once, by
    _discrete_masses (24N theta evaluations), and each function is
    evaluated once per mass point; the entries are summed in the order
    of discrete_inner_product, so each equals its value bit for bit.
    """
    masses, closing = _discrete_masses(params, spec)
    t0, q = params.t[0], params.q
    zs = [t0 * q**k for k in range(len(masses))]
    F = [[f(zk) for zk in zs] for f in fs]
    G = [[g(zk) for zk in zs] for g in gs]
    return [
        [
            csum(
                [
                    fk * gk * head * num / den * q**k
                    for k, (fk, gk, (head, num, den)) in enumerate(zip(Fi, Gj, masses))
                ]
            )
            * closing
            for Gj in G
        ]
        for Fi in F
    ]


def discrete_inner_product(f, g, params: EllipticParams, spec: DiscreteSpec) -> complex:
    """Finite sum over the point masses at t0 q^k, 0 <= k <= N: the 1 x 1
    case of discrete_gram."""
    return discrete_gram([f], [g], params, spec)[0][0]


def norm_formula(n: int, params: EllipticParams) -> complex:
    """Closed-form squared norm of the degree-n pair."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    head = theta_qp_finite(p / (u0 * u1), q, p, 2 * n) / theta_qp_finite(
        p * q / (u0 * u1), q, p, 2 * n
    )
    num = _theta_prod(
        [q, t2 * t3, t1 * t2, t1 * t3, q * t0 / u0, p * q * t0 / u1], q, p, n
    )
    den = _theta_prod(
        [p / (u0 * u1), t0 * t1, t0 * t3, t0 * t2, p / (t0 * u1), 1 / (t0 * u0)],
        q,
        p,
        n,
    )
    if abs(den) < 1e-250:
        raise PoleError("norm denominator hits a pole")
    return head * num / den * q ** (-n)


def continuous_weight(params: EllipticParams):
    """The weight w(z) = prod_r Gamma(t_r z^+-1) / Gamma(z^+-2) on |z| = 1.

    Returns (log_weight, remainder), with w(z) = exp(L(z)) remainder(z)
    at every node of a qkernel.circle_gram grid, L the Laurent series
    log_weight = (pos, neg).  The Gamma(z^+-2) factors come from
    1/Gamma(x^+-1) = theta(x;p) theta(1/x;q): theta(z^2;p) theta(z^-2;q)
    is (1 - z^2)(1 - z^-2) times four q-Pochhammer factors, whose series
    qkernel.qpoch_log_series gives.  The six parameters t0..t3, u0, u1
    with |pq| < |t_r| < 1 enter through the series of
    qkernel.gamma_pair_log_series.  The remainder is (1 - z^2)(1 - z^-2)
    times the product forms the series leave out: Gamma(t_r z)
    Gamma(t_r / z) for a parameter outside that annulus or past the
    4000-term cap, and any theta factor past the cap.  Both parts are
    unchanged under z -> 1/z.
    """
    p, q = params.p, params.q
    coeffs, rest = gamma_pair_log_series(params.t + params.u, p, q)
    pos, neg, theta_rest = qpoch_log_series(
        [(p, 2, 1, p), (p, -2, 1, p), (q, 2, 1, q), (q, -2, 1, q)]
    )
    log_weight = (_plus(coeffs, pos), _plus(coeffs, neg))

    def remainder(zv):
        z2 = zv * zv
        val = (1.0 - z2) * (1.0 - 1.0 / z2) * qpoch_factors(theta_rest, zv)
        for tr in rest:
            val *= elliptic_gamma(tr * zv, p, q) * elliptic_gamma(tr / zv, p, q)
        return val

    return log_weight, remainder


def _plus(a, b) -> list:
    """Termwise sum of two coefficient lists of any lengths."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0.0j)]


def continuous_gram(
    fs, gs, params: EllipticParams, quad: int = 512
) -> list[list[complex]]:
    """The matrix of continuous inner products <f, g> for f in fs, g in gs.

    Unit-circle quadrature of the elliptic-gamma bilinear form; the
    circle must contain all pole ladders p^i q^j t_r of t0..t3, u0, u1.
    The weight (continuous_weight) is built once, and it is unchanged
    under z -> 1/z, so circle_gram takes it on the upper half circle.
    quad is checked before any weight work.
    """
    if abs(params.q) >= 1:
        raise DomainError("continuous measure requires |q| < 1")
    if any(abs(tr) >= 1 for tr in params.t + params.u):
        raise ContourError("a parameter has modulus >= 1; unit circle inadmissible")
    check_quad(quad)
    log_weight, remainder = continuous_weight(params)
    means = circle_gram(fs, gs, quad, remainder, log_weight, inversion_symmetric=True)
    pref = continuous_prefactor(params)
    return [[mean * pref for mean in row] for row in means]


def continuous_inner_product(f, g, params: EllipticParams, quad: int = 512) -> complex:
    """The 1 x 1 case of continuous_gram."""
    return continuous_gram([f], [g], params, quad)[0][0]


def continuous_prefactor(params: EllipticParams) -> complex:
    """(q;q)(p;p) / (2 prod_{r<s} Gamma(t_r t_s)) over the six parameters.

    Balancing with every |t_r| < 1 puts all 15 products t_r t_s in
    |pq| < |x| < 1, where log Gamma(x) = sum_n c_n(x) is the series of
    qkernel.gamma_pair_log_series at z = 1; the product is exp(-sum_n c_n)
    from one compensated sum.  A product the series leaves to the
    product form is divided out with elliptic_gamma.
    """
    ts = params.t + params.u
    p, q = params.p, params.q
    coeffs, rest = gamma_pair_log_series(
        [ts[r] * ts[s] for r in range(6) for s in range(r + 1, 6)], p, q
    )
    pref = qpoch_infinite(q, q) * qpoch_infinite(p, p) / 2.0 * cmath.exp(-csum(coeffs))
    for x in rest:
        pref /= elliptic_gamma(x, p, q)
    return pref


def random_discrete_params(
    rng: random.Random,
    N: int = 5,
    p: float = 0.05,
    qmod: float = 0.4,
) -> EllipticParams:
    """Generic discrete-measure parameters with |q| = qmod and t0 t1 = q^-N.

    Draws whose point-mass sum is ill conditioned (mass cancellation
    beyond _MAX_COND) are rejected and redrawn, at most _MAX_DRAWS times.
    """

    def unit(r):
        return cmath.exp(2j * math.pi * r.random())

    for _ in range(_MAX_DRAWS):
        q = qmod * unit(rng)
        t0 = rng.uniform(0.75, 0.95) * unit(rng)
        t2 = rng.uniform(0.2, 0.45) * unit(rng)
        t3 = rng.uniform(0.2, 0.45) * unit(rng)
        u0 = rng.uniform(0.3, 0.6) * unit(rng)
        try:
            par = EllipticParams((t0, q ** (-N) / t0, t2, t3), (u0, None), q, p)
            if _mass_condition(par, N) <= _MAX_COND:
                return par
        except EbiorthoError:
            continue
    raise NonConvergence("no well-conditioned parameter draw found")


def _mass_condition(par: EllipticParams, N: int) -> float:
    """sum_k |mass_k| / |sum_k mass_k|: the cancellation in <1,1>."""
    masses, closing = _discrete_masses(par, DiscreteSpec(N))
    q = par.q
    terms = [head * num / den * q**k for k, (head, num, den) in enumerate(masses)]
    total = csum(terms) * closing
    gross = 0.0
    for term in terms:
        gross += abs(term * closing)
    return gross / max(abs(total), 1e-300)
