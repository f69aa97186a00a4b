"""Elliptic biorthogonal rational functions and their bilinear forms.

rtilde evaluates the terminating very-well-poised theta series.  Every
bilinear form of the package is a LimitMeasure, whose one Gram routine
LimitMeasure.gram sums a circle weight by qkernel.circle_gram, or masses
on q-lattices b q^k by one lattice sum that evaluates each point once.
continuous_measure is the elliptic-gamma circle weight, built like
every circle weight by qkernel._circle_weight from lists of
q-Pochhammer factors, discrete_measure the point masses at t0 q^k when
t0 t1 = q^-N; both have <1,1> = 1.  rtilde, the point masses, their
closing factor and norm_formula are ratios of theta Pochhammer symbols,
built from shared lists of theta values: each telescoped
very-well-poised head is a product over one ladder theta(g q^j; p)
(_heads), and a list that two symbols share is evaluated once.  A
BiorthogonalSystem holds two families, their Gram routine and their
norms, and checks them by the one rule gram_residuals;
random_discrete_params draws well-conditioned discrete parameters.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations
from operator import mul

from .errors import (
    ContourError,
    DomainError,
    EbiorthoError,
    NonConvergence,
    NonFiniteValue,
    PoleError,
    SeriesDivergence,
)
from .qkernel import (
    _circle_weight,
    check_quad,
    circle_gram,
    csum,
    qpoch_infinite,
    theta_ladder,
    theta_qp_prefix,
)

__all__ = [
    "EllipticParams",
    "DiscreteSpec",
    "LimitMeasure",
    "rtilde",
    "discrete_measure",
    "discrete_inner_product",
    "norm_formula",
    "continuous_measure",
    "continuous_inner_product",
    "gram_residuals",
    "BiorthogonalSystem",
    "elliptic_discrete_system",
    "elliptic_continuous_system",
    "random_discrete_params",
]

BALANCE_TOL = 1e-12
_MAX_COND = 1e4
_MAX_DRAWS = 50
# LimitMeasure.gram sums a series until ten successive terms fall below
# _SERIES_TOL relative to the running sum, within _SERIES_MAX_TERMS terms.
_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 400


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
        lp = math.log(abs(p))
        for k in range(1, self.N + 1):
            qk = q**k
            m = round(math.log(abs(qk)) / lp) if abs(qk) != 1 else 0
            if abs(qk - p**m) < 1e-9:
                raise DomainError(
                    "q^k coincides with a power of p; point mass diverges"
                )


# Number of series base points of each measure kind.
_KIND_BASES = {
    "NR_INTEGRAL": 0,
    "SB_INTEGRAL": 0,
    "SIGMA_SERIES": 1,
    "SIGMA2_SERIES": 2,
    "FINITE_DISCRETE": 1,
}


@dataclass(frozen=True)
class LimitMeasure:
    """A bilinear form at base q: a circle integral or a series.

    kind is one of NR_INTEGRAL, SB_INTEGRAL, SIGMA_SERIES, SIGMA2_SERIES,
    FINITE_DISCRETE.  For integral kinds the weight on the circle is
    weight(z), times exp(L(z)) when log_weight holds the Laurent
    coefficients (pos, neg) of a log series L (qkernel.circle_gram).
    NR_INTEGRAL is any weight with w(1/z) = w(z), the elliptic one of
    continuous_measure included, because gram averages
    w(z) (f(z) g(z) + f(1/z) g(1/z)) / 2 over the upper half circle;
    SB_INTEGRAL is any other circle weight (SB, Sigma2 integral, Pastro).
    For series kinds weight(i, k) multiplies f(b q^k) g(b q^k) for the
    i-th base point b of bases: one for SIGMA_SERIES and FINITE_DISCRETE,
    two for SIGMA2_SERIES, none for the integral kinds; FINITE_DISCRETE
    includes the elliptic point masses of discrete_measure.  prefactors
    holds one factor per base point (a single one for the integral
    kinds).  n_masses, an integer >= 1, is the length of the finite
    series; triple, pair and base_index record the exponent indices the
    SB, Sigma2 and Sigma measures were built on.
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
    log_weight: tuple | None = None

    def __post_init__(self) -> None:
        nbases = _KIND_BASES.get(self.kind)
        if nbases is None:
            raise DomainError(f"unknown limit-measure kind {self.kind!r}")
        if (len(self.bases), len(self.prefactors)) != (nbases, max(nbases, 1)):
            raise DomainError(f"{self.kind} needs {nbases} bases and a prefactor each")
        if self.kind == "FINITE_DISCRETE" and not (
            isinstance(self.n_masses, int) and self.n_masses >= 1
        ):
            raise DomainError("a finite measure needs an integer n_masses >= 1")

    def gram(self, fs, gs, quad: int = 512) -> list[list[complex]]:
        """The matrix of <f, g> for f in fs, g in gs: the prefactor times one
        circle_gram call, or the sum over base points of prefactor times _lattice."""
        if self.kind in ("NR_INTEGRAL", "SB_INTEGRAL"):
            symmetric = self.kind == "NR_INTEGRAL"
            means = circle_gram(fs, gs, quad, self.weight, self.log_weight, symmetric)
            return [[self.prefactors[0] * mean for mean in row] for row in means]
        sums = [self._lattice(i, fs, gs) for i in range(len(self.bases))]
        return [[sum(map(mul, self.prefactors, entries)) for entries in zip(*rows)]
                for rows in zip(*sums)]

    def apply(self, f, g, quad: int = 512) -> complex:
        """The 1 x 1 case of gram."""
        return self.gram([f], [g], quad)[0][0]

    def _lattice(self, i, fs, gs) -> list[list[complex]]:
        """The matrix of csum_k weight(i, k) f(z_k) g(z_k), z_k = b q^k for
        the i-th base point b, with the weight and every f and g evaluated
        once per point for all entries.  Each entry sums on its own: a
        finite series its n_masses terms, an infinite one until ten
        successive terms fall below _SERIES_TOL of its running sum, so each
        equals its 1 x 1 apply."""
        b, q = self.bases[i], self.q
        if self.kind == "FINITE_DISCRETE":
            zs = [b * q**k for k in range(self.n_masses)]
            ws = [self.weight(i, k) for k in range(self.n_masses)]
            F, G = [[f(z) for z in zs] for f in fs], [[g(z) for z in zs] for g in gs]
            return [[csum([w * x * y for w, x, y in zip(ws, Fa, Gb)]) for Gb in G] for Fa in F]
        ws, F, G = [], [[] for _ in fs], [[] for _ in gs]
        columns = list(zip([*fs, *gs], F + G))

        def entry(Fa, Gb):
            terms, tot, run_max, small = [], 0.0 + 0.0j, 0.0, 0
            for k in range(_SERIES_MAX_TERMS):
                if k == len(ws):
                    z = b * q**k
                    ws.append(self.weight(i, k))
                    for h, vals in columns:
                        vals.append(h(z))
                term = ws[k] * Fa[k] * Gb[k]
                terms.append(term)
                tot += term
                run_max = max(run_max, abs(tot))
                small = small + 1 if abs(term) < _SERIES_TOL * max(run_max, 1.0) else 0
                if small == 10:
                    return csum(terms)
            raise SeriesDivergence("limit-measure series did not converge")

        return [[entry(Fa, Gb) for Gb in G] for Fa in F]


def _symbols(args, q, p, n):
    """[theta(a;q;p)_k for k = 0..n] for each a in args: n theta
    evaluations per argument, one qkernel.theta_qp_prefix each."""
    return [theta_qp_prefix(a, q, p, n) for a in args]


def _prefix(factors):
    """[1, f0, f0 f1, ...], the running products of factors."""
    return list(accumulate(factors, mul, initial=1.0 + 0.0j))


def _column_products(symbols):
    """[prod over symbols of entry k, in list order, for k = 0..n]."""
    return [math.prod(col, start=1.0 + 0.0j) for col in zip(*symbols)]


def _heads(ladder, n):
    """The telescoped heads of a very-well-poised series, k = 0..n.

    ladder[j - 1] = theta(g q^j; p) for j = 1..2n.  Entry k is
    theta(qg;q;p)_2k / theta(g;q;p)_2k times theta(g;q;p)_k, which
    telescopes to theta(g q^2k; p) prod_{1 <= j < k} theta(g q^j; p):
    products of the ladder only, with no division, so theta(g;p) never
    enters and g = 1 (rtilde at t0 = u0) needs no special case.
    """
    heads = [1.0 + 0.0j]
    run = 1.0 + 0.0j
    for k in range(1, n + 1):
        heads.append(ladder[2 * k - 1] * run)
        run *= ladder[k - 1]
    return heads


def rtilde(n: int, z: complex, params: EllipticParams) -> complex:
    """The degree-n biorthogonal function, normalized to 1 at z = t0.

    Term k is head_k num_k / den_k q^k, with head_k = _heads of
    g = t0/u0 and num_k, den_k products of theta(a;q;p)_k.  The ladder
    theta(g q^j; p), j = 1..2n, gives the head and, as entries n+1..n+k,
    theta(q^(n+1) g;q;p)_k; the ladder theta(q^j; p), j = 1..n, gives
    theta(q;q;p)_k and, through theta(1/x; p) = -theta(x; p)/x,
    theta(q^-n;q;p)_k.  So a call costs 15n theta evaluations: 11n that
    do not depend on z and 4n that do.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if z == 0:
        raise DomainError("rtilde requires z != 0")
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    ladder = theta_ladder(q * t0 / u0, q, p, 2 * n)
    qs = theta_ladder(q, q, p, n)
    nums = [_prefix(-qs[j - 1] * q**-j for j in range(n, 0, -1))] + _symbols(
        [p * q**n / (u0 * u1), t0 * z, t0 / z,
         q / (u0 * t1), q / (u0 * t2), q / (u0 * t3)],
        q, p, n,
    )
    dens = [_prefix(qs), _prefix(ladder[n:])] + _symbols(
        [q ** (1 - n) * t0 * u1 / p, q * z / u0, q / (u0 * z),
         t0 * t1, t0 * t2, t0 * t3],
        q, p, n,
    )
    if min((abs(x) for d in dens for x in d[1:]), default=math.inf) < 1e-13:
        raise PoleError("rtilde denominator theta factor vanishes")
    terms = zip(_heads(ladder, n), _column_products(nums), _column_products(dens))
    out = csum([head * num / den * q**k for k, (head, num, den) in enumerate(terms)])
    if not cmath.isfinite(out):
        raise NonFiniteValue("rtilde left the floating-point range")
    return out


def discrete_measure(params: EllipticParams, spec: DiscreteSpec) -> LimitMeasure:
    """The discrete bilinear form: N + 1 point masses at t0 q^k, 0 <= k <= N.

    A FINITE_DISCRETE LimitMeasure whose weight(0, k) is
    head_k num_k / den_k q^k, with head_k the _heads of g = t0^2 and
    num_k, den_k products of theta(a;q;p)_k, and whose prefactor is the
    closing factor, a ratio of theta(a;q;p)_N; its numerator symbol
    theta(q t0/u0;q;p)_N is the last entry of the masses' denominator
    symbol of the same argument.  The masses cost 13N theta evaluations
    and the closing factor 7N more.
    """
    spec.validate(params)
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    N = spec.N
    shared = theta_qp_prefix(q * t0 / u0, q, p, N)
    closing_num = math.prod(
        (s[N] for s in _symbols([t1 * t2, t1 * t3, t1 * u1 / p], q, p, N)),
        start=shared[N],
    )
    closing_den = math.prod(
        s[N] for s in _symbols(
            [t1 / t0, q / (u0 * t2), q / (u0 * t3), p * q / (u0 * u1)], q, p, N
        )
    )
    if abs(closing_den) < 1e-250:
        raise PoleError("discrete measure closing factor hits a pole")
    nums = _column_products(
        _symbols([t0 * t1, t0 * t2, t0 * t3, t0 * u0, t0 * u1 / p], q, p, N)
    )
    dens = _column_products(
        _symbols([q, q * t0 / t1, q * t0 / t2, q * t0 / t3], q, p, N)
        + [shared]
        + _symbols([p * q * t0 / u1], q, p, N)
    )
    if any(abs(den) < 1e-250 for den in dens):
        raise PoleError("discrete weight hits a pole")
    heads = _heads(theta_ladder(q * t0 * t0, q, p, 2 * N), N)
    weights = [head * num / den * q**k
               for k, (head, num, den) in enumerate(zip(heads, nums, dens))]
    closing = closing_num / closing_den
    return LimitMeasure("FINITE_DISCRETE", (closing,), lambda i, k: weights[k], q,
                        bases=(t0,), n_masses=N + 1)


def discrete_inner_product(f, g, params: EllipticParams, spec: DiscreteSpec) -> complex:
    """<f, g> under discrete_measure: its 1 x 1 apply."""
    return discrete_measure(params, spec).apply(f, g)


def norm_formula(n: int, params: EllipticParams) -> complex:
    """Closed-form squared norm of the degree-n pair, 12n theta evaluations.

    Its head theta(x;q;p)_2n / theta(qx;q;p)_2n, x = p/(u0 u1), over its
    denominator symbol theta(x;q;p)_n is one over entry n of _heads for
    g = x, which takes the n ladder values theta(x q^j; p), 1 <= j < n
    and j = 2n; theta(x;p) cancels and never enters.  t0 t1 = 1 is a true
    pole for n >= 1: the denominator's theta(t0 t1;q;p)_n holds
    theta(1; p) = 0, which no numerator factor cancels for generic other
    parameters.  PoleError is raised there; near it |h_n| grows like
    1/|t0 t1 - 1|, as does rtilde, whose denominator holds the same symbol.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    num = math.prod(
        s[n] for s in _symbols(
            [q, t2 * t3, t1 * t2, t1 * t3, q * t0 / u0, p * q * t0 / u1], q, p, n
        )
    )
    den = math.prod(
        s[n] for s in _symbols(
            [t0 * t1, t0 * t3, t0 * t2, p / (t0 * u1), 1 / (t0 * u0)], q, p, n
        )
    )
    if n:
        # theta(x q^2n; p) prod_{1 <= j < n} theta(x q^j; p), from x q as
        # one quotient, so that x q = 1 gives theta(1; p) = 0 exactly
        xq = p * q / (u0 * u1)
        den *= math.prod(
            theta_ladder(xq, q, p, n - 1),
            start=theta_ladder(xq * q ** (2 * n - 1), q, p, 1)[0],
        )
    if abs(den) < 1e-250:
        raise PoleError("norm denominator hits a pole")
    return num / den * q ** (-n)


def continuous_measure(params: EllipticParams) -> LimitMeasure:
    """The continuous bilinear form: the elliptic-gamma weight on |z| = 1.

    An NR_INTEGRAL LimitMeasure of the weight prod_r Gamma(t_r z^+-1) /
    Gamma(z^+-2) over t0..t3, u0, u1, unchanged under z -> 1/z, with the
    prefactor (q;q)(p;p) / (2 prod_{r<s} Gamma(t_r t_s)).  Both are
    factor lists of qkernel._circle_weight on the pair (p, q), by
    Gamma(x) = (pq/x; p, q) / (x; p, q); 1 / Gamma(z^+-2) =
    theta(z^2;p) theta(z^-2;q) is (1 - z^2)(1 - z^-2) times four
    one-base factors; (q;q)(p;p) stays in product form.  The circle
    must contain all pole ladders p^i q^j t_r (the contour rule of
    _circle_weight: ContourError unless every |t_r| < 1), and |q| < 1.
    A function with poles between the circle and those ladders, such as
    rtilde of a degree n with |u0 q^-n| >= 1, gives a wrong value and no
    error: only elliptic_continuous_system checks rtilde's degrees
    (_contour_rtilde).
    """
    p, q = params.p, params.q
    if abs(q) >= 1:
        raise DomainError("continuous measure requires |q| < 1")
    pq, ts = (p, q), params.t + params.u
    factors = [(p, 2, 1, p), (p, -2, 1, p), (q, 2, 1, q), (q, -2, 1, q)]
    for t in ts:
        for s in (1, -1):
            factors += [(t, s, -1, pq), (p * q / t, -s, 1, pq)]
    consts = []
    for r, s in combinations(range(6), 2):
        x = ts[r] * ts[s]
        consts += [(x, 1, pq), (p * q / x, -1, pq)]
    pref, weight, log_weight = _circle_weight(consts, factors, zeros=(2, -2))
    pref = qpoch_infinite(q, q) * qpoch_infinite(p, p) / 2.0 * pref
    return LimitMeasure("NR_INTEGRAL", (pref,), weight, q, log_weight=log_weight)


def continuous_inner_product(f, g, params: EllipticParams, quad: int = 512) -> complex:
    """<f, g> under continuous_measure, with quad checked before the weight is built."""
    check_quad(quad)
    return continuous_measure(params).apply(f, g, quad)


def gram_residuals(M, h) -> tuple[float, float]:
    """(off, diag), the one residual rule of a Gram matrix M against the
    norms h: off the largest |M_nm| / sqrt|h_n h_m| over n != m (0.0
    for a 1 x 1 matrix), diag the largest |M_nn - h_n| / |h_n|.  A zero
    or non-finite norm raises, never scales to an inf, NaN or vacuous 0.
    """
    if not h or any(x == 0 or not cmath.isfinite(x) for x in h):
        raise DomainError("need one or more norms h_n, all finite and nonzero")
    ns = range(len(h))
    off = [abs(M[n][m]) / abs(h[n] * h[m]) ** 0.5 for n in ns for m in ns if n != m]
    return max(off, default=0.0), max(abs(M[n][n] - h[n]) / abs(h[n]) for n in ns)


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Families R(n, z), S(m, z), the matrix gram(fs, gs) of their
    bilinear form over two lists of functions of z, and the norms
    norm(n) = h_n, with <R_n, S_m> = delta_nm h_n."""

    R: Callable[[int, complex], complex]
    S: Callable[[int, complex], complex]
    gram: Callable[[list, list], list]
    norm: Callable[[int], complex]

    def residuals(self, nmax: int) -> tuple[float, float]:
        """gram_residuals of one Gram matrix of R_n, S_m, n, m <= nmax."""
        ns = range(nmax + 1)
        fs, gs = [partial(self.R, n) for n in ns], [partial(self.S, m) for m in ns]
        return gram_residuals(self.gram(fs, gs), [self.norm(n) for n in ns])


def _rtilde_system(family, params: EllipticParams, gram) -> BiorthogonalSystem:
    """family(n, z, .) at params and at its swapped_u dual, gram and norm_formula."""
    return BiorthogonalSystem(
        partial(family, params=params),
        partial(family, params=params.swapped_u()),
        gram,
        partial(norm_formula, params=params),
    )


def elliptic_discrete_system(params: EllipticParams, spec: DiscreteSpec):
    """rtilde and its dual under discrete_measure."""
    return _rtilde_system(rtilde, params, discrete_measure(params, spec).gram)


def elliptic_continuous_system(params: EllipticParams, quad: int = 512):
    """rtilde and its dual under continuous_measure, degrees checked by _contour_rtilde."""
    gram = partial(continuous_measure(params).gram, quad=quad)
    return _rtilde_system(_contour_rtilde, params, gram)


def _contour_rtilde(n: int, z: complex, params: EllipticParams) -> complex:
    """rtilde(n, z, params) if the unit circle separates its poles;
    ContourError, and no value, otherwise.

    The poles are the zeros of the denominators theta(qz/u0;q;p)_n and
    theta(q/(u0 z);q;p)_n: the ladder z = u0 q^-j p^i, 1 <= j <= n, i
    any integer, and its reciprocal.  Those with i <= -1 fall on zeros
    of Gamma(u0/z) in the weight, at u0/z = p^(a+1) q^(b+1) with
    a, b >= 0, and cancel.  Those with i >= 0 must lie inside the circle
    with the weight's poles u0 p^i q^j; as |p|, |q| < 1 the outermost is
    u0 q^-n, and by z -> 1/z the reciprocal ladder then lies outside.
    So degree n needs |u0 q^-n| < 1, and the dual, whose u0 is u1,
    |u1 q^-m| < 1.
    """
    if abs(params.u[0] * params.q**-n) >= 1:
        raise ContourError(f"degree {n} puts poles on or outside the unit circle")
    return rtilde(n, z, params)


def random_discrete_params(
    rng: random.Random,
    N: int = 5,
    p: float = 0.05,
    qmod: float = 0.4,
    degree: int = 0,
) -> EllipticParams:
    """Generic discrete-measure parameters with |q| = qmod and t0 t1 = q^-N.

    Draws whose pairings <R_n, S_n>, n <= degree, are ill conditioned
    (cancellation beyond _MAX_COND, _mass_condition) are rejected and
    redrawn, at most _MAX_DRAWS times; degree 0 bounds <1,1> alone.
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
            if _mass_condition(par, N, degree) <= _MAX_COND:
                return par
        except EbiorthoError:
            continue
    raise NonConvergence("no well-conditioned parameter draw found")


def _mass_condition(par: EllipticParams, N: int, degree: int = 0) -> float:
    """The largest cancellation sum_k |term_k| / |sum_k term_k| in the
    discrete pairings <R_n, S_n>, n <= degree: term_k is the mass at
    z_k = t0 q^k times rtilde(n, z_k) and its swapped_u dual, and
    degree 0 is <1,1>, the masses alone."""
    measure = discrete_measure(par, DiscreteSpec(N))
    closing, q, sw = measure.prefactors[0], par.q, par.swapped_u()
    weights = [measure.weight(0, k) for k in range(N + 1)]
    worst = 0.0
    for n in range(degree + 1):
        terms = [
            w * rtilde(n, z, par) * rtilde(n, z, sw) if n else w
            for w, z in zip(weights, (par.t[0] * q**k for k in range(N + 1)))
        ]
        total = csum(terms) * closing
        gross = 0.0
        for term in terms:
            gross += abs(term * closing)
        worst = max(worst, gross / max(abs(total), 1e-300))
    return worst
