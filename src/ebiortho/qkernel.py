"""Numeric kernel: q-symbols, theta functions, elliptic gamma, the
log series of circle weights, and the shared circle quadrature.

All infinite products are truncated once their geometric tail bound
drops below the fixed tolerance _TOL = 1e-15; a product still above it
after _MAX_TERMS = 4000 factors raises SeriesDivergence instead of
returning a silently inaccurate value.

Every circle weight of the package is exp(L(z)) times a small per-node
remainder, L a Laurent series whose coefficients are built once per
integral.  Two builders give the coefficients.  gamma_pair_log_series
serves the elliptic-gamma pairs: for |pq| < |t| < 1 and |z| = 1,

    log Gamma(t z; p, q) Gamma(t / z; p, q) = sum_{n>=1} c_n(t) (z^n + z^-n),
    c_n(t) = (t^n - (pq/t)^n) / (n (1 - p^n)(1 - q^n)),

from log Gamma(x) = sum_n (x^n - (pq/x)^n) / (n (1 - p^n)(1 - q^n)),
valid for |pq| < |x| < 1.  qpoch_log_series serves q-Pochhammer
factors (c z^s; b)_infty^e, from log (x; b)_infty = -sum_n x^n / (n (1 - b^n)).
Both cut their series by a tail bound at _TOL and cap them at
_MAX_TERMS terms; a parameter outside the region of convergence, or one
whose terms do not fall below _TOL within the cap, is returned to the
caller for the product form.

circle_gram is the one unit-circle quadrature of the package: the
continuous elliptic and Pastro bilinear forms and the integral limit
measures take their matrices from it.  Given a log weight, it sums L at
all its midpoint nodes with grid_log_series:
the orders up to _HEAD_ORDERS by Horner's rule at each node, every
higher order by one discrete Fourier transform (Trefethen and Weideman,
SIAM Rev. 56 (2014); Cooley and Tukey, Math. Comp. 19 (1965)).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, NonFiniteValue, PoleError, SeriesDivergence

__all__ = [
    "qpoch_finite",
    "qpoch_infinite",
    "theta",
    "theta_qp_finite",
    "theta_qp_prefix",
    "elliptic_gamma",
    "gamma_pair_log_series",
    "qpoch_log_series",
    "qpoch_factors",
    "grid_log_series",
    "csum",
    "check_quad",
    "circle_gram",
]


_TOL = 1e-15
_MAX_TERMS = 4000
# grid_log_series sums the orders up to this one at each node by Horner's
# rule and leaves only the higher ones to the discrete Fourier transform.
_HEAD_ORDERS = 16


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
    their log-product is grid_log_series(coeffs, coeffs, quad) on the
    circle_gram grid.  rest lists
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


def qpoch_log_series(factors, tol: float = _TOL):
    """Laurent series of the log of a product of q-Pochhammer factors.

    factors lists (c, s, e, b), each meaning (c z^s; b)_infty^e with
    s in {1, -1, 2, -2} and e in {1, -1}.  A factor adds
    -e c^n / (n (1 - b^n)) to the coefficient of z^(s n), n >= 1.
    Returns (pos, neg, rest): pos[k - 1] and neg[k - 1] are the
    coefficients of z^k and z^-k summed over the factors the series
    serves, each series cut at the first m whose tail bound
    |c|^(m+1) / ((m+1)(1-|c|)(1-|b|)) falls below tol.  rest lists the
    factors left to the product form (qpoch_factors): those with
    |c| >= 1 or |b| >= 1, and those whose bound stays at or above tol
    for every m <= _MAX_TERMS.  The choice rests on the moduli alone.
    """
    pos, neg, rest = [], [], []
    for factor in factors:
        c, s, e, b = factor
        if s not in (1, -1, 2, -2) or e not in (1, -1):
            raise DomainError("a q-Pochhammer factor needs s in +-1, +-2 and e = +-1")
        ac, ab = abs(c), abs(b)
        if not (ac < 1 and ab < 1):
            rest.append(factor)
            continue
        scale = 1.0 / ((1.0 - ac) * (1.0 - ab))
        m = 1
        while m <= _MAX_TERMS and scale * ac ** (m + 1) / (m + 1) >= tol:
            m += 1
        if m > _MAX_TERMS:
            rest.append(factor)
            continue
        out = pos if s > 0 else neg
        step = abs(s)
        if len(out) < step * m:
            out.extend([0.0j] * (step * m - len(out)))
        cn = bn = 1.0 + 0.0j
        for n in range(1, m + 1):
            cn *= c
            bn *= b
            out[step * n - 1] -= e * cn / (n * (1.0 - bn))
    return pos, neg, rest


def qpoch_factors(factors, z: complex = 1.0) -> complex:
    """prod (c z^s; b)_infty^e over factors (c, s, e, b), in product form."""
    out = 1.0 + 0.0j
    for c, s, e, b in factors:
        val = qpoch_infinite(c * z**s, b)
        if e > 0:
            out *= val
        else:
            out /= val
    return out


def _nodes(quad: int, count: int) -> list:
    """The first count of the quad midpoint nodes exp(2 pi i (j + 1/2) / quad)."""
    return [cmath.exp(2j * cmath.pi * (j + 0.5) / quad) for j in range(count)]


def _dft(a, roots) -> list:
    """[sum_r a[r] w^(r j) for j < n], n = len(a), w = exp(2 pi i / n).

    roots[k] = exp(2 pi i k / N) for a multiple N of n.  Radix 2 while n
    is even, then a direct sum over the roots of the odd length, which
    skips the zero entries: a series shorter than the grid fills few
    bins, and the direct sum costs n per nonzero entry.
    """
    n = len(a)
    stride = len(roots) // n
    if n % 2:
        if n == 1:
            return [a[0]]
        terms = [(r, x) for r, x in enumerate(a) if x]
        return [
            sum((x * roots[(r * j % n) * stride] for r, x in terms), 0.0j)
            for j in range(n)
        ]
    even = _dft(a[0::2], roots)
    odd = _dft(a[1::2], roots)
    half = n // 2
    out = [0.0j] * n
    for j in range(half):
        t = roots[j * stride] * odd[j]
        out[j] = even[j] + t
        out[j + half] = even[j] - t
    return out


def grid_log_series(pos, neg, quad: int) -> list:
    """L(z) = sum_k pos[k - 1] z^k + neg[k - 1] z^-k at the circle_gram nodes.

    Returns [L(z_j) for j < quad], z_j = exp(2 pi i (j + 1/2) / quad).
    The orders k <= _HEAD_ORDERS are summed at each node by Horner's
    rule.  Every higher order is folded into quad bins: with
    w = exp(2 pi i / quad), z_j^+-k = e^(+-i pi k / quad) w^(+-k j), and
    w^(+-k j) depends on k only through +-k mod quad, so the folding is
    exact on the grid, and one discrete Fourier transform of the bins
    sums the folded orders at all nodes.  The rounding error of the
    transform is correlated across nodes; keeping the large low orders
    out of it keeps the weighted mean of L within a few units in the
    last place.
    """
    check_quad(quad)
    nodes = _nodes(quad, quad)
    inverses = [1.0 / z for z in nodes]
    up = [0.0j] * quad
    for c in reversed(pos[:_HEAD_ORDERS]):
        up = [(u + c) * z for u, z in zip(up, nodes)]
    down = [0.0j] * quad
    for c in reversed(neg[:_HEAD_ORDERS]):
        down = [(d + c) * zi for d, zi in zip(down, inverses)]
    out = [u + d for u, d in zip(up, down)]
    if len(pos) <= _HEAD_ORDERS and len(neg) <= _HEAD_ORDERS:
        return out
    # twist[r] = e^(i pi r / quad); e^(i pi k / quad) = (-1)^(k // quad) twist[k % quad]
    twist = [cmath.exp(1j * cmath.pi * r / quad) for r in range(quad)]
    bins = [0.0j] * quad
    for sign, coeffs in ((1, pos), (-1, neg)):
        for k in range(_HEAD_ORDERS + 1, len(coeffs) + 1):
            turn, r = divmod(k, quad)
            tw = twist[r] if sign > 0 else twist[r].conjugate()
            if turn % 2:
                tw = -tw
            bins[sign * k % quad] += coeffs[k - 1] * tw
    roots = [cmath.exp(2j * cmath.pi * k / quad) for k in range(quad)]
    return [h + t for h, t in zip(out, _dft(bins, roots))]


def csum(terms) -> complex:
    """Compensated (math.fsum) sum of complex terms."""
    terms = list(terms)
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def check_quad(quad: int) -> None:
    """Raise DomainError unless quad is a valid circle_gram node count."""
    if quad < 8 or quad % 2:
        raise DomainError("quad must be even and at least 8")


def circle_gram(
    fs, gs, quad: int, weight, log_weight=None, inversion_symmetric: bool = False
) -> list[list[complex]]:
    """Matrix of the means of f g w exp(L) for f in fs, g in gs.

    The means are over the quad midpoint nodes z_k = exp(2 pi i (k + 1/2)
    / quad), which avoid the double zeros at z = +-1, +-i of the elliptic
    weights; the rule converges geometrically for integrands analytic near
    the circle.  L is the series log_weight = (pos, neg) (grid_log_series)
    or 0.  The weight, exp(L) and each function are evaluated once per
    node for the whole matrix; node k adds ((f g) w) exp(L).  Node
    quad - 1 - k is 1/z_k, so when w(1/z) = w(z) and L(1/z) = L(z),
    inversion_symmetric=True averages (w (f g + f(1/z) g(1/z)) / 2) exp(L)
    over the upper half circle: the full rule at half the weight work.  A
    weight or an entry outside the floating-point range raises
    NonFiniteValue.
    """
    check_quad(quad)
    count = quad // 2 if inversion_symmetric else quad
    nodes = _nodes(quad, count)
    ws = [weight(z) for z in nodes]
    points = nodes + [1.0 / z for z in nodes] if inversion_symmetric else nodes
    F = [[f(z) for z in points] for f in fs]
    G = [[g(z) for z in points] for g in gs]
    if log_weight is not None:
        logs = grid_log_series(*log_weight, quad)
        try:
            exps = [cmath.exp(x) for x in logs[:count]]
        except OverflowError:
            raise NonFiniteValue("circle weight left the floating-point range") from None

    def mean(fv, gv):
        fg = [f * g for f, g in zip(fv, gv)]
        if inversion_symmetric:
            terms = [w * (a + b) / 2 for w, a, b in zip(ws, fg, fg[count:])]
        else:
            terms = [a * w for a, w in zip(fg, ws)]
        if log_weight is not None:
            terms = [t * e for t, e in zip(terms, exps)]
        try:
            out = csum(terms) / count
        except (OverflowError, ValueError):
            out = complex("nan")
        if not cmath.isfinite(out):
            raise NonFiniteValue("circle integrand left the floating-point range")
        return out

    return [[mean(fv, gv) for gv in G] for fv in F]
