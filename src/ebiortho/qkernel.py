"""Numeric kernel: q-symbols, theta functions, elliptic gamma, the
circle weights as log series, and the shared circle quadrature.

All infinite products are truncated once their geometric tail bound
drops below the fixed tolerance _TOL = 1e-15; a product still above it
after _MAX_TERMS = 4000 factors raises SeriesDivergence instead of
returning a silently inaccurate value.

theta evaluates one value; theta_ladders evaluates the ladders
theta(x q^r; p), r < m, of a whole theta series in one pass, with one
table of nome powers for all of them and the same values bit for bit.

Every circle weight of the package is a product of q-Pochhammer factors
(c z^s; b)_infty^e, b one base or the pair (p, q), where
(x; p, q)_infty = prod_{i,j>=0} (1 - x p^i q^j).  The elliptic gamma
function is the ratio Gamma(x; p, q) = (pq/x; p, q)_infty / (x; p, q)_infty
(Rains, Ann. Math. 2010), so the elliptic weight is such a product too.
_circle_weight builds every weight and its constant from factor lists:
the weight is exp(L(z)) times a small per-node remainder, L a Laurent
series whose coefficients come from the one builder qpoch_log_series,
by log (x; b)_infty = -sum_n x^n / (n prod_b (1 - b^n)).  It cuts each
factor's series by a tail bound at _TOL and caps it at _MAX_TERMS terms;
a factor outside the region of convergence, or one whose terms do not
fall below _TOL within the cap, is left to the product form
(qpoch_factors).  A constant is the same series at z = 1, cut at
_CONST_TOL (_qpoch_constant).

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
from itertools import accumulate, repeat
from operator import mul

from .errors import (
    ContourError,
    DomainError,
    NonFiniteValue,
    PoleError,
    SeriesDivergence,
)

__all__ = [
    "qpoch_finite",
    "qpoch_infinite",
    "theta",
    "theta_ladders",
    "elliptic_gamma",
    "qpoch_log_series",
    "qpoch_factors",
    "grid_log_series",
    "csum",
    "check_quad",
    "circle_gram",
]


_TOL = 1e-15
_MAX_TERMS = 4000
# theta's pair count is a ratio of two logs; this slack keeps a count
# that rounding puts just below an integer j at j pairs.
_COUNT_SLACK = 1e-9
# grid_log_series sums the orders up to this one at each node by Horner's
# rule and leaves only the higher ones to the discrete Fourier transform.
_HEAD_ORDERS = 16
# The constants of the circle weights take their log series to a tail
# bound of _CONST_TOL.  At z = 1 the tails of all factors add up, where
# on the circle they average out over the nodes, so the cut of the
# weights (_TOL) would show in the constants.
_CONST_TOL = 1e-17


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
    """theta(x;p) = (x;p)_infty (p/x;p)_infty, one paired-factor loop.

    Factor k >= 1 of the one product pairs with factor k of the other:
    theta(x;p) = (1 - x) prod_{k>=1} (1 - p^k s + p^2k), s = x + 1/x.
    The loop keeps pair k while |p|^k max(|x|, 1/|x|) / (1 - |p|) >= _TOL,
    the tail rule of each qpoch_infinite side, with the pair count fixed
    before the loop (at most one pair more than the rule, never one
    fewer); more than _MAX_TERMS pairs raise SeriesDivergence.  The
    factor 1 - x stands alone, so theta(1;p) is exactly 0.  The nome
    powers are formed inside the loop: for a single value that is faster
    than any table (theta_ladders shares one table between many values).
    """
    if x == 0:
        raise DomainError("theta requires x != 0")
    ap = abs(p)
    if ap >= 1:
        raise DomainError("theta requires |p| < 1")
    out = 1.0 - complex(x)
    if ap == 0:
        return out
    ax = abs(x)
    big = ax if ax >= 1.0 else 1.0 / ax
    # pair k is kept while k <= log(big / (_TOL (1 - |p|))) / -log|p|
    count = math.log(big / (_TOL * (1.0 - ap))) / -math.log(ap) + _COUNT_SLACK
    if not count < _MAX_TERMS:
        raise SeriesDivergence("theta hit max_terms before converging")
    s = x + 1.0 / x
    pk = p
    for _ in range(int(count)):
        out *= 1.0 - pk * s + pk * pk
        pk *= p
    return out


def theta_ladders(ladders, q: complex, p: complex) -> list:
    """[[theta(x q^r; p) for r < m] for (x, m) in ladders], in one pass.

    Every value is theta's, equal to it bit for bit: the same pair count,
    and the nome powers p^k and p^2k read from one table built by theta's
    repeated multiplication, pk *= p and pk * pk, once for all values.
    The arguments x q^r are formed by repeated multiplication too, and
    |q| >= 1 is allowed.  A theta Pochhammer symbol theta(x;q;p)_k is the
    product of the first k values of the ladder (x, m), m >= k.
    """
    ap = abs(p)
    if ap >= 1:
        raise DomainError("theta requires |p| < 1")
    if ap:
        scale, rate = _TOL * (1.0 - ap), -math.log(ap)
    rows, most = [], 0
    for x, m in ladders:
        if m < 0:
            raise DomainError("a theta ladder needs m >= 0")
        row = []
        xq = complex(x)
        for _ in range(m):
            if xq == 0:
                raise DomainError("theta requires x != 0")
            count = 0
            if ap:
                # theta's pair count, written out: a call per value costs
                # about 5% of an rtilde evaluation
                ax = abs(xq)
                count = math.log((ax if ax >= 1.0 else 1.0 / ax) / scale) / rate + _COUNT_SLACK
                if not count < _MAX_TERMS:
                    raise SeriesDivergence("theta hit max_terms before converging")
                count = int(count)
                if count > most:
                    most = count
            row.append((xq, count))
            xq *= q
        rows.append(row)
    table = [(pk, pk * pk) for pk in accumulate(repeat(p, most), mul)]
    out = []
    for row in rows:
        vals = []
        for x, count in row:
            val = 1.0 - x
            s = x + 1.0 / x
            for pk, pk2 in table[:count]:
                val *= 1.0 - pk * s + pk2
            vals.append(val)
        out.append(vals)
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


def qpoch_log_series(factors, tol: float = _TOL):
    """Laurent series of the log of a product of q-Pochhammer factors.

    factors lists (c, s, e, b), each meaning (c z^s; b)_infty^e with
    s in {1, -1, 2, -2}, e in {1, -1} and b one base or the pair (p, q).
    A factor adds -e c^n / (n prod_b (1 - b^n)) to the coefficient of
    z^(s n), n >= 1.  Returns (pos, neg, rest): pos[k - 1] and
    neg[k - 1] are the coefficients of z^k and z^-k summed over the
    factors the series serves, each series cut at the first m whose tail
    bound |c|^(m+1) / ((m+1)(1-|c|) prod_b (1-|b|)) falls below tol.
    rest lists the factors left to the product form (qpoch_factors):
    those with |c| >= 1 or a |b| >= 1, and those whose bound stays at or
    above tol for every m <= _MAX_TERMS.  The choice rests on the moduli
    alone.
    """
    served, rest = _series_terms(factors, tol)
    pos, neg = [], []
    for s, terms in served:
        out, step = (pos, s) if s > 0 else (neg, -s)
        end = step * len(terms)
        out.extend([0.0j] * (end - len(out)))
        out[step - 1:end:step] = [x - t for x, t in zip(out[step - 1:end:step], terms)]
    return pos, neg, rest


def _series_terms(factors, tol):
    """(served, rest) of qpoch_log_series: served holds (s, terms) for
    each factor (c, s, e, b) the series serves, terms[n - 1] =
    e c^n / (n prod_b (1 - b^n)) up to its cut.  Factors of equal
    (c, e, b) share their terms, and factors on equal bases their
    denominators."""
    cuts = {}
    for c, s, e, b in factors:
        if s not in (1, -1, 2, -2) or e not in (1, -1):
            raise DomainError("a q-Pochhammer factor needs s in +-1, +-2 and e = +-1")
        cuts.setdefault((c, e, b), _cut(c, b, tol))
    need = {}
    for (c, e, b), m in cuts.items():
        need[b] = max(need.get(b, 0), m)
    dens = {b: _denominators(b, m) for b, m in need.items()}
    terms = {}
    for (c, e, b), m in cuts.items():
        powers = accumulate(repeat(c, m), mul, initial=1.0 + 0.0j)
        next(powers)
        terms[c, e, b] = [e * cn / d for cn, d in zip(powers, dens[b])]
    served = [(s, terms[c, e, b]) for c, s, e, b in factors if cuts[c, e, b]]
    return served, [f for f in factors if not cuts[f[0], f[2], f[3]]]


def _cut(c, b, tol) -> int:
    """Series terms of a factor (c z^s; b)^e (qpoch_log_series), 0 for
    the product form."""
    ac, bases = abs(c), b if isinstance(b, tuple) else (b,)
    if not (ac < 1 and all(abs(x) < 1 for x in bases)):
        return 0
    scale = 1.0 / ((1.0 - ac) * math.prod(1.0 - abs(x) for x in bases))
    # the bound falls with m: bisect for the first m <= _MAX_TERMS below tol
    lo, hi = 1, _MAX_TERMS + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if scale * ac ** (mid + 1) / (mid + 1) < tol:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo <= _MAX_TERMS else 0


def _denominators(b, m) -> list:
    """[n prod_b (1 - b^n) for n = 1..m], b one base or the pair (p, q)."""
    bases = b if isinstance(b, tuple) else (b,)
    powers = [1.0 + 0.0j] * len(bases)
    out = []
    for n in range(1, m + 1):
        d = n
        for i, x in enumerate(bases):
            powers[i] *= x
            d *= 1.0 - powers[i]
        out.append(d)
    return out


def qpoch_factors(factors, z: complex = 1.0) -> complex:
    """prod (c z^s; b)_infty^e over factors (c, s, e, b), in product form,
    a two-base factor as prod_i (c z^s p^i; q)_infty for b = (p, q);
    PoleError when a denominator factor (e < 0) vanishes."""
    out = 1.0 + 0.0j
    for c, s, e, b in factors:
        x = c * z**s
        val = _qpoch_pair(x, *b) if isinstance(b, tuple) else qpoch_infinite(x, b)
        if e > 0:
            out *= val
        elif val == 0:
            raise PoleError("a q-Pochhammer denominator factor vanishes")
        else:
            out /= val
    return out


def _qpoch_pair(x: complex, p: complex, q: complex) -> complex:
    """(x; p, q)_infty = prod_i (x p^i; q)_infty, cut at the first i whose
    tail bound |x p^i| / ((1 - |p|)(1 - |q|)) is below _TOL."""
    if abs(p) >= 1 or abs(q) >= 1:
        raise DomainError("(x; p, q)_infty requires |p|, |q| < 1")
    scale = 1.0 / ((1.0 - abs(p)) * (1.0 - abs(q)))
    out = 1.0 + 0.0j
    for _ in range(_MAX_TERMS):
        if abs(x) * scale < _TOL:
            return out
        out *= qpoch_infinite(x, q)
        x *= p
    raise SeriesDivergence("(x; p, q)_infty hit max_terms before converging")


def _qpoch_constant(factors) -> complex:
    """prod (x; b)_infty^e over factors (x, e, b).

    The log series of qpoch_log_series at z = 1, cut at _CONST_TOL, with
    every term of every factor in one compensated sum:
    exp(-sum_n e x^n / (n prod_b (1 - b^n))) over all factors.  A factor
    the series leaves out is multiplied in by its product form.
    """
    served, rest = _series_terms([(x, 1, e, b) for x, e, b in factors], _CONST_TOL)
    return cmath.exp(-csum([t for _, terms in served for t in terms])) * qpoch_factors(rest)


def _circle_weight(consts, factors, zeros=()):
    """(prefactor, weight, log_weight) of a measure on the unit circle.

    The constant is prod (x; b)_infty^e over consts (x, e, b); the weight
    is prod (c z^s; b)_infty^e over factors (c, s, e, b) as a log series
    (pos, neg), times weight(z): prod (1 - z^s) over zeros and the factors
    the series leaves out.  The contour rule: the poles z^s = c^-1 b^-j
    (c^-1 p^-i q^-j on the pair) of a denominator factor stay off the
    circle, on their own side of it, only while |c| < 1; ContourError
    otherwise.
    """
    if any(e < 0 and abs(c) >= 1 for c, _, e, _ in factors):
        raise ContourError("a weight-denominator pole family meets the unit circle")
    pref = _qpoch_constant(consts)
    pos, neg, rest = qpoch_log_series(factors)

    def weight(z):
        val = 1.0 + 0.0j
        for s in zeros:
            val *= 1.0 - z**s
        return val * qpoch_factors(rest, z)

    return pref, weight, (pos, neg)


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
