"""Identity checks for the q-symbol / theta / elliptic-gamma kernel."""

import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebiortho.errors import DomainError, NonFiniteValue, PoleError, SeriesDivergence
from ebiortho.qkernel import (
    circle_gram,
    elliptic_gamma,
    grid_log_series,
    qpoch_factors,
    qpoch_finite,
    qpoch_infinite,
    qpoch_log_series,
    theta,
    theta_ladders,
)


ONE = lambda z: 1.0


def _rand_annulus(rng, lo=0.3, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _grid(quad):
    """The circle_gram nodes exp(2 pi i (j + 1/2) / quad), j < quad."""
    return [cmath.exp(2j * cmath.pi * (j + 0.5) / quad) for j in range(quad)]


def triple_product_sum(x, p, nmax=200):
    total = 0.0 + 0.0j
    for n in range(-nmax, nmax + 1):
        term = (-x) ** n * p ** (n * (n - 1) / 2.0)
        total += term
    return total


complex_annulus = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.floats(0.3, 2.0),
    st.floats(0.0, 2 * math.pi),
)
# x = 1 is a pole of Gamma(x;p,q) and of 1/(x;q)_inf, and x = 1/q one of
# Gamma(x;0,q).  Near a pole the rounding of the inputs (of pq/x in the
# reflection) is amplified by about 1/|1 - x|: at x = 0.99999, p = 0.25,
# q = 0.0546875 the exact product Gamma(x)Gamma(pq/x) at the rounded float
# arguments is already 1 - 5.6e-12, so no kernel meets 1e-12 there.  The
# strategies keep x at least POLE_GAP from these poles; the kernel at the
# pole itself is test_gamma_pole, and next to it the mpmath check of
# tests/test_oracle.py.
POLE_GAP = 1e-3
annulus_off_pole = complex_annulus.filter(lambda x: abs(x - 1) >= POLE_GAP)


@settings(max_examples=60, deadline=None)
@given(x=complex_annulus, p=st.floats(0.05, 0.6))
def test_theta_quasi_periodicity(x, p):
    lhs = theta(p * x, p)
    mid = theta(1.0 / x, p)
    rhs = -theta(x, p) / x
    scale = max(abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-12
    assert abs(mid - rhs) / scale < 1e-12


@settings(max_examples=60, deadline=None)
@given(x=complex_annulus, p=st.floats(0.05, 0.5))
def test_theta_triple_product(x, p):
    lhs = qpoch_infinite(p, p) * theta(x, p)
    rhs = triple_product_sum(x, p)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    x=complex_annulus,
    q=st.floats(-0.9, 0.9),
    n=st.integers(0, 12),
    m=st.integers(0, 12),
)
def test_qpoch_splitting_law(x, q, n, m):
    lhs = qpoch_finite(x, q, n + m)
    rhs = qpoch_finite(x, q, n) * qpoch_finite(x * q**n, q, m)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=40, deadline=None)
@given(x=annulus_off_pole, p=st.floats(0.05, 0.4), q=st.floats(0.05, 0.4))
def test_gamma_reflection(x, p, q):
    prod = elliptic_gamma(x, p, q) * elliptic_gamma(p * q / x, p, q)
    assert abs(prod - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(x=annulus_off_pole, q=st.floats(0.05, 0.6))
def test_gamma_degeneration_p_zero(x, q):
    assume(abs(x * q - 1) >= POLE_GAP)  # the pole x = 1/q, in reach for q >= 1/2
    lhs = elliptic_gamma(x, 0.0, q)
    rhs = 1.0 / qpoch_infinite(x, q)
    assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-12


@pytest.mark.parametrize("p, q", [(0.25, 0.25), (0.05, 0.4), (0.0, 0.3)])
def test_gamma_pole(p, q):
    for x in (1, 1 + 1e-300j):
        with pytest.raises(PoleError):
            elliptic_gamma(x, p, q)
    with pytest.raises(PoleError):
        elliptic_gamma(1 / q, 0.0, q)


def _ladder_args(x, q, m):
    """x q^r for r < m, each from the last by one multiplication."""
    out, xq = [], complex(x)
    for _ in range(m):
        out.append(xq)
        xq *= q
    return out


def test_theta_ladders_equal_theta_value_by_value():
    # one nome table for all values changes no bit of any of them
    rng = random.Random(0)
    for _ in range(50):
        q = _rand_annulus(rng, 0.2, 0.6)
        p = rng.choice([rng.uniform(0.05, 0.5), _rand_annulus(rng, 0.05, 0.5), 0.0])
        ladders = [(_rand_annulus(rng), rng.randint(0, 6)) for _ in range(rng.randint(0, 4))]
        got = theta_ladders(ladders, q, p)
        assert got == [[theta(a, p) for a in _ladder_args(x, q, m)] for x, m in ladders]


def test_theta_ladders_lengths_and_errors():
    rng = random.Random(1)
    for _ in range(20):
        ladders = [(_rand_annulus(rng), rng.randint(0, 8)) for _ in range(3)]
        rows = theta_ladders(ladders, _rand_annulus(rng, 0.2, 2.5), rng.uniform(0.05, 0.5))
        assert [len(row) for row in rows] == [m for _, m in ladders]
    assert theta_ladders([], 0.3, 0.1) == []
    for bad, q, p in [((0.5, -1), 0.3, 0.1), ((0.0, 1), 0.3, 0.1), ((0.5, 1), 0.3, 1.1),
                      ((0.0, 1), 0.3, 0.0)]:
        with pytest.raises(DomainError):
            theta_ladders([(0.4, 2), bad], q, p)
    with pytest.raises(SeriesDivergence):
        theta_ladders([(0.5, 1)], 0.3, 0.9902)


def test_theta_ladders_allow_big_q():
    # |q| > 1 is legal for a finite ladder
    val = math.prod(theta_ladders([(0.5, 3)], 2.5, 0.1)[0])
    direct = theta(0.5, 0.1) * theta(1.25, 0.1) * theta(3.125, 0.1)
    assert abs(val - direct) < 1e-12 * abs(direct)


def test_domain_errors():
    with pytest.raises(DomainError):
        qpoch_infinite(0.5, 1.2)
    with pytest.raises(DomainError):
        theta(0.5, 1.1)
    with pytest.raises(DomainError):
        qpoch_finite(0.5, 0.4, -1)
    with pytest.raises(PoleError):
        elliptic_gamma(1.0 + 0j, 0.3, 0.3)
    with pytest.raises(DomainError):
        qpoch_factors([(0.5, 1, 1, (1.1, 0.1))])


def test_series_divergence_guard():
    # |q| this close to 1 needs far more than the fixed 4000-factor cap
    with pytest.raises(SeriesDivergence):
        qpoch_infinite(0.5, 0.999999)


def test_theta_pair_count_on_both_sides_of_the_cap():
    # max(|x|, 1/|x|) = 2 needs 3963 pairs at p = 0.99 and 4047 at p = 0.9902
    for x in (0.5, 2.0, 0.5j):
        two_sided = qpoch_infinite(x, 0.99) * qpoch_infinite(0.99 / x, 0.99)
        assert abs(theta(x, 0.99) - two_sided) <= 1e-11 * abs(two_sided)
        with pytest.raises(SeriesDivergence):
            theta(x, 0.9902)


def test_theta_at_p_zero_and_at_one():
    for x in (0.3 + 0.2j, -2.5, 1e-3j):
        assert theta(x, 0.0) == 1 - x
        assert theta(x, 0j) == 1 - x
    for p in (0.0, 0.05, 0.45 + 0.3j, 0.9):
        assert theta(1.0, p) == 0


def _gamma_pair_factors(t, p, q):
    """Gamma(t z) Gamma(t / z) = (pq/(t z); p, q)(pq z/t; p, q) / ((t z; p, q)(t/z; p, q))
    as two-base factors (c, s, e, (p, q))."""
    return [(t, s, -1, (p, q)) for s in (1, -1)] + [(p * q / t, s, 1, (p, q)) for s in (1, -1)]


def test_gamma_pair_log_series_matches_product():
    # elliptic-gamma pairs as two-base factors of qpoch_log_series
    rng = random.Random(1)
    for _ in range(20):
        p = _rand_annulus(rng, 0.02, 0.3)
        q = _rand_annulus(rng, 0.02, 0.3)
        ts = [_rand_annulus(rng, 0.3, 0.95) for _ in range(3)]
        pos, neg, rest = qpoch_log_series([f for t in ts for f in _gamma_pair_factors(t, p, q)])
        assert rest == []
        logs = grid_log_series(pos, neg, 64)
        j = rng.randrange(64)
        z = _grid(64)[j]
        prod = 1.0
        for t in ts:
            prod *= elliptic_gamma(t * z, p, q) * elliptic_gamma(t / z, p, q)
        series = cmath.exp(logs[j])
        assert abs(series - prod) <= 1e-13 * abs(prod)


def test_gamma_pair_log_series_fallback_rule():
    # per factor: |c| >= 1 (pq/t for t = 0.004, and t = 1.2) and a modulus
    # whose terms need more than the 4000-term cap (0.995 needs about
    # 6600) keep the product form; the other factor of the pair stays in
    # the series, and series times product form is the Gamma pair
    p, q = 0.05, 0.1
    j, z = 3, _grid(16)[3]
    for t, left in ((0.004, p * q / 0.004), (1.2, 1.2), (0.995, 0.995)):
        factors = _gamma_pair_factors(t, p, q)
        pos, neg, rest = qpoch_log_series(factors)
        assert rest == [f for f in factors if f[0] == left] and len(rest) == 2
        assert 0 < len(pos) == len(neg) <= 4000
        got = cmath.exp(grid_log_series(pos, neg, 16)[j]) * qpoch_factors(rest, z)
        ref = elliptic_gamma(t * z, p, q) * elliptic_gamma(t / z, p, q)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_grid_log_series_long_and_near_the_real_axis():
    # sum r^n cos(n phi) / n = -log|1 - r e^(i phi)|, where
    # |1 - r e^(i phi)|^2 = (1 - r)^2 + 4 r sin^2(phi / 2) for r > 0 and
    # (1 + r)^2 - 4 r cos^2(phi / 2) for r < 0; 3500 terms of |r| = 0.99
    # leave a tail below 1e-17.  The 4096-node grid comes within
    # pi / 4096 of phi = 0 and pi; on 256 nodes the orders fold 13 times.
    for r in (0.99, -0.99):
        coeffs = [r**n / (2 * n) for n in range(1, 3501)]
        for quad in (256, 4096):
            logs = grid_log_series(coeffs, coeffs, quad)
            for j, got in enumerate(logs):
                phi = 2 * math.pi * (j + 0.5) / quad
                half = math.sin(phi / 2) if r > 0 else math.cos(phi / 2)
                exact = -0.5 * math.log((1 - abs(r)) ** 2 + 4 * abs(r) * half**2)
                assert abs(got - exact) < 1e-14 * max(1.0, abs(exact))


def _sparse_coeffs(rng, count, quad):
    """count Laurent coefficients c_k = g_k / k, g_k complex normal, zero
    except at the orders 1..20, the orders next to quad and 2 quad, and
    twelve random ones."""
    orders = set(range(1, min(count, 20) + 1))
    orders |= {k for k in (quad - 1, quad, quad + 1, 2 * quad - 1, 2 * quad, 2 * quad + 1)}
    orders |= set(rng.sample(range(1, count + 1), min(count, 12)))
    coeffs = [0.0j] * count
    for k in orders:
        if k <= count:
            coeffs[k - 1] = complex(rng.gauss(0, 1), rng.gauss(0, 1)) / k
    return coeffs


def test_grid_log_series_against_mpmath_at_every_node():
    # the reference sums each order at the exact node, 30 digits; the
    # rounding of the double-precision node moves order k by about
    # k |c_k| eps, so the bound scales with sum_k k |c_k|
    mp = pytest.importorskip("mpmath")
    rng = random.Random(3)
    for quad in (8, 30, 520, 1024):
        for count in (quad // 2 + 3, 2 * quad + 40):
            pos, neg = _sparse_coeffs(rng, count, quad), _sparse_coeffs(rng, count, quad)
            got = grid_log_series(pos, neg, quad)
            terms = [(k, a, b) for k, (a, b) in enumerate(zip(pos, neg), 1) if a or b]
            scale = sum(k * (abs(a) + abs(b)) for k, a, b in terms)
            with mp.workdps(30):
                terms = [(k, mp.mpc(a), mp.mpc(b)) for k, a, b in terms]
                # roots[m] = exp(i pi m / quad): z_j^k = roots[k (2j + 1) mod 2 quad]
                roots = [mp.expjpi(mp.mpf(m) / quad) for m in range(2 * quad)]
                for j in range(quad):
                    odd = 2 * j + 1
                    ref = mp.fsum(
                        a * roots[k * odd % (2 * quad)] + b * roots[-k * odd % (2 * quad)]
                        for k, a, b in terms
                    )
                    assert abs(got[j] - complex(ref)) <= 1e-15 * scale, (quad, count, j)


def test_qpoch_log_series_matches_products():
    # all four powers s = +-1, +-2 in both roles e = +-1, and the two
    # fallback moduli 1.2 and 0.995, which stay in product form
    rng = random.Random(2)
    b = 0.3 * cmath.exp(0.4j)
    factors = [
        (_rand_annulus(rng, 0.2, 0.9), s, e, b) for s in (1, -1, 2, -2) for e in (1, -1)
    ]
    fallback = [(1.2 * cmath.exp(1.1j), 1, 1, b), (0.995, -1, -1, b)]
    pos, neg, rest = qpoch_log_series(factors + fallback)
    assert rest == fallback
    for quad in (16, 64):
        logs = grid_log_series(pos, neg, quad)
        for j, z in enumerate(_grid(quad)):
            prod = 1.0 + 0.0j
            for c, s, e, bb in factors + fallback:
                val = qpoch_infinite(c * z**s, bb)
                prod = prod * val if e > 0 else prod / val
            got = cmath.exp(logs[j]) * qpoch_factors(rest, z)
            assert abs(got - prod) <= 1e-13 * abs(prod)


def test_qpoch_log_series_fallback_rule():
    b = 0.1
    # |c| >= 1, and a modulus whose terms need more than the 4000-term
    # cap (0.995 needs about 6400), keep the product form
    for c in (1.2, 0.995):
        for s, e in ((1, 1), (-2, -1)):
            assert qpoch_log_series([(c, s, e, b)]) == ([], [], [(c, s, e, b)])
    pos, neg, rest = qpoch_log_series([(0.99, 1, 1, b), (1.2, -1, -1, b)])
    assert rest == [(1.2, -1, -1, b)] and neg == [] and 0 < len(pos) <= 4000
    for bad in ((0.5, 3, 1, b), (0.5, 1, 2, b)):
        with pytest.raises(DomainError):
            qpoch_log_series([bad])


def test_circle_gram_log_weight_and_non_finite_values():
    fn = lambda z: 2 + z**3 + z**-3
    for quad in (8, 30, 64):
        direct = circle_gram([fn], [ONE], quad, lambda z: cmath.exp(z + 1 / z))[0][0]
        weighted = circle_gram([fn], [ONE], quad, ONE, ([1.0], [1.0]))[0][0]
        assert abs(weighted - direct) < 1e-14 * abs(direct)
    # Re L = 800 cos(phi) passes 709 near z = 1, where exp overflows
    with pytest.raises(NonFiniteValue):
        circle_gram([ONE], [ONE], 16, ONE, ([400.0], [400.0]))
    inf = float("inf")
    for bad in (
        lambda z: inf if z.imag > 0 else 1.0,
        lambda z: inf if z.imag > 0 else -inf,
        lambda z: complex("nan"),
        lambda z: 1e308,
    ):
        with pytest.raises(NonFiniteValue):
            circle_gram([bad], [ONE], 16, ONE)
        with pytest.raises(NonFiniteValue):
            circle_gram([ONE], [ONE], 16, bad)


def test_circle_gram_inversion_symmetric_half_grid():
    fn = lambda z: cmath.exp(z + 1 / z) * (2 + z**3 + z**-3)
    for quad in (8, 30, 64):
        full = circle_gram([ONE], [ONE], quad, fn)[0][0]
        half = circle_gram([ONE], [ONE], quad, fn, inversion_symmetric=True)[0][0]
        assert abs(half - full) < 1e-14 * abs(full)
    nodes = []
    circle_gram(
        [ONE], [ONE], 64, lambda z: nodes.append(z) or 1.0, inversion_symmetric=True
    )
    assert len(nodes) == 32 and all(z.imag > 0 for z in nodes)
    # a symmetric weight pairs f(z) g(z) with f(1/z) g(1/z): the mean of
    # w f g on the full grid, for f and g without the symmetry
    f = lambda z: z**2 + 0.5 / z
    g = lambda z: 1 + 0.3 * z
    full = circle_gram([f], [g], 64, fn)[0][0]
    half = circle_gram([f], [g], 64, fn, inversion_symmetric=True)[0][0]
    assert abs(half - full) < 1e-14 * abs(full)


@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "half"])
def test_circle_gram_entries_and_evaluation_counts(symmetric):
    # every entry equals its 1 x 1 gram bit for bit, and the weight and
    # each function are evaluated once per node (twice with the
    # symmetric rule, at z and 1/z) for the whole matrix
    calls = []

    def counted(name, fn):
        def wrapped(z):
            calls.append(name)
            return fn(z)

        return wrapped

    weight = lambda z: cmath.exp(0.3 * (z + 1 / z))
    log_weight = ([0.2, 0.05], [0.2, 0.05])
    fs = [lambda z, k=k: z**k + 0.5 / z for k in range(3)]
    gs = [lambda z, k=k: 1 + 0.3 * k * z for k in range(2)]
    quad = 32
    M = circle_gram(
        [counted(f"f{i}", f) for i, f in enumerate(fs)],
        [counted(f"g{j}", g) for j, g in enumerate(gs)],
        quad,
        counted("w", weight),
        log_weight,
        symmetric,
    )
    count = quad // 2 if symmetric else quad
    per_fn = 2 * count if symmetric else count
    assert calls.count("w") == count
    for name in ("f0", "f1", "f2", "g0", "g1"):
        assert calls.count(name) == per_fn
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            one = circle_gram([f], [g], quad, weight, log_weight, symmetric)
            assert M[i][j] == one[0][0]
