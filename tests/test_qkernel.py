"""Identity checks for the q-symbol / theta / elliptic-gamma kernel."""

import cmath
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebiortho.errors import DomainError, PoleError, SeriesDivergence
from ebiortho.qkernel import (
    circle_mean,
    cos_series,
    elliptic_gamma,
    gamma_pair_log_series,
    qpoch_finite,
    qpoch_infinite,
    theta,
    theta_qp_finite,
    theta_qp_prefix,
)


def _rand_annulus(rng, lo=0.3, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


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
# x = 1 is a pole of Gamma(x;p,q) and of 1/(x;q)_inf.  The strategies keep
# |x - 1| above the double-precision epsilon: Hypothesis also draws points
# such as 1 + 1e-300j, where the kernel raises PoleError (test_gamma_pole).
EPS = sys.float_info.epsilon
annulus_off_pole = complex_annulus.filter(lambda x: abs(x - 1) > EPS)


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
    assume(abs(x * q - 1) > EPS)  # the pole x = 1/q, in reach for q >= 1/2
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


def test_theta_qp_finite_matches_product():
    rng = random.Random(0)
    for _ in range(50):
        x = _rand_annulus(rng)
        q = _rand_annulus(rng, 0.2, 0.6)
        p = rng.uniform(0.05, 0.5)
        n = rng.randint(0, 6)
        direct = 1.0 + 0.0j
        for r in range(n):
            direct *= theta(x * q**r, p)
        got = theta_qp_finite(x, q, p, n)
        assert abs(got - direct) <= 1e-12 * max(abs(direct), 1.0)


def test_theta_qp_prefix_entries_are_the_finite_symbols():
    rng = random.Random(1)
    for _ in range(20):
        x = _rand_annulus(rng)
        q = _rand_annulus(rng, 0.2, 2.5)
        p = rng.uniform(0.05, 0.5)
        n = rng.randint(0, 8)
        prefix = theta_qp_prefix(x, q, p, n)
        assert len(prefix) == n + 1
        assert prefix == [theta_qp_finite(x, q, p, k) for k in range(n + 1)]
    with pytest.raises(DomainError):
        theta_qp_prefix(0.5, 0.3, 0.1, -1)


def test_theta_qp_finite_allows_big_q():
    # |q| > 1 is legal for the finite ladder
    val = theta_qp_finite(0.5, 2.5, 0.1, 3)
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


def test_series_divergence_guard():
    # |q| this close to 1 needs far more than the fixed 4000-factor cap
    with pytest.raises(SeriesDivergence):
        qpoch_infinite(0.5, 0.999999)


def test_gamma_pair_log_series_matches_product():
    rng = random.Random(1)
    for _ in range(20):
        p = _rand_annulus(rng, 0.02, 0.3)
        q = _rand_annulus(rng, 0.02, 0.3)
        ts = [_rand_annulus(rng, 0.3, 0.95) for _ in range(3)]
        coeffs, rest = gamma_pair_log_series(ts, p, q)
        assert rest == []
        z = cmath.exp(2j * math.pi * rng.random())
        prod = 1.0
        for t in ts:
            prod *= elliptic_gamma(t * z, p, q) * elliptic_gamma(t / z, p, q)
        series = cmath.exp(2 * cos_series(coeffs, z))
        assert abs(series - prod) <= 1e-13 * abs(prod)


def test_gamma_pair_log_series_fallback_rule():
    p, q = 0.05, 0.1
    # |t| <= |pq|, |t| >= 1, and a modulus whose terms need more than
    # the 4000-term cap (0.995 needs about 6600) keep the product form
    for t in (0.004, 1.2, 0.995):
        assert gamma_pair_log_series([t], p, q) == ([], [t])
    coeffs, rest = gamma_pair_log_series([0.99, 0.004], p, q)
    assert rest == [0.004] and 0 < len(coeffs) <= 4000


def test_cos_series_long_and_near_the_real_axis():
    # sum r^n cos(n phi) / n = -log|1 - r e^(i phi)|, where
    # |1 - r e^(i phi)|^2 = (1 - r)^2 + 4 r sin^2(phi / 2) for r > 0 and
    # (1 + r)^2 - 4 r cos^2(phi / 2) for r < 0; 3500 terms of |r| = 0.99
    # leave a tail below 1e-17.  Clenshaw's recurrence in cos(phi) is off
    # by up to 9e-14 here, Reinsch's form by 9e-16.
    for r in (0.99, -0.99):
        coeffs = [r**n / n for n in range(1, 3501)]
        for phi in (0.001, 0.01, 1.0, math.pi - 0.01, math.pi - 0.001):
            half = math.sin(phi / 2) if r > 0 else math.cos(phi / 2)
            exact = -0.5 * math.log((1 - abs(r)) ** 2 + 4 * abs(r) * half**2)
            got = cos_series(coeffs, cmath.exp(1j * phi))
            assert abs(got - exact) < 1e-14 * max(1.0, abs(exact))


def test_circle_mean_inversion_symmetric_half_grid():
    fn = lambda z: cmath.exp(z + 1 / z) * (2 + z**3 + z**-3)
    for quad in (8, 30, 64):
        full = circle_mean(fn, quad)
        half = circle_mean(fn, quad, inversion_symmetric=True)
        assert abs(half - full) < 1e-14 * abs(full)
    nodes = []
    circle_mean(lambda z: nodes.append(z) or 1.0, 64, inversion_symmetric=True)
    assert len(nodes) == 32 and all(z.imag > 0 for z in nodes)
