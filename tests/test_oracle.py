"""Checks against an independent 40-digit mpmath evaluation.

mpmath is an optional test dependency (the `test` extra); without it the
module is skipped.
"""

import cmath
import math
import random

import pytest

from ebiortho.biortho import (
    EllipticParams,
    continuous_measure,
    random_discrete_draw,
    rtilde,
)
from conftest import grid_weight
from ebiortho.limits import pastro_p
from ebiortho.qkernel import elliptic_gamma, grid_log_series, qpoch_infinite, theta

mp = pytest.importorskip("mpmath")


def _mp_weight(par, z):
    """prod_r Gamma(t_r z^+-1) / Gamma(z^+-2) from the double products
    Gamma(x) = prod_{i,j>=0} (1 - p^(i+1) q^(j+1) / x) / (1 - p^i q^j x),
    cut where |p^i q^j| < 1e-22.  The factors left out change the value
    by about 1e-21 relative, eight digits below the tolerance checked.
    """
    p, q, z = mp.mpc(par.p), mp.mpc(par.q), mp.mpc(z)
    up = [mp.mpc(t) * w for t in par.t + par.u for w in (z, 1 / z)]
    down = [z**2, z**-2]
    num_roots = [p * q / x for x in up] + down
    den_roots = up + [p * q / x for x in down]
    eps = mp.mpf(10) ** -22
    num = den = mp.mpf(1)
    pi = mp.mpf(1)
    while abs(pi) > eps:
        pij = pi
        while abs(pij) > eps:
            for c in num_roots:
                num *= 1 - pij * c
            for c in den_roots:
                den *= 1 - pij * c
            pij *= q
        pi *= p
    return complex(num / den)


def _mp_elliptic_gamma(x, p, q):
    """Gamma(x;p,q) from its double product, cut as in _mp_weight."""
    x, p, q = mp.mpmathify(x), mp.mpmathify(p), mp.mpmathify(q)
    eps = mp.mpf(10) ** -22
    num = den = mp.mpf(1)
    pi = mp.mpf(1)
    while abs(pi) > eps:
        pij = pi
        while abs(pij) > eps:
            num *= 1 - pij * p * q / x
            den *= 1 - pij * x
            pij *= q
        pi *= p
    return num / den


def _mp_gamma_pairs(par):
    """prod_{r<s} Gamma(t_r t_s) from the double products."""
    p, q = mp.mpc(par.p), mp.mpc(par.q)
    ts = [mp.mpc(t) for t in par.t + par.u]
    return mp.fprod(
        _mp_elliptic_gamma(ts[r] * ts[s], p, q) for r in range(6) for s in range(r + 1, 6)
    )


def _unit(r, phi):
    return r * cmath.exp(1j * phi)


WEIGHT_CASES = {
    # the parameters of `verify elliptic-continuous`
    "cli": EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22),
    # complex parameters with |t0| = 0.95, close to the unit circle
    "complex": EllipticParams(
        (_unit(0.95, 0.7), _unit(0.6, -0.4), _unit(0.5, 2.1), _unit(0.8, -1.9)),
        (_unit(0.45, 0.3), None),
        _unit(0.3, 1.2),
        _unit(0.12, -0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_continuous_weight_against_mpmath(name):
    par = WEIGHT_CASES[name]
    grid = grid_weight(par, 512)
    with mp.workdps(40):
        # node 0 sits next to the double zero of the weight at z = 1
        for j in (0, 100, 255):
            z, w = grid[j]
            ref = _mp_weight(par, z)
            assert abs(w - ref) <= 1e-13 * abs(ref)


def test_weighted_log_error_at_the_cli_parameters():
    # The error of L that the <1,1> mean sees: sum_j w_j (L_j - L*_j) / sum_j |w_j|
    # over the 512 nodes, L*_j the same coefficients summed at node j to
    # 40 digits.  Summed by the transform alone, the low orders carry its
    # correlated rounding into the mean (4e-15); the Horner head keeps
    # the mean near 1e-16.
    par = WEIGHT_CASES["cli"]
    pos, neg = continuous_measure(par).log_weight
    logs = grid_log_series(pos, neg, 512)
    grid = grid_weight(par, 512)
    with mp.workdps(40):
        up = [mp.mpc(c) for c in reversed(pos)] + [0]
        down = [mp.mpc(c) for c in reversed(neg)] + [0]
        err = 0.0j
        for (z, w), x in zip(grid, logs):
            zm = mp.mpc(z)
            err += w * (x - complex(mp.polyval(up, zm) + mp.polyval(down, 1 / zm)))
    assert abs(err) / sum(abs(w) for _, w in grid) <= 5e-16


@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_continuous_prefactor_against_mpmath(name):
    # the 1/prod Gamma(t_r t_s) part; (q;q)(p;p)/2 is the product form
    par = WEIGHT_CASES[name]
    qq = qpoch_infinite(par.q, par.q) * qpoch_infinite(par.p, par.p) / 2.0
    got = continuous_measure(par).prefactors[0] / qq
    with mp.workdps(40):
        ref = complex(1 / _mp_gamma_pairs(par))
    assert abs(got - ref) <= 1e-15 * abs(ref)


def _mp_theta(x, p):
    """theta(x;p) = (1 - x) prod_{k>=1} (1 - p^k x)(1 - p^k / x), cut where
    |p^k| max(|x|, 1/|x|) < 1e-45."""
    x, p = mp.mpmathify(x), mp.mpmathify(p)
    big = max(abs(x), 1 / abs(x))
    out = 1 - x
    pk = p
    while abs(pk) * big >= mp.mpf(10) ** -45:
        out *= (1 - pk * x) * (1 - pk / x)
        pk *= p
    return out


# At p = 0.9 and |x| near e^5 or e^-5, some 47 factors of theta exceed 1
# in modulus, each one mostly p^k (x + 1/x), and they share the rounding
# of p^k and of x + 1/x; the worst of 1000 such draws was 1.4e-14 (2.4e-14
# for the two-product form of the kernel).
THETA_BOUND = {0.01: 1e-14, 0.05: 1e-14, 0.2: 1e-14, 0.45: 1e-14, 0.9: 2e-14}


@pytest.mark.parametrize("p", sorted(THETA_BOUND))
def test_theta_against_mpmath(p):
    # |x| in [e^-5, e^5], away from the zeros p^m on the positive real axis
    rng = random.Random(int(100 * p))
    with mp.workdps(40):
        for _ in range(25):
            x = cmath.exp(rng.uniform(-5, 5) + 1j * rng.uniform(0.5, 2 * math.pi - 0.5))
            ref = _mp_theta(x, p)
            assert abs(theta(x, p) - ref) <= THETA_BOUND[p] * abs(ref)


def _mp_rtilde(n, z, par):
    """rtilde's series term by term at the working precision, each theta
    Pochhammer symbol from its own theta values: (value, sum of the moduli
    of the terms)."""
    t0, t1, t2, t3 = (mp.mpc(t) for t in par.t)
    u0, u1 = (mp.mpc(u) for u in par.u)
    q, p, z = mp.mpc(par.q), mp.mpc(par.p), mp.mpc(z)

    thetas = {}

    def symbol(args, k):
        for a in args:
            for r in range(k):
                if (a, r) not in thetas:
                    thetas[a, r] = _mp_theta(a * q**r, p)
        return mp.fprod(thetas[a, r] for a in args for r in range(k))

    nums = [t0 / u0, p * q**n / (u0 * u1), q ** (-n), t0 * z, t0 / z,
            q / (u0 * t1), q / (u0 * t2), q / (u0 * t3)]
    dens = [q, q ** (1 - n) * t0 * u1 / p, q ** (n + 1) * t0 / u0, q * z / u0,
            q / (u0 * z), t0 * t1, t0 * t2, t0 * t3]
    terms = [
        symbol([q * t0 / u0], 2 * k) / symbol([t0 / u0], 2 * k)
        * symbol(nums, k) / symbol(dens, k) * q**k
        for k in range(n + 1)
    ]
    return complex(mp.fsum(terms)), float(mp.fsum(abs(term) for term in terms))


def test_rtilde_against_mpmath():
    # at the point masses and off them, complex q, both u orders
    rng = random.Random(12)
    par, _ = random_discrete_draw(rng, N=4)
    points = [par.t[0] * par.q**3, 1.1 * cmath.exp(0.7j), 0.4 - 0.9j]
    with mp.workdps(40):
        for pr in (par, par.swapped_u()):
            for n in range(5):
                for z in points:
                    ref, gross = _mp_rtilde(n, z, pr)
                    assert abs(rtilde(n, z, pr) - ref) <= 1e-14 * gross


def test_elliptic_gamma_next_to_its_pole():
    # The input where Gamma(x)Gamma(pq/x) = 1 misses 1e-12: x is 1e-5 from
    # the pole x = 1, and pq/x as many from the zero pq/x = pq.  Gamma(x)
    # is accurate to 2.5e-15; Gamma(pq/x) to 5.5e-12, as the kernel forms
    # 1 - pq/(pq/x) from a rounded quotient, 1e-5 from cancelling.
    x, p, q = 0.99999, 0.25, 0.0546875
    with mp.workdps(40):
        for arg, bound in ((x, 1e-14), (p * q / x, 1e-11)):
            ref = complex(_mp_elliptic_gamma(arg, p, q))
            assert abs(elliptic_gamma(arg, p, q) - ref) <= bound * abs(ref)


def _mp_pastro_p(n, w, A, B, q):
    """p_n(w; A, B) as the q-binomial sum at the working precision,
    A^n / (AB/q;q)_n sum_k [n k]_q (A;q)_k (B/q;q)_(n-k) (w / q^(1/2))^k:
    (value, sum of the moduli of the terms)."""
    A, B, q, w = (mp.mpmathify(x) for x in (A, B, q, w))

    def poch(x, m):
        return mp.fprod(1 - x * q**j for j in range(m))

    head = A**n / poch(A * B / q, n)
    terms = [
        head * poch(q, n) / (poch(q, k) * poch(q, n - k))
        * poch(A, k) * poch(B / q, n - k) * (w / mp.sqrt(q)) ** k
        for k in range(n + 1)
    ]
    return complex(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def test_pastro_p_against_mpmath():
    # |A|, |B| < 0.85 q^(1/2), n <= 6, w on the unit circle.  Positive A,
    # B as the Pastro suite and the benchmark draw them, and B = q(1 +-
    # 1e-11) next to the removable singularity B = q, within 2e-15 of
    # max(1, |p_n|); complex A, B, whose terms may cancel, within 2e-15 of
    # max(1, sum of the moduli of the terms).
    rng = random.Random(26)
    cases = []
    for i in range(60):
        q = rng.uniform(0.3, 0.6)
        A, B = (rng.uniform(0, 0.85) * math.sqrt(q) for _ in range(2))
        cases.append((A, B, q, False))
        if i < 4:
            cases += [(A, q * (1 + h), q, False) for h in (1e-11, -1e-11)]
        A, B = (rng.uniform(0, 0.85) * math.sqrt(q) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(2))
        cases.append((A, B, q, True))
    with mp.workdps(40):
        for A, B, q, by_terms in cases:
            w = cmath.exp(2j * math.pi * rng.random())
            for n in range(7):
                ref, gross = _mp_pastro_p(n, w, A, B, q)
                scale = max(1.0, gross if by_terms else abs(ref))
                assert abs(pastro_p(n, w, A, B, q) - ref) <= 2e-15 * scale, (n, A, B, q)
