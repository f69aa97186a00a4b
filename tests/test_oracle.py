"""Checks against an independent 40-digit mpmath evaluation.

mpmath is an optional test dependency (the `test` extra); without it the
module is skipped.
"""

import cmath

import pytest

from ebiortho.biortho import EllipticParams, continuous_prefactor, continuous_weight
from conftest import grid_weight
from ebiortho.qkernel import grid_log_series, qpoch_infinite

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


def _mp_gamma_pairs(par):
    """prod_{r<s} Gamma(t_r t_s) from the double products, cut as in
    _mp_weight."""
    p, q = mp.mpc(par.p), mp.mpc(par.q)
    ts = [mp.mpc(t) for t in par.t + par.u]
    xs = [ts[r] * ts[s] for r in range(6) for s in range(r + 1, 6)]
    eps = mp.mpf(10) ** -22
    num = den = mp.mpf(1)
    pi = mp.mpf(1)
    while abs(pi) > eps:
        pij = pi
        while abs(pij) > eps:
            for x in xs:
                num *= 1 - pij * p * q / x
                den *= 1 - pij * x
            pij *= q
        pi *= p
    return num / den


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
    (pos, neg), _ = continuous_weight(par)
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
    got = continuous_prefactor(par) / qq
    with mp.workdps(40):
        ref = complex(1 / _mp_gamma_pairs(par))
    assert abs(got - ref) <= 1e-15 * abs(ref)
