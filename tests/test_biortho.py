"""Elliptic biorthogonal functions and the two inner products."""

import cmath
import math
import random

import pytest

from ebiortho.biortho import (
    DiscreteSpec,
    EllipticParams,
    check_symmetries,
    continuous_inner_product,
    discrete_inner_product,
    norm_formula,
    random_discrete_params,
    rtilde,
)
from ebiortho.errors import ContourError, DomainError

ONE = lambda z: 1.0


def test_params_balancing_solved_and_checked():
    par = EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 0.05)
    prod = 1.0
    for x in par.t + par.u:
        prod *= x
    assert abs(prod - par.p * par.q) < 1e-14
    with pytest.raises(DomainError):
        EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, 0.3), 0.35, 0.05)
    with pytest.raises(DomainError):
        EllipticParams((0.7, 0.6, 0.5), (0.3, None), 0.35, 0.05)
    with pytest.raises(DomainError):
        EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 1.5)


def test_swapped_u():
    par = EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 0.05)
    sw = par.swapped_u()
    assert sw.u == (par.u[1], par.u[0])
    assert sw.t == par.t


def test_discrete_spec_validation():
    par = EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 0.05)
    with pytest.raises(DomainError):
        DiscreteSpec(-1).validate(par)
    with pytest.raises(DomainError):
        DiscreteSpec(2).validate(par)  # t0 t1 != q^-2


def test_normalization_at_t0():
    rng = random.Random(0)
    for _ in range(3):
        par = random_discrete_params(rng)
        for n in range(9):
            assert abs(rtilde(n, par.t[0], par) - 1.0) < 1e-10


def test_symmetry_residuals():
    rng = random.Random(1)
    for _ in range(3):
        par = random_discrete_params(rng)
        z = 1.1 * cmath.exp(2j * math.pi * rng.random())
        res = check_symmetries(2, z, par)
        assert set(res) == {
            "t_ellipticity",
            "u_ellipticity",
            "half_shift",
            "q_inversion",
            "z_p_shift",
            "z_inversion",
        }
        for name, r in res.items():
            assert r < 1e-9, (name, r)


def test_t_permutation_covariance():
    # swapping t1 and t2 changes rtilde only by a z-independent factor
    rng = random.Random(2)
    par = random_discrete_params(rng)
    t = par.t
    par2 = EllipticParams((t[0], t[2], t[1], t[3]), par.u, par.q, par.p)
    z1 = 1.07 * cmath.exp(0.53j)
    z2 = 0.93 * cmath.exp(2.11j)
    for n in (1, 2, 3):
        r1 = rtilde(n, z1, par) / rtilde(n, z1, par2)
        r2 = rtilde(n, z2, par) / rtilde(n, z2, par2)
        assert abs(r1 - r2) < 1e-9 * max(abs(r1), 1.0)


def test_discrete_unity():
    rng = random.Random(3)
    spec = DiscreteSpec(5)
    for _ in range(5):
        par = random_discrete_params(rng)
        assert abs(discrete_inner_product(ONE, ONE, par, spec) - 1.0) < 1e-10


def test_discrete_biorthogonality_small():
    rng = random.Random(4)
    par = random_discrete_params(rng)
    sw = par.swapped_u()
    spec = DiscreteSpec(5)
    for n in range(3):
        for m in range(3):
            v = discrete_inner_product(
                lambda z, n=n: rtilde(n, z, par),
                lambda z, m=m: rtilde(m, z, sw),
                par,
                spec,
            )
            if n == m:
                h = norm_formula(n, par)
                assert abs(v - h) < 1e-9 * abs(h)
            else:
                assert abs(v) < 1e-9


def test_continuous_unity_and_node_doubling():
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    full = continuous_inner_product(ONE, ONE, par, quad=512)
    assert abs(full - 1.0) < 1e-6
    double = continuous_inner_product(ONE, ONE, par, quad=1024)
    assert abs(double - full) < 1e-8


def test_continuous_contour_guard():
    par = EllipticParams((1.2, 0.4, 0.5, 0.6), (0.3, None), 0.3, 0.1)
    with pytest.raises(ContourError):
        continuous_inner_product(ONE, ONE, par, quad=64)
    good = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    with pytest.raises(DomainError):
        continuous_inner_product(ONE, ONE, good, quad=7)


def test_discrete_continuous_consistency():
    # both normalizations hold at nearby generic parameters
    rng = random.Random(5)
    par_d = random_discrete_params(rng, N=2, p=0.2, qmod=0.35)
    spec = DiscreteSpec(2)
    v_d = discrete_inner_product(ONE, ONE, par_d, spec)
    par_c = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    v_c = continuous_inner_product(ONE, ONE, par_c, quad=512)
    assert abs(v_d - v_c) < 1e-6


def test_rtilde_rejects_negative_degree():
    par = EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 0.05)
    with pytest.raises(DomainError):
        rtilde(-1, 1.0, par)
