"""Elliptic biorthogonal functions and the two inner products."""

import cmath
import math
import random

import pytest

import ebiortho.biortho
from conftest import grid_weight
from ebiortho.biortho import (
    DiscreteSpec,
    EllipticParams,
    _mass_condition,
    continuous_inner_product,
    continuous_measure,
    discrete_inner_product,
    discrete_measure,
    elliptic_continuous_system,
    elliptic_discrete_system,
    gram_residuals,
    norm_formula,
    random_discrete_draw,
    rtilde,
    rtilde_family,
)
from ebiortho.errors import ContourError, DomainError, PoleError
from ebiortho.qkernel import (
    circle_gram,
    csum,
    elliptic_gamma,
    qpoch_infinite,
    theta,
)

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
        par, _ = random_discrete_draw(rng)
        for n in range(9):
            assert abs(rtilde(n, par.t[0], par) - 1.0) < 1e-10


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


def test_symmetry_residuals():
    rng = random.Random(1)
    for _ in range(3):
        par, _ = random_discrete_draw(rng)
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
    par, _ = random_discrete_draw(rng)
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
        par, _ = random_discrete_draw(rng)
        assert abs(discrete_inner_product(ONE, ONE, par, spec) - 1.0) < 1e-10


def test_discrete_biorthogonality_small():
    rng = random.Random(4)
    par, _ = random_discrete_draw(rng)
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


def _product_weight(par):
    """The weight as 14 elliptic-gamma products, valid off the circle too."""
    p, q = par.p, par.q

    def weight(z):
        val = 1.0 / (elliptic_gamma(z * z, p, q) * elliptic_gamma(1 / (z * z), p, q))
        for t in par.t + par.u:
            val *= elliptic_gamma(t * z, p, q) * elliptic_gamma(t / z, p, q)
        return val

    return weight


def _product_reference(f, g, par, quad):
    """continuous_inner_product in product form on the full circle."""
    p, q = par.p, par.q
    ts = par.t + par.u
    weight = _product_weight(par)
    pref = qpoch_infinite(q, q) * qpoch_infinite(p, p) / 2.0
    for r in range(6):
        for s in range(r + 1, 6):
            pref /= elliptic_gamma(ts[r] * ts[s], p, q)
    return pref * circle_gram([f], [g], quad, weight)[0][0]


def _unit(r, phi):
    return r * cmath.exp(1j * phi)


# p, q and |t0| in the ranges of the first benchmark stratum (|t0| = 0.93),
# and one with |t0| = 0.995, which the log series leaves to the product form
NEAR_CIRCLE = EllipticParams(
    (_unit(0.93, 0.4), _unit(0.6, -1.1), _unit(0.5, 2.0), _unit(0.7, 0.3)),
    (_unit(0.55, -0.7), None),
    _unit(0.11, -2.2),
    _unit(0.055, 0.9),
)
FALLBACK = EllipticParams((0.995, 0.5, 0.4, 0.3), (0.3, None), 0.1, 0.05)


@pytest.mark.parametrize(
    "par, f",
    [(NEAR_CIRCLE, lambda z: z**3 + 0.3 / z), (FALLBACK, ONE)],
    ids=["near-circle-nonsymmetric-f", "t0-0.995-fallback"],
)
def test_continuous_matches_product_reference(par, f):
    for quad in (512, 1024):
        got = continuous_inner_product(f, ONE, par, quad=quad)
        ref = _product_reference(f, ONE, par, quad)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_continuous_weight_matches_product_form():
    # |t0| = 0.995 keeps its factors in product form past the series cap
    for par in (FALLBACK, NEAR_CIRCLE):
        ref = _product_weight(par)
        grid = grid_weight(par, 512)
        # phi = 0.006, 0.9, 2.0 and pi - 0.006; node 511 - j is 1/z_j
        for j in (0, 73, 162, 255):
            z, w = grid[j]
            r = ref(z)
            assert abs(w - r) <= 1e-13 * abs(r)
            assert abs(grid[511 - j][1] - w) <= 1e-13 * abs(w)


def test_continuous_rtilde_block():
    # u0 q^-2 = 0.8: the unit circle stays admissible for degrees n, m <= 2
    par = EllipticParams((0.9, 0.89, 0.885, 0.88), (0.2, None), 0.5, 0.05)
    sw = par.swapped_u()
    M = continuous_measure(par).gram(
        [lambda z, n=n: rtilde(n, z, par) for n in range(3)],
        [lambda z, m=m: rtilde(m, z, sw) for m in range(3)],
        quad=512,
    )
    for n in range(3):
        h = norm_formula(n, par)
        for m in range(3):
            v = M[n][m]
            if n == m:
                assert abs(v - h) <= 1e-12 * abs(h)
            else:
                scale = (abs(h) * abs(norm_formula(m, par))) ** 0.5
                assert abs(v) <= 1e-12 * scale


def test_continuous_gram_equals_per_entry_inner_products():
    fs = [ONE, lambda z: z**3 + 0.3 / z, lambda z: rtilde(1, z, NEAR_CIRCLE)]
    gs = [ONE, lambda z: 1 + 0.2 * z * z]
    for par in (NEAR_CIRCLE, FALLBACK):
        M = continuous_measure(par).gram(fs, gs, quad=64)
        assert M == [
            [continuous_inner_product(f, g, par, quad=64) for g in gs] for f in fs
        ]


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
    par_d, _ = random_discrete_draw(rng, N=2, p=0.2, qmod=0.35)
    spec = DiscreteSpec(2)
    v_d = discrete_inner_product(ONE, ONE, par_d, spec)
    par_c = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    v_c = continuous_inner_product(ONE, ONE, par_c, quad=512)
    assert abs(v_d - v_c) < 1e-6


def test_rtilde_rejects_negative_degree():
    par = EllipticParams((0.7, 0.6, 0.5, 0.4), (0.3, None), 0.35, 0.05)
    with pytest.raises(DomainError):
        rtilde(-1, 1.0, par)


# ---------------------------------------------------------------------------
# Theta Pochhammer products from shared theta lists: cost and values
#
# The references rebuild every symbol per term from theta alone, in
# another multiplication order, so they agree with the library to
# rounding: each check is |value - reference| <= 1e-14 sum_k |term_k|.


def _theta_qp(x, q, p, k):
    """theta(x;q;p)_k rebuilt from theta alone: prod_{r<k} theta(x q^r; p)."""
    out = 1.0 + 0.0j
    xq = complex(x)
    for _ in range(k):
        out *= theta(xq, p)
        xq *= q
    return out


def _theta_prod(args, q, p, k):
    out = 1.0 + 0.0j
    for a in args:
        out *= _theta_qp(a, q, p, k)
    return out


def _within_rounding(value, reference):
    """reference = (sum of the terms, sum of their moduli)."""
    ref, gross = reference
    return abs(value - ref) <= 1e-14 * gross


def _rtilde_reference(n, z, params):
    """rtilde with every symbol rebuilt per term, 10n(n+1) theta calls:
    (value, sum of the moduli of the terms)."""
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    terms = []
    for k in range(n + 1):
        head = _theta_qp(q * t0 / u0, q, p, 2 * k) / _theta_qp(
            t0 / u0, q, p, 2 * k
        )
        num = _theta_prod(
            [t0 / u0, p * q**n / (u0 * u1), q ** (-n), t0 * z, t0 / z,
             q / (u0 * t1), q / (u0 * t2), q / (u0 * t3)],
            q, p, k,
        )
        den = _theta_prod(
            [q, q ** (1 - n) * t0 * u1 / p, q ** (n + 1) * t0 / u0, q * z / u0,
             q / (u0 * z), t0 * t1, t0 * t2, t0 * t3],
            q, p, k,
        )
        terms.append(head * num / den * q**k)
    return csum(terms), sum(abs(term) for term in terms)


def _discrete_reference(f, g, params, spec):
    """discrete_inner_product with every symbol rebuilt per point mass:
    (value, sum of the moduli of the terms)."""
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    N = spec.N
    closing = _theta_prod(
        [q * t0 / u0, t1 * t2, t1 * t3, t1 * u1 / p], q, p, N
    ) / _theta_prod([t1 / t0, q / (u0 * t2), q / (u0 * t3), p * q / (u0 * u1)], q, p, N)
    terms = []
    for k in range(N + 1):
        zk = t0 * q**k
        head = _theta_qp(q * t0 * t0, q, p, 2 * k) / _theta_qp(
            t0 * t0, q, p, 2 * k
        )
        num = _theta_prod(
            [t0 * t0, t0 * t1, t0 * t2, t0 * t3, t0 * u0, t0 * u1 / p], q, p, k
        )
        den = _theta_prod(
            [q, q * t0 / t1, q * t0 / t2, q * t0 / t3, q * t0 / u0, p * q * t0 / u1],
            q, p, k,
        )
        terms.append(f(zk) * g(zk) * head * num / den * q**k)
    return csum(terms) * closing, sum(abs(term) for term in terms) * abs(closing)


def _norm_reference(n, params):
    """norm_formula with every symbol built for term n alone."""
    t0, t1, t2, t3 = params.t
    u0, u1 = params.u
    q, p = params.q, params.p
    head = _theta_qp(p / (u0 * u1), q, p, 2 * n) / _theta_qp(
        p * q / (u0 * u1), q, p, 2 * n
    )
    num = _theta_prod(
        [q, t2 * t3, t1 * t2, t1 * t3, q * t0 / u0, p * q * t0 / u1], q, p, n
    )
    den = _theta_prod(
        [p / (u0 * u1), t0 * t1, t0 * t3, t0 * t2, p / (t0 * u1), 1 / (t0 * u0)],
        q, p, n,
    )
    return head * num / den * q ** (-n)


@pytest.fixture
def theta_passes(monkeypatch):
    """The number of theta values of each theta_ladders pass of biortho."""
    passes = []
    real = ebiortho.biortho.theta_ladders

    def counted(ladders, q, p):
        passes.append(sum(m for _, m in ladders))
        return real(ladders, q, p)

    monkeypatch.setattr(ebiortho.biortho, "theta_ladders", counted)
    return passes


def test_rtilde_makes_15n_theta_calls(theta_passes):
    # 11n z-free: the ladders theta(t0 q^j / u0; p), j <= 2n, and
    # theta(q^j; p), j <= n, and eight symbols; 4n z-dependent
    par, _ = random_discrete_draw(random.Random(6))
    for n in range(7):
        theta_passes.clear()
        rtilde(n, 1.1 * cmath.exp(0.4j), par)
        assert theta_passes == ([11 * n, 4 * n] if n else [])


def test_rtilde_family_makes_11n_once_then_4n_per_point(theta_passes):
    par, _ = random_discrete_draw(random.Random(6))
    for n in range(1, 7):
        theta_passes.clear()
        family = rtilde_family(n, par)
        assert theta_passes == [11 * n]
        for z in (1.1 * cmath.exp(0.4j), 0.7 - 0.2j, -1.3):
            family(z)
        assert theta_passes == [11 * n] + [4 * n] * 3


def test_rtilde_family_equals_rtilde():
    rng = random.Random(12)
    for N in (1, 4):
        par, _ = random_discrete_draw(rng, N=N, p=rng.choice([0.05, 0.2]))
        points = [par.t[0] * par.q**k for k in range(N + 1)] + [1.1 * cmath.exp(0.4j), -0.3 + 2j]
        for pr in (par, par.swapped_u()):
            for n in range(N + 1):
                family = rtilde_family(n, pr)
                assert [family(z) for z in points] == [rtilde(n, z, pr) for z in points]
                with pytest.raises(DomainError):
                    family(0)


def test_theta_series_values_are_pinned():
    # repr of rtilde, norm_formula and the point masses before they were
    # built from shared theta passes; every value must stay equal to them
    q = 0.4 * cmath.exp(1.1j)
    t0 = 0.8 * cmath.exp(0.3j)
    par = EllipticParams((t0, q**-2 / t0, 0.3 * cmath.exp(2j), 0.35 * cmath.exp(-1j)),
                         (0.45 * cmath.exp(0.5j), None), q, 0.05)
    z = 1.1 * cmath.exp(0.4j)
    assert [repr(rtilde(n, z, par)) for n in range(3)] == [
        "(1+0j)", "(0.8094836109001627-0.5690732380450256j)",
        "(0.680120511225768-0.9163108178668484j)"]
    assert [repr(rtilde(n, z, par.swapped_u())) for n in range(3)] == [
        "(1+0j)", "(0.9725960794494253+0.05328803334701104j)",
        "(1.8128850907499743-0.256375436853585j)"]
    assert [repr(norm_formula(n, par)) for n in range(3)] == [
        "(1+0j)", "(-0.26198353728784235+0.06389774177816528j)",
        "(0.9580577244490456+0.5106760147978013j)"]
    masses = discrete_measure(par, DiscreteSpec(2))
    assert repr(masses.prefactors[0]) == "(-0.3634320297170952+0.26639226896958534j)"
    assert [repr(masses.weight(0, k)) for k in range(3)] == [
        "(1+0j)", "(-2.987503500434016+7.086820717074381j)",
        "(0.1976183484084073-8.398789745269932j)"]


@pytest.mark.parametrize(
    "t, q, p",
    [((0.5, 0.6, 0.7, 0.8), 0.35, 0.05),
     ((0.5, 0.6, 0.75, 0.8), 0.35, 0.05),
     ((0.6, 0.45, 0.7, 0.3), 0.4, 0.1)],
)
def test_rtilde_at_t0_equals_u0_is_the_limit(t, q, p):
    # theta(t0/u0;q;p)_2k in the head ratio vanishes at u0 = t0, and the
    # numerator theta(t0/u0;q;p)_k cancels it
    at = EllipticParams(t, (t[0], None), q, p)
    near = EllipticParams(t, (t[0] * (1 + 1e-10), None), q, p)
    for n in range(4):
        for z in (0.9, 1.3 + 0.2j):
            assert abs(rtilde(n, z, at) - rtilde(n, z, near)) < 1e-8


def test_norm_formula_makes_12n_theta_calls(theta_passes):
    par, _ = random_discrete_draw(random.Random(6))
    for n in range(7):
        theta_passes.clear()
        norm_formula(n, par)
        assert theta_passes == [12 * n]


def test_discrete_makes_20N_theta_calls(theta_passes):
    # 13N for the masses, 7N for the closing factor, which shares its
    # theta(q t0 / u0;q;p)_N with the masses
    rng = random.Random(7)
    for N in range(1, 7):
        par, _ = random_discrete_draw(rng, N=N)
        theta_passes.clear()
        discrete_inner_product(ONE, ONE, par, DiscreteSpec(N))
        assert theta_passes == [20 * N]


def test_running_products_equal_the_per_term_reference():
    rng = random.Random(8)
    f = lambda z: z**3 + 0.3 / z
    g = lambda z: 1 + 0.2 * z * z
    for N in (2, 5):
        spec = DiscreteSpec(N)
        for _ in range(3):
            par, _ = random_discrete_draw(rng, N=N)
            assert par.q.imag != 0
            sw = par.swapped_u()
            points = [par.t[0] * par.q**k for k in range(N + 1)]
            off = [1.1 * cmath.exp(2j * math.pi * rng.random()), 0.4 - 0.9j]
            for n in range(N + 1):
                for z in points[:3] + off:
                    for pr in (par, sw):
                        assert _within_rounding(
                            rtilde(n, z, pr), _rtilde_reference(n, z, pr)
                        )
            assert _within_rounding(
                discrete_inner_product(f, g, par, spec),
                _discrete_reference(f, g, par, spec),
            )
            for n in range(3):
                fn = lambda z, n=n: rtilde(n, z, par)
                gm = lambda z, n=n: rtilde(2 - n, z, sw)
                assert _within_rounding(
                    discrete_inner_product(fn, gm, par, spec),
                    _discrete_reference(fn, gm, par, spec),
                )


def test_norm_formula_equals_the_per_term_reference():
    rng = random.Random(11)
    for N in (1, 3, 6):
        for _ in range(3):
            par, _ = random_discrete_draw(rng, N=N, p=rng.choice([0.05, 0.2]))
            for pr in (par, par.swapped_u()):
                for n in range(N + 1):
                    ref = _norm_reference(n, pr)
                    assert _within_rounding(norm_formula(n, pr), (ref, abs(ref)))


def test_discrete_gram_equals_per_entry_inner_products():
    rng = random.Random(10)
    for N in (1, 3, 5):
        spec = DiscreteSpec(N)
        par, _ = random_discrete_draw(rng, N=N)
        sw = par.swapped_u()
        fs = [lambda z, n=n: rtilde(n, z, par) for n in range(min(N, 4) + 1)]
        gs = [lambda z, m=m: rtilde(m, z, sw) for m in range(min(N, 4) + 1)]
        gs.append(lambda z: z**3 + 0.3 / z)
        M = discrete_measure(par, spec).gram(fs, gs)
        assert M == [
            [discrete_inner_product(f, g, par, spec) for g in gs] for f in fs
        ]
        for row, f in zip(M, fs):
            for entry, g in zip(row, gs):
                assert _within_rounding(entry, _discrete_reference(f, g, par, spec))


def test_norm_formula_where_pq_equals_u0u1():
    # t0 t1 t2 t3 = 1: the head theta(x;q;p)_2n / theta(qx;q;p)_2n has
    # theta(1;p) = 0 in its denominator, x = p/(u0 u1) = 1/q.  At n = 1 it
    # cancels against theta(x;q;p)_1 and the norm is finite; from n = 2 on
    # theta(x;q;p)_n holds theta(1;p) itself, a pole.
    t = (0.8, 0.5, 2.5, 1.0)
    par = EllipticParams(t, (0.3, None), 0.35, 0.05)
    assert par.p * par.q / (par.u[0] * par.u[1]) == 1
    near = EllipticParams((0.8, 0.5, 2.5 * (1 + 1e-9), 1.0), (0.3, None), 0.35, 0.05)
    assert abs(norm_formula(1, par) - norm_formula(1, near)) < 1e-7
    with pytest.raises(PoleError):
        norm_formula(2, par)


def test_norm_formula_pole_at_t0t1_equal_to_one():
    # theta(t0 t1;q;p)_1 = theta(1; p) = 0 at t1 = 1/t0 is a true pole:
    # |h_1| grows like 0.8/eps, 100 times per two decades of eps
    def h1(eps):
        par = EllipticParams((2.0, 0.5 * (1 + eps), 0.9, 0.8), (0.3, None), 0.35, 0.05)
        return abs(norm_formula(1, par))

    assert abs(h1(1e-7) / h1(1e-5) - 100) <= 1.0
    with pytest.raises(PoleError):
        h1(0)


def test_mass_condition_equals_indicator_sums():
    # the formula that took N + 2 discrete_inner_product calls
    rng = random.Random(9)
    for N in (1, 3, 5):
        spec = DiscreteSpec(N)
        for _ in range(3):
            par, _ = random_discrete_draw(rng, N=N)
            total = discrete_inner_product(ONE, ONE, par, spec)
            gross = 0.0
            for k in range(N + 1):
                zk = par.t[0] * par.q**k
                ind = lambda z, zk=zk: 1.0 if abs(z - zk) < 1e-9 else 0.0
                gross += abs(discrete_inner_product(ind, ONE, par, spec))
            masses = discrete_measure(par, spec)
            assert _mass_condition(par, masses) == gross / max(abs(total), 1e-300)


def test_vanishing_theta_factors_raise_pole_error():
    # theta(1; p) = 0 exactly: t0 t1 = 1 in an rtilde denominator factor
    par = EllipticParams((0.5, 2.0, 0.6, 0.7), (0.3, None), 0.35, 0.05)
    assert rtilde(0, 0.9, par) == 1.0
    with pytest.raises(PoleError):
        rtilde(1, 0.9, par)
    # q t0 / t2 = 1 in a point-mass denominator, at t0 t1 = q^-1
    par = EllipticParams((0.5, 8.0, 0.125, 0.7), (0.3, None), 0.25, 0.05)
    with pytest.raises(PoleError):
        discrete_inner_product(ONE, ONE, par, DiscreteSpec(1))
    # q / (u0 t2) = 1 in the closing factor
    par = EllipticParams((0.5, 8.0, 0.5, 0.7), (0.5, None), 0.25, 0.05)
    with pytest.raises(PoleError):
        discrete_inner_product(ONE, ONE, par, DiscreteSpec(1))


# ---------------------------------------------------------------------------
# The biorthogonal-system record and its one residual rule


def test_gram_residuals_on_a_hand_built_matrix():
    # sqrt|h_0 h_1| = 4 scales both off-diagonals; the diagonals are
    # relative to |h_n|, whatever the sign or phase of h_n
    M = [[-2.0, 0.5], [-1j, 9.0]]
    assert gram_residuals(M, [-2.0, 8.0 + 0j]) == (0.25, 0.125)


def test_gram_residuals_of_a_1x1_matrix_has_no_off_diagonal():
    assert gram_residuals([[3.0]], [2.0]) == (0.0, 0.5)


@pytest.mark.parametrize("bad", [0.0, 0j, math.nan, math.inf, complex(1, math.nan)])
def test_gram_residuals_reject_a_zero_or_non_finite_norm(bad):
    with pytest.raises(DomainError):
        gram_residuals([[1.0, 0.0], [0.0, 1.0]], [1.0, bad])


def test_gram_residuals_reject_an_empty_matrix():
    with pytest.raises(DomainError):
        gram_residuals([], [])


def test_discrete_system_residuals_are_the_scaled_loop():
    # the loop of test_elliptic_biorthogonality_matrix_10_seeds, seed 100
    spec = DiscreteSpec(5)
    par, _ = random_discrete_draw(random.Random(100), N=5, p=0.05, qmod=0.4)
    sw = par.swapped_u()
    h = [norm_formula(n, par) for n in range(5)]
    off = diag = 0.0
    for n in range(5):
        for m in range(5):
            v = discrete_inner_product(
                lambda z: rtilde(n, z, par), lambda z: rtilde(m, z, sw), par, spec
            )
            if n == m:
                diag = max(diag, abs(v - h[n]) / abs(h[n]))
            else:
                off = max(off, abs(v) / abs(h[n] * h[m]) ** 0.5)
    system = elliptic_discrete_system(par, discrete_measure(par, spec))
    assert system.residuals(4) == (off, diag)


def test_degree_bound_redraws_what_rounding_alone_would_fail():
    # the draws of `verify elliptic-discrete --seed 58`: after its 20
    # <1,1> draws, a draw bounded at degree 0 only has <R_n, S_n>
    # cancelling by about 1.9e7 at n = 4
    rng = random.Random(58)
    for _ in range(20):
        random_discrete_draw(rng, N=5)
    state = rng.getstate()
    loose, masses = random_discrete_draw(rng, N=5)
    assert _mass_condition(loose, masses) <= 1e4 < _mass_condition(loose, masses, 4)
    rng.setstate(state)
    par, masses = random_discrete_draw(rng, N=5, degree=4)
    assert par != loose
    assert _mass_condition(par, masses, 4) <= 1e4
    off, diag = elliptic_discrete_system(par, masses).residuals(4)
    assert max(off, diag) < 1e-11


def test_continuous_system_contour_rule_at_the_unity_parameters():
    # u0 q^-1 = 2.3 and u1 q^-1 = 1.7: only degree 0 pairs on the circle
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    system = elliptic_continuous_system(par, quad=512)
    assert system.R(0)(0.3 + 0.9j) == rtilde(0, 0.3 + 0.9j, par)
    for n in range(1, 4):
        for family in (system.R, system.S):
            with pytest.raises(ContourError):
                family(n)
    off, diag = system.residuals(0)
    assert off == 0.0 and diag < 1e-15
    with pytest.raises(ContourError):
        elliptic_continuous_system(par, quad=16).residuals(1)


def test_continuous_system_contour_rule_at_the_row_parameters():
    # u0 q^-2 = 0.8 < 1 <= u0 q^-3 = 1.6, and u1 = 0.2004
    par = EllipticParams((0.9, 0.89, 0.885, 0.88), (0.2, None), 0.5, 0.05)
    system = elliptic_continuous_system(par, quad=16)
    z = 0.6 - 0.8j
    for n in range(3):
        assert system.R(n)(z) == rtilde(n, z, par)
        assert system.S(n)(z) == rtilde(n, z, par.swapped_u())
    for family in (system.R, system.S):
        with pytest.raises(ContourError):
            family(3)
    with pytest.raises(ContourError):
        system.residuals(3)
