"""Acceptance gate: end-to-end numeric and combinatorial checks.

Each test pins one acceptance criterion with frozen parameter choices.
Tests marked xfail state a literal criterion that the underlying
mathematics does not satisfy; each has a passing companion test of the
sharp statement next to it.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_P0_point, random_P_vector
from ebiortho.biortho import (
    DiscreteSpec,
    EllipticParams,
    continuous_inner_product,
    discrete_inner_product,
    norm_formula,
    random_discrete_draw,
    rtilde,
)
from ebiortho.exponents import norm_valuation, rtilde_valuation, valuation_deficit
from ebiortho.limits import (
    aw_phi43,
    finite_measure,
    limit_target,
    limit_value,
    numeric_limit,
    pastro_inner_product,
    pastro_p,
    pastro_q,
    pastro_system,
    richardson,
)
from ebiortho.polytope import (
    attach_zeta,
    face_of,
    is_z_dependent,
    reduce_to_P,
)
from ebiortho.qkernel import elliptic_gamma, qpoch_finite, qpoch_infinite, theta
from ebiortho.scheme import (
    askey_subscheme,
    build_scheme,
    check_appendix,
    check_askey,
)

ONE = lambda z: 1.0
H = Fraction(1, 2)


# ---------------------------------------------------------------------------
# 1. discrete normalization <1,1> = 1


def test_discrete_unity_20_draws():
    spec = DiscreteSpec(5)
    rng = random.Random(2)
    for _ in range(20):
        start = time.time()
        par, _ = random_discrete_draw(rng, N=5, p=0.05, qmod=0.4)
        err = abs(discrete_inner_product(ONE, ONE, par, spec) - 1.0)
        assert err < 1e-9
        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 2. elliptic biorthogonality matrix


def test_elliptic_biorthogonality_matrix_10_seeds():
    spec = DiscreteSpec(5)
    for seed in range(10):
        rng = random.Random(100 + seed)
        par, _ = random_discrete_draw(rng, N=5, p=0.05, qmod=0.4)
        sw = par.swapped_u()
        for n in range(5):
            for m in range(5):
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
                    scale = (
                        abs(norm_formula(n, par)) * abs(norm_formula(m, par))
                    ) ** 0.5
                    assert abs(v) < 1e-9 * scale


# ---------------------------------------------------------------------------
# 3. continuous normalization <1,1> = 1


def test_continuous_unity_and_doubling():
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    assert all(abs(x) <= 0.8 for x in par.t + par.u)
    assert abs(par.p) <= 0.3 and abs(par.q) <= 0.3
    full = continuous_inner_product(ONE, ONE, par, quad=512)
    assert abs(full - 1.0) < 1e-6
    double = continuous_inner_product(ONE, ONE, par, quad=1024)
    assert abs(double - full) < 1e-8


# ---------------------------------------------------------------------------
# 4. Pastro suite


def test_pastro_matrix_and_b_eq_q():
    A, B, q = 0.55, 0.4, 0.45
    for n in range(6):
        for m in range(6):
            v = pastro_inner_product(
                lambda w, n=n: pastro_p(n, w, A, B, q),
                lambda w, m=m: pastro_q(m, w, A, B, q),
                A,
                B,
                q,
            )
            if n == m:
                h = (A * B / q) ** n * qpoch_finite(q, q, n) / qpoch_finite(
                    A * B / q, q, n
                )
                assert abs(v - h) < 1e-8
            else:
                assert abs(v) < 1e-8
    # at B = q the p_n are monomials, still biorthogonal to the q_m
    off, diag = pastro_system(A, q, q).residuals(6)
    assert max(off, diag) < 1e-13


# ---------------------------------------------------------------------------
# 5. valuation law by numeric log-slope


def _scaled_log_means(v, rng, n, draws, ps):
    # geometric mean over randomized constant prefactors: with uniformly
    # random phases the O(sqrt(p)) corrections average out of log|X|
    a = v.a6
    zeta = float(v.zeta)
    logs_r = {p: 0.0 for p in ps}
    logs_h = {p: 0.0 for p in ps}
    for _ in range(draws):
        unit = lambda: cmath.exp(2j * math.pi * rng.random())
        q = 0.4 * unit()
        T = [rng.uniform(0.95, 1.05) * unit() for _ in range(4)]
        U0 = rng.uniform(0.95, 1.05) * unit()
        U1 = q / (T[0] * T[1] * T[2] * T[3] * U0)
        Z = unit()
        for p in ps:
            t = tuple(T[r] * p ** float(a[r]) for r in range(4))
            u = (U0 * p ** float(a[4]), U1 * p ** float(a[5]))
            par = EllipticParams(t, u, q, p)
            logs_r[p] += math.log(abs(rtilde(n, Z * p**zeta, par))) / draws
            logs_h[p] += math.log(abs(norm_formula(n, par))) / draws
    return logs_r, logs_h


def test_valuation_log_slopes():
    rng = random.Random(11)
    p1, p2 = 1e-3, 1e-4
    dlp = math.log(p1) - math.log(p2)
    for _ in range(10):
        v = random_P_vector(rng, den=2)
        for n in (1, 2):
            lr, lh = _scaled_log_means(v, rng, n, 48, (p1, p2))
            slope_r = (lr[p1] - lr[p2]) / dlp
            slope_h = (lh[p1] - lh[p2]) / dlp
            assert abs(slope_r - float(rtilde_valuation(v, n))) < 0.05
            assert abs(slope_h - float(norm_valuation(v, n))) < 0.05


# ---------------------------------------------------------------------------
# 6. deficit law


def test_deficit_nonnegative_1000_points():
    rng = random.Random(7)
    for _ in range(1000):
        a = random_P0_point(rng, den=rng.choice([2, 3, 4, 5, 6, 8, 12]))
        assert valuation_deficit(attach_zeta(a)) >= 0


def _tile_samples(per_tile=4, n_other=8):
    """Seeded P^(0) points in the relative interior of each P_II,t, on its
    boundary, and in no P_II,t, read off the face_of signatures."""
    rng = random.Random(6)
    interior = {t: [] for t in range(6)}
    boundary = {t: [] for t in range(6)}
    other = []
    while (
        any(len(s) < per_tile for s in interior.values())
        or any(len(s) < per_tile for s in boundary.values())
        or len(other) < n_other
    ):
        a = random_P0_point(rng, den=rng.choice([2, 3, 4, 6, 8]))
        pii = [s for s in face_of(a) if s.tile.kind == "II"]
        for sig in pii:
            bucket = boundary if sig.tight else interior
            if len(bucket[sig.tile.indices[0]]) < per_tile:
                bucket[sig.tile.indices[0]].append(a)
        if not pii and len(other) < n_other:
            other.append(a)
    return interior, boundary, other


def test_deficit_zero_on_boundaries_and_other_tiles():
    interior, boundary, other = _tile_samples()
    for t in range(6):
        for a in boundary[t]:
            assert valuation_deficit(attach_zeta(a)) == 0
    for a in other:
        assert valuation_deficit(attach_zeta(a)) == 0
    for t in range(4):
        for a in interior[t]:
            assert valuation_deficit(attach_zeta(a)) > 0


@pytest.mark.xfail(
    reason="the deficit vanishes identically inside the two gamma-slot tiles; "
    "there the exceptional behaviour is loss of z-dependence instead",
    strict=True,
)
def test_deficit_positive_in_gamma_tile_interiors():
    interior, _, _ = _tile_samples()
    for t in (4, 5):
        for a in interior[t]:
            assert valuation_deficit(attach_zeta(a)) > 0


def test_gamma_tile_interiors_lose_z_dependence():
    # sharp version of the previous statement: in the gamma-slot tiles the
    # deficit is zero and at least one member of the biorthogonal pair
    # degenerates to a z-independent function
    interior, _, _ = _tile_samples()
    for t in (4, 5):
        for a in interior[t]:
            v = attach_zeta(a)
            assert valuation_deficit(v) == 0
            swapped = a[:4] + (a[5], a[4])
            _, red = reduce_to_P(attach_zeta(swapped))
            assert not (is_z_dependent(v) and is_z_dependent(red))


# ---------------------------------------------------------------------------
# 7. limit convergence


@pytest.mark.xfail(
    reason="the circle-family limit converges like the fourth root of p, so "
    "one decade in p gains well under a factor of ten",
    strict=True,
)
def test_circle_limit_error_decade_rate():
    for n in range(1, 5):
        tgt = limit_target("1111pp", n)
        e2 = abs(limit_value("1111pp", n, 1e-2) - tgt) / abs(tgt)
        e3 = abs(limit_value("1111pp", n, 1e-3) - tgt) / abs(tgt)
        assert e2 >= 10 * e3


def test_circle_limit_extrapolated():
    # sharp version: the fourth-root error ladder extrapolates cleanly
    ladder = [10 ** (-2 - 0.5 * i) for i in range(7)]
    for n in range(1, 5):
        tgt = limit_target("1111pp", n)
        vals = [limit_value("1111pp", n, p) for p in ladder]
        ex = abs(richardson(vals, ladder, 0.25) - tgt) / abs(tgt)
        assert ex < 1e-2


def test_aw_limit_matches_phi43():
    from ebiortho.exponents import ExponentVector

    q, T, Z = 0.65, (2.0, 1.3, 3.1, 1.0), 1.3
    U0 = 0.4
    U1 = q / (T[0] * T[1] * T[2] * T[3] * U0)
    target = {n: aw_phi43(n, Z, T, (U0, U1), q) for n in (1, 2)}
    v = ExponentVector((0, 0, 0, 0), (H, H), 0)
    ps = [10 ** (-2.5 - 0.5 * i) for i in range(6)]
    for n in (1, 2):
        lim, _ = numeric_limit(lambda p, n=n: limit_value("40as", n, p), v, ps)
        assert abs(lim - target[n]) < 1e-4 * abs(target[n])


# ---------------------------------------------------------------------------
# 8. finite-limit weights


def _ell_weights(alpha, t6, N, q, p):
    # point masses of the discrete elliptic measure at the p-scaled
    # parameters, extracted with indicator test functions
    t = tuple(t6[r] * p ** float(alpha[r]) for r in range(4))
    u = (t6[4] * p ** float(alpha[4]), t6[5] * p ** float(alpha[5]))
    par = EllipticParams(t, u, q, p)
    spec = DiscreteSpec(N)
    out = []
    for k in range(N + 1):
        zk = t[0] * q**k
        ind = lambda z, zk=zk: 1.0 if abs(z - zk) < 1e-9 * abs(zk) else 0.0
        out.append(discrete_inner_product(ind, ONE, par, spec))
    return out


def _branch_constants():
    q, N = 0.25, 1
    t0, t2, t3, t4 = 0.7, 0.25, 0.3, 0.6
    t1 = q ** (-N) / t0
    t5 = q ** (N + 1) / (t2 * t3 * t4)
    return q, N, (t0, t1, t2, t3, t4, t5)


def test_finite_weights_integer_branch():
    q, N = 0.3, 1
    t0, t2, t3, t4 = 0.9, 0.3, 0.4, 0.35
    t1 = q ** (-N) / t0
    t5 = q ** (N + 1) / (t2 * t3 * t4)
    t6 = (t0, t1, t2, t3, t4, t5)
    alpha = (0, 0, 1, 0, 0, 0)
    w = _ell_weights(alpha, t6, N, q, 1e-4)
    m = finite_measure(alpha, t6, N, q)
    for k in range(N + 1):
        assert abs(w[k] - m.weight(0, k)) < 1e-5


@pytest.mark.xfail(
    reason="for half-integer exponents the scaled weights carry a "
    "sqrt(p) correction, about 5e-4 at p = 1e-4",
    strict=True,
)
def test_finite_weights_half_integer_branch_raw():
    q, N, t6 = _branch_constants()
    alpha = (-H, H, 0, 0, H, H)
    w = _ell_weights(alpha, t6, N, q, 1e-4)
    m = finite_measure(alpha, t6, N, q)
    for k in range(N + 1):
        assert abs(w[k] - m.weight(0, k)) < 1e-5


def test_finite_weights_half_integer_branch_extrapolated():
    q, N, t6 = _branch_constants()
    alpha = (-H, H, 0, 0, H, H)
    ps = [10 ** (-2 - 0.5 * i) for i in range(5)]
    cols = [_ell_weights(alpha, t6, N, q, p) for p in ps]
    m = finite_measure(alpha, t6, N, q)
    for k in range(N + 1):
        lim = richardson([c[k] for c in cols], ps, 0.5)
        assert abs(lim - m.weight(0, k)) < 1e-5


@pytest.mark.xfail(
    reason="for third-integer exponents the cube-root correction is order "
    "one at p = 1e-4",
    strict=True,
)
def test_finite_weights_interior_branch_raw():
    q, N, t6 = _branch_constants()
    alpha = (Fraction(-1, 3), Fraction(1, 3), 0, 0, Fraction(1, 3), Fraction(2, 3))
    w = _ell_weights(alpha, t6, N, q, 1e-4)
    m = finite_measure(alpha, t6, N, q)
    for k in range(N + 1):
        assert abs(w[k] - m.weight(0, k)) < 1e-5


def test_finite_weights_interior_branch_extrapolated():
    q, N, t6 = _branch_constants()
    alpha = (Fraction(-1, 3), Fraction(1, 3), 0, 0, Fraction(1, 3), Fraction(2, 3))
    ps = [10 ** (-9 - i) for i in range(5)]
    cols = [_ell_weights(alpha, t6, N, q, p) for p in ps]
    m = finite_measure(alpha, t6, N, q)
    for k in range(N + 1):
        lim = richardson([c[k] for c in cols], ps, 1 / 3)
        assert abs(lim - m.weight(0, k)) < 1e-5


def test_finite_weight_biorthogonality_matrix():
    q, N = 0.3, 3
    t0, t2, t3, t4 = 0.75, 0.8, 0.7, 0.85
    t1 = q ** (-N) / t0
    t5 = q ** (N + 1) / (t2 * t3 * t4)
    t6 = (t0, t1, t2, t3, t4, t5)
    alpha = (0, 0, 1, 0, 0, 0)
    ps = [1e-5, 1e-6, 1e-7]

    def lim_R(n, k, swap):
        vals = []
        for p in ps:
            u = (t5, None) if swap else (t4, None)
            par = EllipticParams((t0, t1, t2 * p, t3), u, q, p)
            vals.append(rtilde(n, t0 * q**k, par))
        return richardson(vals, ps, 1.0)

    weight = finite_measure(alpha, t6, N, q).weight
    w = [weight(0, k) for k in range(N + 1)]
    R = [[lim_R(n, k, False) for k in range(N + 1)] for n in range(4)]
    S = [[lim_R(m, k, True) for k in range(N + 1)] for m in range(4)]
    M = [
        [sum(w[k] * R[n][k] * S[m][k] for k in range(N + 1)) for m in range(4)]
        for n in range(4)
    ]
    for n in range(4):
        for m in range(4):
            if n != m:
                scale = max(abs(M[n][n]), abs(M[m][m]))
                assert abs(M[n][m]) < 1e-6 * scale


# ---------------------------------------------------------------------------
# 9. scheme regeneration


def test_scheme_counts_and_golden_tables():
    sch = build_scheme()
    assert len(sch.systems) == 38
    per_level = {}
    for s in sch.systems:
        per_level[s.level] = per_level.get(s.level, 0) + 1
    assert per_level == {1: 1, 2: 5, 3: 7, 4: 12, 5: 10, 6: 3}
    assert check_appendix() == []
    assert check_askey() == []


@pytest.mark.xfail(
    reason="the classical table carries one label twice (two distinct "
    "realizations share a label, distinguished by a prime), so there are "
    "21 rows for 20 labels",
    strict=True,
)
def test_askey_row_count_literal():
    rows, _ = askey_subscheme()
    assert len(rows) == 20


def test_askey_labels_and_levels():
    rows, _ = askey_subscheme()
    levels = {s.name: s.level for s in build_scheme().systems}
    labels = set()
    for label, mid7, system, _family, _discrete in rows:
        labels.add(label.rstrip("'"))
        a, b = map(int, label.strip("[]'").split("/"))
        frac = Fraction(a, b)
        assert mid7[4] == mid7[5] == frac
        # scheme levels count the elliptic top as 1, the table's own
        # top row as 2; the label denominator encodes the depth below it
        assert levels[system] - 2 == (b - 4) // 2
        assert (b - 4) % 2 == 0
    assert len(labels) == 20


# ---------------------------------------------------------------------------
# 10. kernel identities at scale


def test_kernel_identities_1000_draws():
    rng = random.Random(12)
    for _ in range(1000):
        pr = rng.uniform(0.05, 0.5)
        p = rng.uniform(0.05, 0.5) * cmath.exp(2j * math.pi * rng.random())
        q = rng.uniform(0.05, 0.5) * cmath.exp(2j * math.pi * rng.random())
        x = rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random())

        lhs = qpoch_infinite(pr, pr) * theta(x, pr)
        rhs = sum((-x) ** n * pr ** (n * (n - 1) / 2) for n in range(-40, 41))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1.0)

        l2 = theta(p * x, p)
        r2 = -theta(x, p) / x
        assert abs(l2 - r2) < 1e-12 * max(abs(l2), abs(r2), 1.0)

        g = elliptic_gamma(x, p, q) * elliptic_gamma(p * q / x, p, q)
        assert abs(g - 1.0) < 1e-12
