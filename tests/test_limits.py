"""Limit families: Pastro suite, limit measures, finite weights."""

import cmath
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import ebiortho.biortho
import ebiortho.limits
import ebiortho.qkernel
from conftest import random_P0_point
from ebiortho.biortho import EllipticParams, continuous_inner_product, rtilde
from ebiortho.errors import (
    BranchError,
    ContourError,
    DomainError,
    HypothesisError,
    NonConvergence,
    NonFiniteValue,
    PoleError,
    SeriesDivergence,
)
from ebiortho.limits import (
    LimitMeasure,
    _find_sb_triple,
    _gamma_constants,
    _negative_zeta,
    _sigma2_pair,
    aw_phi43,
    finite_measure,
    limit_value,
    nr_measure,
    numeric_limit,
    pastro_P,
    pastro_inner_product,
    pastro_measure,
    pastro_norm,
    pastro_p,
    pastro_q,
    pastro_system,
    sb_measure,
    sigma2_measure,
    sigma2_series,
    sigma_measure,
)
from ebiortho.qkernel import circle_gram, qpoch_finite, qpoch_infinite, theta

ONE = lambda z: 1.0
H = Fraction(1, 2)
Q4 = Fraction(1, 4)


# ---------------------------------------------------------------------------
# Pastro suite


def test_pastro_biorthogonality_small():
    A, B, q = 0.55, 0.4, 0.45
    for n in range(4):
        for m in range(4):
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
                assert abs(v - h) < 1e-10
            else:
                assert abs(v) < 1e-10


def test_pastro_gram_equals_per_entry_inner_products():
    A, B, q = 0.55, 0.4, 0.45
    fs = [lambda w, n=n: pastro_p(n, w, A, B, q) for n in range(6)]
    gs = [lambda w, m=m: pastro_q(m, w, A, B, q) for m in range(6)]
    M = pastro_measure(A, B, q).gram(fs, gs)
    assert M == [[pastro_inner_product(f, g, A, B, q) for g in gs] for f in fs]


_GOOD_T = (0.7, 0.6, 0.5, 0.4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: EllipticParams((0.7, 0.0, 0.5, 0.4), (0.3, None), 0.35, 0.05),
        lambda: EllipticParams(_GOOD_T, (0.0, None), 0.35, 0.05),
        lambda: EllipticParams(_GOOD_T, (0.3, None), 0.35, 0.0),
        lambda: EllipticParams(_GOOD_T, (0.3, None), 0.0, 0.05),
        lambda: rtilde(2, 0, EllipticParams(_GOOD_T, (0.3, None), 0.35, 0.05)),
        lambda: pastro_p(2, 0.5j, 0.55, 0.4, 0),
        lambda: pastro_p(2, 0.5j, 0.55, 0, 0.45),
        lambda: pastro_q(2, 0.5j, 0.55, 0.4, 0),
        lambda: pastro_inner_product(ONE, ONE, 0.55, 0.4, 0, quad=8),
        lambda: pastro_q(2, 0, 0.55, 0.4, 0.45),
        lambda: pastro_P(2, 0, _GOOD_T, (0.3, 0.5), 0.45),
        lambda: aw_phi43(2, 0, _GOOD_T, (0.3, 0.5), 0.45),
        lambda: aw_phi43(2, 1.3, (0.0, 0.6, 0.5, 0.4), (0.3, 0.5), 0.45),
        lambda: pastro_P(2, 1.3, (0.7, 0.0, 0.5, 0.4), (0.3, 0.5), 0.45),
        lambda: pastro_P(2, 1.3, _GOOD_T, (0.3, 0.0), 0.45),
    ],
    ids=[
        "t1=0", "u0=0", "p=0", "q=0", "rtilde-z=0",
        "pastro_p-q=0", "pastro_p-B=0", "pastro_q-q=0", "pastro_inner-q=0",
        "pastro_q-w=0", "pastro_P-z=0", "aw_phi43-z=0",
        "aw_phi43-t0=0", "pastro_P-t1=0", "pastro_P-u1=0",
    ],
)
def test_zero_parameters_are_domain_errors(call):
    # a zero parameter is a typed input error, never a ZeroDivisionError;
    # p = 0 used to build with u1 = 0 and left norm_formula to divide by it
    with pytest.raises(DomainError):
        call()


def test_pastro_norm_is_the_closed_form():
    A, B, q = 0.55, 0.4, 0.45
    for n in range(6):
        h = (A * B / q) ** n * qpoch_finite(q, q, n) / qpoch_finite(A * B / q, q, n)
        assert pastro_norm(n, A, B, q) == h


def test_pastro_P_circle_variable_dictionary():
    q = 0.45
    t = (1.7, 1.2, 2.3, 0.9)
    u0 = 0.6
    u1 = q / (t[0] * t[1] * t[2] * t[3] * u0)
    A = q / (t[1] * u0)
    B = q / (t[3] * u1)
    for z in (1.3 + 0.2j, 0.8 - 0.5j):
        w = q**0.5 / (t[2] * t[3] * u1 * z)
        for n in range(5):
            lhs = pastro_P(n, z, t, (u0, u1), q)
            rhs = pastro_p(n, w, A, B, q)
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_pastro_Q_relation():
    # the u-swapped family is the same family at permuted parameters
    q = 0.45
    t = (1.7, 1.2, 2.3, 0.9)
    u0 = 0.6
    u1 = q / (t[0] * t[1] * t[2] * t[3] * u0)
    A = q / (t[1] * u0)
    B = q / (t[3] * u1)
    for z in (1.3 + 0.2j, 0.8 - 0.5j):
        w = q**0.5 / (t[2] * t[3] * u1 * z)
        for n in range(5):
            Qn = (1.0 / (u0 * t[0] * t[1] * t[2])) ** n * pastro_P(
                n, 1.0 / z, (t[2], t[3], t[0], t[1]), (u1, u0), q
            )
            rhs = (q / (t[3] * u1)) ** (-n) * pastro_q(n, w, A, B, q)
            assert abs(Qn - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_pastro_B_eq_q_monomial():
    # the monomials p_n at B = q against the series q_m and the closed norms
    off, diag = pastro_system(0.55, 0.45, 0.45).residuals(6)
    assert max(off, diag) < 1e-14


def test_pastro_B_to_q_from_both_sides():
    # B = q is a removable singularity of Pastro's 2phi1 form; the
    # q-binomial sum reaches the monomial at B = q and is smooth next to
    # it.  At B = q + 2e-14 the exact value is itself up to 4.9e-14 from
    # the monomial (40-digit sums), so that point gets 1e-13.
    A, q = 0.55, 0.45
    w = cmath.exp(0.7j)
    for n in range(7):
        mono = w**n * A**n * q ** (-n / 2)
        assert abs(pastro_p(n, w, A, q, q) - mono) < 1e-14
        for h, tol in ((1e-5, 1e-9), (1e-11, 1e-14)):
            mean = sum(pastro_p(n, w, A, q * (1 + s), q) for s in (h, -h)) / 2
            assert abs(mean - mono) < tol
        assert abs(pastro_p(n, w, A, q + 2e-14, q) - mono) < 1e-13


@pytest.mark.parametrize(
    "A, B, q", [(0.5, 0.9, 0.45), (0.5, 0.4, -1.0)], ids=["AB=q", "q^2=1"]
)
def test_pastro_p_poles_are_pole_errors(A, B, q):
    # (AB/q;q)_2 = 0, and the q-binomial divisor 1 - q^2 = 0
    with pytest.raises(PoleError):
        pastro_p(2, 0.5j, A, B, q)


def test_pastro_P_normalized_at_t0():
    q = 0.45
    t = (1.7, 1.2, 2.3, 0.9)
    u0 = 0.6
    u1 = q / (t[0] * t[1] * t[2] * t[3] * u0)
    for n in range(5):
        assert abs(pastro_P(n, t[0], t, (u0, u1), q) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# limit measures

Q_MEAS = 0.35


def _solved_last(ts):
    prod = 1.0
    for x in ts:
        prod *= x
    return list(ts) + [Q_MEAS / prod]


def test_nr_measure_normalization():
    a = (0, 0, H, H, 0, 0)
    t = [0.4, 0.5, 0.7, 0.45, 0.55]
    t = t[:3] + [_solved_last(t)[-1]] + t[3:]
    m = nr_measure(a, t, Q_MEAS)
    assert abs(m.apply(ONE, ONE) - 1.0) < 1e-12


def test_nr_integral_on_half_the_circle():
    a = (0, 0, H, H, 0, 0)
    t = [0.4, 0.5, 0.7, 0.45, 0.55]
    m = nr_measure(a, t[:3] + [_solved_last(t)[-1]] + t[3:], Q_MEAS)
    nodes = []

    def weight(z):
        nodes.append(z)
        return m.weight(z)

    half = LimitMeasure(
        "NR_INTEGRAL", m.prefactors, weight, m.q, log_weight=m.log_weight
    )
    f = lambda z: z**3 + 0.3 / z
    g = lambda z: 1 + 0.2 * z * z
    for ff, gg in ((ONE, ONE), (f, g)):
        nodes.clear()
        got = half.apply(ff, gg, quad=512)
        # the weight is evaluated on the upper half circle only
        assert len(nodes) == 256 and all(z.imag > 0 for z in nodes)
        full = m.prefactors[0] * circle_gram(
            [ff], [gg], 512, m.weight, m.log_weight
        )[0][0]
        assert abs(got - full) <= 2e-15 * abs(full)


def test_sb_measure_normalization():
    a = tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5))
    t = _solved_last([0.8, 0.7, 0.5, 0.6, 0.75])
    m = sb_measure(a, t, Q_MEAS)
    assert m.triple == (0, 1, 4)
    assert abs(m.apply(ONE, ONE) - 1.0) < 1e-12


def test_sb_measure_half_branch_normalization():
    # zeta = -1/2: the weight carries (1 - z^2) and the triple's
    # alpha_r = +-1/2 factors; t1 = 2.40 and 2.13 from balancing
    a = (-H, H, -H, H, H, H)
    for rest in ([0.7, 0.7, 0.9, 0.6, 0.55], [0.6, 0.7, 0.7, 0.8, 0.7]):
        t = rest[:1] + _solved_last(rest)[-1:] + rest[1:]
        m = sb_measure(a, t, Q_MEAS)
        assert m.triple == (0, 1, 2)
        assert abs(m.apply(ONE, ONE, quad=512) - 1.0) < 1e-12, rest


def test_sigma_measure_normalization():
    a = (-H, Q4, Q4, Q4, Q4, H)
    t = _solved_last([0.8, 0.5, 0.6, 0.7, 0.45])
    m = sigma_measure(a, t, Q_MEAS)
    assert m.base_index == 0
    assert abs(m.apply(ONE, ONE) - 1.0) < 1e-12


def test_sigma_measure_hypothesis_guard():
    # two zero entries make a pair sum leave (0, 1]
    a = (-Q4, 0, Q4, H, 0, H)
    t = _solved_last([0.8, 0.5, 0.6, 0.7, 0.45])
    with pytest.raises(HypothesisError):
        sigma_measure(a, t, Q_MEAS)


def test_sigma2_series_and_integral_agree():
    a = (-Q4, -Q4, Q4, Q4, Q4, Fraction(3, 4))
    t = _solved_last([0.75, 0.65, 0.5, 0.6, 0.55])
    s = sigma2_series(a, t, Q_MEAS)
    assert abs(s.apply(ONE, ONE) - 1.0) < 1e-12
    m1 = sigma2_measure(a, t, Q_MEAS, 0.9)
    m2 = sigma2_measure(a, t, Q_MEAS, 1.7)
    v1 = m1.apply(ONE, ONE)
    v2 = m2.apply(ONE, ONE)
    assert abs(v1 - 1.0) < 1e-12
    # the deformation parameter w must not matter
    assert abs(v1 - v2) < 1e-12
    with pytest.raises(DomainError):
        sigma2_measure(a, t, Q_MEAS, 0)


def test_directly_built_measures_apply():
    q = 0.3
    cases = [
        (LimitMeasure("NR_INTEGRAL", (2.0,), lambda z: 1.0, q), ONE, 2.0),
        (LimitMeasure("SB_INTEGRAL", (1.0,), lambda z: 1.0 + z, q), ONE, 1.0),
        (
            LimitMeasure(
                "SIGMA_SERIES", (1 - q,), lambda i, k: q**k, q, bases=(0.5,)
            ),
            lambda z: z,
            0.5 / (1 + q),
        ),
        (
            LimitMeasure(
                "SIGMA2_SERIES",
                (0.25 * (1 - q), 0.75 * (1 - q)),
                lambda i, k: q**k,
                q,
                bases=(0.5, 0.7),
            ),
            ONE,
            1.0,
        ),
        (
            LimitMeasure(
                "FINITE_DISCRETE",
                (0.5,),
                lambda i, k: 1.0,
                q,
                bases=(1.0,),
                n_masses=2,
            ),
            lambda z: z,
            0.5 * (1 + q),
        ),
    ]
    for m, f, expected in cases:
        assert abs(m.apply(f, ONE, quad=16) - expected) < 1e-14, m.kind
    with pytest.raises(DomainError):
        LimitMeasure("SIGMA2_SERIES", (1.0,), lambda i, k: 1.0, q, bases=(0.5, 0.7))
    with pytest.raises(DomainError):
        LimitMeasure("NO_SUCH_KIND", (1.0,), lambda z: 1.0, q)
    # a series measure without its base points, or a finite one without an
    # integer mass count >= 1, would sum nothing
    w = lambda i, k: 1.0
    for kind in ("SIGMA_SERIES", "SIGMA2_SERIES", "FINITE_DISCRETE"):
        with pytest.raises(DomainError):
            LimitMeasure(kind, (1.0,), w, q)
    for n in (None, 0, 1.0):
        with pytest.raises(DomainError):
            LimitMeasure("FINITE_DISCRETE", (1.0,), w, q, bases=(1.0,), n_masses=n)
    # a series whose terms never shrink hits the fixed 400-term cap
    flat = LimitMeasure("SIGMA_SERIES", (1.0,), lambda i, k: 1.0, q, bases=(0.5,))
    with pytest.raises(SeriesDivergence):
        flat.apply(ONE, ONE)


def test_limit_measure_gram_equals_per_entry_apply():
    # one measure of each kind, the Sigma2 integral as an SB_INTEGRAL
    nr_t = [0.4, 0.5, 0.7, 0.45, 0.55]
    s2_a = (-Q4, -Q4, Q4, Q4, Q4, Fraction(3, 4))
    s2_t = _solved_last([0.75, 0.65, 0.5, 0.6, 0.55])
    measures = [
        nr_measure((0, 0, H, H, 0, 0), nr_t[:3] + _solved_last(nr_t)[-1:] + nr_t[3:], Q_MEAS),
        sb_measure(
            tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5)),
            _solved_last([0.8, 0.7, 0.5, 0.6, 0.75]),
            Q_MEAS,
        ),
        sigma2_measure(s2_a, s2_t, Q_MEAS, 0.9),
        sigma_measure((-H, Q4, Q4, Q4, Q4, H), _solved_last([0.8, 0.5, 0.6, 0.7, 0.45]), Q_MEAS),
        sigma2_series(s2_a, s2_t, Q_MEAS),
        finite_measure(FW_ALPHA, _fw_params(), FW_N, FW_Q),
    ]
    fs = [ONE, lambda z: z**3 + 0.3 * z, lambda z: z]
    gs = [ONE, lambda z: 1 + 0.2 * z * z]
    for m in measures:
        M = m.gram(fs, gs, quad=64)
        assert M == [[m.apply(f, g, quad=64) for g in gs] for f in fs], m.kind


def test_series_gram_evaluates_each_point_once():
    # the `verify measures` Sigma measure: every entry of a 4 x 4 Gram
    # shares the weight and function values of the points b q^k, so the
    # matrix costs the longest entry's 15 points, as one 1 x 1 apply does
    m = sigma_measure((-H, Q4, Q4, Q4, Q4, H), _solved_last([0.8, 0.5, 0.6, 0.7, 0.45]), Q_MEAS)
    calls = Counter()

    def weight(i, k):
        calls["weight"] += 1
        return m.weight(i, k)

    def power(n):
        def f(z):
            calls["function"] += 1
            return z**n

        return f

    counted = dataclasses.replace(m, weight=weight)
    counted.gram([power(n) for n in range(4)], [power(n) for n in range(4)])
    assert calls == {"weight": 15, "function": 8 * 15}
    calls.clear()
    counted.apply(power(0), power(0))
    assert calls == {"weight": 15, "function": 2 * 15}


def _nr_sigma_hand_loop(a, t, q):
    """The NR and Sigma constant factors written out pair by pair."""
    consts = []
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 0:
                consts.append((t[r] * t[s], 1, q))
            elif a[r] + a[s] == 1:
                consts.append((q / (t[r] * t[s]), -1, q))
    return consts


def _sb_hand_loop(a, t, q, trip):
    """The SB constant factors written out by the roles of the triple."""
    inside = set(trip)
    consts = []
    for r in range(6):
        for s in range(r + 1, 6):
            both_in = r in inside and s in inside
            mixed = (r in inside) != (s in inside)
            if both_in and a[r] + a[s] == -1:
                consts.append((t[r] * t[s], 1, q))
            if mixed and a[r] + a[s] == 0:
                consts.append((t[r] * t[s], 1, q))
            if both_in and a[r] + a[s] == 0:
                consts.append((q / (t[r] * t[s]), -1, q))
            if a[r] + a[s] == 1:
                consts.append((q / (t[r] * t[s]), -1, q))
    return consts


def _sigma2_hand_loop(a, t, q, pair):
    """The Sigma2 integral constant factors written out from the pair."""
    ia, ib = pair
    ta, tb = t[ia], t[ib]
    zeta = a[ia]
    consts = []
    if zeta == -H:
        consts.append((ta * tb, 1, q))
    for r in range(6):
        if r not in pair and a[r] == -zeta:
            consts.append((t[r] * ta, 1, q))
            consts.append((t[r] * tb, 1, q))
    for r in range(6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                consts.append((q / (t[r] * t[s]), -1, q))
    return consts


def test_gamma_constants_match_the_hand_loops():
    # the same factors in the same order, except that Sigma2 lists them
    # in another order, on seeded points of P^(0) admissible for each kind
    rng = random.Random(21)
    q = 0.35 * cmath.exp(0.3j)
    counts = dict.fromkeys(("NR", "SB", "Sigma", "Sigma2"), 0)
    for _ in range(1000):
        a = random_P0_point(rng, den=rng.choice((4, 6, 12)))
        t = _solved_last([_draw(rng, 0.3, 0.9) for _ in range(5)])
        if all(x >= 0 for x in a):
            assert _gamma_constants(a, t, q) == _nr_sigma_hand_loop(a, t, q)
            counts["NR"] += 1
        try:
            sigma_measure(a, t, Q_MEAS)
        except HypothesisError:
            pass
        else:
            assert _gamma_constants(a, t, q) == _nr_sigma_hand_loop(a, t, q)
            counts["Sigma"] += 1
        try:
            zeta = _negative_zeta(a)
        except HypothesisError:
            continue
        trip = _find_sb_triple(a, zeta)
        if trip is not None:
            assert _gamma_constants(a, t, q, trip) == _sb_hand_loop(a, t, q, trip)
            counts["SB"] += 1
        try:
            _, pair = _sigma2_pair(a, limit4=False)
        except HypothesisError:
            continue
        got = Counter(_gamma_constants(a, t, q, pair))
        assert got == Counter(_sigma2_hand_loop(a, t, q, pair))
        counts["Sigma2"] += 1
    assert min(counts.values()) >= 50, counts


@pytest.mark.parametrize("extra", [-1, 1], ids=["5t", "7t"])
def test_measures_need_six_t_parameters(extra):
    # five t's used to build an SB measure and send the others into an
    # IndexError; a seventh t of 1 keeps the product balanced
    t6 = _solved_last([0.8, 0.7, 0.5, 0.6, 0.75])
    t = t6[:-1] if extra < 0 else t6 + [1.0]
    ft = list(_fw_params())
    ft = ft[:-1] if extra < 0 else ft + [1.0]
    s2_a = (-Q4, -Q4, Q4, Q4, Q4, Fraction(3, 4))
    calls = [
        lambda: nr_measure((0, 0, H, H, 0, 0), t, Q_MEAS),
        lambda: sb_measure(tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5)), t, Q_MEAS),
        lambda: sigma_measure((-H, Q4, Q4, Q4, Q4, H), t, Q_MEAS),
        lambda: sigma2_measure(s2_a, t, Q_MEAS, 0.9),
        lambda: sigma2_series(s2_a, t, Q_MEAS),
        lambda: finite_measure(FW_ALPHA, ft, FW_N, FW_Q),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="need 6 t parameters"):
            call()


def test_vanishing_constant_denominator_is_a_pole_error():
    # t3 t5 = q exactly, on a pair with exponent 1: the constant divides
    # by (q / (t3 t5); q)_infty = (1; q)_infty = 0
    rest = [0.3, 0.3, 0.5, 0.5, 0.7]
    t = rest[:1] + _solved_last(rest)[-1:] + rest[1:]
    assert Q_MEAS / (t[3] * t[5]) == 1.0
    with pytest.raises(PoleError):
        sb_measure((-H, H, -H, H, H, H), t, Q_MEAS)


def test_bad_node_count_is_a_domain_error(monkeypatch):
    t = [0.4, 0.5, 0.7, 0.45, 0.55]
    nr = nr_measure((0, 0, H, H, 0, 0), t[:3] + _solved_last(t)[-1:] + t[3:], Q_MEAS)
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    weight_calls = []
    real = ebiortho.qkernel.qpoch_log_series

    def counted(*args, **kwargs):
        weight_calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ebiortho.qkernel, "qpoch_log_series", counted)
    for quad in (0, 7):
        with pytest.raises(DomainError):
            pastro_inner_product(ONE, ONE, 0.55, 0.4, 0.45, quad=quad)
        with pytest.raises(DomainError):
            nr.apply(ONE, ONE, quad=quad)
        with pytest.raises(DomainError):
            continuous_inner_product(ONE, ONE, par, quad=quad)
    # the quad check comes before any weight series work
    assert weight_calls == []
    continuous_inner_product(ONE, ONE, par, quad=8)
    assert weight_calls, "the counters must see the weight work"


# ---------------------------------------------------------------------------
# The circle weights against their product forms


def _pastro_product_form(f, g, A, B, q, quad):
    """pastro_inner_product with the weight as per-node q-products."""
    rq = q**0.5
    pref = qpoch_infinite(q, q) * qpoch_infinite(A * B / q, q)
    pref /= qpoch_infinite(A, q) * qpoch_infinite(B, q)

    def weight(w):
        val = theta(rq * w, q)
        return val / (qpoch_infinite(A * w / rq, q) * qpoch_infinite(B / (w * rq), q))

    return pref * circle_gram([f], [g], quad, weight)[0][0]


def _qp(x, q, up):
    return qpoch_infinite(x, q) if up else 1.0 / qpoch_infinite(x, q)


def _nr_product_weight(a, t, q):
    def weight(z):
        val = qpoch_infinite(z * z, q) * qpoch_infinite(1.0 / (z * z), q)
        for r in range(6):
            if a[r] in (0, 1):
                up = a[r] == 1
                val *= _qp((q / t[r] if up else t[r]) * z, q, up)
                val *= _qp((q / t[r] if up else t[r]) / z, q, up)
        return val

    return weight


def _sb_product_weight(a, t, q, trip):
    zeta = sum(a[i] for i in trip)
    tprod = t[trip[0]] * t[trip[1]] * t[trip[2]]

    def weight(z):
        val = theta(q * z / tprod, q)
        for r in range(6):
            if r in trip:
                if a[r] == -zeta:
                    val *= qpoch_infinite(q / (t[r] * z), q)
                if a[r] == zeta:
                    val /= qpoch_infinite(t[r] / z, q)
            else:
                if a[r] == 1 + zeta:
                    val *= qpoch_infinite(q * z / t[r], q)
                if a[r] == -zeta:
                    val /= qpoch_infinite(t[r] * z, q)
        if zeta == -H:
            val *= qpoch_infinite(z * z, q) / qpoch_infinite(q * z * z, q)
            for r in trip:
                if a[r] == H:
                    val *= qpoch_infinite(q * z / t[r], q)
                if a[r] == -H:
                    val /= qpoch_infinite(t[r] * z, q)
        return val

    return weight


def _sigma2_product_weight(a, t, q, w, pair):
    ia, ib = pair
    zeta = a[ia]
    ta, tb = t[ia], t[ib]

    def weight(z):
        val = 1.0 + 0.0j
        for r in range(6):
            if r not in pair:
                if a[r] == 1 + zeta:
                    val *= qpoch_infinite(q * z / t[r], q)
                if a[r] == -zeta:
                    val /= qpoch_infinite(t[r] * z, q)
        val /= qpoch_infinite(ta / z, q) * qpoch_infinite(tb / z, q)
        if zeta == -H:
            val *= (1 - z * z) / (qpoch_infinite(ta * z, q) * qpoch_infinite(tb * z, q))
        val *= theta(w * z, q) * theta(q * z / (ta * tb * w), q)
        return val / (theta(ta * w, q) * theta(tb * w, q))

    return weight


def test_pastro_matches_product_form():
    q = 0.45
    rq = q**0.5
    f = lambda w: w**2 + 0.5 / w
    g = lambda w: 1 + 0.3 * w
    # |A / rq| = 0.995 leaves (A w / rq; q) to the per-node product form
    for A, B in ((0.55, 0.4), (0.995 * rq, 0.4)):
        p2 = lambda w: pastro_p(2, w, A, B, q)
        q2 = lambda w: pastro_q(2, w, A, B, q)
        for ff, gg in ((ONE, ONE), (p2, q2), (f, g)):
            for quad in (128, 512):
                got = pastro_inner_product(ff, gg, A, B, q, quad=quad)
                ref = _pastro_product_form(ff, gg, A, B, q, quad)
                assert abs(got - ref) <= 1e-13 * abs(ref), (A, quad)


def _measure_cases():
    """(series measure, product-form weight) pairs: the `verify measures`
    parameters, Sigma2 at a |w| > 1 that leaves theta(w z) to the product
    form, and the zeta = -1/2 branches of SB and Sigma2."""
    nr_t = [0.4, 0.5, 0.7, 0.45, 0.55]
    nr_t = nr_t[:3] + _solved_last(nr_t)[-1:] + nr_t[3:]
    nr_a = (0, 0, H, H, 0, 0)
    sb_a = tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5))
    sb_t = _solved_last([0.8, 0.7, 0.5, 0.6, 0.75])
    sb_half_a = (-H, H, -H, H, H, H)
    sb_half_t = [0.7, None, 0.7, 0.9, 0.6, 0.55]
    sb_half_t[1] = _solved_last([0.7, 0.7, 0.9, 0.6, 0.55])[-1]
    s2_a = (-Q4, -Q4, Q4, Q4, Q4, Fraction(3, 4))
    s2_t = _solved_last([0.75, 0.65, 0.5, 0.6, 0.55])
    s2_half_a = (-H, -H, H, H, H, H)
    s2_half_t = _solved_last([0.8, 0.75, 0.9, 0.85, 0.95])
    cases = [(nr_measure(nr_a, nr_t, Q_MEAS), _nr_product_weight(nr_a, nr_t, Q_MEAS))]
    for a, t in ((sb_a, sb_t), (sb_half_a, sb_half_t)):
        m = sb_measure(a, t, Q_MEAS)
        cases.append((m, _sb_product_weight(a, t, Q_MEAS, m.triple)))
    for a, t, w in ((s2_a, s2_t, 0.9), (s2_a, s2_t, 1.7), (s2_half_a, s2_half_t, 0.9)):
        m = sigma2_measure(a, t, Q_MEAS, w)
        cases.append((m, _sigma2_product_weight(a, t, Q_MEAS, w, m.pair)))
    return cases


def test_integral_measures_match_product_form():
    # the weights agree to about 1e-14 at every node; the means are
    # compared on the scale of the mean of |integrand|, as the weight of
    # the zeta = -1/2 SB case changes sign (sum |w| / |sum w| = 14)
    f = lambda z: z**3 + 0.3 / z
    g = lambda z: 1 + 0.2 * z * z
    for m, product_weight in _measure_cases():
        values = {}

        def weight(z):
            if z not in values:
                values[z] = product_weight(z)
            return values[z]

        ref_measure = LimitMeasure(m.kind, m.prefactors, weight, m.q)
        for ff, gg in ((ONE, ONE), (f, g)):
            for quad in (128, 512):
                got = m.apply(ff, gg, quad=quad)
                ref = ref_measure.apply(ff, gg, quad=quad)
                scale = abs(m.prefactors[0]) * circle_gram(
                    [lambda z: abs(weight(z) * ff(z) * gg(z))], [ONE], quad, ONE
                )[0][0]
                assert abs(got - ref) <= 1e-13 * scale.real, (m.kind, quad)


def test_circle_weights_cost_no_products_per_node(monkeypatch):
    # every factor of the Pastro, NR and elliptic continuous weights at
    # these parameters is a series factor, so no count of qpoch_infinite
    # calls grows with quad
    calls = []
    real = ebiortho.qkernel.qpoch_infinite

    def counted(x, q):
        calls.append(x)
        return real(x, q)

    for mod in (ebiortho.qkernel, ebiortho.limits, ebiortho.biortho):
        monkeypatch.setattr(mod, "qpoch_infinite", counted, raising=False)
    t = [0.4, 0.5, 0.7, 0.45, 0.55]
    nr = nr_measure((0, 0, H, H, 0, 0), t[:3] + _solved_last(t)[-1:] + t[3:], Q_MEAS)
    # the <1,1> parameters of `verify elliptic-continuous`
    par = EllipticParams((0.75, 0.7, 0.65, 0.6), (0.65, None), 0.28, 0.22)
    runs = {
        "pastro": lambda quad: pastro_inner_product(ONE, ONE, 0.55, 0.4, 0.45, quad=quad),
        "NR": lambda quad: nr.apply(ONE, ONE, quad=quad),
        "continuous": lambda quad: continuous_inner_product(ONE, ONE, par, quad=quad),
    }
    for name, run in runs.items():
        counts = []
        for quad in (128, 1024):
            calls.clear()
            run(quad)
            counts.append(len(calls))
        assert counts[0] == counts[1], (name, counts)


FW_ALPHA = (0, 0, 1, 0, 0, 0)
FW_Q = 0.3
FW_N = 1
FW_T = None


def _fw_params():
    global FW_T
    if FW_T is None:
        t0, t2, t3, t4 = 0.9, 0.3, 0.4, 0.35
        t1 = FW_Q ** (-FW_N) / t0
        t5 = FW_Q ** (FW_N + 1) / (t2 * t3 * t4)
        FW_T = (t0, t1, t2, t3, t4, t5)
    return FW_T


def test_finite_weights_sum_to_one():
    t = _fw_params()
    m = finite_measure(FW_ALPHA, t, FW_N, FW_Q)
    total = sum(m.weight(0, k) for k in range(FW_N + 1))
    assert abs(total - 1.0) < 1e-12


def test_finite_measure_normalization():
    t = _fw_params()
    m = finite_measure(FW_ALPHA, t, FW_N, FW_Q)
    assert abs(m.apply(ONE, ONE) - 1.0) < 1e-12


def test_finite_weights_branch_guards():
    t = _fw_params()
    with pytest.raises(BranchError):
        finite_measure((Q4, -Q4, 1, 0, 0, 0), t, FW_N, FW_Q)
    bad_t = (0.9, 0.9, 0.3, 0.4, 0.35, 0.5)
    with pytest.raises(DomainError):
        finite_measure(FW_ALPHA, bad_t, FW_N, FW_Q)


# ---------------------------------------------------------------------------
# The series weights and contour rules against their written-out forms


def _finite_weights_reference(k, a, t, N, q):
    """The weights of finite_measure written out branch by branch, past
    the validation."""
    b2 = lambda n: n * (n - 1) // 2
    qf = qpoch_finite
    t0, t1, a0 = t[0], t[1], a[0]
    pair_tail = 1.0 + 0.0j
    for r in range(2, 6):
        for s in range(r + 1, 6):
            if a[r] + a[s] == 1:
                pair_tail /= qf(q / (t[r] * t[s]), q, N)
    if a0 in (0, -H):
        w = (1 - t0**2 * q ** (2 * k)) / (1 - t0**2)
        w *= qf(q ** (-N), q, k) * qf(t0**2, q, k)
        w /= qf(q, q, k) * qf(q * t0 / t1, q, k) * qf(t1 / t0, q, N)
        if a0 == 0:
            w *= (1.0 / (t1 * t0**3 * q)) ** k * q ** (-2 * b2(k))
        else:
            w *= (q * t0 / t1) ** k * (-t1 / t0) ** N * q ** (2 * b2(k) + b2(N))
        for r in range(2, 6):
            if a[r] in (a0, 1 + a0):
                w *= qf(t0 * t[r], q, k) * qf(t1 * t[r], q, N) / qf(q * t0 / t[r], q, k)
            if a[r] == a0:
                w *= (-q * t0 / t[r]) ** k * q ** b2(k)
            elif a[r] == 1 + a0:
                w *= (-t0 * t[r]) ** (-k) * (-t1 * t[r]) ** (-N)
                w *= q ** (-b2(k) - b2(N))
        return w * pair_tail
    w = qf(q ** (-N), q, k) / qf(q, q, k)
    w /= t0 ** (2 * k) * q ** (2 * b2(k))
    for r in range(2, 6):
        if a[r] == a0:
            w *= (q * t0**2) ** k * q ** (2 * b2(k))
            w /= qf(q * t0 / t[r], q, k)
            w *= qf(t1 * t[r], q, N)
        elif a0 < a[r] < -a0:
            w *= (-t0 * t[r]) ** k * q ** b2(k)
        if a[r] == -a0:
            w *= qf(t0 * t[r], q, k)
        if a[r] == 1 + a0:
            w *= qf(q * t0 / t[r], q, N) / qf(q * t0 / t[r], q, k)
    return w * pair_tail


# alpha_0 = 0 (a mass pair alpha_2 + alpha_s = 1, a pair at 1/2 each, and
# neither), alpha_0 = -1/2 (with and without alpha_r = alpha_0) and two
# interior alpha_0
FW_BRANCH_ALPHAS = (
    (0, 0, 1, 0, 0, 0),
    (0, 0, H, H, 0, 0),
    (0, 0, Q4, Q4, Q4, Q4),
    (-H, H, 0, 0, H, H),
    (-H, H, -H, H, H, H),
    (Fraction(-1, 3), Fraction(1, 3), 0, 0, Fraction(1, 3), Fraction(2, 3)),
    (-Q4, Q4, -Q4, Q4, Q4, Fraction(3, 4)),
)


def test_finite_measure_weights_are_finite_weights():
    # one constant per measure, built at construction; each weight is that
    # constant times one series term, bit for bit the weight that a fresh
    # measure of the same arguments gives
    for a in FW_BRANCH_ALPHAS:
        for N in (1, 3):
            q = 0.3 * cmath.exp(0.4j)
            t0, t2, t3, t4 = 0.9, 0.3 + 0.1j, 0.4, 0.35
            t = (t0, q ** (-N) / t0, t2, t3, t4, q ** (N + 1) / (t2 * t3 * t4))
            m = finite_measure(a, t, N, q)
            assert [m.weight(0, k) for k in range(N + 1)] == [
                finite_measure(a, t, N, q).weight(0, k) for k in range(N + 1)
            ]


def test_finite_measure_checks_alpha_at_construction():
    with pytest.raises(BranchError):
        finite_measure((Q4, -Q4, 1, 0, 0, 0), _fw_params(), FW_N, FW_Q)


def test_finite_weights_match_branch_reference():
    worst = 0.0
    for a in FW_BRANCH_ALPHAS:
        for N in (1, 2, 3, 5):
            for q in (0.3, 0.45, 0.3 * cmath.exp(0.4j)):
                t0, t2, t3, t4 = 0.9, 0.3 + 0.1j, 0.4, 0.35
                t = (t0, q ** (-N) / t0, t2, t3, t4, q ** (N + 1) / (t2 * t3 * t4))
                m = finite_measure(a, t, N, q)
                for k in range(N + 1):
                    got = m.weight(0, k)
                    ref = _finite_weights_reference(k, a, t, N, complex(q))
                    worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-14, worst


def _sigma_reference_weight(a, t, q):
    """The Sigma weight closure written out: the very-well-poised factor,
    the (t_r t_a; q)_k / (q t_a / t_r; q)_k ratios and the power terms."""
    ia = next(r for r in range(4) if all(a[s] > a[r] for s in range(6) if s != r))
    aa, ta = a[ia], t[ia]
    ncount = sum(1 for r in range(6) if r != ia and a[r] < -aa)
    small_prod = ta ** (ncount - 2)
    for r in range(6):
        if r != ia and a[r] + aa < 0:
            small_prod *= t[r]

    def weight(k):
        val = 1.0 + 0.0j
        if aa == -H:
            val *= (1 - ta**2 * q ** (2 * k)) / (1 - ta**2) * qpoch_finite(ta**2, q, k)
        den = qpoch_finite(q, q, k)
        for r in range(6):
            if r != ia and a[r] == -aa:
                val *= qpoch_finite(t[r] * ta, q, k)
            if r != ia and a[r] == 1 + aa:
                den *= qpoch_finite(q * ta / t[r], q, k)
        val *= ((-1) ** k * q ** (k * (k - 1) // 2)) ** (ncount - 2)
        return val * small_prod**k / den

    return [weight]


def _sigma2_series_reference_weights(a, t, q, pair):
    """The two Sigma2 series weight closures written out."""
    ia, ib = pair
    zeta = a[ia]
    rest = [r for r in range(6) if r not in pair]

    def based_at(x, y):
        tx, ty = t[x], t[y]

        def weight(k):
            val = q**k
            if zeta == -H:
                val *= (
                    qpoch_finite(q * tx**2, q, 2 * k)
                    * qpoch_finite(tx**2, q, k)
                    * qpoch_finite(tx * ty, q, k)
                    / qpoch_finite(tx**2, q, 2 * k)
                )
            den = qpoch_finite(q, q, k) * qpoch_finite(q * tx / ty, q, k)
            for r in rest:
                if a[r] == -zeta:
                    val *= qpoch_finite(t[r] * tx, q, k)
                if a[r] == 1 + zeta:
                    den *= qpoch_finite(q * tx / t[r], q, k)
            return val / den

        return weight

    return [based_at(ia, ib), based_at(ib, ia)]


def test_series_measure_weights_match_reference():
    # the `verify measures` parameters, the zeta = -1/2 Sigma2 branch and a
    # Sigma measure with a complex base; terms past k = 10 are below 1e-40
    # of the first, where the rounding of the q powers of the reference
    # alone reaches 1e-14
    d12 = Fraction(1, 12)
    cases = []
    for a, ts in (
        ((-H, Q4, Q4, Q4, Q4, H), [0.8, 0.5, 0.6, 0.7, 0.45]),
        ((-Q4, d12, d12, d12, Q4, Fraction(3, 4)), [0.8j, 0.5, 0.6, 0.7, 0.45]),
    ):
        t = _solved_last(ts)
        ref = _sigma_reference_weight(a, t, Q_MEAS)
        cases.append((sigma_measure(a, t, Q_MEAS), ref))
    for a, ts in (
        ((-Q4, -Q4, Q4, Q4, Q4, Fraction(3, 4)), [0.75, 0.65, 0.5, 0.6, 0.55]),
        ((-H, -H, H, H, H, H), [0.8, 0.75, 0.9, 0.85, 0.95]),
    ):
        t = _solved_last(ts)
        m = sigma2_series(a, t, Q_MEAS)
        ref = _sigma2_series_reference_weights(a, t, complex(Q_MEAS), m.pair)
        cases.append((m, ref))
    for m, refs in cases:
        for i, ref in enumerate(refs):
            for k in range(11):
                want = ref(k)
                assert abs(m.weight(i, k) - want) <= 1e-14 * abs(want), (m.kind, i, k)


def _contour_reference(kind, a, t, m):
    """The contour condition of each circle measure, written out on its
    own, on the index triple or pair that m was built on."""
    if kind == "NR":
        return any(a[r] == 0 and abs(t[r]) >= 1 for r in range(6))
    if kind == "SB":
        trip = m.triple
        zeta = sum(a[i] for i in trip)
        for r in range(6):
            in_den = (r in trip and a[r] == zeta) or (r not in trip and a[r] == -zeta)
            if zeta == -H and r in trip and a[r] == -H:
                in_den = True
            if in_den and abs(t[r]) >= 1:
                return True
        return False
    zeta = a[m.pair[0]]
    return any(
        (r in m.pair or a[r] == -zeta) and abs(t[r]) >= 1 for r in range(6)
    )


def _draw(rng, lo, hi):
    """A complex number of modulus in [lo, hi) and random argument."""
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def test_contour_error_exactly_when_a_denominator_pole_family_meets_the_circle():
    from ebiortho.scheme import build_scheme

    alphas = [f.midpoint[:6] for s in build_scheme().systems for f in s.realizations]
    assert len(alphas) == 105
    rng = random.Random(7)
    safe = [Q_MEAS ** (1 / 6)] * 6  # every |t_r| < 1: no contour error
    builders = {
        "NR": nr_measure,
        "SB": sb_measure,
        "Sigma2": lambda a, t, q: sigma2_measure(a, t, q, 0.9),
    }
    seen = set()
    for a in alphas:
        for kind, builder in builders.items():
            try:
                m = builder(a, safe, Q_MEAS)
            except HypothesisError:
                continue
            for _ in range(12):
                t = _solved_last([_draw(rng, 0.3, 1.3) for _ in range(5)])
                rng.shuffle(t)
                try:
                    builder(a, t, Q_MEAS)
                    raised = False
                except ContourError:
                    raised = True
                assert raised == _contour_reference(kind, a, t, m), (kind, a, t)
                seen.add((kind, raised))
    assert len(seen) == 6
    rq = 0.45**0.5
    for _ in range(200):
        A, B = _draw(rng, 0.5 * rq, 1.5 * rq), _draw(rng, 0.5 * rq, 1.5 * rq)
        try:
            pastro_inner_product(ONE, ONE, A, B, 0.45, quad=8)
            raised = False
        except ContourError:
            raised = True
        assert raised == (abs(A / rq) >= 1 or abs(B / rq) >= 1)


# ---------------------------------------------------------------------------
# numeric limits


_AW_Q = 0.65
_AW_T = (2.0, 1.3, 3.1, 1.0)
_AW_Z = 1.3
_AW_U0 = 0.4


def _aw_scaled(n, p):
    u1 = _AW_Q / (_AW_T[0] * _AW_T[1] * _AW_T[2] * _AW_T[3] * _AW_U0)
    par = EllipticParams(
        _AW_T, (_AW_U0 * p**0.5, u1 * p**0.5), _AW_Q, p
    )
    return rtilde(n, _AW_Z, par)


def test_aw_phi43_validated_by_numeric_limit():
    from ebiortho.exponents import ExponentVector

    u1 = _AW_Q / (_AW_T[0] * _AW_T[1] * _AW_T[2] * _AW_T[3] * _AW_U0)
    v = ExponentVector((0, 0, 0, 0), (H, H), 0)
    ps = [10 ** (-2.5 - 0.5 * i) for i in range(6)]
    for n in (1, 2):
        lim, val = numeric_limit(lambda p, n=n: _aw_scaled(n, p), v, ps)
        assert abs(val) < 1e-9
        target = aw_phi43(n, _AW_Z, _AW_T, (_AW_U0, u1), _AW_Q)
        assert abs(lim - target) < 1e-4 * abs(target)


def test_numeric_limit_guard():
    from ebiortho.exponents import ExponentVector

    v = ExponentVector((0, 0, 0, 0), (H, H), 0)
    with pytest.raises(DomainError):
        numeric_limit(lambda p: 1.0, v, [1e-3])
    with pytest.raises(NonConvergence):
        # oscillating log-slope trips the stabilization guard
        numeric_limit(
            lambda p: 1.0 + math.sin(math.log(p)) * 5.0,
            v,
            [1e-2, 1e-3, 1e-4, 1e-5],
        )


@pytest.mark.parametrize(
    "face, n, p", [("1111pp", 4, 1e-64), ("40as", 4, 1e-48), ("40as", 3, 1e-64)]
)
def test_rtilde_out_of_range_raises(face, n, p):
    # at these depths the theta products of the last series term underflow
    # to 0 and overflow to inf; their product was returned as nan+nanj
    with pytest.raises(NonFiniteValue):
        limit_value(face, n, p)
