"""Exact-rational valuation bookkeeping."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_P_vector
from ebiortho import polytope
from ebiortho.errors import DomainError
from ebiortho.exponents import (
    ExponentVector,
    norm_valuation,
    rtilde_valuation,
    theta_lc,
    theta_val,
    valuation_deficit,
)
from ebiortho.polytope import reduce_to_P
from ebiortho.scheme import APPENDIX_TABLES

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)


def test_vector_construction_and_balance():
    v = ExponentVector((0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2)), 0)
    assert v.balanced
    v.require_balanced()
    assert v.as7() == (0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2), 0)
    bad = ExponentVector((1, 0, 0, 0), (1, 0), 0)
    assert not bad.balanced
    with pytest.raises(DomainError):
        bad.require_balanced()


def test_from7_roundtrip():
    vec = (Fraction(1, 3), 0, 0, 0, Fraction(1, 3), Fraction(1, 3), Fraction(-1, 3))
    assert ExponentVector.from7(vec).as7() == vec
    with pytest.raises(DomainError):
        ExponentVector.from7(vec[:6])


@settings(max_examples=100, deadline=None)
@given(a=rationals)
def test_theta_val_reflection_symmetry(a):
    assert theta_val(a) == theta_val(1 - a)


@settings(max_examples=100, deadline=None)
@given(a=rationals)
def test_theta_val_shift_law(a):
    # from theta(p x; p) = -theta(x; p)/x applied at x p^a
    assert theta_val(a + 1) - theta_val(a) == -a


def test_theta_val_vanishes_on_unit_interval():
    for num in range(0, 13):
        a = Fraction(num, 12)
        assert theta_val(a) == 0


def test_theta_lc_kinds():
    lc_int = theta_lc(Fraction(2))
    assert lc_int.kind == "integer_shift" and lc_int.power == -2
    lc_frac = theta_lc(Fraction(-3, 4))
    assert lc_frac.kind == "fractional_shift" and lc_frac.power == 1
    # integer-shift lc carries the (1 - x) factor
    assert lc_int.evaluate(2.0) == pytest.approx((1 - 2.0) * (-2.0) ** -2)
    assert lc_frac.evaluate(2.0) == pytest.approx(-2.0)


def test_valuations_linear_in_n():
    rng = random.Random(2)
    for _ in range(25):
        v = random_P_vector(rng, den=rng.choice([2, 3, 4, 6]))
        for n in range(5):
            assert rtilde_valuation(v, n) == n * rtilde_valuation(v, 1)
            assert norm_valuation(v, n) == n * norm_valuation(v, 1)


def test_deficit_nonnegative_random():
    rng = random.Random(3)
    for _ in range(300):
        v = random_P_vector(rng, den=rng.choice([2, 3, 4, 6, 8]))
        assert valuation_deficit(v) >= 0


def test_outside_P_rejected():
    v = ExponentVector((3, -2, 0, 0), (0, 0), 0)
    with pytest.raises(DomainError):
        rtilde_valuation(v, 1)
    with pytest.raises(DomainError):
        norm_valuation(v, 1)
    with pytest.raises(DomainError):
        valuation_deficit(v)


def test_unbalanced_rejected_by_every_valuation():
    v = ExponentVector((1, 0, 0, 0), (0, 1), 0)
    for val in (lambda w: rtilde_valuation(w, 1), lambda w: norm_valuation(w, 1),
                valuation_deficit):
        with pytest.raises(DomainError, match="violates"):
            val(v)


def test_P_membership_is_tested_once_per_vector(monkeypatch):
    import ebiortho.polytope

    calls = []
    real = ebiortho.polytope.in_P

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(ebiortho.polytope, "in_P", counted)
    v = random_P_vector(random.Random(5), den=6)
    rtilde_valuation(v, 1)
    norm_valuation(v, 2)
    valuation_deficit(v)
    assert calls == [v]


def test_reduced_vector_is_not_tested_for_P_again(monkeypatch):
    v = ExponentVector.from7(
        [Fraction(x) for x in "5/2 -1 1/3 -2/3 0 -1/6 7/4".split()]
    )
    word, red = reduce_to_P(v)
    assert word
    monkeypatch.setattr(polytope, "in_P", lambda w: pytest.fail("P tested again"))
    rtilde_valuation(red, 1)
    norm_valuation(red, 1)
    valuation_deficit(red)


def test_known_valuations_at_midpoints():
    # top face: everything balanced at zero valuation
    v = ExponentVector((0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2)), 0)
    assert rtilde_valuation(v, 2) == 0
    assert norm_valuation(v, 2) == 0
    assert valuation_deficit(v) == 0


# ---------------------------------------------------------------------------
# The valuation formulas on Fractions, the reference for the integer ones


def _neg(x):
    """x * 1{x < 0}, strict at zero."""
    return x if x < 0 else Fraction(0)


def _pos(x):
    """x * 1{x > 0}, strict at zero."""
    return x if x > 0 else Fraction(0)


def _ref_rtilde_valuation(v, n):
    a0, a1, a2, a3 = v.alpha
    g0, g1 = v.gamma
    z = v.zeta
    total = (
        _neg(a0 - g0)
        - _neg(-z - g0)
        - _neg(1 + z - g0)
        - _neg(a0 + g1)
        - sum(_neg(a0 + ar) for ar in (a1, a2, a3))
    )
    return n * total


def _ref_norm_valuation(v, n):
    a0, a1, a2, a3 = v.alpha
    g0, g1 = v.gamma
    gs = g0 + g1
    total = -_pos(gs) - 2 * _neg(gs)
    for r, s in itertools.combinations((a1, a2, a3), 2):
        total += _neg(r + s)
    for ar in (a1, a2, a3):
        total -= _neg(ar + a0)
    for gr in (g0, g1):
        if a0 - gr > 0:
            total += gr - a0
        if a0 + gr > 0:
            total += a0 + gr
    return n * total


def _ref_valuation_deficit(v):
    g0, g1 = v.gamma
    z = v.zeta
    total = _pos(g0 + g1)
    for r, s in itertools.combinations(v.alpha, 2):
        total += _neg(r + s)
    for gr in (g0, g1):
        if gr + z > 0:
            total -= z + gr
        if 1 + z < gr:
            total += 1 + z - gr
    return total


def _appendix_vectors():
    """The midpoints of the appendix cells; the tables list -zeta last."""
    cells = [
        cell
        for _, _, rows in APPENDIX_TABLES
        for row in rows
        for cell in row
        if cell is not None
    ]
    assert len(cells) == 99
    return [ExponentVector(m[:4], m[4:6], -m[6]) for _, m, _ in cells]


def test_valuations_match_fraction_reference():
    rng = random.Random(21)
    vecs = _appendix_vectors()
    vecs += [random_P_vector(rng, den=rng.choice([1, 2, 3, 4, 6, 8, 12])) for _ in range(200)]
    # reduced vectors reach P with every zeta in [-1, 0], not only the
    # canonical one
    for _ in range(200):
        den = rng.choice([1, 2, 3, 4, 6, 8, 12])
        a = [Fraction(rng.randint(-3 * den, 3 * den), den) for _ in range(5)]
        a.append(1 - sum(a))
        zeta = Fraction(rng.randint(-3 * den, 3 * den), den)
        vecs.append(reduce_to_P(ExponentVector(a[:4], a[4:], zeta))[1])
    for v in vecs:
        for n in range(4):
            for got, want in (
                (rtilde_valuation(v, n), _ref_rtilde_valuation(v, n)),
                (norm_valuation(v, n), _ref_norm_valuation(v, n)),
            ):
                assert type(got) is Fraction and got == want
        got = valuation_deficit(v)
        assert type(got) is Fraction and got == _ref_valuation_deficit(v)
    assert len({v.zeta for v in vecs}) > 10
