"""Exact-rational valuation and leading-coefficient calculus.

Degeneration directions are recorded as exact rational exponent vectors
(alpha_0..alpha_3; gamma_0, gamma_1; zeta) with the balancing condition
sum(alpha) + sum(gamma) = 1.  All piecewise-linear valuation formulas are
evaluated in Fraction arithmetic; indicators are strict (1{x<0} is false
at x = 0).  Internally zeta is kept in [-1/2, 0]; tables and I/O use the
negated value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor

from .errors import DomainError

__all__ = [
    "ExponentVector",
    "ValLc",
    "theta_val",
    "theta_lc",
    "rtilde_valuation",
    "norm_valuation",
    "valuation_deficit",
]

Q = Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ExponentVector:
    """Degeneration direction (alpha_0..alpha_3; gamma_0, gamma_1; zeta).

    The convention alpha_4 := gamma_0 and alpha_5 := gamma_1 is used by the
    six-vector accessor `a6`.
    """

    alpha: tuple[Fraction, Fraction, Fraction, Fraction]
    gamma: tuple[Fraction, Fraction]
    zeta: Fraction

    def __init__(self, alpha, gamma, zeta):
        alpha = tuple(_frac(a) for a in alpha)
        gamma = tuple(_frac(g) for g in gamma)
        if len(alpha) != 4 or len(gamma) != 2:
            raise DomainError("need 4 alpha and 2 gamma entries")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "zeta", _frac(zeta))

    @property
    def a6(self) -> tuple[Fraction, ...]:
        return self.alpha + self.gamma

    @property
    def balanced(self) -> bool:
        return sum(self.a6) == 1

    def require_balanced(self) -> None:
        if not self.balanced:
            raise DomainError("exponent vector violates sum(alpha)+sum(gamma)=1")

    @cached_property
    def inside_P(self) -> bool:
        """polytope.in_P of this vector, computed on first use only."""
        from .polytope import in_P  # deferred: polytope imports this module

        return in_P(self)

    def as7(self) -> tuple[Fraction, ...]:
        return self.a6 + (self.zeta,)

    @classmethod
    def from7(cls, vec) -> "ExponentVector":
        vec = [_frac(x) for x in vec]
        if len(vec) != 7:
            raise DomainError("need 7 entries")
        return cls(vec[0:4], vec[4:6], vec[6])

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.as7()) + ")"


def theta_val(alpha) -> Fraction:
    """Lowest p-exponent of theta(x p^alpha; p)."""
    a = _frac(alpha)
    fr = a - floor(a)
    return Q(1, 2) * fr * (fr - 1) - Q(1, 2) * a * (a - 1)


@dataclass(frozen=True)
class ValLc:
    """Valuation plus a symbolic leading-coefficient descriptor.

    kind "integer_shift" stands for (1-x)(-x)^power, kind
    "fractional_shift" for (-x)^power; x is the theta argument with the
    p-power stripped.
    """

    val: Fraction
    kind: str
    power: int

    def evaluate(self, x: complex) -> complex:
        lc = (-x) ** self.power if self.power >= 0 else 1.0 / (-x) ** (-self.power)
        if self.kind == "integer_shift":
            lc *= 1.0 - x
        return lc


def theta_lc(alpha) -> ValLc:
    """Leading coefficient of theta(x p^alpha; p) as p -> 0."""
    a = _frac(alpha)
    if a.denominator == 1:
        return ValLc(theta_val(a), "integer_shift", -int(a))
    return ValLc(theta_val(a), "fractional_shift", -floor(a))


def _neg_part(x: Fraction) -> Fraction:
    """x * 1{x < 0}, strict at zero."""
    return x if x < 0 else Q(0)


def _pos_part(x: Fraction) -> Fraction:
    """x * 1{x > 0}, strict at zero."""
    return x if x > 0 else Q(0)


def _require_in_P(v: ExponentVector) -> None:
    if not v.inside_P:
        raise DomainError("exponent vector is not in the polytope P")


def rtilde_valuation(v: ExponentVector, n: int) -> Fraction:
    """Valuation of the rescaled biorthogonal function of degree n.

    Linear in n; only defined inside the polytope P.
    """
    _require_in_P(v)
    a0, a1, a2, a3 = v.alpha
    g0, g1 = v.gamma
    z = v.zeta
    total = (
        _neg_part(a0 - g0)
        - _neg_part(-z - g0)
        - _neg_part(1 + z - g0)
        - _neg_part(a0 + g1)
        - sum(_neg_part(a0 + ar) for ar in (a1, a2, a3))
    )
    return n * total


def norm_valuation(v: ExponentVector, n: int) -> Fraction:
    """Valuation of the closed-form squared norm, inside P only."""
    _require_in_P(v)
    a0, a1, a2, a3 = v.alpha
    g0, g1 = v.gamma
    gs = g0 + g1
    total = -_pos_part(gs) - 2 * _neg_part(gs)
    rest = (a1, a2, a3)
    for i in range(3):
        for j in range(i + 1, 3):
            total += _neg_part(rest[i] + rest[j])
    for ar in rest:
        total -= _neg_part(ar + a0)
    for gr in (g0, g1):
        if a0 - gr > 0:
            total += gr - a0
        if a0 + gr > 0:
            total += a0 + gr
    return n * total


def valuation_deficit(v: ExponentVector) -> Fraction:
    """Norm valuation minus the valuations of the two series arguments.

    Zero exactly at candidate biorthogonal-system directions; positive when
    the inner product degenerates; never negative inside P.
    """
    _require_in_P(v)
    a = v.alpha
    g0, g1 = v.gamma
    z = v.zeta
    total = _pos_part(g0 + g1)
    for i in range(4):
        for j in range(i + 1, 4):
            total += _neg_part(a[i] + a[j])
    for gr in (g0, g1):
        if gr + z > 0:
            total -= z + gr
        if 1 + z < gr:
            total += 1 + z - gr
    return total
