"""Exact-rational valuation and leading-coefficient calculus.

Degeneration directions are recorded as exact rational exponent vectors
(alpha_0..alpha_3; gamma_0, gamma_1; zeta) with the balancing condition
sum(alpha) + sum(gamma) = 1.  Each vector carries its integer form: the
numerators of its seven entries over their least common even denominator
2h.  The balancing test, the polytope tests and the piecewise-linear
valuation formulas run on those integers, and each valuation is returned
as one Fraction over 2h; indicators are strict (1{x<0} is false at x = 0).
Internally zeta is kept in [-1/2, 0]; tables and I/O use the negated value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import floor, lcm

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


def _scaled(xs) -> tuple[tuple[int, ...], int]:
    """Numerators of the rationals xs over their least common even
    denominator 2h, and h."""
    xs = [_frac(x) for x in xs]
    d = lcm(2, *(x.denominator for x in xs))
    return tuple(x.numerator * (d // x.denominator) for x in xs), d // 2


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

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """Numerators of as7() over its least common even denominator 2h,
        and h; computed on first use only."""
        return _scaled(self.as7())

    @property
    def balanced(self) -> bool:
        x, h = self.scaled
        return sum(x[:6]) == 2 * h

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

    @classmethod
    def _from_scaled_in_P(cls, x, h) -> "ExponentVector":
        """The vector with integer form (x, h), 2h being the least common
        even denominator, known to lie in P."""
        v = cls.from7([Q(xi, 2 * h) for xi in x])
        v.__dict__.update(scaled=(tuple(x), h), inside_P=True)
        return v

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


def _require_in_P(v: ExponentVector) -> tuple[tuple[int, ...], int]:
    """The integer form of v, which must lie in P."""
    if not v.inside_P:
        raise DomainError("exponent vector is not in the polytope P")
    return v.scaled


def rtilde_valuation(v: ExponentVector, n: int) -> Fraction:
    """Valuation of the rescaled biorthogonal function of degree n.

    Linear in n; only defined inside the polytope P.
    """
    (a0, a1, a2, a3, g0, g1, z), h = _require_in_P(v)
    total = min(a0 - g0, 0) - min(-z - g0, 0) - min(2 * h + z - g0, 0)
    total -= sum(min(a0 + y, 0) for y in (g1, a1, a2, a3))
    return Q(n * total, 2 * h)


def norm_valuation(v: ExponentVector, n: int) -> Fraction:
    """Valuation of the closed-form squared norm, inside P only."""
    (a0, a1, a2, a3, g0, g1, _), h = _require_in_P(v)
    total = -max(g0 + g1, 0) - 2 * min(g0 + g1, 0)
    total += sum(min(r + s, 0) for r, s in combinations((a1, a2, a3), 2))
    total -= sum(min(a0 + r, 0) for r in (a1, a2, a3))
    total += sum(min(g - a0, 0) + max(a0 + g, 0) for g in (g0, g1))
    return Q(n * total, 2 * h)


def valuation_deficit(v: ExponentVector) -> Fraction:
    """Norm valuation minus the valuations of the two series arguments.

    Zero exactly at candidate biorthogonal-system directions; positive when
    the inner product degenerates; never negative inside P.
    """
    x, h = _require_in_P(v)
    g0, g1, z = x[4:]
    total = max(g0 + g1, 0) + sum(min(r + s, 0) for r, s in combinations(x[:4], 2))
    total += sum(min(2 * h + z - g, 0) - max(z + g, 0) for g in (g0, g1))
    return Q(total, 2 * h)
