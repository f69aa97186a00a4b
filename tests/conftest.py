"""Shared samplers for exact rational points of the polytopes, and the
continuous weight on the circle_gram grid."""

import cmath
from fractions import Fraction

from ebiortho.biortho import continuous_weight
from ebiortho.polytope import attach_zeta, in_P, in_P0
from ebiortho.qkernel import grid_log_series


def random_P0_point(rng, den=4, max_tries=100000):
    """Uniform-ish rational point of P^(0) with denominator dividing den.

    Every point of P^(0) has all coordinates in [-1/2, 1] (alpha_r >= -1/2,
    and summing alpha_r - alpha_s <= 1 over s with sum(alpha) = 1 gives
    alpha_r <= 1), so drawing numerators from that box rejects no point
    that a wider box could return.
    """
    for _ in range(max_tries):
        a = [Fraction(rng.randint(-(den // 2), den), den) for _ in range(5)]
        a.append(1 - sum(a))
        if in_P0(a):
            return tuple(a)
    raise RuntimeError("rejection sampling failed")


def random_P_vector(rng, den=4, max_tries=100000):
    """Random balanced vector inside P, with its canonical zeta attached."""
    for _ in range(max_tries):
        a = random_P0_point(rng, den=den)
        v = attach_zeta(a)
        if in_P(v):
            return v
    raise RuntimeError("rejection sampling failed")


def grid_weight(par, quad):
    """continuous_weight at the circle_gram nodes: [(z_j, w(z_j)) for j < quad]."""
    (pos, neg), remainder = continuous_weight(par)
    logs = grid_log_series(pos, neg, quad)
    nodes = [cmath.exp(2j * cmath.pi * (j + 0.5) / quad) for j in range(quad)]
    return [(z, cmath.exp(x) * remainder(z)) for z, x in zip(nodes, logs)]
