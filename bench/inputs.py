"""Seeded input generators for the benchmark workloads.

Standard library only: the library under test never sees the seed, only
the plain numbers these functions return.  Every generator takes the run
seed, so one seed gives the same batch of inputs in every run; a run
times that one batch in several passes.

Why each input property was chosen:

* classify: denominators from {1,2,3,4,6,8,12} reach every rational
  grid the scheme's vertices and midpoints live on; coordinates spanning
  several lattice cells make `reduce_to_P` take several word steps; a
  fixed share of unbalanced vectors exercises the `DomainError` path
  without changing the per-batch work.
* verify, continuous: every |t_r| < 1 so the unit circle is admissible;
  one modulus near 1 (poles close to the contour, the slowest trapezoid
  convergence that 512 nodes still resolve); |p| and |q| from two strata
  so product truncation lengths differ inside a batch but the per-batch
  mix is the same for every seed.
* verify, Pastro: |A|, |B| < |q|^(1/2) keeps both pole families off the
  unit circle; q near the suite's 0.45 keeps the cost per batch steady.
* verify, limit measures: the exponent vectors of the `verify measures`
  suite with jittered parameters; the last parameter is solved from the
  balancing condition.
* verify, discrete: the ranges of `verify elliptic-discrete` (N = 5,
  p = 0.05, |q| = 0.4).  Ill-conditioned draws are rejected by the
  workload, as the suite does, before timing starts.
* verify, kernel draws: the ranges of the kernel-identity acceptance test.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

CLASSIFY_DENOMS = (1, 2, 3, 4, 6, 8, 12)
CLASSIFY_SPAN = 3  # coordinates in [-SPAN, SPAN]: several lattice cells
CLASSIFY_POINTS = 200  # points per batch
CLASSIFY_UNBALANCED = 10  # per batch: a fixed 5% share

DISCRETE_N = 5
DISCRETE_P = 0.05
DISCRETE_QMOD = 0.4

H = Fraction(1, 2)


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    """Independent, reproducible stream per (workload, seed, part)."""
    return random.Random(f"{workload}:{seed}:{part}")


def _unit(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


# ---------------------------------------------------------------------------
# classify


def classify_points(seed: int, size: int = CLASSIFY_POINTS,
                    unbalanced: int = CLASSIFY_UNBALANCED):
    """`size` rational 7-vectors as (vec7, balanced) pairs.

    Exactly `unbalanced` of them violate sum(alpha) + sum(gamma) = 1.
    """
    rng = rng_for("classify", seed)
    bad = set(rng.sample(range(size), unbalanced))
    out = []
    for i in range(size):
        den = rng.choice(CLASSIFY_DENOMS)
        lim = CLASSIFY_SPAN * den
        a = [Fraction(rng.randint(-lim, lim), den) for _ in range(5)]
        a.append(1 - sum(a))
        if i in bad:
            a[5] += Fraction(rng.choice((-1, 1)), den)
        zeta = Fraction(rng.randint(-lim, lim), den)
        out.append((tuple(a) + (zeta,), i not in bad))
    return out


# ---------------------------------------------------------------------------
# verify

# (|p| range, |q| range) per continuous stratum; one draw from each per batch.
# Narrow ranges keep the cost of a batch nearly the same for every seed.
CONTINUOUS_STRATA = (((0.05, 0.06), (0.1, 0.12)), ((0.16, 0.18), (0.26, 0.28)))


def continuous_params(rng: random.Random, stratum: int):
    """(t0..t3, (u0, u1), q, p) with every |t_r| < 1 and the balancing
    t0 t1 t2 t3 u0 u1 = p q; t0 has modulus near 1."""
    (plo, phi), (qlo, qhi) = CONTINUOUS_STRATA[stratum]
    while True:
        p = rng.uniform(plo, phi) * _unit(rng)
        q = rng.uniform(qlo, qhi) * _unit(rng)
        t = [rng.uniform(0.9, 0.96) * _unit(rng)]
        t += [rng.uniform(0.4, 0.8) * _unit(rng) for _ in range(3)]
        u0 = rng.uniform(0.4, 0.8) * _unit(rng)
        u1 = p * q / (t[0] * t[1] * t[2] * t[3] * u0)
        if 0.2 <= abs(u1) <= 0.8:
            return tuple(t), (u0, u1), q, p


def pastro_params(rng: random.Random):
    """(A, B, q) with |A|, |B| < |q|^(1/2), real as in the Pastro suite.

    q stays near the suite's 0.45: the product truncation length, and so
    the cost of an entry, grows steeply with q."""
    q = rng.uniform(0.44, 0.46)
    rq = math.sqrt(q)
    return rng.uniform(0.4, 0.85) * rq, rng.uniform(0.4, 0.85) * rq, q


def _solved(ts, q):
    """Append the last parameter so that the product of all six is q."""
    return tuple(ts) + (q / math.prod(ts),)


def _jitter(rng: random.Random, values, rel: float = 0.06):
    return [x * rng.uniform(1 - rel, 1 + rel) for x in values]


NR_ALPHA = (0, 0, H, H, 0, 0)
SB_ALPHA = tuple(Fraction(x, 12) for x in (-1, -1, 5, 5, -1, 5))
SIGMA_ALPHA = (-H, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), H)
SIGMA2_ALPHA = (Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4),
                Fraction(1, 4), Fraction(3, 4))
FINITE_ALPHA = (0, 0, 1, 0, 0, 0)


def measure_params(rng: random.Random, kind: str):
    """Positional arguments of one limit measure's constructor, near the
    values of the measures suite."""
    q = 0.35 * rng.uniform(0.94, 1.06)
    if kind == "NR":
        t = _jitter(rng, [0.4, 0.5, 0.7, 0.45, 0.55])
        return NR_ALPHA, (t[0], t[1], t[2], q / math.prod(t), t[3], t[4]), q
    if kind == "SB":
        return SB_ALPHA, _solved(_jitter(rng, [0.8, 0.7, 0.5, 0.6, 0.75]), q), q
    if kind == "Sigma":
        return SIGMA_ALPHA, _solved(_jitter(rng, [0.8, 0.5, 0.6, 0.7, 0.45]), q), q
    if kind in ("Sigma2", "Sigma2-integral"):
        t6 = _solved(_jitter(rng, [0.75, 0.65, 0.5, 0.6, 0.55]), q)
        if kind == "Sigma2-integral":
            return SIGMA2_ALPHA, t6, q, rng.uniform(0.8, 1.0)
        return SIGMA2_ALPHA, t6, q
    if kind == "finite":
        q, N = 0.3 * rng.uniform(0.94, 1.06), 1
        t0, t2, t3, t4 = _jitter(rng, [0.9, 0.3, 0.4, 0.35], rel=0.04)
        t6 = (t0, q ** (-N) / t0, t2, t3, t4, q ** (N + 1) / (t2 * t3 * t4))
        return FINITE_ALPHA, t6, N, q
    raise ValueError(f"unknown measure kind {kind!r}")


def discrete_candidates(rng: random.Random):
    """Endless stream of `verify elliptic-discrete` draws as
    ((t0, t1, t2, t3), u0, q, p) with t0 t1 = q^-N; u1 is solved later."""
    N = DISCRETE_N
    while True:
        q = DISCRETE_QMOD * _unit(rng)
        t0 = rng.uniform(0.75, 0.95) * _unit(rng)
        t2 = rng.uniform(0.2, 0.45) * _unit(rng)
        t3 = rng.uniform(0.2, 0.45) * _unit(rng)
        u0 = rng.uniform(0.3, 0.6) * _unit(rng)
        yield (t0, q ** (-N) / t0, t2, t3), u0, q, DISCRETE_P


def kernel_draw(rng: random.Random):
    """(pr, p, q, x): real nome pr, complex nomes p, q, argument x."""
    pr = rng.uniform(0.05, 0.5)
    p = rng.uniform(0.05, 0.5) * _unit(rng)
    q = rng.uniform(0.05, 0.5) * _unit(rng)
    x = rng.uniform(0.5, 2.0) * _unit(rng)
    return pr, p, q, x


def derived_seed(seed: int) -> int:
    """Integer seed handed to `ebiortho verify ... --seed`."""
    return rng_for("verify", seed, "cli").randrange(2**31)
