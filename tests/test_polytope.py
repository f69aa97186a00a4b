"""Polytope membership, reduction, tiling, and naming."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_P0_point, random_P_vector
from ebiortho.errors import DomainError
from ebiortho.exponents import ExponentVector
from ebiortho.polytope import (
    TileId,
    _in_relint_PII,
    apply_word,
    attach_zeta,
    face_name,
    face_of,
    flip,
    in_P,
    in_P0,
    in_lattice,
    is_system,
    is_z_dependent,
    point_in_tile,
    reduce_to_P,
    tile_constraints,
    tiles,
    zeta_for,
)

H = Fraction(1, 2)


def _rand_lattice_shift(rng):
    # sum-zero, all-integer or all-half-odd, integer zeta slot
    while True:
        if rng.random() < 0.5:
            vec = [rng.randint(-2, 2) for _ in range(5)]
            vec.append(-sum(vec))
        else:
            vec = [rng.randint(-2, 2) + H for _ in range(5)]
            s = -sum(vec)
            if (s - H).denominator != 1:
                continue
            vec.append(s)
        vec.append(Fraction(rng.randint(-1, 1)))
        if in_lattice(tuple(vec)):
            return tuple(vec)


def test_flip_involution_and_pattern():
    rng = random.Random(0)
    for _ in range(50):
        v = random_P_vector(rng, den=rng.choice([2, 4, 6]))
        f = flip(v)
        a = v.a6
        assert f.a6 == (-a[0], -a[1], 1 - a[2], 1 - a[3], -a[4], -a[5])
        assert f.zeta == v.zeta
        assert flip(f).as7() == v.as7()


def test_reduce_to_P_lands_in_P_and_word_replays():
    rng = random.Random(1)
    for _ in range(200):
        a = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(5)]
        a.append(1 - sum(a))
        zeta = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        v = ExponentVector(a[:4], a[4:6], zeta)
        word, red = reduce_to_P(v)
        assert in_P(red)
        assert apply_word(word, v).as7() == red.as7()


def test_reduce_translation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        v = random_P_vector(rng, den=rng.choice([2, 4]))
        shift = _rand_lattice_shift(rng)
        moved = ExponentVector.from7(
            tuple(x + s for x, s in zip(v.as7(), shift))
        )
        _, red = reduce_to_P(moved)
        assert in_P(red)
        # reductions of lattice translates stay in the same orbit: the
        # difference of the two reduced vectors (or of one with the flip
        # of the other) is again a lattice vector
        d_plain = tuple(x - y for x, y in zip(red.as7(), v.as7()))
        d_flip = tuple(x - y for x, y in zip(red.as7(), flip(v).as7()))
        assert in_lattice(d_plain) or in_lattice(d_flip)


def test_zeta_for_gives_P_membership():
    rng = random.Random(3)
    for _ in range(200):
        a = random_P0_point(rng, den=rng.choice([2, 3, 4, 6, 8]))
        v = attach_zeta(a)
        assert in_P(v)
        assert v.zeta == zeta_for(a)
        assert -H <= v.zeta <= 0


def test_tiles_census():
    ts = tiles()
    kinds = {}
    for t in ts:
        kinds.setdefault(t.kind, []).append(t)
    assert len(kinds["I"]) == 1
    assert len(kinds["II"]) == 6
    # III indexed by gamma-avoiding triples
    assert len(kinds["III"]) == len(ts) - 7


def test_tiles_cover_P0():
    rng = random.Random(4)
    for _ in range(300):
        a = random_P0_point(rng, den=rng.choice([2, 3, 4, 6, 8]))
        sigs = face_of(a)
        assert sigs
        for sig in sigs:
            assert point_in_tile(a, sig.tile)


def test_tile_interiors_disjoint():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        a = random_P0_point(rng, den=rng.choice([4, 6, 8]))
        strict_tiles = []
        for t in tiles():
            if not point_in_tile(a, t):
                continue
            if all(
                sum(n * x for n, x in zip(normal, a)) < bound
                for _, normal, bound in tile_constraints(t)
            ):
                strict_tiles.append(t)
        assert len(strict_tiles) <= 1
        checked += 1


def test_face_name_permutation_invariance():
    rng = random.Random(6)
    found = 0
    while found < 40:
        a = random_P0_point(rng, den=rng.choice([2, 4]))
        if not is_system(a):
            continue
        found += 1
        base = face_name(a)
        for _ in range(5):
            perm = list(rng.sample(range(4), 4))
            g = [4, 5] if rng.random() < 0.5 else [5, 4]
            b = tuple(a[i] for i in perm) + tuple(a[i] for i in g)
            assert face_name(b) == base


def test_known_system_names():
    assert face_name((0, 0, 0, 0, H, H)) == "40as"
    assert face_name((1, 0, 0, 0, 0, 0)) == "40v2"
    assert not is_system((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4)))
    with pytest.raises(DomainError):
        face_name((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4)))


def test_z_dependence_needs_exponent_vector():
    v = attach_zeta((0, 0, 0, 0, H, H))
    assert isinstance(is_z_dependent(v), bool)


def test_in_P0_rejects_outside():
    assert not in_P0((2, 0, 0, 0, 0, -1))
    assert in_P0((0, 0, 0, 0, H, H))


def test_face_of_outside_raises():
    with pytest.raises(DomainError):
        face_of((2, 0, 0, 0, 0, -1))


# ---------------------------------------------------------------------------
# The integer facet table against a Fraction transcription


def _ref_in_P0(a):
    return (
        sum(a) == 1
        and all(x >= -H for x in a)
        and all(x - y <= 1 for x in a for y in a)
        and all(x + y <= 1 for x, y in itertools.combinations(a, 2))
    )


def _ref_in_P(a, zeta):
    A = abs(zeta + H)
    return (
        A <= H
        and all(x >= A - H for x in a)
        and all(x - y <= 1 for x in a for y in a)
        and all(x + y <= 1 for x, y in itertools.combinations(a, 2))
        and all(x + y + z <= 3 * H - A for x, y, z in itertools.combinations(a, 3))
    )


def _ref_zeta(a):
    return min([Fraction(0), *a, *(sum(t) for t in itertools.combinations(a, 3))])


def _ref_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for c in range(6):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _ref_tiles(a, constraints, dims):
    """(tile, tight labels, dim, relative interior) for each tile holding a,
    with its tile_constraints evaluated in Fractions.  constraints holds
    each row with its nonzero (index, coefficient) terms; dims caches the
    dimension of each tight set."""
    out = []
    for tile, cons in constraints.items():
        tight = []
        for label, normal, bound, terms in cons:
            v = sum([n * a[i] for i, n in terms], Fraction(0))
            if v > bound:
                break
            if v == bound:
                tight.append((label, normal))
        else:
            labels = tuple(label for label, _ in tight)
            if (tile, labels) not in dims:
                rows = [[Fraction(1)] * 6] + [list(n) for _, n in tight]
                dims[tile, labels] = 6 - _ref_rank(rows)
            out.append((tile, labels, dims[tile, labels], not tight))
    return out


def _table_points():
    """The vertices, every enumerated face midpoint and 500 seeded random
    points of P^(0); then the rejected draws, which lie outside it."""
    from ebiortho.scheme import VERTEX_COORDS, build_scheme

    inside = list(VERTEX_COORDS.values())
    for names in build_scheme().faces:
        vecs = [VERTEX_COORDS[n] for n in names]
        inside.append(tuple(sum(col) / len(vecs) for col in zip(*vecs)))
    rng = random.Random(11)
    outside = []
    drawn = 0
    while drawn < 500:
        den = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        a = [Fraction(rng.randint(-den // 2, den), den) for _ in range(5)]
        a.append(1 - sum(a))
        if _ref_in_P0(a):
            inside.append(tuple(a))
            drawn += 1
        else:
            outside.append(tuple(a))
    return inside, outside, rng


def test_integer_table_matches_fraction_reference():
    inside, outside, rng = _table_points()
    constraints = {
        tile: [
            (label, normal, bound, [(i, n) for i, n in enumerate(normal) if n])
            for label, normal, bound in tile_constraints(tile)
        ]
        for tile in tiles()
    }
    dims = {}
    pii = [TileId("II", (t,)) for t in range(6)]
    for a in inside:
        ref = _ref_tiles(a, constraints, dims)
        assert in_P0(a) and _ref_in_P0(a)
        for tile in tiles():
            assert point_in_tile(a, tile) == any(r[0] == tile for r in ref)
        for t in range(6):
            assert _in_relint_PII(a, t) == any(r[0] == pii[t] and r[3] for r in ref)
        assert [(s.tile, s.tight, s.dim) for s in face_of(a)] == [r[:3] for r in ref]
        zeta = zeta_for(a)
        assert type(zeta) is Fraction and zeta == _ref_zeta(a)
        for z in (zeta, Fraction(rng.randint(-8, 2), 8)):
            assert in_P(ExponentVector(a[:4], a[4:], z)) == _ref_in_P(a, z)
    for a in outside[:1000]:
        assert not in_P0(a)
        z = Fraction(rng.randint(-8, 2), 8)
        assert in_P(ExponentVector(a[:4], a[4:], z)) == _ref_in_P(a, z)
    with pytest.raises(DomainError):
        zeta_for(outside[0])
    with pytest.raises(DomainError):
        face_of(outside[0])
