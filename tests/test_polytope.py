"""Polytope membership, reduction, tiling, and naming."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_P0_point, random_P_vector
from ebiortho import polytope, scheme
from ebiortho.errors import DomainError
from ebiortho.exponents import ExponentVector
from ebiortho.polytope import (
    _TILE_ROWS,
    TileId,
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


def _ref_in_lattice(vec7):
    """The lattice rule on Fractions."""
    vec7 = [Fraction(x) for x in vec7]
    a, z = vec7[:6], vec7[6]
    if sum(a) != 0:
        return False
    if all(x.denominator == 1 for x in a):
        return z.denominator == 1
    if all(x.denominator == 2 and x.numerator % 2 != 0 for x in a):
        return z.denominator == 2
    return False


def _ref_reduce(v):
    """The reduction into P on Fractions, step for step: (word, reduced)."""
    word = []
    cur = list(v.as7())

    def translate(shift):
        shift = tuple(Fraction(s) for s in shift)
        assert _ref_in_lattice(shift)
        word.append(("translate", shift))
        cur[:] = [x + s for x, s in zip(cur, shift)]

    while not in_P(ExponentVector.from7(cur)):
        # step 1: pairwise differences within 1
        while True:
            a = cur[:6]
            lo = min(range(6), key=lambda i: a[i])
            hi = max(range(6), key=lambda i: a[i])
            if a[hi] - a[lo] <= 1:
                break
            shift = [0] * 7
            shift[lo], shift[hi] = 1, -1
            translate(shift)
        # step 2: zeta into [-1, 0]
        k = -math.ceil(cur[6])
        if k != 0:
            translate([0] * 6 + [k])
        # step 3: the half-shift when a triple sum dips below A - 1/2
        a = cur[:6]
        A = abs(cur[6] + H)
        if min(sum(t) for t in itertools.combinations(a, 3)) < A - H:
            order = sorted(range(6), key=lambda i: (-a[i], i))
            shift = [0] * 7
            for pos in order[:3]:
                shift[pos] = -H
            for pos in order[3:]:
                shift[pos] = H
            shift[6] = -H if cur[6] >= -H else H
            translate(shift)
        if in_P(ExponentVector.from7(cur)):
            break
        # step 4: alpha -> c - alpha as the flip and a translation
        a = cur[:6]
        A = abs(cur[6] + H)
        order = sorted(range(6), key=lambda i: (a[i], i))
        s0, s4, s5 = order[0], order[4], order[5]
        if A + H <= a[s0] + a[s4] + a[s5]:
            c6 = [0] * 6
            c6[s4] = c6[s5] = 1
            zshift = 0
        else:
            c6 = [H] * 6
            c6[s0] = -H
            zshift = -H if cur[6] >= -H else H
        word.append(("flip",))
        cur[:] = flip(ExponentVector.from7(cur)).as7()
        translate([c - f for c, f in zip(c6, (0, 0, 1, 1, 0, 0))] + [zshift])
    return word, ExponentVector.from7(cur)


def _reduction_inputs(rng, count):
    """Balanced vectors, half with denominators up to 60 and half with
    small ones (where ties in the flip test are common), a third of them
    with tied coordinates, and some far from P."""
    out = []
    for i in range(count):
        den = rng.randint(1, 60) if i % 2 else rng.choice((1, 2, 3, 4, 6, 12))
        span = 9 if i % 4 > 1 else 2
        a = [Fraction(rng.randint(-span * den, span * den), den) for _ in range(5)]
        if i % 3 == 0:
            a[rng.randrange(5)] = a[rng.randrange(5)]
            a[rng.randrange(5)] = -a[rng.randrange(5)]
        a.append(1 - sum(a))
        zeta = Fraction(rng.randint(-span * den, span * den), rng.choice((1, 2, den)))
        out.append(ExponentVector(a[:4], a[4:], zeta))
    return out


def test_reduce_to_P_matches_fraction_reference():
    rng = random.Random(11)
    words = []
    for v in _reduction_inputs(rng, 600) + [
        random_P_vector(rng, den=6),
        ExponentVector((Fraction(5, 2), -1, Fraction(1, 3), Fraction(-2, 3)),
                       (0, Fraction(-1, 6)), Fraction(7, 4)),
        ExponentVector((-3, 2, 1, H), (H, 0), Fraction(-5, 2)),
        # ties A + 1/2 = a_s0 + a_s4 + a_s5 in the flip test
        ExponentVector.from7(
            [Fraction(x) for x in "3/4 -3 25/12 7/12 13/12 -1/2 17/6".split()]
        ),
        ExponentVector.from7(
            [Fraction(x) for x in "7/6 -1/2 -5/6 -29/12 35/12 2/3 -7/4".split()]
        ),
    ]:
        word, red = reduce_to_P(v)
        ref_word, ref_red = _ref_reduce(v)
        assert repr(word) == repr(ref_word)
        assert repr(red) == repr(ref_red)
        words.append(word)
    # the sample reaches every step: the empty word, long words, the
    # half-shift and the flip
    assert min(map(len, words)) == 0 and max(map(len, words)) > 10
    assert any(("flip",) in w for w in words)
    assert any(
        s[0] == "translate" and any(x.denominator == 2 for x in s[1][:6])
        for w in words
        for s in w
    )


def test_reduction_tests_each_point_for_P_once(monkeypatch):
    tested = []
    real = polytope._holds

    def recorded(rows, x, h):
        if rows is polytope._P_ROWS:
            tested.append((tuple(x), h))
        return real(rows, x, h)

    monkeypatch.setattr(polytope, "_holds", recorded)
    for v in _reduction_inputs(random.Random(14), 200):
        tested.clear()
        reduce_to_P(v)
        assert tested and len(tested) == len(set(tested))


def test_reduced_vector_carries_its_integer_form_and_P_membership():
    for v in _reduction_inputs(random.Random(13), 200):
        _, red = reduce_to_P(v)
        fresh = ExponentVector.from7(red.as7())
        assert red.scaled == fresh.scaled
        assert red.inside_P is in_P(fresh) is True


def test_long_difference_reduction_is_not_cut():
    # each difference step moves the spread by 1: this input needs 10001
    v = ExponentVector((10001, -10001, 0, 0), (H, H), 0)
    word, red = reduce_to_P(v)
    assert len(word) == 10001
    assert apply_word(word, v) == red
    assert in_P(red)


def test_reduction_word_length_is_capped(monkeypatch):
    monkeypatch.setattr(polytope, "_MAX_WORD", 100)
    word, _ = reduce_to_P(ExponentVector((100, -100, 0, 0), (H, H), 0))
    assert len(word) == 100
    with pytest.raises(DomainError, match="more than 100 steps"):
        reduce_to_P(ExponentVector((101, -101, 0, 0), (H, H), 0))


def test_in_lattice_matches_fraction_rule():
    rng = random.Random(12)
    seen = set()
    for i in range(3000):
        den = rng.choice((1, 2, 2, 3, 4, 6))
        a = [Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(5)]
        a.append(-sum(a) if rng.random() < 0.8 else Fraction(rng.randint(-9, 9), 2))
        a.append(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        if i % 3 == 1:
            a = [str(x) for x in a]
        elif i % 3 == 2:
            a = [int(x) if x.denominator == 1 else x for x in a]
        expected = _ref_in_lattice(a)
        assert in_lattice(a) == expected
        seen.add(expected)
    assert seen == {True, False}
    assert in_lattice([H, -H, H, -H, H, -H, Fraction(3, 2)])
    assert not in_lattice([H, -H, H, -H, H, -H, 1])
    assert not in_lattice([1, -1, 0, 0, 0, 0, H])
    assert not in_lattice(["1/3", "-1/3", 0, 0, 0, 0, 0])
    assert not in_lattice(["1/6"] * 5 + ["-5/6", "1/6"])


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
        assert is_system(a) == (not any(r[0] in pii and r[3] for r in ref))
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


def test_tiling_is_face_to_face():
    """Every face of every tile is a face of each other tile that holds its
    midpoint, and face_of reports there the dimension that the tight rows
    of that tile give: the one rank face_of computes serves every tile."""
    faces = {tile: scheme._tile_faces(rows) for tile, rows in _TILE_ROWS.items()}
    dims = {}
    pairs = 0
    for tile, tile_faces in faces.items():
        for names in tile_faces:
            x, k = scheme._midpoint2(names)
            sigs = face_of(tuple(Fraction(xi, 2 * k) for xi in x))
            assert tile in [sig.tile for sig in sigs]
            for sig in sigs:
                assert names in faces[sig.tile]
                key = sig.tile, sig.tight
                if key not in dims:
                    rows = [(1,) * 6] + [
                        n for label, n, _ in _TILE_ROWS[sig.tile] if label in sig.tight
                    ]
                    dims[key] = 6 - _ref_rank([[Fraction(c) for c in r] for r in rows])
                assert sig.dim == dims[key]
                pairs += sig.tile != tile
    assert sum(map(len, faces.values())) == 2781
    assert pairs == 7102
