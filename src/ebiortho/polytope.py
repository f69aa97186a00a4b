"""Exact polytope combinatorics for the degeneration directions.

Membership in the seven-coordinate polytope P, the constructive reduction
of an arbitrary balanced vector into P by lattice translations and the
flip, the zeta value attached to a six-vector, z-dependence of the limit,
system classification, and the tiling of the projected polytope into
P_I, P_II,t and P_III,(r,s,t) with exact face signatures.

Every membership, tightness and interior test reads one integer facet
table.  A row (label, normal, bound2) means dot(normal, x) <= bound2 / 2:
the normals are integer and the bounds are doubled, so that they are
integer too.  The table holds P in the coordinates (alpha_0..alpha_5, A)
with the fold A = |zeta + 1/2|, P^(0) as its section A = 0, and each of
the 27 tiles.  A rational point enters as integer numerators over a
common even denominator 2h, so that each test is the exact integer
comparison dot(normal, nums) <= bound2 * h (strict for interiors).  An
ExponentVector carries these numerators as its integer form, built once
(see exponents), and the valuations read it too.  The reduction into P
runs on the same integer numerators: every lattice shift and the flip
move them by multiples of h, so the denominator 2h of the input serves
the whole reduction, and Fractions are built only for the word and the
reduced vector.  The tiling is face-to-face, so the smallest face holding
a point has one dimension in every tile that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import DomainError, NonTermination
from .exponents import ExponentVector, _scaled

__all__ = [
    "in_P",
    "flip",
    "in_lattice",
    "reduce_to_P",
    "apply_word",
    "zeta_for",
    "in_P0",
    "is_z_dependent",
    "is_system",
    "TileId",
    "FaceSignature",
    "tiles",
    "tile_constraints",
    "point_in_tile",
    "face_of",
    "face_name",
]

Q = Fraction


# ---------------------------------------------------------------------------
# Integer points and rows


def _point6(alpha) -> tuple[tuple[int, ...], int]:
    a, h = _scaled(alpha)
    if len(a) != 6:
        raise DomainError("need 6 entries")
    return a, h


def _folded(x, h) -> tuple[int, ...]:
    """(alpha, A) of the 7-vector x over 2h, with the fold A = |zeta + 1/2|."""
    return (*x[:6], abs(x[6] + h))


def _p_point(v: ExponentVector) -> tuple[tuple[int, ...], int]:
    """(alpha, A) of v over the denominator 2h."""
    x, h = v.scaled
    return _folded(x, h), h


def _row(label, coeffs: dict, bound2: int, n: int = 6):
    normal = [0] * n
    for i, c in coeffs.items():
        normal[i] = c
    return (label, tuple(normal), bound2)


def _holds(rows, x, h) -> bool:
    return all(sum(map(mul, n, x)) <= b * h for _, n, b in rows)


def _strict(rows, x, h) -> bool:
    return all(sum(map(mul, n, x)) < b * h for _, n, b in rows)


def _slacks(rows, x, h) -> list[int]:
    """2h times the slack of each row at x; 0 means tight."""
    return [b * h - sum(map(mul, n, x)) for _, n, b in rows]


def _rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][c]
            if f:
                mat[r] = [top[c] * x - f * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The polytope P


def _p_rows():
    """P in (alpha, A): A >= 0 (the fold, always true), A <= 1/2,
    A - alpha_i <= 1/2, alpha_i - alpha_j <= 1, alpha_i + alpha_j <= 1 and
    alpha_i + alpha_j + alpha_k + A <= 3/2."""
    rows = [_row(("fold",), {6: -1}, 0, 7), _row(("zeta",), {6: 1}, 1, 7)]
    rows += [_row(("low", i), {i: -1, 6: 1}, 1, 7) for i in range(6)]
    rows += [
        _row(("diff", i, j), {i: 1, j: -1}, 2, 7)
        for i in range(6)
        for j in range(6)
        if i != j
    ]
    rows += [
        _row(("pair", i, j), {i: 1, j: 1}, 2, 7)
        for i, j in combinations(range(6), 2)
    ]
    rows += [
        _row(("triple",) + t, {**dict.fromkeys(t, 1), 6: 1}, 3, 7)
        for t in combinations(range(6), 3)
    ]
    return tuple(rows)


_P_ROWS = _p_rows()
# P^(0) within sum = 1: the low, diff and pair rows of P at A = 0.
_P0_ROWS = tuple(
    (label, n[:6], b) for label, n, b in _P_ROWS
    if label[0] in ("low", "diff", "pair")
)
# The rows that bound A from above; at a point of P^(0) the least of
# their slacks is zeta_for + 1/2.
_ZETA_ROWS = tuple((label, n[:6], b) for label, n, b in _P_ROWS if n[6] == 1)


def in_P(v: ExponentVector) -> bool:
    """Exact membership in the bounding-inequality polytope P."""
    v.require_balanced()
    return _holds(_P_ROWS, *_p_point(v))


def flip(v: ExponentVector) -> ExponentVector:
    """(alpha;zeta) -> (-a0,-a1,1-a2,1-a3,-a4,-a5;zeta)."""
    a = v.a6
    return ExponentVector(
        (-a[0], -a[1], 1 - a[2], 1 - a[3]), (-a[4], -a[5]), v.zeta
    )


def _in_lattice(x, h) -> bool:
    """The lattice rule on a 7-vector of numerators over 2h: the alpha
    shifts sum to 0, and every entry, zeta included, is = 0 (mod 2h) or
    every entry is = h (mod 2h)."""
    if sum(x[:6]) != 0:
        return False
    d = 2 * h
    r = x[6] % d
    return r in (0, h) and all(xi % d == r for xi in x[:6])


def in_lattice(vec7) -> bool:
    """Membership in the translation lattice.

    The lattice consists of the sum-zero alpha-translations that are
    either all integer (with integer zeta shift) or all half-odd-integer
    (with half-odd-integer zeta shift).
    """
    return _in_lattice(*_scaled(vec7))


def _translate(v: ExponentVector, shift) -> ExponentVector:
    vec = [x + Q(s) for x, s in zip(v.as7(), shift)]
    return ExponentVector.from7(vec)


def apply_word(word, v: ExponentVector) -> ExponentVector:
    """Apply a reduction word (list of translation/flip steps) in order."""
    for step in word:
        if step[0] == "flip":
            v = flip(v)
        elif step[0] == "translate":
            v = _translate(v, step[1])
        else:
            raise DomainError(f"unknown word step {step[0]!r}")
    return v


_MAX_REDUCE_ROUNDS = 64
_MAX_WORD = 100_000


def reduce_to_P(v: ExponentVector):
    """Map a balanced vector into P by lattice translations and the flip.

    Returns (word, reduced) with apply_word(word, v) == reduced and
    in_P(reduced).  The steps run on the integer form of v (see the
    module docstring).  A word longer than _MAX_WORD steps raises
    DomainError: the input lies too far from P.
    """
    v.require_balanced()
    if v.inside_P:
        return [], v
    x, h = v.scaled
    x = list(x)
    word: list = []
    for _ in range(_MAX_REDUCE_ROUNDS):
        if _reduce_round(word, x, h):
            return word, ExponentVector._from_scaled_in_P(x, h)
    raise NonTermination("reduction into P did not terminate")


def _shift(word, x, s, h) -> None:
    """Append the lattice translation s (numerators over 2h) to word and
    apply it to x in place."""
    if not _in_lattice(s, h):
        raise NonTermination("internal shift left the translation lattice")
    if len(word) >= _MAX_WORD:
        raise DomainError(f"the reduction into P takes more than {_MAX_WORD} steps")
    d = 2 * h
    word.append(("translate", tuple(Q(si, d) for si in s)))
    for i, si in enumerate(s):
        x[i] += si


def _reduce_round(word, x, h) -> bool:
    """One round of the reduction on the numerators x over d = 2h; a
    whole step is d and a half step h.  Returns whether x ends in P."""
    d = 2 * h
    # Step 1: bring all pairwise differences within 1.  Each step lowers
    # the sum of the squared numerators by at least 2d, which bounds the
    # number of steps.
    steps_left = sum(xi * xi for xi in x[:6]) // (2 * d)
    while True:
        lo = min(range(6), key=x.__getitem__)
        hi = max(range(6), key=x.__getitem__)
        if x[hi] - x[lo] <= d:
            break
        if steps_left == 0:
            raise NonTermination("difference reduction looped")
        steps_left -= 1
        shift = [0] * 7
        shift[lo], shift[hi] = d, -d
        _shift(word, x, shift, h)

    # Step 2: integer-shift zeta into [-1, 0].
    k = -x[6] // d
    if k != 0:
        _shift(word, x, [0] * 6 + [k * d], h)

    # Step 3: if a triple sum dips below |zeta+1/2| - 1/2, do the
    # half-shift: -1/2 on the three largest entries, +1/2 on the rest,
    # and move zeta by a half step so the fold distances sum to 1/2.
    # The least triple sum is the sum of the three smallest entries.
    if sum(sorted(x[:6])[:3]) < abs(x[6] + h) - h:
        order = sorted(range(6), key=lambda i: (-x[i], i))
        shift = [0] * 7
        for pos in order[:3]:
            shift[pos] = -h
        for pos in order[3:]:
            shift[pos] = h
        shift[6] = -h if x[6] >= -h else h
        _shift(word, x, shift, h)

    if _holds(_P_ROWS, _folded(x, h), h):
        return True

    # Step 4: flip branch on the sorted coordinates.  The map
    # alpha -> c - alpha, zeta -> zeta + zshift is the flip
    # (-a0, -a1, 1-a2, 1-a3, -a4, -a5; zeta) followed by a translation.
    A = abs(x[6] + h)
    order = sorted(range(6), key=lambda i: (x[i], i))
    s0, s4, s5 = order[0], order[4], order[5]
    if A + h <= x[s0] + x[s4] + x[s5]:
        c6 = [0] * 6
        c6[s4] = d
        c6[s5] = d
        zshift = 0
    else:
        c6 = [h] * 6
        c6[s0] = -h
        zshift = -h if x[6] >= -h else h
    flipped = (0, 0, d, d, 0, 0)
    word.append(("flip",))
    x[:6] = [f - xi for f, xi in zip(flipped, x)]
    _shift(word, x, [c - f for c, f in zip(c6, flipped)] + [zshift], h)
    return _holds(_P_ROWS, _folded(x, h), h)


# ---------------------------------------------------------------------------
# The projected polytope P^(0) and the zeta rule


def _as6(alpha) -> tuple[Fraction, ...]:
    a = tuple(Q(x) for x in alpha)
    if len(a) != 6:
        raise DomainError("need 6 entries")
    return a


def _in_P0(a, h) -> bool:
    return sum(a) == 2 * h and _holds(_P0_ROWS, a, h)


def in_P0(alpha) -> bool:
    """alpha_r >= -1/2, alpha_r - alpha_s <= 1, alpha_r + alpha_s <= 1,
    sum = 1."""
    return _in_P0(*_point6(alpha))


def _zeta_num(a, h) -> int:
    """zeta_for(alpha) times 2h, for alpha = a / 2h in P^(0)."""
    return min(_slacks(_ZETA_ROWS, a, h)) - h


def zeta_for(alpha) -> Fraction:
    """zeta in [-1/2, 0] with zeta + 1/2 the minimum of 1/2, 1/2 + alpha_r
    and 1/2 + alpha_r + alpha_s + alpha_t."""
    a, h = _point6(alpha)
    if not _in_P0(a, h):
        raise DomainError("alpha is not in P^(0)")
    return Q(_zeta_num(a, h), 2 * h)


def attach_zeta(alpha) -> ExponentVector:
    a = _as6(alpha)
    return ExponentVector(a[:4], a[4:], zeta_for(a))


# ---------------------------------------------------------------------------
# z-dependence inside P


def is_z_dependent(v: ExponentVector) -> bool:
    """Whether the p -> 0 limit of the biorthogonal function keeps its
    z dependence, per the facet classification inside P."""
    v.require_balanced()
    x, h = _p_point(v)
    slacks = _slacks(_P_ROWS, x, h)
    if min(slacks) < 0:
        raise DomainError("exponent vector is not in the polytope P")
    tight = {label for (label, _, _), s in zip(_P_ROWS, slacks) if s == 0}
    # Half space alpha_4 + A >= 1/2.
    if x[4] + x[6] >= h:
        return True
    # Facets from triples avoiding index 4 (A = 1/2 + a4 + ar + as).
    if any(("triple",) + t in tight for t in combinations((0, 1, 2, 3, 5), 3)):
        return True
    # Facets a_r + 1/2 = A, inside alpha_4 + A < 1/2: z-dependent on their
    # boundary only.
    return len(tight) > 1 and any(("low", r) in tight for r in range(6))


# ---------------------------------------------------------------------------
# Tiling of P^(0)


@dataclass(frozen=True)
class TileId:
    kind: str  # "I", "II", "III"
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("I", "II", "III"):
            raise DomainError("tile kind must be I, II or III")
        if self.kind == "I" and self.indices:
            raise DomainError("P_I takes no indices")
        if self.kind == "II" and len(self.indices) != 1:
            raise DomainError("P_II takes one index")
        if self.kind == "III" and (
            len(self.indices) != 3 or list(self.indices) != sorted(self.indices)
        ):
            raise DomainError("P_III takes three sorted indices")

    def __str__(self):
        if self.kind == "I":
            return "P_I"
        return f"P_{self.kind},({','.join(map(str, self.indices))})"


def tiles() -> list[TileId]:
    out = [TileId("I")]
    out += [TileId("II", (t,)) for t in range(6)]
    out += [TileId("III", t) for t in combinations(range(6), 3)]
    return out


def _tile_rows(tile: TileId):
    if tile.kind == "I":
        return tuple(_row(("nonneg", r), {r: -1}, 0) for r in range(6))
    if tile.kind == "II":
        (t,) = tile.indices
        others = [i for i in range(6) if i != t]
        rows = [_row(("lo", t), {t: -1}, 1), _row(("hi", t), {t: 1}, 0)]
        for r in others:
            rows.append(_row(("above", r), {t: 1, r: -1}, 0))
            rows.append(_row(("below", r), {r: 1, t: -1}, 2))
        for r, s in combinations(others, 2):
            rows.append(_row(("pair_lo", r, s), {r: -1, s: -1}, 0))
            rows.append(_row(("pair_hi", r, s), {r: 1, s: 1}, 2))
        return tuple(rows)
    r, s, t = tile.indices
    rows = [_row(("pair", a, b), {a: 1, b: 1}, 0)
            for a, b in combinations((r, s, t), 2)]
    for a in range(6):
        if a not in (r, s, t):
            rows.append(_row(("lo", a), {a: -1, r: -1, s: -1, t: -1}, 0))
            rows.append(_row(("hi", a), {a: 1, r: -1, s: -1, t: -1}, 2))
    return tuple(rows)


_TILE_ROWS = {tile: _tile_rows(tile) for tile in tiles()}
_PII_ROWS = tuple(_TILE_ROWS[TileId("II", (t,))] for t in range(6))


def tile_constraints(tile: TileId):
    """Facet inequalities of a tile as (label, normal, bound) triples
    meaning dot(normal, alpha) <= bound, within the sum = 1 hyperplane."""
    return [
        (label, tuple(Q(c) for c in normal), Q(b, 2))
        for label, normal, b in _TILE_ROWS[tile]
    ]


def point_in_tile(alpha, tile: TileId) -> bool:
    a, h = _point6(alpha)
    return sum(a) == 2 * h and _holds(_TILE_ROWS[tile], a, h)


@dataclass(frozen=True)
class FaceSignature:
    tile: TileId
    tight: tuple  # labels of tight facet inequalities
    dim: int


def face_of(alpha) -> list[FaceSignature]:
    """All tiles containing alpha, each with its exact tight facet set.

    The first entry is the canonical one (tile-kind order I < II < III,
    then lexicographic indices)."""
    a, h = _point6(alpha)
    if not _in_P0(a, h):
        raise DomainError("alpha is not in P^(0)")
    found = []
    for tile, rows in _TILE_ROWS.items():
        if not _holds(rows, a, h):
            continue
        slacks = _slacks(rows, a, h)
        tight = [row for row, s in zip(rows, slacks) if s == 0]
        if not found:  # face-to-face: one dimension for every tile
            dim = 6 - _rank([(1,) * 6] + [n for _, n, _ in tight])
        found.append(FaceSignature(tile, tuple(lab for lab, _, _ in tight), dim))
    if not found:
        raise DomainError("tiling does not cover the point; internal error")
    return found


def _is_system(a, h) -> bool:
    return _in_P0(a, h) and not any(_strict(rows, a, h) for rows in _PII_ROWS)


def is_system(alpha) -> bool:
    """In P^(0) and outside the interiors of all P_II,t."""
    return _is_system(*_point6(alpha))


# ---------------------------------------------------------------------------
# Naming


def _klass(x: int, e: int, d: int) -> str:
    """Position of x/d mod 1 relative to the points +-eta, eta = e/d in
    [0, 1/2]: 'p' (plus eta), 'm' (minus eta), 'inner' ((-eta, eta)),
    'outer' ((eta, 1 - eta))."""
    r = x % d
    if r == e % d:
        return "p"
    if r == -e % d:
        return "m"
    # shift into the window [-eta, 1 - eta)
    if r >= d - e:
        r -= d
    return "inner" if -e < r < e else "outer"


def _face_name(a, h) -> str:
    if not _is_system(a, h):
        raise DomainError("alpha is not a system point")
    e = -_zeta_num(a, h)  # the table's positive zeta, in [0, 1/2], over 2h
    kl = [_klass(x, e, 2 * h) for x in a]
    if e == 0 or e == h:
        on = sum(1 for k in kl[:4] if k in ("p", "m"))
        digits = f"{on}{4 - on}"
    else:
        eq = sorted((kl[:4].count("p"), kl[:4].count("m")), reverse=True)
        ivl = sorted(
            (kl[:4].count("inner"), kl[:4].count("outer")), reverse=True
        )
        digits = "".join(str(c) for c in eq + ivl)
    k4, k5 = kl[4], kl[5]
    on4 = k4 in ("p", "m")
    on5 = k5 in ("p", "m")
    if on4 and on5:
        suffix = "v2" if (e in (0, h) or k4 == k5) else "vv"
    elif on4 or on5:
        suffix = "vp"
    elif k4 == k5:
        suffix = "as"
    else:
        suffix = "pp"
    return digits + suffix


def face_name(alpha) -> str:
    """Appendix-style name of a system point: digit counts of the alpha_r
    relative to +-zeta, plus a two-letter gamma suffix."""
    return _face_name(*_point6(alpha))
