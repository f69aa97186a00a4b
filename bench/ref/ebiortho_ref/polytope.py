"""Exact polytope combinatorics for the degeneration directions.

Membership in the seven-coordinate polytope P, the constructive reduction
of an arbitrary balanced vector into P by lattice translations and the
flip, the zeta value attached to a six-vector, z-dependence of the limit,
system classification, and the tiling of the projected polytope into
P_I, P_II,t and P_III,(r,s,t) with exact face signatures.

All arithmetic is Fraction arithmetic; interior tests are exact
strict-inequality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil

from .errors import DomainError, NonTermination
from .exponents import ExponentVector

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
HALF = Q(1, 2)


def _a7(v: ExponentVector) -> list[Fraction]:
    return list(v.as7())


def _fold(zeta: Fraction) -> Fraction:
    """|zeta + 1/2|, the distance from the fold point."""
    return abs(zeta + HALF)


# ---------------------------------------------------------------------------
# The polytope P


def in_P(v: ExponentVector) -> bool:
    """Exact membership in the bounding-inequality polytope P."""
    v.require_balanced()
    a = v.a6
    A = _fold(v.zeta)
    if A > HALF:
        return False
    if any(A - HALF > ai for ai in a):
        return False
    for i in range(6):
        for j in range(6):
            if i != j and a[i] > 1 + a[j]:
                return False
    for i, j in combinations(range(6), 2):
        if a[i] + a[j] > 1:
            return False
    for i, j, k in combinations(range(6), 3):
        if a[i] + a[j] + a[k] + A > Q(3, 2):
            return False
    return True


def flip(v: ExponentVector) -> ExponentVector:
    """(alpha;zeta) -> (-a0,-a1,1-a2,1-a3,-a4,-a5;zeta)."""
    a = v.a6
    return ExponentVector(
        (-a[0], -a[1], 1 - a[2], 1 - a[3]), (-a[4], -a[5]), v.zeta
    )


def in_lattice(vec7) -> bool:
    """Membership in the translation lattice.

    The lattice consists of the sum-zero alpha-translations that are
    either all integer (with integer zeta shift) or all half-odd-integer
    (with half-odd-integer zeta shift).
    """
    vec7 = [Q(x) for x in vec7]
    a, z = vec7[:6], vec7[6]
    if sum(a) != 0:
        return False
    if all(x.denominator == 1 for x in a):
        return z.denominator == 1
    if all(x.denominator == 2 and x.numerator % 2 != 0 for x in a):
        return z.denominator == 2
    return False


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


def _append_translation(word, shift):
    if not in_lattice(shift):
        raise NonTermination("internal shift left the translation lattice")
    word.append(("translate", tuple(Q(s) for s in shift)))


def _reflect(v: ExponentVector, c6, zshift) -> tuple[list, ExponentVector]:
    """The map alpha -> c - alpha, zeta -> zeta + zshift, as flip + shift."""
    flipped_c = (Q(0), Q(0), Q(1), Q(1), Q(0), Q(0))
    delta = [Q(ci) - fi for ci, fi in zip(c6, flipped_c)] + [Q(zshift)]
    word = [("flip",)]
    _append_translation(word, delta)
    return word, apply_word(word, v)


def reduce_to_P(v: ExponentVector, max_rounds: int = 64):
    """Map a balanced vector into P by lattice translations and the flip.

    Returns (word, reduced) with apply_word(word, v) == reduced and
    in_P(reduced).
    """
    v.require_balanced()
    word: list = []
    cur = v
    for _ in range(max_rounds):
        if in_P(cur):
            return word, cur
        cur = _reduce_round(word, cur)
    raise NonTermination("reduction into P did not terminate")


def _reduce_round(word, cur: ExponentVector) -> ExponentVector:
    # Step 1: bring all pairwise differences within 1.
    guard = 0
    while True:
        a = list(cur.a6)
        lo = min(range(6), key=lambda i: a[i])
        hi = max(range(6), key=lambda i: a[i])
        if a[hi] - a[lo] <= 1:
            break
        shift = [Q(0)] * 7
        shift[lo], shift[hi] = Q(1), Q(-1)
        _append_translation(word, shift)
        cur = _translate(cur, shift)
        guard += 1
        if guard > 10000:
            raise NonTermination("difference reduction looped")

    # Step 2: integer-shift zeta into [-1, 0].
    k = -ceil(cur.zeta)
    if k != 0:
        shift = [Q(0)] * 6 + [Q(k)]
        _append_translation(word, shift)
        cur = _translate(cur, shift)

    # Step 3: if a triple sum dips below |zeta+1/2| - 1/2, do the
    # half-shift: -1/2 on the three largest entries, +1/2 on the rest,
    # and move zeta by a half step so the fold distances sum to 1/2.
    a = list(cur.a6)
    A = _fold(cur.zeta)
    if min(sum(t) for t in combinations(a, 3)) < A - HALF:
        order = sorted(range(6), key=lambda i: (-a[i], i))
        shift = [Q(0)] * 7
        for pos in order[:3]:
            shift[pos] = -HALF
        for pos in order[3:]:
            shift[pos] = HALF
        shift[6] = -HALF if cur.zeta >= -HALF else HALF
        _append_translation(word, shift)
        cur = _translate(cur, shift)

    if in_P(cur):
        return cur

    # Step 4: flip branch on the sorted coordinates.
    a = list(cur.a6)
    A = _fold(cur.zeta)
    order = sorted(range(6), key=lambda i: (a[i], i))
    s0, s4, s5 = order[0], order[4], order[5]
    if A + HALF <= a[s0] + a[s4] + a[s5]:
        c6 = [Q(0)] * 6
        c6[s4] = Q(1)
        c6[s5] = Q(1)
        zshift = Q(0)
    else:
        c6 = [HALF] * 6
        c6[s0] = -HALF
        zshift = -HALF if cur.zeta >= -HALF else HALF
    subword, cur = _reflect(cur, c6, zshift)
    word.extend(subword)
    return cur


# ---------------------------------------------------------------------------
# The projected polytope P^(0) and the zeta rule


def _as6(alpha) -> tuple[Fraction, ...]:
    a = tuple(Q(x) for x in alpha)
    if len(a) != 6:
        raise DomainError("need 6 entries")
    return a


def in_P0(alpha) -> bool:
    """alpha_r >= -1/2, alpha_r - alpha_s <= 1, alpha_r + alpha_s <= 1,
    sum = 1."""
    a = _as6(alpha)
    if sum(a) != 1:
        return False
    if any(x < -HALF for x in a):
        return False
    for i in range(6):
        for j in range(6):
            if i != j and a[i] - a[j] > 1:
                return False
    for i, j in combinations(range(6), 2):
        if a[i] + a[j] > 1:
            return False
    return True


def zeta_for(alpha) -> Fraction:
    """zeta in [-1/2, 0] with zeta + 1/2 the minimum of 1/2, 1/2 + alpha_r
    and 1/2 + alpha_r + alpha_s + alpha_t."""
    a = _as6(alpha)
    if not in_P0(a):
        raise DomainError("alpha is not in P^(0)")
    m = min(
        [HALF]
        + [HALF + x for x in a]
        + [HALF + sum(t) for t in combinations(a, 3)]
    )
    return m - HALF


def attach_zeta(alpha) -> ExponentVector:
    a = _as6(alpha)
    return ExponentVector(a[:4], a[4:], zeta_for(a))


# ---------------------------------------------------------------------------
# z-dependence inside P


def _p_facets(a, A):
    """All facet inequalities of P at (alpha, A=|zeta+1/2|) as slack values.

    Returns a dict keyed by a descriptive tuple; slack 0 means tight.
    The fold distance A >= 0 is included as a pseudo-facet.
    """
    slacks = {("fold",): A}
    slacks[("zeta",)] = HALF - A
    for i in range(6):
        slacks[("low", i)] = a[i] - (A - HALF)
    for i in range(6):
        for j in range(6):
            if i != j:
                slacks[("diff", i, j)] = 1 + a[j] - a[i]
    for i, j in combinations(range(6), 2):
        slacks[("pair", i, j)] = 1 - a[i] - a[j]
    for t in combinations(range(6), 3):
        slacks[("triple",) + t] = Q(3, 2) - sum(a[i] for i in t) - A
    return slacks


def is_z_dependent(v: ExponentVector) -> bool:
    """Whether the p -> 0 limit of the biorthogonal function keeps its
    z dependence, per the facet classification inside P."""
    if not in_P(v):
        raise DomainError("exponent vector is not in the polytope P")
    a = v.a6
    A = _fold(v.zeta)
    slacks = _p_facets(a, A)

    # Half space alpha_4 + A >= 1/2.
    if a[4] + A >= HALF:
        return True
    # Facets from triples avoiding index 4 (A = 1/2 + a4 + ar + as).
    for t in combinations((0, 1, 2, 3, 5), 3):
        if slacks[("triple",) + tuple(sorted(t))] == 0:
            return True
    # Facet a_r + 1/2 = A (r != 4), inside alpha_4 + A <= 1/2, boundary only.
    for r in (0, 1, 2, 3, 5):
        if slacks[("low", r)] == 0:
            interior = a[4] + A < HALF
            for key, s in slacks.items():
                if key == ("low", r):
                    continue
                if s == 0:
                    interior = False
                    break
            if not interior:
                return True
    # Facet alpha_4 + 1/2 = A, boundary only.
    if slacks[("low", 4)] == 0:
        interior = True
        for key, s in slacks.items():
            if key == ("low", 4):
                continue
            if s == 0:
                interior = False
                break
        if not interior:
            return True
    return False


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


def tile_constraints(tile: TileId):
    """Facet inequalities of a tile as (label, normal, bound) triples
    meaning dot(normal, alpha) <= bound, within the sum = 1 hyperplane."""

    def row(coeffs: dict, bound, label):
        normal = [Q(0)] * 6
        for i, c in coeffs.items():
            normal[i] = Q(c)
        return (label, tuple(normal), Q(bound))

    cons = []
    if tile.kind == "I":
        for r in range(6):
            cons.append(row({r: -1}, 0, ("nonneg", r)))
    elif tile.kind == "II":
        (t,) = tile.indices
        cons.append(row({t: -1}, HALF, ("lo", t)))
        cons.append(row({t: 1}, 0, ("hi", t)))
        for r in range(6):
            if r == t:
                continue
            cons.append(row({t: 1, r: -1}, 0, ("above", r)))
            cons.append(row({r: 1, t: -1}, 1, ("below", r)))
        for r, s in combinations([i for i in range(6) if i != t], 2):
            cons.append(row({r: -1, s: -1}, 0, ("pair_lo", r, s)))
            cons.append(row({r: 1, s: 1}, 1, ("pair_hi", r, s)))
    else:
        r, s, t = tile.indices
        inside = (r, s, t)
        for a, b in combinations(inside, 2):
            cons.append(row({a: 1, b: 1}, 0, ("pair", a, b)))
        for a in range(6):
            if a in inside:
                continue
            cons.append(
                row({a: -1, r: -1, s: -1, t: -1}, 0, ("lo", a))
            )
            cons.append(row({a: 1, r: -1, s: -1, t: -1}, 1, ("hi", a)))
    return cons


def point_in_tile(alpha, tile: TileId) -> bool:
    a = _as6(alpha)
    if sum(a) != 1:
        return False
    return all(
        sum(n * x for n, x in zip(normal, a)) <= bound
        for _, normal, bound in tile_constraints(tile)
    )


def _rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    pr = 0
    for c in range(cols):
        piv = None
        for r in range(pr, len(mat)):
            if mat[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        inv = mat[pr][c]
        for r in range(len(mat)):
            if r != pr and mat[r][c] != 0:
                f = mat[r][c] / inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[pr])]
        pr += 1
        rank += 1
        if pr == len(mat):
            break
    return rank


@dataclass(frozen=True)
class FaceSignature:
    tile: TileId
    tight: tuple  # labels of tight facet inequalities
    dim: int


def _signature(alpha, tile: TileId) -> FaceSignature:
    a = _as6(alpha)
    tight = []
    normals = [[Q(1)] * 6]
    for label, normal, bound in tile_constraints(tile):
        if sum(n * x for n, x in zip(normal, a)) == bound:
            tight.append(label)
            normals.append(list(normal))
    dim = 6 - _rank(normals)
    return FaceSignature(tile, tuple(tight), dim)


def face_of(alpha) -> list[FaceSignature]:
    """All tiles containing alpha, each with its exact tight facet set.

    The first entry is the canonical one (tile-kind order I < II < III,
    then lexicographic indices)."""
    a = _as6(alpha)
    if not in_P0(a):
        raise DomainError("alpha is not in P^(0)")
    found = [
        _signature(a, tile) for tile in tiles() if point_in_tile(a, tile)
    ]
    if not found:
        raise DomainError("tiling does not cover the point; internal error")
    return found


def _in_relint_PII(alpha, t: int) -> bool:
    a = _as6(alpha)
    if sum(a) != 1:
        return False
    return all(
        sum(n * x for n, x in zip(normal, a)) < bound
        for _, normal, bound in tile_constraints(TileId("II", (t,)))
    )


def is_system(alpha) -> bool:
    """In P^(0) and outside the interiors of all P_II,t."""
    a = _as6(alpha)
    if not in_P0(a):
        return False
    return not any(_in_relint_PII(a, t) for t in range(6))


# ---------------------------------------------------------------------------
# Naming


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _klass(x: Fraction, eta: Fraction) -> str:
    """Position of x mod 1 relative to the points +-eta: 'p' (plus eta),
    'm' (minus eta), 'inner' ((-eta, eta)), 'outer' ((eta, 1 - eta))."""
    r = _mod1(x)  # in [0, 1)
    if r == _mod1(eta):
        return "p"
    if r == _mod1(-eta):
        return "m"
    # shift into the window [-eta, 1 - eta)
    if r >= 1 - eta:
        r -= 1
    if -eta < r < eta:
        return "inner"
    return "outer"


def face_name(alpha) -> str:
    """Appendix-style name of a system point: digit counts of the alpha_r
    relative to +-zeta, plus a two-letter gamma suffix."""
    a = _as6(alpha)
    if not is_system(a):
        raise DomainError("alpha is not a system point")
    eta = -zeta_for(a)  # the table's positive zeta, in [0, 1/2]
    kl = [_klass(x, eta) for x in a]
    if eta == 0 or eta == HALF:
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
        suffix = "v2" if (eta in (0, HALF) or k4 == k5) else "vv"
    elif on4 or on5:
        suffix = "vp"
    elif k4 == k5:
        suffix = "as"
    else:
        suffix = "pp"
    return digits + suffix
