"""Enumeration of the degeneration scheme.

Builds the 21 tiling vertices, enumerates the faces of one tile per
S4 x S2 orbit of the P_I / P_II,t / P_III,(r,s,t) tiling by exact facet
saturation, and generates every realization (S4 x S2 orbit of faces) as
the 48 images of one face.  Groups realizations into systems (orbits
modulo lattice shifts and the flip), and derives each orbit's system
test, name, flip images and graph edges from its smallest face (see
``Scheme``).  An edge of the degeneration graph joins the systems of a
face and of a facet.  Assigns measure tags and regenerates the golden
tables: the per-level system tables, the full degeneration graph, and
the q-Askey subscheme.  Emitters produce deterministic JSON, DOT and TSV.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import add

from .errors import DomainError, InternalError
from .exponents import ExponentVector
from .polytope import (
    _TILE_ROWS,
    TileId,
    _face_name,
    _is_system,
    _rank,
    _slacks,
    _zeta_num,
    attach_zeta,
    face_name,
    reduce_to_P,
    tiles,
)

__all__ = [
    "VertexLabel",
    "FaceRecord",
    "SystemRecord",
    "DegenerationGraph",
    "enumerate_vertices",
    "build_scheme",
    "measure_tag",
    "check_appendix",
    "askey_subscheme",
    "check_askey",
    "emit_json",
    "emit_dot",
    "emit_tsv",
]

Q = Fraction
H = Q(1, 2)

MEAS_NR = "NR"
MEAS_SB = "SB"
MEAS_SIGMA = "Sigma"
MEAS_SIGMA2 = "Sigma2"


# ---------------------------------------------------------------------------
# Vertices

def _build_vertex_coords() -> dict[str, tuple[Fraction, ...]]:
    coords: dict[str, tuple[Fraction, ...]] = {}
    for j in range(4):
        v = [Q(0)] * 6
        v[j] = Q(1)
        coords[f"d{j}"] = tuple(v)
    for j in range(2):
        v = [Q(0)] * 6
        v[4 + j] = Q(1)
        coords[f"e{j}"] = tuple(v)
    for i, j in combinations(range(4), 2):
        v = [H] * 6
        v[i] = -H
        v[j] = -H
        coords[f"f{i}{j}"] = tuple(v)
    for i in range(4):
        for j in range(2):
            v = [H] * 6
            v[i] = -H
            v[4 + j] = -H
            coords[f"g{i}{j}"] = tuple(v)
    v = [H] * 6
    v[4] = -H
    v[5] = -H
    coords["h01"] = tuple(v)
    return coords


VERTEX_COORDS = _build_vertex_coords()
# The vertices on the doubled scale: integer points over the denominator 2.
_VERT2 = {name: tuple(int(2 * x) for x in vec)
          for name, vec in VERTEX_COORDS.items()}
_VERT2_NAME = {vec: name for name, vec in _VERT2.items()}


@dataclass(frozen=True)
class VertexLabel:
    name: str
    coords: ExponentVector


def enumerate_vertices() -> list[VertexLabel]:
    """The 21 tiling vertices: 4 d's, 2 e's, 6 f's, 8 g's, 1 h."""
    return [
        VertexLabel(name, attach_zeta(vec))
        for name, vec in VERTEX_COORDS.items()
    ]


# ---------------------------------------------------------------------------
# Symmetries

def _symmetries() -> list[tuple[int, ...]]:
    out = []
    for pa in permutations(range(4)):
        for pg in ((4, 5), (5, 4)):
            out.append(pa + pg)
    return out


_SYMS = _symmetries()


def _apply(perm, vec):
    # position i of the image holds entry perm[i] of the source
    return tuple(vec[perm[i]] for i in range(6))


# ---------------------------------------------------------------------------
# Face enumeration

def _face_vecs(names):
    return [_VERT2[n] for n in names]


def _midpoint2(names) -> tuple[tuple[int, ...], int]:
    """The face midpoint as integer numerators over 2k, and k."""
    return tuple(map(sum, zip(*_face_vecs(names)))), len(names)


def _tile_faces(rows) -> set[tuple[str, ...]]:
    """Every face of the tile with these rows as a sorted vertex-name tuple."""
    # the tight rows of each vertex of the tile
    tight = {}
    for name, vec in _VERT2.items():
        slacks = _slacks(rows, vec, 1)
        if min(slacks) >= 0:
            tight[name] = frozenset(i for i, s in enumerate(slacks) if s == 0)
    # every intersection of tight sets spans a face: its vertices are
    # those tight on all of it
    commons: set[frozenset[int]] = set()
    new = set(tight.values())
    while new:
        commons |= new
        new = {c & t for c in new for t in tight.values()} - commons
    return {
        tuple(sorted(n for n, t in tight.items() if t >= common))
        for common in commons
    }


def _tile_image(perm, tile: TileId) -> TileId:
    """The tile onto which the symmetry ``perm`` maps ``tile``: under
    ``_apply``, entry j of a point moves to position perm.index(j)."""
    return TileId(tile.kind, tuple(sorted(perm.index(j) for j in tile.indices)))


def _tile_representatives() -> list[TileId]:
    """The first tile of each S4 x S2 orbit of tiles, in ``tiles()`` order:
    P_I, P_II,(0), P_II,(4) and P_III with 0, 1 or 2 indices in {4, 5}."""
    reps: list[TileId] = []
    seen: set[TileId] = set()
    for tile in tiles():
        if tile not in seen:
            reps.append(tile)
            seen.update(_tile_image(s, tile) for s in _SYMS)
    return reps


# For each symmetry, the name of the image of every vertex.
_VERTEX_IMAGES = tuple(
    {n: _VERT2_NAME[_apply(s, v)] for n, v in _VERT2.items()} for s in _SYMS
)


def _canon_orbit_key(names) -> tuple:
    return min(
        tuple(sorted(_VERT2[img[n]] for n in names)) for img in _VERTEX_IMAGES
    )


def _face_orbits() -> list[list[tuple[str, ...]]]:
    """Every face of the tiling grouped into its S4 x S2 orbits, in
    canonical-key order, each orbit a sorted list of faces.

    S4 x S2 permutes the tiles, so every face is an image of a face of a
    representative tile.  Each of those faces not yet placed gives its
    whole orbit as its 48 images, and the canonical key is computed once
    per orbit, on that face.
    """
    faces = set().union(
        *(_tile_faces(_TILE_ROWS[tile]) for tile in _tile_representatives())
    )
    orbits: dict[tuple, list[tuple[str, ...]]] = {}
    placed: set[tuple[str, ...]] = set()
    for f in sorted(faces):
        if f not in placed:
            members = sorted(
                {tuple(sorted(img[n] for n in f)) for img in _VERTEX_IMAGES}
            )
            placed.update(members)
            orbits[_canon_orbit_key(f)] = members
    return [orbits[key] for key in sorted(orbits)]


def _flip_image_faces(names) -> set[tuple[str, ...]]:
    """All faces obtained from this face by the flip plus a lattice shift.

    On the doubled scale the flip is b -> (-b0, -b1, 2-b2, 2-b3, -b4, -b5),
    and a lattice shift is a sum-zero vector with entries all even (integer
    shifts) or all odd (half-odd shifts)."""
    w = [(-b[0], -b[1], 2 - b[2], 2 - b[3], -b[4], -b[5])
         for b in _face_vecs(names)]
    out = set()
    for target in _VERT2_NAME:
        t = tuple(x - y for x, y in zip(target, w[0]))
        if sum(t) != 0 or len({x % 2 for x in t}) != 1:
            continue
        imgs = []
        for v in w:
            img = _VERT2_NAME.get(tuple(map(add, v, t)))
            if img is None:
                break
            imgs.append(img)
        else:
            out.add(tuple(sorted(imgs)))
    return out


# ---------------------------------------------------------------------------
# Measure tags

def _neg_indices(name) -> frozenset[int]:
    return frozenset(i for i, x in enumerate(_VERT2[name]) if x == -1)


def measure_tag(vertex_names) -> str:
    """Limit-measure kind of a face from its vertex composition.

    All unit vertices: beta-integral (NR).  Exactly one half vertex:
    double series (Sigma2).  Two or more half vertices with a shared -1/2
    slot and at most two unit vertices: single series (Sigma).  Otherwise
    the symmetry-broken integral (SB).
    """
    halves = [n for n in vertex_names if n[0] in "fgh"]
    units = [n for n in vertex_names if n[0] in "de"]
    if not halves:
        return MEAS_NR
    if len(halves) == 1:
        return MEAS_SIGMA2
    common = frozenset.intersection(*(_neg_indices(n) for n in halves))
    if common and len(units) <= 2:
        return MEAS_SIGMA
    return MEAS_SB


# ---------------------------------------------------------------------------
# Records

@dataclass(frozen=True)
class FaceRecord:
    name: str
    level: int
    vertices: tuple[str, ...]
    midpoint: tuple[Fraction, ...]  # 7 entries, -zeta stored last
    measure_tag: str
    flip_partner: tuple[str, ...] | None  # orbit ids; None = flip leaves P0
    orbit_id: str


@dataclass(frozen=True)
class SystemRecord:
    name: str
    level: int
    realizations: tuple[FaceRecord, ...]
    flip_partner: str | None
    askey_labels: tuple[str, ...]


@dataclass(frozen=True)
class DegenerationGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]  # (lower level number, higher)


def _midpoint7(names) -> tuple[Fraction, ...]:
    num, k = _midpoint2(names)
    return tuple(Q(x, 2 * k) for x in num) + (Q(-_zeta_num(num, k), 2 * k),)


def _orbit_system(oid: str) -> str:
    return oid.rsplit(".", 1)[0]


EXPECTED_TOTAL = 38
EXPECTED_LEVEL_COUNTS = {1: 1, 2: 5, 3: 7, 4: 12, 5: 10, 6: 3}


class Scheme:
    """The system faces grouped into orbits, systems, flips and a graph.

    Each S4 x S2 orbit's system test, simplex check, name and flip images
    come from its smallest face alone, since all four are invariant: the
    P^(0) rows are symmetric in all six indices and S4 x S2 permutes the
    P_II,t tiles; the name counts over alpha_0..alpha_3 and its suffix is
    symmetric in alpha_4 <-> alpha_5; a coordinate permutation keeps the
    rank; and the flip is b -> c - b with c = (0,0,1,1,0,0), where
    sigma(c) - c is a sum-zero integer vector (a lattice shift), so the
    flip-plus-shift images of sigma(f) are sigma applied to those of f.
    The graph edges come from the smallest faces too, as the edge set is
    S4 x S2-invariant.  ``faces`` holds the system faces sorted by
    (size, names).
    """

    def __init__(self):
        # orbit id: system name + index of the orbit's smallest face
        self.orbit_of: dict[tuple, str] = {}
        self.orbit_faces: dict[str, list] = {}
        per_name_count: dict[str, int] = {}
        for members in _face_orbits():
            rep = members[0]
            mid = _midpoint2(rep)
            if not _is_system(*mid):
                continue
            vecs = _face_vecs(rep)
            rows = [[x - y for x, y in zip(v, vecs[0])] for v in vecs[1:]]
            if rows and _rank(rows) != len(rep) - 1:
                raise InternalError(f"non-simplicial system face {rep}")
            name = _face_name(*mid)
            idx = per_name_count.get(name, 0)
            per_name_count[name] = idx + 1
            oid = f"{name}.{idx}"
            self.orbit_faces[oid] = members
            for f in members:
                self.orbit_of[f] = oid
        self.faces = tuple(sorted(self.orbit_of, key=lambda f: (len(f), f)))

        self.flip_orbits: dict[str, tuple[str, ...] | None] = {}
        for oid, members in self.orbit_faces.items():
            imgs = {self.orbit_of[f] for f in _flip_image_faces(members[0])}
            self.flip_orbits[oid] = tuple(sorted(imgs)) or None

        self.systems = self._assemble_systems()
        self.graph = self._build_graph()

    def _assemble_systems(self) -> tuple[SystemRecord, ...]:
        by_name: dict[str, list[str]] = {}
        for oid in self.orbit_faces:
            by_name.setdefault(_orbit_system(oid), []).append(oid)
        askey = {}
        for row in ASKEY_ROWS:
            askey.setdefault(row[2], []).append(row[0])
        systems = []
        for name in sorted(by_name):
            oids = sorted(by_name[name])
            recs = []
            for oid in oids:
                rep = self.orbit_faces[oid][0]
                recs.append(
                    FaceRecord(
                        name=name,
                        level=len(rep),
                        vertices=rep,
                        midpoint=_midpoint7(rep),
                        measure_tag=measure_tag(rep),
                        flip_partner=self.flip_orbits[oid],
                        orbit_id=oid,
                    )
                )
            levels = {r.level for r in recs}
            if len(levels) != 1:
                raise InternalError(f"mixed levels inside system {name}")
            flipped_out = any(r.flip_partner is None for r in recs)
            systems.append(
                SystemRecord(
                    name=name,
                    level=levels.pop(),
                    realizations=tuple(recs),
                    flip_partner=None if flipped_out else name,
                    askey_labels=tuple(askey.get(name, ())),
                )
            )
        counts: dict[int, int] = {}
        for s in systems:
            counts[s.level] = counts.get(s.level, 0) + 1
        if len(systems) != EXPECTED_TOTAL or counts != EXPECTED_LEVEL_COUNTS:
            raise InternalError(
                f"system census mismatch: {len(systems)} systems, "
                f"levels {counts}"
            )
        return tuple(systems)

    def _build_graph(self) -> DegenerationGraph:
        # (system of facet fa, system of face fb), fa = fb minus one vertex;
        # S4 x S2 maps a face and its facets onto faces of the same orbits,
        # so each orbit's smallest face gives all of the orbit's edges
        edges = {
            (_orbit_system(self.orbit_of[fa]), _orbit_system(oid))
            for oid, (fb, *_) in self.orbit_faces.items()
            for fa in combinations(fb, len(fb) - 1)
            if fa in self.orbit_of
        }
        nodes = frozenset(s.name for s in self.systems)
        return DegenerationGraph(nodes=nodes, edges=frozenset(edges))


@lru_cache(maxsize=1)
def build_scheme() -> Scheme:
    return Scheme()


# ---------------------------------------------------------------------------
# Golden data

def _mp(s: str) -> tuple[Fraction, ...]:
    parts = s.replace(";", ",").split(",")
    if len(parts) != 7:
        raise DomainError("midpoint needs 7 entries")
    return tuple(Q(p) for p in parts)


def _vs(s: str) -> tuple[str, ...]:
    return tuple(sorted(s.split()))


APPENDIX_LEVEL1_SYSTEM = "40v2"
APPENDIX_LEVEL1_VERTICES = ("d3", "e1", "f01", "g00", "h01")

# (level, system name, rows); each row is (ordinary cell, flipped cell),
# cells are (vertices, midpoint with -zeta last, measure) or None
APPENDIX_TABLES = [
    (2, "31vp", [
        ((_vs("e1 d3"), _mp("0,0,0,1/2;0,1/2;0"), MEAS_NR), None),
        ((_vs("f01 g00"), _mp("-1/2,0,1/2,1/2;0,1/2;1/2"), MEAS_SIGMA), None),
        ((_vs("g00 h01"), _mp("0,1/2,1/2,1/2;-1/2,0;1/2"), MEAS_SIGMA), None),
    ]),
    (2, "2200vv", [
        ((_vs("e1 f01"), _mp("-1/4,-1/4,1/4,1/4;1/4,3/4;1/4"),
          MEAS_SIGMA2), None),
        ((_vs("d3 g00"), _mp("-1/4,1/4,1/4,3/4;-1/4,1/4;1/4"),
          MEAS_SIGMA2), None),
    ]),
    (2, "3100v2", [
        ((_vs("e1 g00"), _mp("-1/4,1/4,1/4,1/4;-1/4,3/4;1/4"),
          MEAS_SIGMA2), None),
        ((_vs("d3 f01"), _mp("-1/4,-1/4,1/4,3/4;1/4,1/4;1/4"),
          MEAS_SIGMA2), None),
        ((_vs("d3 h01"), _mp("1/4,1/4,1/4,3/4;-1/4,-1/4;1/4"),
          MEAS_SIGMA2), None),
    ]),
    (2, "22v2", [
        ((_vs("d2 d3"), _mp("0,0,1/2,1/2;0,0;0"), MEAS_NR), None),
        ((_vs("f01 f02"), _mp("-1/2,0,0,1/2;1/2,1/2;1/2"),
          MEAS_SIGMA), None),
    ]),
    (2, "40as", [
        ((_vs("e0 e1"), _mp("0,0,0,0;1/2,1/2;0"), MEAS_NR), None),
        ((_vs("g00 g01"), _mp("-1/2,1/2,1/2,1/2;0,0;1/2"),
          MEAS_SIGMA), None),
    ]),
    (3, "22vp", [
        ((_vs("d2 d3 e1"), _mp("0,0,1/3,1/3;0,1/3;0"), MEAS_NR),
         (_vs("f01 f02 g00"), _mp("-1/2,1/6,1/6,1/2;1/6,1/2;1/2"),
          MEAS_SIGMA)),
        ((_vs("f01 g00 g10"), _mp("-1/6,-1/6,1/2,1/2;-1/6,1/2;1/2"),
          MEAS_SB),
         (_vs("g00 g10 h01"), _mp("1/6,1/6,1/2,1/2;-1/2,1/6;1/2"),
          MEAS_SIGMA)),
    ]),
    (3, "2110vp", [
        ((_vs("d3 e1 f01"), _mp("-1/6,-1/6,1/6,1/2;1/6,1/2;1/6"),
          MEAS_SIGMA2),
         (_vs("d3 e1 g00"), _mp("-1/6,1/6,1/6,1/2;-1/6,1/2;1/6"),
          MEAS_SIGMA2)),
        ((_vs("d3 g00 h01"), _mp("0,1/3,1/3,2/3;-1/3,0;1/3"), MEAS_SIGMA),
         (_vs("d3 f01 g00"), _mp("-1/3,0,1/3,2/3;0,1/3;1/3"), MEAS_SIGMA)),
        ((_vs("e1 g00 f01"), _mp("-1/3,0,1/3,1/3;0,2/3;1/3"),
          MEAS_SIGMA), None),
    ]),
    (3, "1120vv", [
        ((_vs("d2 d3 g00"), _mp("-1/6,1/6,1/2,1/2;-1/6,1/6;1/6"),
          MEAS_SIGMA2), None),
        ((_vs("d3 g00 g10"), _mp("0,0,1/3,2/3;-1/3,1/3;1/3"),
          MEAS_SIGMA), None),
        ((_vs("e1 f01 f02"), _mp("-1/3,0,0,1/3;1/3,2/3;1/3"),
          MEAS_SIGMA), None),
    ]),
    (3, "2020v2", [
        ((_vs("d2 d3 f01"), _mp("-1/6,-1/6,1/2,1/2;1/6,1/6;1/6"),
          MEAS_SIGMA2),
         (_vs("d2 d3 h01"), _mp("1/6,1/6,1/2,1/2;-1/6,-1/6;1/6"),
          MEAS_SIGMA2)),
        ((_vs("e1 g00 g10"), _mp("0,0,1/3,1/3;-1/3,2/3;1/3"), MEAS_SIGMA),
         (_vs("d3 f01 f02"), _mp("-1/3,0,0,2/3;1/3,1/3;1/3"), MEAS_SIGMA)),
    ]),
    (3, "13v2", [
        ((_vs("d1 d2 d3"), _mp("0,1/3,1/3,1/3;0,0;0"), MEAS_NR),
         (_vs("f01 f02 f03"), _mp("-1/2,1/6,1/6,1/6;1/2,1/2;1/2"),
          MEAS_SIGMA)),
        ((_vs("f01 f02 f12"), _mp("-1/6,-1/6,-1/6,1/2;1/2,1/2;1/2"),
          MEAS_SB),
         (_vs("g00 g10 g20"), _mp("1/6,1/6,1/6,1/2;-1/2,1/2;1/2"),
          MEAS_SIGMA)),
    ]),
    (3, "31as", [
        ((_vs("d3 e1 e0"), _mp("0,0,0,1/3;1/3,1/3;0"), MEAS_NR),
         (_vs("f01 g00 g01"), _mp("-1/2,1/6,1/2,1/2;1/6,1/6;1/2"),
          MEAS_SIGMA)),
        ((_vs("g00 g01 h01"), _mp("-1/6,1/2,1/2,1/2;-1/6,-1/6;1/2"),
          MEAS_SB), None),
    ]),
    (3, "2200as", [
        ((_vs("d3 g00 g01"), _mp("-1/3,1/3,1/3,2/3;0,0;1/3"),
          MEAS_SIGMA), None),
        ((_vs("e0 e1 f01"), _mp("-1/6,-1/6,1/6,1/6;1/2,1/2;1/6"),
          MEAS_SIGMA2), None),
    ]),
    (4, "13vp", [
        ((_vs("d1 d2 d3 e1"), _mp("0,1/4,1/4,1/4;0,1/4;0"), MEAS_NR),
         (_vs("f01 f02 f03 g00"), _mp("-1/2,1/4,1/4,1/4;1/4,1/2;1/2"),
          MEAS_SIGMA)),
        (None,
         (_vs("g00 g10 g20 h01"), _mp("1/4,1/4,1/4,1/2;-1/2,1/4;1/2"),
          MEAS_SIGMA)),
    ]),
    (4, "2020vp", [
        ((_vs("d2 d3 e1 f01"), _mp("-1/8,-1/8,3/8,3/8;1/8,3/8;1/8"),
          MEAS_SIGMA2),
         (_vs("d3 f01 f02 g00"), _mp("-3/8,1/8,1/8,5/8;1/8,3/8;3/8"),
          MEAS_SIGMA)),
        ((_vs("e1 f01 g00 g10"), _mp("-1/8,-1/8,3/8,3/8;-1/8,5/8;3/8"),
          MEAS_SB), None),
    ]),
    (4, "1021vp", [
        ((_vs("d2 d3 f01 g00"), _mp("-1/4,0,1/2,1/2;0,1/4;1/4"),
          MEAS_SIGMA),
         (_vs("d2 d3 g00 h01"), _mp("0,1/4,1/2,1/2;-1/4,0;1/4"),
          MEAS_SIGMA)),
        ((_vs("d3 e1 g00 g10"), _mp("0,0,1/4,1/2;-1/4,1/2;1/4"),
          MEAS_SIGMA),
         (_vs("d3 e1 f01 f02"), _mp("-1/4,0,0,1/2;1/4,1/2;1/4"),
          MEAS_SIGMA)),
    ]),
    (4, "1030vv", [
        ((_vs("d1 d2 d3 g00"), _mp("-1/8,3/8,3/8,3/8;-1/8,1/8;1/8"),
          MEAS_SIGMA2),
         (_vs("d3 g00 g10 g20"), _mp("1/8,1/8,1/8,5/8;-3/8,3/8;3/8"),
          MEAS_SIGMA)),
        ((_vs("e1 f01 f02 f12"), _mp("-1/8,-1/8,-1/8,3/8;3/8,5/8;3/8"),
          MEAS_SB),
         (_vs("e1 f01 f02 f03"), _mp("-3/8,1/8,1/8,1/8;3/8,5/8;3/8"),
          MEAS_SIGMA)),
    ]),
    (4, "1111pp", [
        ((_vs("d3 e1 f01 g00"), _mp("-1/4,0,1/4,1/2;0,1/2;1/4"),
          MEAS_SIGMA), None),
    ]),
    (4, "1120vp", [
        ((_vs("d2 d3 e1 g00"), _mp("-1/8,1/8,3/8,3/8;-1/8,3/8;1/8"),
          MEAS_SIGMA2),
         (_vs("d3 g00 g10 h01"), _mp("1/8,1/8,3/8,5/8;-3/8,1/8;3/8"),
          MEAS_SIGMA)),
        ((_vs("d3 f01 g00 g10"), _mp("-1/8,-1/8,3/8,5/8;-1/8,3/8;3/8"),
          MEAS_SB),
         (_vs("e1 f01 f02 g00"), _mp("-3/8,1/8,1/8,3/8;1/8,5/8;3/8"),
          MEAS_SIGMA)),
    ]),
    (4, "0022vv", [
        ((_vs("d2 d3 g00 g10"), _mp("0,0,1/2,1/2;-1/4,1/4;1/4"),
          MEAS_SIGMA), None),
    ]),
    (4, "1030v2", [
        ((_vs("d1 d2 d3 h01"), _mp("1/8,3/8,3/8,3/8;-1/8,-1/8;1/8"),
          MEAS_SIGMA2),
         (_vs("e1 g00 g10 g20"), _mp("1/8,1/8,1/8,3/8;-3/8,5/8;3/8"),
          MEAS_SIGMA)),
        ((_vs("d3 f01 f02 f12"), _mp("-1/8,-1/8,-1/8,5/8;3/8,3/8;3/8"),
          MEAS_SB), None),
    ]),
    (4, "04v2", [
        ((_vs("d0 d1 d2 d3"), _mp("1/4,1/4,1/4,1/4;0,0;0"), MEAS_NR),
         (_vs("g00 g10 g20 g30"), _mp("1/4,1/4,1/4,1/4;-1/2,1/2;1/2"),
          MEAS_SIGMA)),
    ]),
    (4, "22as", [
        ((_vs("d2 d3 e0 e1"), _mp("0,0,1/4,1/4;1/4,1/4;0"), MEAS_NR),
         (_vs("f01 f02 g00 g01"), _mp("-1/2,1/4,1/4,1/2;1/4,1/4;1/2"),
          MEAS_SIGMA)),
    ]),
    (4, "2110as", [
        ((_vs("d3 e0 e1 f01"), _mp("-1/8,-1/8,1/8,3/8;3/8,3/8;1/8"),
          MEAS_SIGMA2),
         (_vs("d3 f01 g00 g01"), _mp("-3/8,1/8,3/8,5/8;1/8,1/8;3/8"),
          MEAS_SIGMA)),
        ((_vs("d3 g00 g01 h01"), _mp("-1/8,3/8,3/8,5/8;-1/8,-1/8;3/8"),
          MEAS_SB), None),
    ]),
    (4, "1120as", [
        ((_vs("d2 d3 g00 g01"), _mp("-1/4,1/4,1/2,1/2;0,0;1/4"),
          MEAS_SIGMA), None),
        ((_vs("e0 e1 f01 f02"), _mp("-1/4,0,0,1/4;1/2,1/2;1/4"),
          MEAS_SIGMA), None),
    ]),
    (5, "04vp", [
        ((_vs("d0 d1 d2 d3 e1"), _mp("1/5,1/5,1/5,1/5;0,1/5;0"), MEAS_NR),
         (_vs("g00 g10 g20 g30 h01"),
          _mp("3/10,3/10,3/10,3/10;-1/2,3/10;1/2"), MEAS_SIGMA)),
    ]),
    (5, "0031vp", [
        ((_vs("d1 d2 d3 g00 h01"), _mp("0,2/5,2/5,2/5;-1/5,0;1/5"),
          MEAS_SB),
         (_vs("d3 e1 g00 g10 g20"),
          _mp("1/10,1/10,1/10,1/2;-3/10,1/2;3/10"), MEAS_SIGMA)),
        ((_vs("d3 e1 f01 f02 f12"),
          _mp("-1/10,-1/10,-1/10,1/2;3/10,1/2;3/10"), MEAS_SB), None),
    ]),
    (5, "1021pp", [
        ((_vs("d2 d3 e1 f01 g00"), _mp("-1/5,0,2/5,2/5;0,2/5;1/5"),
          MEAS_SB),
         (_vs("e1 d3 f01 f02 g00"),
          _mp("-3/10,1/10,1/10,1/2;1/10,1/2;3/10"), MEAS_SIGMA)),
        ((_vs("d3 e1 f01 g00 g10"),
          _mp("-1/10,-1/10,3/10,1/2;-1/10,1/2;3/10"), MEAS_SB), None),
    ]),
    (5, "0022vp", [
        ((_vs("d2 d3 e1 g00 g10"), _mp("0,0,2/5,2/5;-1/5,2/5;1/5"),
          MEAS_SB),
         (_vs("d2 d3 g00 g10 h01"),
          _mp("1/10,1/10,1/2,1/2;-3/10,1/10;3/10"), MEAS_SIGMA)),
        ((_vs("d2 d3 f01 g00 g10"),
          _mp("-1/10,-1/10,1/2,1/2;-1/10,3/10;3/10"), MEAS_SB), None),
    ]),
    (5, "0040v2", [
        ((_vs("d0 d1 d2 d3 h01"),
          _mp("3/10,3/10,3/10,3/10;-1/10,-1/10;1/10"), MEAS_SIGMA2),
         (_vs("e1 g00 g10 g20 g30"), _mp("1/5,1/5,1/5,1/5;-2/5,3/5;2/5"),
          MEAS_SIGMA)),
    ]),
    (5, "1030vp", [
        ((_vs("d1 d2 d3 e1 g00"),
          _mp("-1/10,3/10,3/10,3/10;-1/10,3/10;1/10"), MEAS_SIGMA2),
         (_vs("d3 g00 g10 g20 h01"), _mp("1/5,1/5,1/5,3/5;-2/5,1/5;2/5"),
          MEAS_SIGMA)),
        (None,
         (_vs("e1 f01 f02 f03 g00"), _mp("-2/5,1/5,1/5,1/5;1/5,3/5;2/5"),
          MEAS_SIGMA)),
    ]),
    (5, "13as", [
        ((_vs("d1 d2 d3 e0 e1"), _mp("0,1/5,1/5,1/5;1/5,1/5;0"), MEAS_NR),
         (_vs("f01 f02 f03 g00 g01"),
          _mp("-1/2,3/10,3/10,3/10;3/10,3/10;1/2"), MEAS_SIGMA)),
    ]),
    (5, "2020as", [
        ((_vs("d2 d3 e0 e1 f01"),
          _mp("-1/10,-1/10,3/10,3/10;3/10,3/10;1/10"), MEAS_SIGMA2),
         (_vs("d3 f01 f02 g00 g01"), _mp("-2/5,1/5,1/5,3/5;1/5,1/5;2/5"),
          MEAS_SIGMA)),
    ]),
    (5, "1021as", [
        ((_vs("d3 e0 e1 f01 f02"), _mp("-1/5,0,0,2/5;2/5,2/5;1/5"),
          MEAS_SB),
         (_vs("d2 d3 f01 g00 g01"),
          _mp("-3/10,1/10,1/2,1/2;1/10,1/10;3/10"), MEAS_SIGMA)),
        ((_vs("d2 d3 g00 g01 h01"),
          _mp("-1/10,3/10,1/2,1/2;-1/10,-1/10;3/10"), MEAS_SB), None),
    ]),
    (5, "1030as", [
        ((_vs("d1 d2 d3 g00 g01"), _mp("-1/5,2/5,2/5,2/5;0,0;1/5"),
          MEAS_SB),
         (_vs("e0 e1 f01 f02 f03"),
          _mp("-3/10,1/10,1/10,1/10;1/2,1/2;3/10"), MEAS_SIGMA)),
        ((_vs("e0 e1 f01 f02 f12"),
          _mp("-1/10,-1/10,-1/10,3/10;1/2,1/2;3/10"), MEAS_SB), None),
    ]),
    (6, "0022pp", [
        ((_vs("d2 d3 e1 f01 g00 g10"),
          _mp("-1/12,-1/12,5/12,5/12;-1/12,5/12;1/4"), MEAS_SB), None),
    ]),
    (6, "04as", [
        ((_vs("d0 d1 d2 d3 e0 e1"),
          _mp("1/6,1/6,1/6,1/6;1/6,1/6;0"), MEAS_NR), None),
    ]),
    (6, "0031as", [
        ((_vs("d1 d2 d3 g00 g01 h01"),
          _mp("-1/12,5/12,5/12,5/12;-1/12,-1/12;1/4"), MEAS_SB), None),
        ((_vs("d3 e0 e1 f01 f02 f12"),
          _mp("-1/12,-1/12,-1/12,5/12;5/12,5/12;1/4"), MEAS_SB), None),
    ]),
]

# Full degeneration graph (non-as nodes); the last three pairs are the
# figure's left/right margin wrap-around duplicates, drawn between the
# real systems they identify.
FIG2_EDGES = frozenset([
    ("40v2", "31vp"), ("40v2", "2200vv"), ("40v2", "3100v2"),
    ("40v2", "22v2"),
    ("31vp", "22vp"), ("31vp", "2110vp"),
    ("2200vv", "2110vp"), ("2200vv", "1120vv"),
    ("3100v2", "2110vp"), ("3100v2", "2020v2"),
    ("22v2", "1120vv"), ("22v2", "2020v2"), ("22v2", "13v2"),
    ("22vp", "13vp"), ("22vp", "2020vp"), ("22vp", "1120vp"),
    ("2110vp", "1111pp"), ("2110vp", "2020vp"), ("2110vp", "1120vp"),
    ("2110vp", "1021vp"),
    ("1120vv", "1120vp"), ("1120vv", "1021vp"), ("1120vv", "0022vv"),
    ("1120vv", "1030vv"),
    ("2020v2", "2020vp"), ("2020v2", "1021vp"), ("2020v2", "1030v2"),
    ("13v2", "1030vv"), ("13v2", "1030v2"), ("13v2", "04v2"),
    ("13vp", "04vp"), ("13vp", "1030vp"),
    ("1111pp", "1021pp"),
    ("2020vp", "1021pp"),
    ("1120vp", "1021pp"), ("1120vp", "1030vp"), ("1120vp", "0022vp"),
    ("1021vp", "1021pp"), ("1021vp", "0022vp"), ("1021vp", "0031vp"),
    ("0022vv", "0022vp"),
    ("1030vv", "1030vp"), ("1030vv", "0031vp"),
    ("1030v2", "0031vp"), ("1030v2", "0040v2"),
    ("04v2", "0040v2"),
    ("1021pp", "0022pp"), ("0022vp", "0022pp"),
    # margin wrap-around edges
    ("22v2", "22vp"), ("13v2", "13vp"), ("04v2", "04vp"),
])
FIG2_WRAP_EDGES = frozenset([
    ("22v2", "22vp"), ("13v2", "13vp"), ("04v2", "04vp"),
])
FIG2_BOXED = frozenset([
    "40v2", "31vp", "2200vv", "22vp", "2110vp", "1120vv", "13vp",
    "2020vp", "1021vp", "1030vv", "04vp", "0031vp",
])
FIG2_OVAL = frozenset(["1111pp", "1021pp", "0022pp"])

# q-Askey subscheme: ([a/b] label, midpoint, system, q-Askey family,
# finite-support family or None)
ASKEY_ROWS = [
    ("[2/4]", _mp("0,0,0,0;1/2,1/2;0"), "40as",
     "Askey-Wilson", "q-Racah"),
    ("[2/6]", _mp("0,0,0,1/3;1/3,1/3;0"), "31as",
     "Continuous dual q-Hahn", "Dual q-Hahn"),
    ("[3/6]", _mp("-1/6,-1/6,1/6,1/6;1/2,1/2;1/6"), "2200as",
     "Big q-Jacobi", "q-Hahn"),
    ("[4/6]", _mp("-1/3,0,0,0;2/3,2/3;0"), "31as", "?", "?"),
    ("[2/8]", _mp("0,0,1/4,1/4;1/4,1/4;0"), "22as",
     "Al-Salam Chihara", "Dual q-Krawtchouk"),
    ("[3/8]", _mp("-1/8,-1/8,1/8,3/8;3/8,3/8;1/8"), "2110as",
     "Big q-Laguerre", "affine q-Krawtchouk"),
    ("[4/8]", _mp("-1/4,0,0,1/4;1/2,1/2;1/4"), "1120as",
     "Little q-Jacobi", "q-Krawtchouk"),
    ("[5/8]", _mp("-3/8,-1/8,1/8,1/8;5/8,5/8;1/8"), "2110as",
     "q-Meixner", "quantum q-Krawtchouk"),
    ("[6/8]", _mp("-1/4,-1/4,0,0;3/4,3/4;0"), "22as",
     "Askey-Ismail", "?"),
    ("[2/10]", _mp("0,1/5,1/5,1/5;1/5,1/5;0"), "13as",
     "Continuous big q-Hermite", None),
    ("[3/10]", _mp("-1/10,-1/10,3/10,3/10;3/10,3/10;1/10"), "2020as",
     "Al Salam Carlitz I", None),
    ("[4/10]", _mp("-1/5,0,0,2/5;2/5,2/5;1/5"), "1021as",
     "Little q-Laguerre", None),
    ("[5/10]'", _mp("-1/10,-1/10,-1/10,3/10;1/2,1/2;3/10"), "1030as",
     "NP", None),
    ("[5/10]", _mp("-3/10,1/10,1/10,1/10;1/2,1/2;3/10"), "1030as",
     "Alternative q-Charlier", None),
    ("[6/10]", _mp("-2/5,0,0,1/5;3/5,3/5;1/5"), "1021as",
     "q-Laguerre/q-Charlier", None),
    ("[7/10]", _mp("-3/10,-3/10,1/10,1/10;7/10,7/10;1/10"), "2020as",
     "Al Salam Carlitz II", None),
    ("[8/10]", _mp("-1/5,-1/5,-1/5,0;4/5,4/5;0"), "13as", "?", None),
    ("[2/12]", _mp("1/6,1/6,1/6,1/6;1/6,1/6;0"), "04as",
     "Continuous q-Hermite", None),
    ("[5/12]", _mp("-1/12,-1/12,-1/12,5/12;5/12,5/12;1/4"), "0031as",
     "NP", None),
    ("[7/12]", _mp("-5/12,1/12,1/12,1/12;7/12,7/12;1/4"), "0031as",
     "Stieltjes-Wiegert", None),
    ("[10/12]", _mp("-1/6,-1/6,-1/6,-1/6;5/6,5/6;0"), "04as", "?", None),
]

ASKEY_EDGES = frozenset([
    ("[2/4]", "[2/6]"), ("[2/4]", "[3/6]"), ("[2/4]", "[4/6]"),
    ("[2/6]", "[2/8]"), ("[2/6]", "[3/8]"),
    ("[3/6]", "[3/8]"), ("[3/6]", "[4/8]"), ("[3/6]", "[5/8]"),
    ("[4/6]", "[5/8]"), ("[4/6]", "[6/8]"),
    ("[2/8]", "[2/10]"), ("[2/8]", "[3/10]"),
    ("[3/8]", "[3/10]"), ("[3/8]", "[4/10]"),
    ("[4/8]", "[4/10]"), ("[4/8]", "[5/10]'"), ("[4/8]", "[5/10]"),
    ("[4/8]", "[6/10]"),
    ("[5/8]", "[6/10]"), ("[5/8]", "[7/10]"),
    ("[6/8]", "[7/10]"), ("[6/8]", "[8/10]"),
    ("[2/10]", "[2/12]"),
    ("[4/10]", "[5/12]"), ("[5/10]'", "[5/12]"),
    ("[5/10]", "[7/12]"), ("[6/10]", "[7/12]"),
    ("[8/10]", "[10/12]"),
])


# ---------------------------------------------------------------------------
# Golden-table regeneration checks

def _appendix_cells():
    for level, name, rows in APPENDIX_TABLES:
        for ordinary, flipped in rows:
            for col, cell in (("ordinary", ordinary), ("flipped", flipped)):
                if cell is not None:
                    yield level, name, col, cell


def check_appendix() -> list[str]:
    """Regenerate every appendix row; returns a list of mismatches."""
    sch = build_scheme()
    errors: list[str] = []
    systems = {s.name: s for s in sch.systems}
    # build_scheme has already enforced the census (38 systems and the
    # per-level counts); the checks below are the appendix rows.

    # Level 1: one system realized by the five listed vertices.
    top = systems.get(APPENDIX_LEVEL1_SYSTEM)
    if top is None or top.level != 1:
        errors.append("missing level-1 system 40v2")
    else:
        reps = {sch.orbit_of[(v,)] for v in APPENDIX_LEVEL1_VERTICES}
        have = {r.orbit_id for r in top.realizations}
        if reps != have or len(top.realizations) != 5:
            errors.append("level-1 realizations mismatch")

    face_set = set(sch.faces)
    seen_orbits: dict[str, set[str]] = {}
    for level, name, col, (verts, mid7, mu) in _appendix_cells():
        where = f"{name} {col} {' '.join(verts)}"
        if verts not in face_set:
            errors.append(f"{where}: not an enumerated face")
            continue
        if len(verts) != level:
            errors.append(f"{where}: level mismatch")
        got_mid = _midpoint7(verts)
        if got_mid != mid7:
            errors.append(f"{where}: midpoint {got_mid} != {mid7}")
        got_name = _orbit_system(sch.orbit_of[verts])
        if got_name != name:
            errors.append(f"{where}: name {got_name} != {name}")
        if measure_tag(verts) != mu:
            errors.append(f"{where}: measure {measure_tag(verts)} != {mu}")
        oid = sch.orbit_of[verts]
        seen_orbits.setdefault(name, set()).add(oid)

    # every realization is listed, or is the flip image of a listed one
    # (the level-2 table has no flipped column, so one g-edge orbit is
    # represented there by its flip, an f-edge)
    for level, name, rows in APPENDIX_TABLES:
        sys_rec = systems.get(name)
        if sys_rec is None:
            errors.append(f"system {name} missing")
            continue
        have = {r.orbit_id for r in sys_rec.realizations}
        listed = seen_orbits.get(name, set())
        if not listed <= have:
            errors.append(f"{name}: table cell outside enumeration")
        flip_closure = set(listed)
        for oid in listed:
            flip_closure |= set(sch.flip_orbits[oid] or ())
        if not have <= flip_closure:
            errors.append(
                f"{name}: realizations {have - flip_closure} neither "
                "listed nor flips of listed ones"
            )

    # flip structure: a flipped-column cell is a flip image of its row's
    # ordinary cell; single-column rows flip within their own system;
    # at level 6 the flip leaves the polytope entirely
    for level, name, rows in APPENDIX_TABLES:
        for ordinary, flipped in rows:
            if ordinary is not None and flipped is not None:
                o_oid = sch.orbit_of[ordinary[0]]
                f_oid = sch.orbit_of[flipped[0]]
                if sch.flip_orbits[o_oid] is None or f_oid not in (
                    sch.flip_orbits[o_oid]
                ):
                    errors.append(f"{name}: {o_oid} does not flip to {f_oid}")
            elif ordinary is not None and flipped is None:
                oid = sch.orbit_of[ordinary[0]]
                imgs = sch.flip_orbits[oid]
                if level == 6:
                    if imgs is not None:
                        errors.append(f"{name}: level-6 flip should leave P0")
                elif imgs is None or any(
                    _orbit_system(i) != name for i in imgs
                ):
                    errors.append(f"{name}: {oid} flips out of its system")

    # degeneration graph restricted to non-as systems matches the figure
    non_as = {s.name for s in sch.systems if not s.name.endswith("as")}
    got_edges = {
        (a, b) for a, b in sch.graph.edges if a in non_as and b in non_as
    }
    if got_edges != set(FIG2_EDGES):
        missing = set(FIG2_EDGES) - got_edges
        extra = got_edges - set(FIG2_EDGES)
        errors.append(f"figure edges: missing {missing}, extra {extra}")

    # as-systems hang below their boxed partner and nothing else
    for s in sch.systems:
        if not s.name.endswith("as"):
            continue
        preds = {
            a for a, b in sch.graph.edges
            if b == s.name and not a.endswith("as")
        }
        digits = s.name[:-2]
        boxed = {a for a in preds if a.startswith(digits)}
        if preds != boxed or len(preds) != 1:
            errors.append(f"{s.name}: non-as predecessors {preds}")
        if not preds <= FIG2_BOXED:
            errors.append(f"{s.name}: predecessor not boxed in the figure")
    got_boxed = {
        a for a, b in sch.graph.edges
        if b.endswith("as") and not a.endswith("as")
    }
    if got_boxed != set(FIG2_BOXED):
        errors.append(f"boxed nodes {got_boxed} != {set(FIG2_BOXED)}")
    return errors


def askey_subscheme():
    """The 20-row q-Askey table plus its graph edges."""
    return list(ASKEY_ROWS), set(ASKEY_EDGES)


def check_askey() -> list[str]:
    sch = build_scheme()
    systems = {s.name: s for s in sch.systems}
    errors: list[str] = []
    rows, edges = askey_subscheme()
    # 21 entries; [5/10] appears twice, so 20 distinct [a/b] values
    if len(rows) != 21:
        errors.append(f"expected 21 entries, got {len(rows)}")
    if len({r[0].rstrip("'") for r in rows}) != 20:
        errors.append("expected 20 distinct [a/b] labels")
    labels = set()
    for label, mid7, name, _fam, _disc in rows:
        labels.add(label)
        body = label.strip("[]'")
        a, b = (int(x) for x in body.split("/"))
        if mid7[4] != Q(a, b) or mid7[5] != Q(a, b):
            errors.append(f"{label}: gamma pair != {a}/{b}")
        sys_rec = systems.get(name)
        if sys_rec is None:
            errors.append(f"{label}: unknown system {name}")
            continue
        if sys_rec.level - 2 != (b - 4) // 2 or (b - 4) % 2:
            errors.append(f"{label}: level {sys_rec.level} vs b={b}")
        vec = ExponentVector(mid7[:4], mid7[4:6], -mid7[6])
        _word, red = reduce_to_P(vec)
        alpha = red.a6
        if face_name(alpha) != name:
            errors.append(f"{label}: reduces to {face_name(alpha)}")
    for a, b in edges:
        if a not in labels or b not in labels:
            errors.append(f"edge ({a},{b}) off the table")
            continue
        ba = int(a.strip("[]'").split("/")[1])
        bb = int(b.strip("[]'").split("/")[1])
        if bb != ba + 2:
            errors.append(f"edge ({a},{b}) does not drop one level")
    return errors


# ---------------------------------------------------------------------------
# Emitters

def emit_json() -> str:
    sch = build_scheme()
    systems = []
    for s in sch.systems:
        realizations = []
        for r in s.realizations:
            realizations.append({
                "measure": r.measure_tag,
                "midpoint": [str(x) for x in r.midpoint],
                "vertices": list(r.vertices),
            })
        systems.append({
            "askey_labels": list(s.askey_labels),
            "flip_partner": s.flip_partner,
            "level": s.level,
            "name": s.name,
            "realizations": realizations,
        })
    doc = {
        "edges": sorted([a, b] for a, b in sch.graph.edges),
        "systems": systems,
        "version": "1",
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def emit_dot(include_as: bool = False) -> str:
    sch = build_scheme()
    names = [
        s.name for s in sch.systems
        if include_as or not s.name.endswith("as")
    ]
    shown = set(names)
    by_level: dict[int, list[str]] = {}
    for s in sch.systems:
        if s.name in shown:
            by_level.setdefault(s.level, []).append(s.name)
    lines = ["digraph degenerations {", "  rankdir=TB;"]
    for lvl in sorted(by_level):
        row = " ".join(f'"{n}";' for n in sorted(by_level[lvl]))
        lines.append(f"  {{ rank=same; {row} }}")
    for n in sorted(shown):
        if n in FIG2_OVAL:
            shape = "oval"
        elif n in FIG2_BOXED:
            shape = "box"
        elif n.endswith("as"):
            shape = "ellipse"
        else:
            shape = "none"
        lines.append(f'  "{n}" [shape={shape}];')
    for a, b in sorted(sch.graph.edges):
        if a not in shown or b not in shown:
            continue
        attr = ' [style=dashed, wraparound=true]' if (
            (a, b) in FIG2_WRAP_EDGES
        ) else ""
        lines.append(f'  "{a}" -> "{b}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_tsv() -> str:
    sch = build_scheme()
    lines = ["level\tname\trealizations\tmeasures\tflip_partner\taskey"]
    for s in sorted(sch.systems, key=lambda s: (s.level, s.name)):
        measures = ",".join(r.measure_tag for r in s.realizations)
        lines.append(
            f"{s.level}\t{s.name}\t{len(s.realizations)}\t{measures}\t"
            f"{s.flip_partner or '-'}\t"
            f"{','.join(s.askey_labels) or '-'}"
        )
    return "\n".join(lines) + "\n"
