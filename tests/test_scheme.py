"""Degeneration scheme regeneration and golden-table checks."""

import hashlib
import json

from ebiortho import scheme
from ebiortho.polytope import _TILE_ROWS, TileId, _slacks, attach_zeta, face_name, is_system
from ebiortho.scheme import (
    EXPECTED_LEVEL_COUNTS,
    EXPECTED_TOTAL,
    build_scheme,
    check_appendix,
    check_askey,
    askey_subscheme,
    emit_dot,
    emit_json,
    emit_tsv,
    enumerate_vertices,
)


def test_vertex_census():
    verts = enumerate_vertices()
    assert len(verts) == 21
    names = {v.name for v in verts}
    assert {"d0", "d3", "e0", "e1", "f01", "g00", "g31", "h01"} <= names
    for v in verts:
        a = v.coords.a6
        assert sum(a) == 1
        assert is_system(a)


def _by_name():
    return {s.name: s for s in build_scheme().systems}


def test_system_census():
    sch = build_scheme()
    assert len(sch.systems) == EXPECTED_TOTAL == 38
    per_level = {}
    for s in sch.systems:
        per_level[s.level] = per_level.get(s.level, 0) + 1
    assert per_level == EXPECTED_LEVEL_COUNTS == {1: 1, 2: 5, 3: 7, 4: 12, 5: 10, 6: 3}


def test_realization_midpoints_are_named_systems():
    for s in build_scheme().systems:
        for rec in s.realizations:
            a = rec.midpoint[:6]
            assert is_system(a)
            assert face_name(a) == s.name
            assert rec.measure_tag in ("NR", "SB", "Sigma", "Sigma2")


def test_appendix_golden_match():
    assert check_appendix() == []


def test_askey_golden_match():
    assert check_askey() == []


def test_askey_table_shape():
    rows, edges = askey_subscheme()
    assert len(rows) == 21
    labels = {label.rstrip("'") for label, *_ in rows}
    assert len(labels) == 20
    assert len(edges) == 28


def test_graph_edges_drop_one_level():
    systems = _by_name()
    graph = build_scheme().graph
    assert set(graph.nodes) == set(systems)
    for a, b in graph.edges:
        assert systems[b].level == systems[a].level + 1


def test_json_schema():
    data = json.loads(emit_json())
    assert data["version"] == "1"
    assert len(data["systems"]) == 38
    sample = data["systems"][0]
    assert set(sample) >= {"name", "level", "realizations", "flip_partner", "askey_labels"}
    real = sample["realizations"][0]
    assert set(real) >= {"vertices", "midpoint", "measure"}
    assert all(len(e) == 2 for e in data["edges"])


def test_dot_output():
    dot = emit_dot()
    assert dot.startswith("digraph")
    assert "rank=same" in dot
    assert "40v2" in dot
    # -as nodes only with the flag
    assert "40as" not in dot
    assert "40as" in emit_dot(include_as=True)


def test_tsv_output():
    lines = emit_tsv().strip().split("\n")
    assert lines[0].split("\t")[:2] == ["level", "name"]
    assert len(lines) == 39


def test_flip_partner_consistency():
    for s in build_scheme().systems:
        if s.level == 6:
            assert s.flip_partner is None
        else:
            assert s.flip_partner == s.name


# The scheme derives each orbit's data from its smallest face, and each
# orbit from one face of one of six representative tiles.  The tests below
# recompute that data face by face, over all 27 tiles, and compare.


def _reference_faces():
    """Every face of the tiling, enumerated tile by tile over all 27."""
    return set().union(*(scheme._tile_faces(rows) for rows in _TILE_ROWS.values()))


def test_orbits_match_canonical_key_grouping():
    groups = {}
    for f in _reference_faces():
        groups.setdefault(scheme._canon_orbit_key(f), []).append(f)
    orbits = scheme._face_orbits()
    assert orbits == [sorted(groups[key]) for key in sorted(groups)]
    assert len(orbits) == 107
    sch = build_scheme()
    assert list(sch.orbit_faces.values()) == [
        members for members in orbits if members[0] in sch.orbit_of
    ]


def test_representative_tiles_and_their_images_give_every_face():
    reps = scheme._tile_representatives()
    assert reps == [
        TileId("I"), TileId("II", (0,)), TileId("II", (4,)),
        TileId("III", (0, 1, 2)), TileId("III", (0, 1, 4)),
        TileId("III", (0, 4, 5)),
    ]
    faces = {f for members in scheme._face_orbits() for f in members}
    assert len(faces) == 1255
    assert faces == _reference_faces()


def test_tile_image_carries_the_tile_vertices():
    vertices = {
        tile: {n for n, v in scheme._VERT2.items() if min(_slacks(rows, v, 1)) >= 0}
        for tile, rows in _TILE_ROWS.items()
    }
    for perm, img in zip(scheme._SYMS, scheme._VERTEX_IMAGES):
        for tile, names in vertices.items():
            image = scheme._tile_image(perm, tile)
            assert {img[n] for n in names} == vertices[image]


def test_canon_orbit_key_runs_once_per_orbit(monkeypatch):
    calls = []
    real = scheme._canon_orbit_key

    def counted(names):
        calls.append(names)
        return real(names)

    monkeypatch.setattr(scheme, "_canon_orbit_key", counted)
    scheme.Scheme()
    assert len(calls) == 107


def test_system_test_is_orbit_invariant():
    sch = build_scheme()
    faces = _reference_faces()
    assert len(faces) == 1255
    for f in faces:
        assert scheme._is_system(*scheme._midpoint2(f)) == (f in sch.orbit_of)
    assert len(sch.faces) == 1249
    assert set(sch.faces) == set(sch.orbit_of)
    assert len(sch.orbit_faces) == 105


def test_every_system_face_is_named_by_its_orbit():
    sch = build_scheme()
    for f in sch.faces:
        mid = scheme._midpoint7(f)[:6]
        assert face_name(mid) == sch.orbit_of[f].rsplit(".", 1)[0]


def test_every_system_face_flips_to_its_orbits_flip_orbits():
    sch = build_scheme()
    for f in sch.faces:
        images = {sch.orbit_of[img] for img in scheme._flip_image_faces(f)}
        assert (tuple(sorted(images)) or None) == sch.flip_orbits[sch.orbit_of[f]]


def test_graph_edges_match_pairwise_face_inclusion():
    sch = build_scheme()
    by_level = {}
    for f in sch.faces:
        name = sch.orbit_of[f].rsplit(".", 1)[0]
        by_level.setdefault(len(f), {}).setdefault(name, []).append(frozenset(f))
    edges = set()
    for lvl in range(1, 6):
        for na, fas in by_level.get(lvl, {}).items():
            for nb, fbs in by_level.get(lvl + 1, {}).items():
                if any(fa < fb for fa in fas for fb in fbs):
                    edges.add((na, nb))
    assert sch.graph.edges == edges
    assert len(edges) == 78


def test_name_and_flip_run_once_per_orbit(monkeypatch):
    calls = {"_face_name": 0, "_flip_image_faces": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(scheme, fn), _key=fn):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(scheme, fn, counted)
    scheme.Scheme()
    assert calls == {"_face_name": 105, "_flip_image_faces": 105}


# sha256 of the four emitter outputs as the all-Fraction implementation
# produced them.
GOLDEN_SHA256 = {
    "emit_json": "3203e88099fb6461e2bcf0e46eb599e51a8596a2d0454e22823a0f5ad6c7a417",
    "emit_dot": "8807ec5cca3e056033c859b5c1bfac57164867c5eec275cfd578bee7f19d9a4c",
    "emit_dot_all": "26d8302e3a4dd63023e5a13e13539a39690ad9d205094d2b0d0e3ff4f33d58de",
    "emit_tsv": "901fa222ff8a9c30fe73e58c7e82494e1b36fe40a1153b56ec6530d4a8eed25f",
}


def test_emitters_are_byte_identical_to_golden():
    outputs = {
        "emit_json": emit_json(),
        "emit_dot": emit_dot(),
        "emit_dot_all": emit_dot(include_as=True),
        "emit_tsv": emit_tsv(),
    }
    got = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in outputs.items()
    }
    assert got == GOLDEN_SHA256
