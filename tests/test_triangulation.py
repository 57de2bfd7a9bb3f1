import copy

import pytest

from quadlift import (TriangulationError, parse_triangulation, orient,
                      orient_edges)
from conftest import load_doc
from oracles import brute_force_class_counts


def test_double_tet_class_counts(double_tet):
    assert double_tet.tet_count == 2
    assert len(double_tet.vertex_classes) == 4
    assert len(double_tet.edge_classes) == 6
    assert len(double_tet.face_classes) == 4
    # Euler characteristic of a closed 3-pseudo-manifold
    assert 4 - 6 + 4 - 2 == 0


@pytest.mark.parametrize("name", ["double_tet.json", "fig8.json",
                                  "three_tet.json", "one_tet.json",
                                  "pentachoron.json"])
def test_class_counts_against_union_find_oracle(name):
    doc = load_doc(name)
    tri = parse_triangulation(doc)
    v, e, f = brute_force_class_counts(doc)
    assert (len(tri.vertex_classes), len(tri.edge_classes),
            len(tri.face_classes)) == (v, e, f)
    # chi = 0 for every closed 3-pseudo-manifold with surface links of even chi
    chi_links = sum(l.euler_characteristic for l in tri.links)
    assert v - e + f - tri.tet_count == v - chi_links // 2


def test_fig8_has_one_torus_vertex(fig8):
    assert len(fig8.vertex_classes) == 1
    assert fig8.links[0].euler_characteristic == 0
    assert not fig8.links[0].is_sphere


def test_unglued_face_rejected():
    doc = load_doc("one_tet.json")
    doc["gluings"][0][1] = None
    doc["gluings"][0][2] = None
    doc["gluings"][0][3] = None
    with pytest.raises(TriangulationError, match="unglued"):
        parse_triangulation(doc)
    # unglued faces are reported even when another entry is itself invalid
    doc = {"tets": 1, "gluings": [[
        {"tet": 0, "face": 0, "corners": [2, 1, 3]}, None, None, None]]}
    with pytest.raises(TriangulationError, match="unglued"):
        parse_triangulation(doc)


def test_non_involutive_pairing_rejected():
    doc = load_doc("double_tet.json")
    # face 0 of tet 1 now points at face 1 of tet 0, which does not point back
    doc["gluings"][1][0] = {"tet": 0, "face": 1, "corners": [0, 2, 3]}
    with pytest.raises(TriangulationError, match="non-involutive"):
        parse_triangulation(doc)


def test_corner_to_omitted_vertex_rejected():
    doc = load_doc("double_tet.json")
    doc["gluings"][0][0]["corners"] = [0, 2, 3]
    with pytest.raises(TriangulationError, match="omitted vertex"):
        parse_triangulation(doc)


def test_face_glued_to_itself_rejected():
    doc = load_doc("double_tet.json")
    doc["gluings"][0][0] = {"tet": 0, "face": 0, "corners": [2, 1, 3]}
    with pytest.raises(TriangulationError, match="itself"):
        parse_triangulation(doc)


def test_malformed_document_rejected():
    with pytest.raises(TriangulationError, match="malformed"):
        parse_triangulation("{not json")
    with pytest.raises(TriangulationError, match="malformed"):
        parse_triangulation({"tets": 1})
    with pytest.raises(TriangulationError, match="positive"):
        parse_triangulation({"tets": 0, "gluings": []})


def test_orientation_signs_on_double_tet(double_tet):
    # identity corner maps preserve face orientation, so signs alternate
    assert double_tet.tet_orientation == (1, -1)


def test_first_tet_of_component_positive(all_fixtures):
    for tri in all_fixtures.values():
        assert tri.tet_orientation[0] == 1


def test_orientation_relation(all_fixtures):
    from quadlift import perm_sign
    for tri in all_fixtures.values():
        for i in range(tri.tet_count):
            for f in range(4):
                j, _ = tri.partner(i, f)
                sigma = tri.corner_map(i, f)
                assert (tri.tet_orientation[i] * perm_sign(sigma)
                        == -tri.tet_orientation[j])


def test_parity_flip_makes_non_orientable():
    doc = load_doc("double_tet.json")
    # swap two corners on one gluing of the doubled tetrahedron
    doc["gluings"][0][0]["corners"] = [1, 3, 2]
    doc["gluings"][1][0]["corners"] = [1, 3, 2]
    with pytest.raises(TriangulationError, match="non-orientable"):
        parse_triangulation(doc)


def test_edge_orientation_convention(all_fixtures):
    for tri in all_fixtures.values():
        for e in tri.edge_classes:
            t, a, b = e.rep
            assert e.rep == min(e.members)
            assert (e.tail_local, e.head_local) == (a, b)
            assert tri.edge_direction(t, a, b) == 1


def test_orientation_stages_are_idempotent(double_tet):
    assert orient(double_tet) is double_tet
    assert orient_edges(double_tet) is double_tet
    again = parse_triangulation(double_tet.serialize())
    assert again.tet_orientation == double_tet.tet_orientation
    assert again._edge_dir == double_tet._edge_dir


def test_involution_invariant(all_fixtures):
    for tri in all_fixtures.values():
        for i in range(tri.tet_count):
            for f in range(4):
                j, g = tri.partner(i, f)
                assert tri.partner(j, g) == (i, f)


def test_round_trip_stability(all_fixtures):
    for tri in all_fixtures.values():
        text = tri.to_text()
        again = parse_triangulation(text)
        assert again == tri
        assert again.to_text() == text


def test_serialization_matches_source():
    doc = load_doc("fig8.json")
    assert parse_triangulation(copy.deepcopy(doc)).serialize() == doc


def test_with_edge_flipped_rejects_bad_index(fig8):
    with pytest.raises(ValueError):
        fig8.with_edge_flipped(99)
    with pytest.raises(ValueError):
        fig8.with_edge_flipped(-1)


def test_with_edge_flipped_reverses_one_class(fig8):
    flipped = fig8.with_edge_flipped(0)
    e0, f0 = fig8.edge_classes[0], flipped.edge_classes[0]
    assert (f0.tail_local, f0.head_local) == (e0.head_local, e0.tail_local)
    for member in e0.members:
        t, a, b = member
        assert flipped.edge_direction(t, a, b) == -fig8.edge_direction(t, a, b)
    e1, f1 = fig8.edge_classes[1], flipped.edge_classes[1]
    assert (f1.tail_local, f1.head_local) == (e1.tail_local, e1.head_local)
    # flipping twice restores the canonical direction
    assert flipped.with_edge_flipped(0) == fig8


def test_disconnected_input_accepted():
    doc = load_doc("double_tet.json")
    other = load_doc("one_tet.json")
    merged = {"tets": 3, "gluings": copy.deepcopy(doc["gluings"])}
    row = copy.deepcopy(other["gluings"][0])
    for entry in row:
        entry["tet"] = 2
    merged["gluings"].append(row)
    tri = parse_triangulation(merged)
    assert tri.tet_count == 3
    assert tri.tet_orientation[2] == 1  # first tet of its own component


def test_reversed_edge_configs_rejected_as_non_orientable():
    # a gluing that brings edge {1,3} back to itself with the opposite
    # direction; such a complex is necessarily non-orientable (an orientable
    # edge neighborhood cannot reverse the edge), so the orientation check
    # rejects it first
    doc = {"tets": 1, "gluings": [[
        {"tet": 0, "face": 1, "corners": [0, 2, 3]},
        {"tet": 0, "face": 0, "corners": [1, 2, 3]},
        {"tet": 0, "face": 3, "corners": [0, 2, 1]},
        {"tet": 0, "face": 2, "corners": [0, 3, 1]},
    ]]}
    with pytest.raises(TriangulationError, match="non-orientable"):
        parse_triangulation(doc)


def test_vertex_link_validation_runs_at_parse(all_fixtures):
    for tri in all_fixtures.values():
        assert len(tri.links) == len(tri.vertex_classes)
        for link in tri.links:
            assert link.euler_characteristic == 2 - 2 * link.genus


def test_boolean_fields_rejected():
    doc = load_doc("one_tet.json")
    doc["tets"] = True
    with pytest.raises(TriangulationError, match="'tets' must be"):
        parse_triangulation(doc)
    for key, value, message in (("tet", False, "unknown tetrahedron"),
                                 ("face", True, "unknown face")):
        doc = load_doc("double_tet.json")
        doc["gluings"][0][0][key] = value
        with pytest.raises(TriangulationError, match=message):
            parse_triangulation(doc)
    doc = load_doc("double_tet.json")
    doc["gluings"][0][0]["corners"][0] = True
    with pytest.raises(TriangulationError, match="malformed corner"):
        parse_triangulation(doc)
