import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlift import TriangulationError, parse_triangulation
from quadlift.triangulation import FACE_CORNERS, LOCAL_EDGES
from conftest import FAMILY_DOCS, load_doc
from oracles import (brute_force_class_counts, edge_class, edge_direction,
                     face_pairs, flip_edge, gluing, random_isomorphism,
                     relabel_doc, serialize, suspended_surface, to_text,
                     union_find_edge_classes)

import generators as gen


def test_double_tet_class_counts(double_tet):
    assert double_tet.tet_count == 2
    assert len(double_tet.vertex_classes) == 4
    assert len(double_tet.edge_classes) == 6
    assert len(face_pairs(double_tet)) == 4
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
            len(face_pairs(tri))) == (v, e, f)
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
    from quadlift.triangulation import perm_sign
    for tri in all_fixtures.values():
        for i in range(tri.tet_count):
            for f in range(4):
                (j, _), sigma = gluing(tri, i, f)
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
            assert edge_direction(tri, t, a, b) == 1


def test_orientation_stages_are_idempotent(double_tet):
    again = parse_triangulation(serialize(double_tet))
    assert again.tet_orientation == double_tet.tet_orientation
    assert again.edge_direction_at == double_tet.edge_direction_at


def test_involution_invariant(all_fixtures):
    for tri in all_fixtures.values():
        for i in range(tri.tet_count):
            for f in range(4):
                (j, g), _ = gluing(tri, i, f)
                assert gluing(tri, j, g)[0] == (i, f)


def test_round_trip_stability(all_fixtures):
    for tri in all_fixtures.values():
        text = to_text(tri)
        again = parse_triangulation(text)
        assert serialize(again) == serialize(tri)
        assert to_text(again) == text


def test_serialization_matches_source():
    doc = load_doc("fig8.json")
    assert serialize(parse_triangulation(copy.deepcopy(doc))) == doc


def test_flip_edge_reverses_one_class(fig8):
    flipped = flip_edge(fig8, 0)
    e0, f0 = fig8.edge_classes[0], flipped.edge_classes[0]
    assert (f0.tail_local, f0.head_local) == (e0.head_local, e0.tail_local)
    for member in e0.members:
        t, a, b = member
        assert (edge_direction(flipped, t, a, b)
                == -edge_direction(fig8, t, a, b))
    e1, f1 = fig8.edge_classes[1], flipped.edge_classes[1]
    assert (f1.tail_local, f1.head_local) == (e1.tail_local, e1.head_local)
    # flipping twice restores the canonical direction
    again = flip_edge(flipped, 0)
    assert serialize(again) == serialize(fig8)
    assert again.edge_direction_at == fig8.edge_direction_at
    assert ([(e.tail_local, e.head_local, e.tail_vertex, e.head_vertex)
             for e in again.edge_classes]
            == [(e.tail_local, e.head_local, e.tail_vertex, e.head_vertex)
                for e in fig8.edge_classes])
    assert again.arc_discs == fig8.arc_discs


def assert_edge_classes_are_the_union_find(tri, flipped=None):
    """``edge_class_at``, ``edge_direction_at`` and the EdgeClass objects
    are those of the union-find of the oracles, with edge class ``flipped``
    reversed."""
    classes, directions, members = union_find_edge_classes(tri)
    directions = tuple(-d if e == flipped else d
                       for e, d in zip(classes, directions))
    assert tri.edge_class_at == classes
    assert tri.edge_direction_at == directions
    assert len(tri.edge_classes) == len(members)
    for e, (edge, slots) in enumerate(zip(tri.edge_classes, members)):
        i, k = divmod(slots[0], 6)
        a, b = LOCAL_EDGES[k][::directions[slots[0]]]
        assert (edge.index, edge.rep, edge.slots) == (
            e, (i,) + LOCAL_EDGES[k], tuple(slots))
        assert (edge.tail_local, edge.head_local) == (a, b)
        assert (edge.tail_vertex, edge.head_vertex) == (
            tri.vertex_class_at[4 * i + a], tri.vertex_class_at[4 * i + b])


@pytest.mark.parametrize("doc", [doc for _, doc in FAMILY_DOCS],
                         ids=[name for name, _ in FAMILY_DOCS])
def test_the_edge_walk_is_the_union_find(doc):
    tri = parse_triangulation(doc)
    assert_edge_classes_are_the_union_find(tri)
    last = len(tri.edge_classes) - 1
    for e in sorted({0, last // 2, last}):
        assert_edge_classes_are_the_union_find(flip_edge(tri, e), e)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(FAMILY_DOCS), st.integers(0, 999))
def test_the_edge_walk_is_the_union_find_on_relabelled_documents(named, seed):
    _, doc = named
    tet_perm, vertex_perms = random_isomorphism(doc["tets"],
                                                random.Random(seed))
    assert_edge_classes_are_the_union_find(
        parse_triangulation(relabel_doc(doc, tet_perm, vertex_perms)))


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


def assert_gluings_respect_classes(tri):
    """Every face slot, representative or partner, carries each corner to
    one of the same vertex class, and each of its three edges to one of the
    same edge class with the same direction.  Edge classes are built from
    the representative sides alone, so this checks the partner sides."""
    for i in range(tri.tet_count):
        for f in range(4):
            (j, _), sigma = gluing(tri, i, f)
            for v in FACE_CORNERS[f]:
                assert (tri.vertex_class_at[4 * i + v]
                        == tri.vertex_class_at[4 * j + sigma[v]])
            for a, b in itertools.combinations(FACE_CORNERS[f], 2):
                x, y = sigma[a], sigma[b]
                assert edge_class(tri, i, a, b) == edge_class(tri, j, x, y)
                # the class direction a->b in tet i is x->y in tet j
                assert (edge_direction(tri, i, a, b)
                        == edge_direction(tri, j, x, y) * (1 if x < y else -1))


def test_gluings_respect_classes_on_fixtures(all_fixtures):
    for tri in all_fixtures.values():
        assert_gluings_respect_classes(tri)
        assert_gluings_respect_classes(flip_edge(tri, 0))


@pytest.mark.parametrize("moves", [0, 1, 4, 13, 40])
def test_gluings_respect_classes_on_stacked(moves):
    assert_gluings_respect_classes(
        parse_triangulation(gen.stacked(random.Random(moves), moves)))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_gluings_respect_classes_on_covers(n):
    assert_gluings_respect_classes(parse_triangulation(gen.fig8_cover(n)))
    assert_gluings_respect_classes(
        parse_triangulation(gen.one_four_move(gen.fig8_cover(n), 0)))


@pytest.mark.parametrize("genus", [1, 2, 3, 5])
def test_gluings_respect_classes_on_suspended_surfaces(genus):
    assert_gluings_respect_classes(
        parse_triangulation(suspended_surface(genus)))
