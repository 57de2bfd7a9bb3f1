"""The package's fast paths against the reference paths they replaced.

``lift`` and ``oracles.smith_lift`` must give the same LiftResult, the
per-vertex shifts included, on generated triangulations (stacked spheres and
fig8 covers from perfbench/generators.py, and suspended surfaces of genus 2
and 3) and on every small admissible vector of the fixtures.  The arc table
that the link pass builds must give the boundary matrix and the quad
boundary of every link that the per-disc boundary of the oracles gives.
"""

import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlift import NORMAL, NOT_NORMAL, SPUN_NORMAL, lift, parse_triangulation
from quadlift.chains import apply_boundary, boundary_matrix
from quadlift.solver import quad_boundary, quad_chain
from conftest import load_doc, load_tri
from oracles import (boundary_of, disc_boundary, flip_edge,
                     link_boundary_matrix, link_potential, random_isomorphism,
                     relabel_doc, smith_lift, solve_integer, suspended_surface,
                     translate_disc, translate_disc_vector,
                     translate_quad_vector)
import generators as gen

ARC_TABLE_DOCS = (
    [(name, load_doc(name + ".json"))
     for name in ("double_tet", "fig8", "three_tet", "one_tet", "pentachoron")]
    + [("stacked-%d" % m, gen.stacked(random.Random(m), m))
       for m in (0, 1, 4, 13, 40)]
    + [("cover-%d" % n, gen.fig8_cover(n)) for n in (1, 2, 5, 16)]
    + [("suspended-%d" % g, suspended_surface(g)) for g in (2, 3)])


def assert_arc_table_matches_per_disc_oracle(tri):
    assert boundary_matrix(tri).columns == [
        disc_boundary(tri, d) for d in range(tri.disc_count)]
    for index in range(tri.quad_count):
        q = [0] * tri.quad_count
        q[index] = 1
        boundary = boundary_of(tri, quad_chain(tri, q))
        b = quad_boundary(tri, q)
        for link in tri.links:
            assert [b[arc] for arc in link.arcs] == [boundary[arc]
                                                     for arc in link.arcs]


@pytest.mark.parametrize("doc", [doc for _, doc in ARC_TABLE_DOCS],
                         ids=[name for name, _ in ARC_TABLE_DOCS])
def test_arc_table_matches_per_disc_oracle(doc):
    tri = parse_triangulation(doc)
    assert_arc_table_matches_per_disc_oracle(tri)
    for edge in {0, len(tri.edge_classes) // 2}:
        assert_arc_table_matches_per_disc_oracle(flip_edge(tri, edge))


@pytest.mark.parametrize("doc", [doc for _, doc in ARC_TABLE_DOCS],
                         ids=[name for name, _ in ARC_TABLE_DOCS])
@pytest.mark.parametrize("moved", [False, True], ids=["", "one-four"])
def test_quad_boundary_is_the_boundary_of_the_quad_chain(doc, moved):
    if moved:
        doc = gen.one_four_move(copy.deepcopy(doc), 0)
    tri = parse_triangulation(doc)
    rng = random.Random(tri.tet_count)
    queries = gen.edge_link_vectors(tri) + [
        [rng.randint(-3, 3) for _ in range(tri.quad_count)] for _ in range(8)]
    for q in queries:
        assert quad_boundary(tri, q) == apply_boundary(tri, quad_chain(tri, q))


def generated_queries(tri, rng, cover=None):
    """Edge-link vectors, disjoint sums, perturbed vectors, the zero vector
    and, on a fig8 cover, the spun vector and its multiples."""
    vectors = gen.edge_link_vectors(tri)
    out = vectors + [[0] * tri.quad_count]
    for _ in range(6 if vectors else 0):
        if len(vectors) > 1:
            total = gen.disjoint_sum(rng, vectors)
            if total is not None:
                out.append(total)
        bumped = gen.perturbed(rng, rng.choice(vectors))
        if bumped is not None:
            out.append(bumped)
    if cover is not None:
        out += [gen.fig8_spun(cover, m) for m in (1, 2, 3)]
    return out


def assert_same_as_smith(tri, queries):
    seen = set()
    decompositions = {}
    for q in queries:
        result = lift(tri, q)
        assert result == smith_lift(tri, q, decompositions), q
        seen.add(result.classification)
    return seen


@pytest.mark.parametrize("moves", [0, 1, 2, 5, 9, 17, 28, 40])
def test_stacked_triangulations(moves):
    tri = parse_triangulation(gen.stacked(random.Random(moves), moves))
    seen = assert_same_as_smith(tri, generated_queries(tri, random.Random(1)))
    assert NORMAL in seen


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16])
def test_fig8_covers(n):
    tri = parse_triangulation(gen.fig8_cover(n))
    seen = assert_same_as_smith(tri, generated_queries(tri, random.Random(n), n))
    assert {NORMAL, SPUN_NORMAL} <= seen


@pytest.mark.parametrize("doc, cover", [
    (gen.stacked(random.Random(9), 9), None), (gen.fig8_cover(5), 5)],
    ids=["stacked-9", "cover-5"])
def test_relabelled_copies(doc, cover):
    # another labelling grows the forest in another breadth-first order
    tet_perm, vertex_perms = random_isomorphism(doc["tets"], random.Random(7))
    tri = parse_triangulation(relabel_doc(doc, tet_perm, vertex_perms))
    queries = generated_queries(tri, random.Random(4))
    if cover is not None:
        queries += [translate_quad_vector(gen.fig8_spun(cover, m), tet_perm,
                                          vertex_perms) for m in (1, 2)]
    seen = assert_same_as_smith(tri, queries)
    assert NORMAL in seen and (cover is None or SPUN_NORMAL in seen)


def test_cover_with_a_sphere_vertex():
    tri = parse_triangulation(gen.one_four_move(gen.fig8_cover(3), 1))
    assert sorted(link.genus for link in tri.links) == [0, 1]
    queries = generated_queries(tri, random.Random(2))
    queries.append(gen.fig8_spun(3) + [0] * 9)
    assert_same_as_smith(tri, queries)


def side_loop(tri, side, multiple=1):
    """Q1 on both cones over triangle ``side`` of a suspended surface.  Its
    boundary on each pole link is the polygon side ``side``, a loop that
    does not bound there, so it is a cycle but not a boundary."""
    q = [0] * tri.quad_count
    for tet in (side, side + tri.tet_count // 2):
        q[3 * tet] = multiple
    return q


@pytest.mark.parametrize("genus", [2, 3])
def test_suspended_surfaces(genus):
    tri = parse_triangulation(suspended_surface(genus))
    rng = random.Random(genus)
    vectors = gen.edge_link_vectors(tri)
    sums = [gen.disjoint_sum(rng, vectors) for _ in range(6)]
    queries = vectors + [q for q in sums if q is not None]
    queries += [side_loop(tri, side, m)
                for side in range(4 * genus) for m in (1, 2)]
    assert len(queries) > len(vectors) + 8 * genus
    seen = assert_same_as_smith(tri, queries)
    assert seen == {NORMAL, SPUN_NORMAL}


def small_admissible_vectors(tri):
    opts = [(0, 0, 0)] + [tuple(v if j == k else 0 for j in range(3))
                          for k in range(3) for v in (1, 2)]
    return [[x for row in combo for x in row]
            for combo in itertools.product(opts, repeat=tri.tet_count)]


@pytest.mark.parametrize("name", ["one_tet", "double_tet", "three_tet", "fig8"])
def test_every_small_admissible_vector_of_the_fixtures(name):
    tri = load_tri(name + ".json")
    seen = assert_same_as_smith(tri, small_admissible_vectors(tri))
    assert {NORMAL, NOT_NORMAL} <= seen


@pytest.mark.parametrize("name", ["one_tet", "double_tet", "three_tet", "fig8"])
def test_boundary_test_agrees_with_smith_on_non_cycles_too(name):
    # lift runs the cycle test first; boundary_test alone must still reject
    # every chain that does not bound, including ones carried by an arc
    # that cancels in its only triangle's boundary
    tri = load_tri(name + ".json")
    matrices = [link_boundary_matrix(tri, link) for link in tri.links]
    for q in small_admissible_vectors(tri):
        b = quad_boundary(tri, q)
        for v, a in enumerate(matrices):
            rhs = [-b[arc] for arc in tri.links[v].arcs]
            ok, w, reason = link_potential(tri, b, v)
            assert ok == solve_integer(a, rhs).ok
            if ok:
                assert a.mul_vec(w) == rhs
            else:
                assert (w, reason) == (None, "no rational solution")


def test_pentachoron():
    tri = load_tri("pentachoron.json")
    assert_same_as_smith(tri, generated_queries(tri, random.Random(5)))


def test_shift_is_minus_the_last_triangle_of_the_canonical_lift():
    tri = parse_triangulation(gen.stacked(random.Random(3), 6))
    for q in generated_queries(tri, random.Random(3)):
        result = lift(tri, q)
        if result.classification != NORMAL:
            continue
        for v, link in enumerate(tri.links):
            assert result.per_vertex_shift[v] == -result.canonical_lift[
                link.triangles[-1]]


def test_every_root_gives_the_same_verdict_on_spun_data():
    tri = parse_triangulation(gen.fig8_cover(3))
    link = tri.links[0]
    for m in (1, 2, 3):
        for root in range(len(link.triangles)):
            b = quad_boundary(tri, gen.fig8_spun(3, m))
            assert link_potential(tri, b, 0, root=root) == (
                False, None, "no rational solution")


@st.composite
def relabelled_pair(draw):
    """(document, cover or None, an isomorphism of it): a stacked sphere of
    at most 12 moves, a fig8 cover of at most 4 folds or the suspended genus
    2 surface, with or without one 1-4 move."""
    kind = draw(st.sampled_from(("stacked", "cover", "suspended")))
    cover = None
    if kind == "stacked":
        doc = gen.stacked(random.Random(draw(st.integers(0, 99))),
                          draw(st.integers(0, 12)))
    elif kind == "cover":
        cover = draw(st.integers(1, 4))
        doc = gen.fig8_cover(cover)
    else:
        doc = suspended_surface(2)
    if draw(st.booleans()):
        doc = gen.one_four_move(doc, draw(st.integers(0, doc["tets"] - 1)))
    seed = draw(st.integers(0, 99))
    return doc, cover, random_isomorphism(doc["tets"], random.Random(seed))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(relabelled_pair(), st.integers(0, 99))
def test_lift_is_smith_lift_and_commutes_with_relabelling(pair, seed):
    # the relabelled copy numbers its vertex classes, and grows its forest,
    # in another order; the answers must only move with the labels
    doc, cover, (tet_perm, vertex_perms) = pair
    tri = parse_triangulation(doc)
    other = parse_triangulation(relabel_doc(doc, tet_perm, vertex_perms))
    queries = generated_queries(tri, random.Random(seed))
    if cover is not None:
        pad = [0] * (tri.quad_count - 6 * cover)
        queries += [gen.fig8_spun(cover, m) + pad for m in (1, 2)]
    assert {frozenset(translate_disc(d, tet_perm, vertex_perms)
                      for d in link.triangles) for link in tri.links} == {
        frozenset(link.triangles) for link in other.links}
    decompositions, other_decompositions = {}, {}
    for q in queries:
        result = lift(tri, q)
        assert result == smith_lift(tri, q, decompositions), q
        moved = translate_quad_vector(q, tet_perm, vertex_perms)
        image = lift(other, moved)
        assert image == smith_lift(other, moved, other_decompositions), q
        assert image.classification == result.classification
        if result.canonical_lift is None:
            continue
        assert image.canonical_lift == translate_disc_vector(
            result.canonical_lift, tet_perm, vertex_perms)
        # a shift is read at the link's last triangle, which the relabelling
        # moves, so the shifts themselves need not correspond
        for answer, labelled in ((result, tri), (image, other)):
            assert answer.per_vertex_shift == {
                link.vertex: -answer.canonical_lift[link.triangles[-1]]
                for link in labelled.links}
