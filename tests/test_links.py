import gc
import itertools
import random
import weakref

import pytest

from quadlift import NOT_NORMAL, lift, parse_triangulation
from quadlift.chains import apply_boundary
from quadlift.intlinalg import IntMatrix, smith_normal_form
from quadlift.links import build_all_links
from quadlift.solver import quad_chain
from quadlift.triangulation import FACE_CORNERS
from oracles import (arc_of, build_link, directed_face_edge, disc_boundary,
                     dual_tree, end_cell, face_pairs, flip_edge,
                     fundamental_class, kernel_basis, link_boundary_matrix,
                     link_cells,
                     link_boundary_restriction_check, link_potential,
                     projection, small_vectors, suspended_surface)
import generators as gen
from conftest import FAMILY_DOCS

LINK_FIELDS = ("vertex", "triangles", "arcs", "arc_cells",
               "euler_characteristic", "genus", "is_sphere", "tree")


def test_double_tet_links_are_two_triangle_spheres(double_tet):
    assert len(double_tet.links) == 4
    for link in double_tet.links:
        assert len(link.triangles) == 2
        assert len(link.arcs) == 3
        assert link.euler_characteristic == 2
        assert link.genus == 0
        assert link.is_sphere


def test_fig8_link_is_torus_of_eight_triangles(fig8):
    (link,) = fig8.links
    assert len(link.triangles) == 8
    assert link.euler_characteristic == 0
    assert link.genus == 1
    assert not link.is_sphere


def test_build_link_matches_stored(double_tet):
    for v in range(4):
        link = build_link(double_tet, v)
        stored = double_tet.links[v]
        assert link.triangles == stored.triangles
        assert link.arcs == stored.arcs
        assert link.euler_characteristic == stored.euler_characteristic


def assert_links_match_per_vertex_builder(tri):
    links = build_all_links(tri)
    assert len(links) == len(tri.vertex_classes)
    for v, link in enumerate(links):
        old = build_link(tri, v)
        for name in LINK_FIELDS:
            assert getattr(link, name) == getattr(old, name), name
        # the dict also keeps the old insertion order
        assert list(link.arc_cells) == list(old.arc_cells)


def test_one_pass_links_match_per_vertex_builder_on_fixtures(all_fixtures):
    for tri in all_fixtures.values():
        assert_links_match_per_vertex_builder(tri)
        # the link pass reads each edge class's ends from its direction
        for e in range(len(tri.edge_classes)):
            assert_links_match_per_vertex_builder(flip_edge(tri, e))


@pytest.mark.parametrize("moves", [0, 1, 4, 13, 40])
def test_one_pass_links_match_per_vertex_builder_on_stacked(moves):
    tri = parse_triangulation(gen.stacked(random.Random(moves), moves))
    assert_links_match_per_vertex_builder(tri)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_one_pass_links_match_per_vertex_builder_on_covers(n):
    assert_links_match_per_vertex_builder(parse_triangulation(gen.fig8_cover(n)))
    doc = gen.one_four_move(gen.fig8_cover(n), 0)
    assert_links_match_per_vertex_builder(parse_triangulation(doc))


def oracle_arc_ends(tri):
    """The (tail, head) 0-cells of every arc, arc by arc, from the directed
    edge of its representative face opposite the linked corner."""
    ends = []
    for (i, f), _ in face_pairs(tri):
        for corner in FACE_CORNERS[f]:
            p, q = directed_face_edge(tri, i, f, corner)
            ends.append((end_cell(tri, i, corner, p),
                         end_cell(tri, i, corner, q)))
    return ends


def link_arc_cells(tri):
    return {arc: ends for link in tri.links
            for arc, ends in link.arc_cells.items()}


@pytest.mark.parametrize("doc", [doc for _, doc in FAMILY_DOCS],
                         ids=[name for name, _ in FAMILY_DOCS])
def test_arc_ends_match_the_oracle(doc):
    """Each arc's ends, computed from its row on first use, are the oracle's,
    whether the links' ``arc_cells`` are read before them or after, and on
    copies with the first or the last edge class flipped.  Equal ends are
    one tuple, shared by every arc."""
    for cells_first in (True, False):
        tri = parse_triangulation(doc)   # each round reads new parses
        for t in (tri, flip_edge(tri, 0),
                  flip_edge(tri, max(tri.edge_class_at))):
            expect = oracle_arc_ends(t)
            if cells_first:
                cells = link_arc_cells(t)
            assert [t.arc_ends(arc) for arc in range(t.arc_count)] == expect
            if not cells_first:
                cells = link_arc_cells(t)
            assert cells == dict(enumerate(expect))
            shared = {}
            for link in t.links:
                for cell in itertools.chain(*link.arc_cells.values()):
                    assert shared.setdefault(cell, cell) is cell


def test_arc_link_is_the_vertex_class_of_the_row_triangle():
    """``tri.arc_link[arc]`` is the vertex class of the slot of its row's
    triangle d, slot d - 3*(d//7), on every fixture and family, self-glued
    arcs (one triangle on both sides) included, and its arcs of each link
    are the link's ``arcs``."""
    self_glued = 0
    for _, doc in FAMILY_DOCS:
        tri = parse_triangulation(doc)
        assert len(tri.arc_link) == tri.arc_count
        for arc, (_, d, nb, _, _) in enumerate(tri.arc_discs):
            assert tri.arc_link[arc] == tri.vertex_class_at[d - 3 * (d // 7)]
            self_glued += d == nb
        for link in tri.links:
            assert link.arcs == tuple(arc for arc, v in enumerate(tri.arc_link)
                                      if v == link.vertex)
    assert self_glued >= 4   # one_tet alone has 4


@pytest.mark.parametrize("name", ["stacked-13", "cover-5", "suspended-2"])
def test_a_parse_is_freed_by_reference_counting(name):
    """Nothing built at parse or on first use refers back to the
    triangulation: with the collector off, dropping the last reference
    frees it after a NotNormal lift and a read of every lazy field."""
    doc = dict(FAMILY_DOCS)[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        tri = parse_triangulation(doc)
        q = gen.perturbed(random.Random(0), gen.edge_link_vectors(tri)[0])
        assert lift(tri, q).classification == NOT_NORMAL
        link_ends = link_arc_cells(tri)
        assert sorted(link_ends) == sorted(
            arc for link in tri.links for arc in link.arcs)
        ends = [tri.arc_ends(arc) for arc in range(tri.arc_count)]
        chis = [link.euler_characteristic for link in tri.links]
        classes = tri.vertex_classes
        ref = weakref.ref(tri)
        del tri
        assert ref() is None
        # what was read outlives the triangulation without keeping it alive
        assert len(ends) == len(link_ends)
        assert len(chis) == len(classes)
    finally:
        if enabled:
            gc.enable()


def assert_tree_invariants(tri):
    """Every link's stored tree is the breadth-first spanning tree of its
    dual graph that the per-link oracle grows from the last triangle.  It
    uses each arc once, joins the two link triangles whose faces hold the
    arc, with the signs of the boundary columns, and ``boundary_test`` on it
    agrees with the oracle's tree at the same root.  The trees are slices
    of the flat forest that together cover it once."""
    steps, closing = tri.forest
    for flat, ranges in ((steps, [link.span[:2] for link in tri.links]),
                         (closing, [link.span[2:] for link in tri.links])):
        ranges.sort()
        assert [start for start, _ in ranges] == [0] + [
            end for _, end in ranges[:-1]]
        assert ranges[-1][1] == len(flat)
    for link in tri.links:
        assert link.arc_cells == {arc: tri.arc_ends(arc) for arc in link.arcs}
        assert link.gather(range(tri.disc_count)) == link.triangles
    rng = random.Random(tri.tet_count)
    queries = (gen.edge_link_vectors(tri) + [[0] * tri.quad_count]
               + small_vectors(tri, rng, 8))
    for v, link in enumerate(tri.links):
        sides = {arc: [] for arc in link.arcs}
        for disc in link.triangles:
            tet, corner = divmod(disc, 7)
            for f in range(4):
                if f != corner:
                    sides[arc_of(tri, tet, f, corner)].append(disc)
        last = len(link.triangles) - 1
        assert link.tree == dual_tree(link, last, tri.arc_discs)
        steps, closing = link.tree
        assert len(steps) == last
        reached = {link.triangles[last]}
        for _, d, nb, _ in steps:
            assert d in reached and nb not in reached
            reached.add(nb)
        assert reached == set(link.triangles)
        entries = steps + closing
        assert sorted(arc for arc, _, _, _ in entries) == list(link.arcs)
        for arc, d, nb, s in entries:
            assert sorted((d, nb)) == sorted(sides[arc])
            coeff = dict(disc_boundary(tri, d)).get(arc, 0)
            assert s == coeff
            assert (coeff == 0) == (d == nb)
        for q in queries:
            b = apply_boundary(tri, quad_chain(tri, q))
            assert link_potential(tri, b, v) == link_potential(tri, b, v,
                                                               root=last)


def test_tree_invariants_on_fixtures(all_fixtures):
    for tri in all_fixtures.values():
        assert_tree_invariants(tri)
    # the fixtures include arcs whose two sides lie on one triangle
    assert any(d == nb for tri in all_fixtures.values() for link in tri.links
               for _, d, nb, _ in link.tree[1])


@pytest.mark.parametrize("moves", [0, 1, 4, 13, 40])
def test_tree_invariants_on_stacked(moves):
    assert_tree_invariants(
        parse_triangulation(gen.stacked(random.Random(moves), moves)))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_tree_invariants_on_covers(n):
    assert_tree_invariants(parse_triangulation(gen.fig8_cover(n)))
    doc = gen.one_four_move(gen.fig8_cover(n), 0)
    assert_tree_invariants(parse_triangulation(doc))


@pytest.mark.parametrize("genus", [2, 3])
def test_tree_invariants_on_suspended_surfaces(genus):
    tri = parse_triangulation(suspended_surface(genus))
    assert sorted(link.genus for link in tri.links) == [0, 0, genus, genus]
    assert tri.tet_count == 8 * genus
    assert_tree_invariants(tri)
    assert_links_match_per_vertex_builder(tri)


def test_triangle_and_arc_partitions(all_fixtures):
    # every triangle disc and every arc belongs to exactly one link
    for tri in all_fixtures.values():
        tri_seen = sorted(d for link in tri.links for d in link.triangles)
        assert tri_seen == [d for d in range(tri.disc_count) if d % 7 < 4]
        arc_seen = sorted(a for link in tri.links for a in link.arcs)
        assert arc_seen == list(range(tri.arc_count))


def test_every_arc_has_two_link_triangles(all_fixtures):
    for tri in all_fixtures.values():
        for link in tri.links:
            for arc in link.arcs:
                _, tri_a, tri_b, _, _ = tri.arc_discs[arc]
                assert {tri_a, tri_b} <= set(link.triangles)


def test_fundamental_class_is_a_cycle(all_fixtures):
    for tri in all_fixtures.values():
        for link in tri.links:
            chain = fundamental_class(tri, link)
            assert sum(chain) == len(link.triangles)
            assert not any(apply_boundary(tri, chain))
            tripled = [3 * c for c in chain]
            assert not any(apply_boundary(tri, tripled))


def test_boundary_restriction(all_fixtures):
    for tri in all_fixtures.values():
        for link in tri.links:
            assert link_boundary_restriction_check(tri, link)


def test_projection_properties(acceptance_fixtures):
    rng = random.Random(2024)
    for tri in acceptance_fixtures.values():
        zero = [0] * tri.arc_count
        assert projection(tri.links[0], zero) == zero
        for _ in range(100):
            chain = [rng.randint(-5, 5) for _ in range(tri.arc_count)]
            total = [0] * tri.arc_count
            for link in tri.links:
                proj = projection(link, chain)
                assert projection(link, proj) == proj
                total = [a + b for a, b in zip(total, proj)]
            assert total == chain


def test_link_kernel_is_fundamental_class(all_fixtures):
    # H2 of every link is generated by the all-ones triangle vector
    for tri in all_fixtures.values():
        for link in tri.links:
            basis = kernel_basis(link_boundary_matrix(tri, link))
            assert len(basis) == 1
            gen = basis[0]
            assert gen == [1] * len(link.triangles) or gen == [-1] * len(link.triangles)


def test_link_chain_identity(all_fixtures):
    # the simplicial boundary of every link-triangle boundary vanishes
    for tri in all_fixtures.values():
        for link in tri.links:
            for disc in link.triangles:
                sums = {}
                for arc, coeff in disc_boundary(tri, disc):
                    tail, head = link.arc_cells[arc]
                    sums[head] = sums.get(head, 0) + coeff
                    sums[tail] = sums.get(tail, 0) - coeff
                assert not any(sums.values())


def test_link_homology_ranks(fig8, double_tet):
    # torus link: H1 rank 2; sphere link: H1 rank 0
    for tri, expected in ((fig8, 2), (double_tet, 0)):
        link = tri.links[0]
        cells = link_cells(tri, link.vertex)
        cell_pos = {c: i for i, c in enumerate(cells)}
        d1 = [[0] * len(link.arcs) for _ in cells]
        for col, arc in enumerate(link.arcs):
            tail, head = link.arc_cells[arc]
            d1[cell_pos[head]][col] += 1
            d1[cell_pos[tail]][col] -= 1
        k1 = len(kernel_basis(IntMatrix(d1)))
        rank2 = smith_normal_form(link_boundary_matrix(tri, link)).rank
        assert k1 - rank2 == expected
