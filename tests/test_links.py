import os
import random
import sys

import pytest

from quadlift import (IntMatrix, apply_boundary, build_all_links,
                      fundamental_class, kernel_basis,
                      link_boundary_restriction_check, parse_triangulation)
from oracles import build_link, link_boundary_matrix, projection

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import generators as gen  # noqa: E402

LINK_FIELDS = ("vertex", "triangles", "arcs", "arc_set", "cells", "arc_cells",
               "arc_triangles", "euler_characteristic", "genus", "is_sphere")


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
        assert link.cells == stored.cells


def assert_links_match_per_vertex_builder(tri):
    links = build_all_links(tri)
    assert len(links) == len(tri.vertex_classes)
    for v, link in enumerate(links):
        old = build_link(tri, v)
        for name in LINK_FIELDS:
            assert getattr(link, name) == getattr(old, name), name
        # the dicts also keep the old insertion order
        assert list(link.arc_cells) == list(old.arc_cells)
        assert list(link.arc_triangles) == list(old.arc_triangles)


def test_one_pass_links_match_per_vertex_builder_on_fixtures(all_fixtures):
    for tri in all_fixtures.values():
        assert_links_match_per_vertex_builder(tri)


@pytest.mark.parametrize("moves", [0, 1, 4, 13, 40])
def test_one_pass_links_match_per_vertex_builder_on_stacked(moves):
    tri = parse_triangulation(gen.stacked(random.Random(moves), moves))
    assert_links_match_per_vertex_builder(tri)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_one_pass_links_match_per_vertex_builder_on_covers(n):
    assert_links_match_per_vertex_builder(parse_triangulation(gen.fig8_cover(n)))
    doc = gen.one_four_move(gen.fig8_cover(n), 0)
    assert_links_match_per_vertex_builder(parse_triangulation(doc))


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
                assert len(link.arc_triangles[arc]) == 2


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
    from quadlift import disc_boundary
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
    from quadlift import smith_normal_form
    for tri, expected in ((fig8, 2), (double_tet, 0)):
        link = tri.links[0]
        cell_pos = {c: i for i, c in enumerate(link.cells)}
        d1 = [[0] * len(link.arcs) for _ in link.cells]
        for col, arc in enumerate(link.arcs):
            tail, head = link.arc_cells[arc]
            d1[cell_pos[head]][col] += 1
            d1[cell_pos[tail]][col] -= 1
        k1 = len(kernel_basis(IntMatrix(d1)))
        rank2 = smith_normal_form(link_boundary_matrix(tri, link)).rank
        assert k1 - rank2 == expected
