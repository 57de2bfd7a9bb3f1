"""The spanning-tree lift against the Smith-form lift it replaced.

``lift`` and ``oracles.smith_lift`` must give the same LiftResult, the
per-vertex shifts included, on generated triangulations (stacked spheres and
fig8 covers from perfbench/generators.py) and on every small admissible
vector of the fixtures.
"""

import itertools
import os
import random
import sys

import pytest

from quadlift import (NORMAL, NOT_NORMAL, SPUN_NORMAL, boundary_test, lift,
                      link_quad_boundary, parse_triangulation, solve_integer)
from conftest import load_tri
from oracles import link_boundary_matrix, smith_lift

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import generators as gen  # noqa: E402


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


def test_cover_with_a_sphere_vertex():
    tri = parse_triangulation(gen.one_four_move(gen.fig8_cover(3), 1))
    assert sorted(link.genus for link in tri.links) == [0, 1]
    queries = generated_queries(tri, random.Random(2))
    queries.append(gen.fig8_spun(3) + [0] * 9)
    assert_same_as_smith(tri, queries)


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
        for v, a in enumerate(matrices):
            rhs = [-c for c in link_quad_boundary(tri, q, v)]
            ok, w, reason = boundary_test(tri, q, v)
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
            assert boundary_test(tri, gen.fig8_spun(3, m), 0, root=root) == (
                False, None, "no rational solution")
