import random

import pytest

from quadlift.chains import apply_boundary, boundary_matrix
from quadlift.intlinalg import IntMatrix
from quadlift.triangulation import FACE_CORNERS, perm_sign, quad_type_through
from oracles import (apply_matching, arc_info, arc_of, arc_sign,
                     directed_face_edge, disc_boundary, edge_class,
                     face_sides, flip_edge, fundamental_class, kernel_basis,
                     matching_equations, quad_cut_corner, quad_type_cutting,
                     simplex_arc_sign, to_dense, triangle_disc)


# ----------------------------------------------------------------------
# the sign rule against the standard-simplex frame determinant

def test_sign_rule_matches_simplex_geometry():
    checks = 0
    for f in range(4):
        for v in FACE_CORNERS[f]:
            x, y = (c for c in FACE_CORNERS[f] if c != v)
            for p, q in ((x, y), (y, x)):
                assert perm_sign((v, p, q, f)) == simplex_arc_sign(v, p, q, f)
                checks += 1
    assert checks == 24


def test_reversing_edge_flips_sign():
    for f in range(4):
        for v in FACE_CORNERS[f]:
            x, y = (c for c in FACE_CORNERS[f] if c != v)
            assert perm_sign((v, x, y, f)) == -perm_sign((v, y, x, f))


def test_arc_sign_pinned_case(double_tet):
    # positively oriented tetrahedron, face 012, corner 0, edge directed
    # 1->2: the identity frame, sign +1; reversing the edge flips it
    assert double_tet.tet_orientation[0] == 1
    assert directed_face_edge(double_tet, 0, 3, 0) == (1, 2)
    assert arc_sign(double_tet, 0, 3, 0) == 1
    flipped = flip_edge(double_tet, edge_class(double_tet, 0, 1, 2))
    assert arc_sign(flipped, 0, 3, 0) == -1


def test_arc_sign_antisymmetry(all_fixtures):
    for tri in all_fixtures.values():
        for fc in tri.face_classes:
            (i, f), (j, g) = fc.rep, fc.other
            sigma = tri.corner_map(i, f)
            for v in FACE_CORNERS[f]:
                assert arc_sign(tri, i, f, v) == -arc_sign(tri, j, g, sigma[v])


def test_arc_sign_rejects_corner_outside_face(double_tet):
    with pytest.raises(ValueError):
        arc_sign(double_tet, 0, 2, 2)


# ----------------------------------------------------------------------
# face sides

def test_face_sides_opposite_per_corner(all_fixtures):
    for tri in all_fixtures.values():
        for fc in tri.face_classes:
            for slot in range(3):
                plus, minus = face_sides(tri, fc.index, slot)
                assert {plus, minus} == {fc.rep, fc.other}
                i, f = plus
                corner = (FACE_CORNERS[fc.rep[1]][slot] if plus == fc.rep
                          else tri.corner_map(*fc.rep)[FACE_CORNERS[fc.rep[1]][slot]])
                assert arc_sign(tri, i, f, corner) == 1


def test_face_sides_on_double_tet_split_tetrahedra(double_tet):
    for fc in double_tet.face_classes:
        plus, minus = face_sides(double_tet, fc.index)
        assert plus[0] != minus[0]


def test_face_sides_self_glued_face(one_tet):
    # both incidences on the same tetrahedron still get opposite labels
    for fc in one_tet.face_classes:
        assert fc.rep[0] == fc.other[0] == 0
        for slot in range(3):
            plus, minus = face_sides(one_tet, fc.index, slot)
            assert {plus, minus} == {fc.rep, fc.other}


# ----------------------------------------------------------------------
# disc boundaries

def test_triangle_boundary_support(double_tet):
    for corner in range(4):
        arcs = disc_boundary(double_tet, triangle_disc(0, corner))
        assert len(arcs) == 3
        assert all(coeff in (-1, 1) for _, coeff in arcs)


def test_quad_arc_linking_rule_against_cut_oracle():
    for k in (1, 2, 3):
        for f in range(4):
            assert quad_type_through(f, quad_cut_corner(k, f)) == k
    for f in range(4):
        for v in FACE_CORNERS[f]:
            assert quad_type_through(f, v) == quad_type_cutting(f, v)


def test_quad1_arc_links(double_tet):
    assert quad_type_through(3, 2) == 1
    assert quad_type_through(2, 3) == 1
    assert quad_type_through(1, 0) == 1
    assert quad_type_through(0, 1) == 1
    arcs = disc_boundary(double_tet, 7 * 0 + 4)
    assert len(arcs) == 4


def test_glued_pair_triangle_contributions(double_tet):
    # for every arc, the triangle on the positive side contributes +1 and
    # the triangle on the negative side -1
    tri = double_tet
    for fc in tri.face_classes:
        (i, f), (j, g) = fc.rep, fc.other
        sigma = tri.corner_map(i, f)
        for slot, v in enumerate(FACE_CORNERS[f]):
            arc = arc_of(tri, i, f, v)
            plus, _ = face_sides(tri, fc.index, slot)
            c_rep = dict(disc_boundary(tri, triangle_disc(i, v)))[arc]
            c_other = dict(disc_boundary(tri, triangle_disc(j, sigma[v])))[arc]
            assert sorted((c_rep, c_other)) == [-1, 1]
            assert (c_rep if plus == (i, f) else c_other) == 1


# ----------------------------------------------------------------------
# matrices

def test_boundary_matrix_shapes(double_tet, fig8, pentachoron):
    for tri in (double_tet, fig8):
        b = boundary_matrix(tri)
        assert (b.nrows, b.ncols) == (12, 14)
    b = boundary_matrix(pentachoron)
    assert (b.nrows, b.ncols) == (30, 35)


def test_column_support_sizes(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        b = boundary_matrix(tri)
        for disc, col in enumerate(b.columns):
            expected = 3 if disc % 7 < 4 else 4
            assert len(col) == expected
            assert all(v in (-1, 1) for _, v in col)


def test_row_structure(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        dense = to_dense(boundary_matrix(tri))
        for row in dense:
            triangle_cols = [row[c] for c in range(len(row)) if c % 7 < 4 and row[c]]
            quad_cols = [row[c] for c in range(len(row)) if c % 7 >= 4 and row[c]]
            assert sorted(triangle_cols) == [-1, 1]
            assert len(quad_cols) <= 2


def test_matching_zero_vector(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        assert not any(apply_matching(tri, [0] * tri.disc_count))


def test_all_triangles_vector_matches(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        total = [0] * tri.disc_count
        for link in tri.links:
            for disc, value in enumerate(fundamental_class(tri, link)):
                total[disc] += value
        assert not any(apply_matching(tri, total))
        assert not any(apply_boundary(tri, total))


def test_matching_kernel_equivalence_random_chains(acceptance_fixtures):
    rng = random.Random(1001)
    for tri in acceptance_fixtures.values():
        for _ in range(300):
            chain = [rng.randint(-3, 3) for _ in range(tri.disc_count)]
            b_zero = not any(apply_boundary(tri, chain))
            m_zero = not any(apply_matching(tri, chain))
            assert b_zero == m_zero


def test_kernel_double_inclusion(all_fixtures):
    for tri in all_fixtures.values():
        b = IntMatrix(to_dense(boundary_matrix(tri)))
        m = IntMatrix(to_dense(matching_equations(tri)))
        kb = kernel_basis(b)
        km = kernel_basis(m)
        assert len(kb) == len(km)
        assert all(not any(m.mul_vec(v)) for v in kb)
        assert all(not any(b.mul_vec(v)) for v in km)


def test_edge_flip_negates_rows_and_preserves_kernel(fig8):
    tri = fig8
    base = to_dense(boundary_matrix(tri))
    for e in range(len(tri.edge_classes)):
        flipped = flip_edge(tri, e)
        flipped_dense = to_dense(boundary_matrix(flipped))
        for arc in range(tri.arc_count):
            fc, _, corner = arc_info(tri, arc)
            i, f = fc.rep
            x, y = (c for c in FACE_CORNERS[f] if c != corner)
            on_e = edge_class(tri, i, x, y) == e
            expect = [-v for v in base[arc]] if on_e else base[arc]
            assert flipped_dense[arc] == expect
        for v in kernel_basis(IntMatrix(base)):
            assert not any(x for x in IntMatrix(flipped_dense).mul_vec(v))


def test_triplet_dump_is_row_major_and_stable(double_tet):
    b = boundary_matrix(double_tet)
    trips = b.triplets()
    assert trips == sorted(trips)
    assert len(trips) == b.nnz
    assert b.triplets() == trips
