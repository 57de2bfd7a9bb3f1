import itertools
import random

import pytest

from quadlift import NORMAL, NOT_NORMAL, SPUN_NORMAL, lift, verify_normal
from quadlift import solver
from quadlift.chains import apply_boundary
from quadlift.solver import (check_admissible, load_normal_coords, load_quads,
                             quad_chain, quad_part)
from conftest import load_doc
from oracles import (arc_of, arc_sign, check_admissible_loop,
                     check_witness_independence, cycle_test,
                     enumerate_matching_solutions, link_boundary_matrix,
                     link_potential, partial_boundary, quad_cut_corner)

SPUN_Q = [0, 0, 1, 0, 0, 2]  # frozen spun-normal fixture on fig8


# ----------------------------------------------------------------------
# admissibility

def test_zero_vector_admissible():
    assert check_admissible([0] * 6, 2).ok


def test_two_quad_types_in_one_tet_inadmissible():
    report = check_admissible([1, 1, 0, 0, 0, 0], 2)
    assert not report.ok
    assert report.conflicts == ((0, (1, 2)),)


def test_negative_entry_inadmissible():
    report = check_admissible([0, 0, 0, 0, -1, 0], 2)
    assert not report.ok
    assert report.negatives == ((1, 2, -1),)


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def test_admissibility_matches_the_per_entry_loop():
    rng = random.Random(316)
    for _ in range(400):
        tets = rng.randint(0, 6)
        q = [0] * (3 * tets)
        for tet in range(tets):   # mostly admissible, as a lift's input is
            if rng.random() < 0.7:
                q[3 * tet + rng.randrange(3)] = rng.randint(0, 2)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):   # corruptions
            kind = rng.randrange(5)
            if kind < 2 and q:
                q[rng.randrange(len(q))] = rng.randint(-2, 2)
            elif kind == 2 and q:
                q[rng.randrange(len(q))] = rng.choice((-1, 1)) * 10 ** 30
            elif kind == 3:
                q.insert(rng.randint(0, len(q)), rng.randint(-1, 1))
            elif q:
                del q[rng.randrange(len(q))]
        for tet_count in (tets, len(q) // 3):
            assert (outcome(check_admissible, q, tet_count)
                    == outcome(check_admissible_loop, q, tet_count)), q


def test_bad_length_rejected(double_tet):
    with pytest.raises(ValueError):
        check_admissible([0, 0, 0], tet_count=2)
    with pytest.raises(ValueError):
        lift(double_tet, [0, 0, 0])


# ----------------------------------------------------------------------
# per-link quad boundaries

def test_partial_boundary_zero(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        b = apply_boundary(tri, quad_chain(tri, [0] * tri.quad_count))
        for link in tri.links:
            assert [b[arc] for arc in link.arcs] == [0] * len(link.arcs)


def test_partial_boundary_direct_recomputation(acceptance_fixtures):
    rng = random.Random(314)
    for tri in acceptance_fixtures.values():
        for _ in range(30):
            q = [rng.randint(0, 3) for _ in range(tri.quad_count)]
            b = apply_boundary(tri, quad_chain(tri, q))
            for v, link in enumerate(tri.links):
                expect = [0] * tri.arc_count
                for tet in range(tri.tet_count):
                    for k in (1, 2, 3):
                        coeff = q[3 * tet + k - 1]
                        if not coeff:
                            continue
                        for f in range(4):
                            corner = quad_cut_corner(k, f)
                            if tri.vertex_class_at[4 * tet + corner] != v:
                                continue
                            arc = arc_of(tri, tet, f, corner)
                            expect[arc] += coeff * arc_sign(tri, tet, f, corner)
                arcs = set(link.arcs)
                assert not any(expect[arc] for arc in range(tri.arc_count)
                               if arc not in arcs)
                assert [b[arc] for arc in link.arcs] == [expect[arc]
                                                         for arc in link.arcs]
                assert partial_boundary(tri, q, v) == expect


def test_partial_boundaries_sum_to_boundary(acceptance_fixtures):
    rng = random.Random(315)
    for tri in acceptance_fixtures.values():
        for _ in range(100):
            q = [rng.randint(0, 3) for _ in range(tri.quad_count)]
            b = apply_boundary(tri, quad_chain(tri, q))
            total = [0] * tri.arc_count
            for link in tri.links:
                for arc in link.arcs:
                    total[arc] += b[arc]
            assert total == apply_boundary(tri, quad_chain(tri, q))


def test_quad_chain_rejects_bad_length(double_tet):
    with pytest.raises(ValueError):
        quad_chain(double_tet, [0, 0, 0])


# ----------------------------------------------------------------------
# cycle and boundary tests

def test_cycle_test_zero(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        assert all(cycle_test(tri, [0] * tri.quad_count, v)
                   for v in range(len(tri.links)))


def test_quad_parts_of_solutions_pass_cycle_test(sphere_fixtures):
    for name, tri in sphere_fixtures.items():
        doc = load_doc(name + ".json")
        for sol in enumerate_matching_solutions(doc, 2):
            q = quad_part(tri, list(sol))
            assert all(cycle_test(tri, q, v) for v in range(len(tri.links)))


def test_fig8_single_quads_fail_cycle_test(fig8):
    # a lone quadrilateral never satisfies the cycle condition here
    for k in range(6):
        q = [0] * 6
        q[k] = 1
        assert not cycle_test(fig8, q, 0)
        assert lift(fig8, q).classification == NOT_NORMAL


def test_sphere_links_cycle_implies_boundary(sphere_fixtures):
    for tri in sphere_fixtures.values():
        quad_opts = [(0, 0, 0)]
        for k in range(3):
            for val in (1, 2):
                row = [0, 0, 0]
                row[k] = val
                quad_opts.append(tuple(row))
        for combo in itertools.product(quad_opts, repeat=tri.tet_count):
            q = [x for row in combo for x in row]
            passes = all(cycle_test(tri, q, v) for v in range(len(tri.links)))
            if passes:
                b = apply_boundary(tri, quad_chain(tri, q))
                for v in range(len(tri.links)):
                    ok, witness, _ = link_potential(tri, b, v)
                    assert ok
                    link = tri.links[v]
                    rhs = [-c for c in partial_boundary(tri, q, v)]
                    a = link_boundary_matrix(tri, link)
                    assert a.mul_vec(witness) == [rhs[arc] for arc in link.arcs]
                    assert [rhs[arc] for arc in link.arcs] == [
                        -b[arc] for arc in link.arcs]


def test_boundary_test_zero_witness(double_tet):
    b = apply_boundary(double_tet, quad_chain(double_tet, [0] * 6))
    for v in range(4):
        ok, witness, reason = link_potential(double_tet, b, v)
        assert ok and reason is None
        assert witness == [0] * len(double_tet.links[v].triangles)


def test_fig8_spun_fixture(fig8):
    assert all(cycle_test(fig8, SPUN_Q, v) for v in range(1))
    ok, witness, reason = link_potential(
        fig8, apply_boundary(fig8, quad_chain(fig8, SPUN_Q)), 0)
    assert not ok and witness is None
    assert reason == "no rational solution"
    result = lift(fig8, SPUN_Q)
    assert result.classification == SPUN_NORMAL
    assert result.canonical_lift is None
    assert result.boundary_failures == ((0, "no rational solution"),)


# ----------------------------------------------------------------------
# lift

def test_lift_zero_is_empty_surface(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        result = lift(tri, [0] * tri.quad_count)
        assert result.classification == NORMAL
        assert result.canonical_lift == [0] * tri.disc_count
        assert all(m == 0 for m in result.per_vertex_shift.values())


def test_lift_rejects_inadmissible(double_tet):
    with pytest.raises(ValueError, match="inadmissible"):
        lift(double_tet, [1, 1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="inadmissible"):
        lift(double_tet, [-1, 0, 0, 0, 0, 0])


def test_double_tet_single_quad_is_not_normal(double_tet):
    # frozen by the completion oracle: no triangle completion exists
    result = lift(double_tet, [1, 0, 0, 0, 0, 0])
    assert result.classification == NOT_NORMAL
    assert len(result.cycle_failures) == 4
    doc = load_doc("double_tet.json")
    sols = enumerate_matching_solutions(doc, 6, quad_part=[1, 0, 0, 0, 0, 0],
                                        triangle_bound=6)
    assert sols == []


def test_double_tet_q1_both_tets_canonical_lift(double_tet):
    # frozen by the completion oracle: the minimal completion is the quad
    # vector itself
    result = lift(double_tet, [1, 0, 0, 1, 0, 0])
    assert result.classification == NORMAL
    assert result.canonical_lift == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    doc = load_doc("double_tet.json")
    sols = enumerate_matching_solutions(doc, 6, quad_part=[1, 0, 0, 1, 0, 0],
                                        triangle_bound=6)
    minimal = [list(s) for s in sols
               if all(min(s[d] for d in link.triangles) == 0
                      for link in double_tet.links)]
    assert minimal == [result.canonical_lift]


def test_three_tet_canonical_lift_frozen(three_tet):
    # frozen by the completion oracle (triangle entries <= 8): this quad
    # vector has 8 bounded completions and a unique minimal one
    q = [0, 0, 0, 0, 0, 1, 0, 1, 0]
    result = lift(three_tet, q)
    assert result.classification == NORMAL
    assert result.canonical_lift == [1, 1, 1, 1, 0, 0, 0,
                                     0, 1, 1, 0, 0, 0, 1,
                                     1, 0, 1, 0, 0, 1, 0]
    doc = load_doc("three_tet.json")
    completions = enumerate_matching_solutions(doc, 8, quad_part=q,
                                               triangle_bound=8)
    assert len(completions) == 8
    minimal = [list(s) for s in completions
               if all(min(s[d] for d in link.triangles) == 0
                      for link in three_tet.links)]
    assert minimal == [result.canonical_lift]


def test_lift_postconditions(sphere_fixtures):
    for name, tri in sphere_fixtures.items():
        doc = load_doc(name + ".json")
        for sol in enumerate_matching_solutions(doc, 2):
            q = quad_part(tri, list(sol))
            result = lift(tri, q)
            assert result.classification == NORMAL
            x = result.canonical_lift
            assert quad_part(tri, x) == q
            assert all(c >= 0 for c in x)
            assert not any(apply_boundary(tri, x))
            for link in tri.links:
                assert min(x[d] for d in link.triangles) == 0


def test_lift_refuses_a_potential_that_fails_its_check(three_tet,
                                                      monkeypatch):
    # the check at the end of lift is live: one tree step's potential off
    # by one leaves dcoords != 0 on its arc, and lift raises
    walk = solver.boundary_test

    def corrupted(tri, b, w):
        residual = walk(tri, b, w)
        steps, _ = tri.forest
        w[steps[0][2]] += 1
        return residual

    q = [0, 0, 0, 0, 0, 1, 0, 1, 0]
    assert lift(three_tet, q).classification == NORMAL
    monkeypatch.setattr(solver, "boundary_test", corrupted)
    with pytest.raises(AssertionError):
        lift(three_tet, q)


def test_uniqueness_structure(sphere_fixtures):
    # every bounded solution is the canonical lift plus non-negative
    # multiples of vertex links
    for name, tri in sphere_fixtures.items():
        doc = load_doc(name + ".json")
        for sol in enumerate_matching_solutions(doc, 3):
            q = quad_part(tri, list(sol))
            x = lift(tri, q).canonical_lift
            diff = [a - b for a, b in zip(sol, x)]
            assert all(d >= 0 for d in diff)
            for link in tri.links:
                values = {diff[d] for d in link.triangles}
                assert len(values) == 1
            assert all(diff[d] == 0 for d in range(tri.disc_count) if d % 7 >= 4)


def test_witness_independence(sphere_fixtures):
    rng = random.Random(606)
    for name, tri in sphere_fixtures.items():
        doc = load_doc(name + ".json")
        seen = set()
        for sol in enumerate_matching_solutions(doc, 2):
            q = tuple(quad_part(tri, list(sol)))
            if q in seen:
                continue
            seen.add(q)
            base = lift(tri, list(q))
            check_witness_independence(tri, list(q), base, rng, 3)


# ----------------------------------------------------------------------
# verify_normal

def test_verify_all_triangles(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        total = [0] * tri.disc_count
        for link in tri.links:
            for d in link.triangles:
                total[d] = 1
        assert verify_normal(tri, total).ok


def test_verify_canonical_lift(double_tet):
    result = lift(double_tet, [1, 0, 0, 1, 0, 0])
    assert verify_normal(double_tet, result.canonical_lift).ok


def test_verify_reports_three_broken_arcs(double_tet):
    total = [0] * 14
    for link in double_tet.links:
        for d in link.triangles:
            total[d] = 1
    total[0] += 1  # one extra triangle breaks exactly its three arc equations
    report = verify_normal(double_tet, total)
    assert not report.ok
    assert len(report.violated_arcs) == 3


def test_verify_flags_negative_and_inadmissible(double_tet):
    coords = [0] * 14
    coords[4] = -1
    report = verify_normal(double_tet, coords)
    assert not report.ok and report.negatives == ((4, -1),)
    coords = [0] * 14
    coords[4] = coords[5] = 1
    report = verify_normal(double_tet, coords)
    assert not report.admissibility.ok


def test_boolean_coordinates_rejected():
    with pytest.raises(ValueError, match="malformed quad row"):
        load_quads({"quads": [[True, 0, 0]]}, 1)
    with pytest.raises(ValueError, match="malformed coordinate row"):
        load_normal_coords({"coords": [[0, 0, 0, 0, False, 0, 0]]}, 1)
    assert load_quads({"quads": [[1, 0, 0]]}, 1) == [1, 0, 0]
    assert (load_normal_coords({"coords": [[1, 0, 0, 0, 0, 2, 0]]}, 1)
            == [1, 0, 0, 0, 0, 2, 0])
    # every message of both loaders, byte for byte
    for load, key, width, messages in (
            (load_quads, "quads", 3,
             ("malformed quads document: missing 'quads'",
              "quads document must list 2 tetrahedra",
              "malformed quad row for tetrahedron 1")),
            (load_normal_coords, "coords", 7,
             ("malformed coordinates document: missing 'coords'",
              "coordinates document must list 2 tetrahedra",
              "malformed coordinate row for tetrahedron 1"))):
        row = [0] * width
        bad_docs = ((None, {}, {"quad": []}),
                    ({key: None}, {key: [row]}, {key: [row] * 3}),
                    ({key: [row, None]}, {key: [row, row[1:]]},
                     {key: [row, row + [0]]}, {key: [row, row[:-1] + [1.0]]}))
        for docs, message in zip(bad_docs, messages):
            for doc in docs:
                with pytest.raises(ValueError) as info:
                    load(doc, 2)
                assert str(info.value) == message, doc
