"""Acceptance suite: one test per criterion, printed as a pass line.

Fixture set: the doubled tetrahedron (all sphere links), a 3-tetrahedron
closed orientable triangulation with a sphere link, and the 2-tetrahedron
figure-eight complement triangulation (torus link).  All checks are exact
integer comparisons; there are no tolerances anywhere.
"""

import itertools
import random

from quadlift import (NORMAL, SPUN_NORMAL, lift, parse_triangulation,
                      verify_normal)
from quadlift.chains import apply_boundary
from quadlift.cli import run as cli_run
from quadlift.intlinalg import IntMatrix, smith_normal_form
from quadlift.solver import quad_boundary, quad_part
from quadlift.triangulation import FACE_CORNERS, perm_sign

from conftest import DATA, load_doc
from oracles import (apply_matching, arc_sign, box_solve,
                     check_witness_independence, cycle_test,
                     enumerate_matching_solutions, face_pairs, flip_edge,
                     fundamental_class, gluing,
                     link_boundary_restriction_check,
                     link_potential, matmul, minors_gcd, random_isomorphism,
                     random_matrix, relabel_doc, simplex_arc_sign, solve_integer,
                     translate_disc_vector, translate_quad_vector)

SPUN_Q = [0, 0, 1, 0, 0, 2]


def passed(n, text):
    print("acceptance criterion %d: PASS (%s)" % (n, text))


def test_criterion_01_matching_equivalence(acceptance_fixtures):
    rng = random.Random(101)
    for tri in acceptance_fixtures.values():
        for _ in range(1000):
            chain = [rng.randint(-3, 3) for _ in range(tri.disc_count)]
            assert (not any(apply_boundary(tri, chain))) == \
                   (not any(apply_matching(tri, chain)))
    passed(1, "boundary kernel = matching equations on 1000 random chains "
              "per fixture")


def test_criterion_02_sign_antisymmetry(acceptance_fixtures):
    checks = 0
    for tri in acceptance_fixtures.values():
        for (i, f), (j, g) in face_pairs(tri):
            _, sigma = gluing(tri, i, f)
            for v in FACE_CORNERS[f]:
                assert arc_sign(tri, i, f, v) == -arc_sign(tri, j, g, sigma[v])
                checks += 1
    passed(2, "per-corner antisymmetry, %d exhaustive checks" % checks)


def test_criterion_03_sign_rule_oracle():
    checks = 0
    for f in range(4):
        for v in FACE_CORNERS[f]:
            x, y = (c for c in FACE_CORNERS[f] if c != v)
            for p, q in ((x, y), (y, x)):
                assert perm_sign((v, p, q, f)) == simplex_arc_sign(v, p, q, f)
                checks += 1
    assert checks == 24
    passed(3, "combinatorial rule = simplex determinant on all 24 checks")


def test_criterion_04_restriction_and_fundamental_cycles(acceptance_fixtures):
    for tri in acceptance_fixtures.values():
        for link in tri.links:
            assert link_boundary_restriction_check(tri, link)
            assert not any(apply_boundary(tri, fundamental_class(tri, link)))
    passed(4, "link restriction with intrinsic signs and all fundamental "
              "classes are cycles")


def test_criterion_05_link_classification(double_tet, fig8):
    assert len(double_tet.links) == 4
    for link in double_tet.links:
        assert (len(link.triangles), link.euler_characteristic,
                link.is_sphere) == (2, 2, True)
    (link,) = fig8.links
    assert (len(link.triangles), link.euler_characteristic, link.genus) == \
        (8, 0, 1)
    passed(5, "doubled-tet links are 2-triangle spheres; figure-eight link "
              "is an 8-triangle torus")


def _enumerated(name):
    return enumerate_matching_solutions(load_doc(name + ".json"), 4)


def test_criterion_06_round_trip(sphere_fixtures):
    total = 0
    for name, tri in sphere_fixtures.items():
        solutions = _enumerated(name)
        assert solutions
        lifted = {}
        for sol in solutions:
            q = tuple(quad_part(tri, list(sol)))
            # (a) the quad part satisfies the cycle condition everywhere
            if q not in lifted:
                assert all(cycle_test(tri, list(q), v)
                           for v in range(len(tri.links)))
                # (b) and lifts to a Normal classification
                result = lift(tri, list(q))
                assert result.classification == NORMAL
                lifted[q] = result.canonical_lift
            # (c) the solution decomposes over the canonical lift
            canonical = lifted[q]
            diff = [a - b for a, b in zip(sol, canonical)]
            for link in tri.links:
                shifts = {diff[d] for d in link.triangles}
                assert len(shifts) == 1
                m_v = shifts.pop()
                assert m_v >= 0
            assert all(diff[d] == 0 for d in range(tri.disc_count)
                       if d % 7 >= 4)
        total += len(solutions)

        # converse: every admissible vector <= 3 passing all cycle tests
        # lifts to a verified normal solution
        quad_opts = [(0, 0, 0)]
        for k in range(3):
            for val in (1, 2, 3):
                row = [0, 0, 0]
                row[k] = val
                quad_opts.append(tuple(row))
        for combo in itertools.product(quad_opts, repeat=tri.tet_count):
            q = [x for row in combo for x in row]
            if all(cycle_test(tri, q, v) for v in range(len(tri.links))):
                result = lift(tri, q)
                assert result.classification == NORMAL
                assert verify_normal(tri, result.canonical_lift).ok
    passed(6, "round trip over %d enumerated solutions plus the bounded "
              "converse" % total)


def test_criterion_07_canonicality(sphere_fixtures):
    rng = random.Random(707)
    checked = 0
    for name, tri in sphere_fixtures.items():
        quads = {tuple(quad_part(tri, list(s))) for s in _enumerated(name)}
        for q in sorted(quads):
            base = lift(tri, list(q))
            assert base.classification == NORMAL
            for link in tri.links:
                assert min(base.canonical_lift[d] for d in link.triangles) == 0
            check_witness_independence(tri, list(q), base, rng, 2)
            checked += 1
    passed(7, "canonical lift witness-independent for %d quad vectors"
              % checked)


def test_criterion_08_spun_detection(fig8):
    quad_opts = [(0, 0, 0)]
    for k in range(3):
        for val in (1, 2):
            row = [0, 0, 0]
            row[k] = val
            quad_opts.append(tuple(row))
    spun = []
    for combo in itertools.product(quad_opts, repeat=2):
        q = [x for row in combo for x in row]
        if not all(cycle_test(fig8, q, v) for v in range(len(fig8.links))):
            continue
        if not all(link_potential(fig8, quad_boundary(fig8, q), v)[0]
                   for v in range(len(fig8.links))):
            spun.append(q)
    assert spun, "no spun-normal vector with entries <= 2 found"
    assert SPUN_Q in spun
    assert lift(fig8, SPUN_Q).classification == SPUN_NORMAL
    import io
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(["classify", "--tri", str(DATA / "fig8.json"),
                    "--quads", str(DATA / "fig8_spun_quads.json")],
                   out=out, err=err)
    assert code == 2
    assert out.getvalue().splitlines()[0] == "classification SpunNormal"
    passed(8, "%d spun vectors found by search; frozen fixture exits 2"
              % len(spun))


def _representative_quads(name, tri):
    if name == "fig8":
        return [[0] * 6, SPUN_Q, [1, 0, 0, 0, 0, 0]]
    quads = sorted({tuple(quad_part(tri, list(s)))
                    for s in enumerate_matching_solutions(
                        load_doc(name + ".json"), 2)})
    picked = [list(q) for q in quads[:4] + quads[-2:]]
    picked.append([1, 0, 0] + [0] * (tri.quad_count - 3))  # a NotNormal probe
    return picked


def _result_signature(tri, q):
    try:
        result = lift(tri, q)
    except ValueError:
        return ("inadmissible", None)
    return (result.classification, result.canonical_lift)


def test_criterion_09_invariance(acceptance_fixtures):
    rng = random.Random(909)
    for name, tri in acceptance_fixtures.items():
        doc = load_doc(name + ".json")
        quads = _representative_quads(name, tri)
        base = [_result_signature(tri, list(q)) for q in quads]

        # (a) flipping any single edge orientation
        for e in range(len(tri.edge_classes)):
            flipped = flip_edge(tri, e)
            for q, expect in zip(quads, base):
                assert _result_signature(flipped, list(q)) == expect

        # (b) relabeling by 20 random isomorphisms of the gluing data
        for _ in range(20):
            tet_perm, vertex_perms = random_isomorphism(tri.tet_count, rng)
            relabeled = parse_triangulation(
                relabel_doc(doc, tet_perm, vertex_perms))
            for q, expect in zip(quads, base):
                tq = translate_quad_vector(list(q), tet_perm, vertex_perms)
                got = _result_signature(relabeled, tq)
                assert got[0] == expect[0]
                if expect[0] == NORMAL:
                    assert got[1] == translate_disc_vector(
                        expect[1], tet_perm, vertex_perms)
    passed(9, "classification and canonical lifts invariant under edge flips "
              "and 20 random relabelings per fixture")


def test_criterion_10_exact_linalg_oracles():
    rng = random.Random(1010)
    for _ in range(100):
        rows = random_matrix(rng, 5, 5)
        dec = smith_normal_form(IntMatrix(rows))
        assert matmul(matmul(dec.U, IntMatrix(rows)), dec.V).rows == dec.D.rows
        product = 1
        for k in range(1, min(len(rows), len(rows[0])) + 1):
            product *= (dec.invariant_factors[k - 1]
                        if k <= len(dec.invariant_factors) else 0)
            assert minors_gcd(rows, k) == product

    rng = random.Random(2020)
    for trial in range(100):
        rows = random_matrix(rng, 4, 6, lo=-3, hi=3)
        a = IntMatrix(rows)
        constructed = trial % 2 == 0
        if constructed:
            x0 = [rng.randint(-2, 2) for _ in range(a.ncols)]
            b = a.mul_vec(x0)
        else:
            b = [rng.randint(-4, 4) for _ in range(a.nrows)]
        res = solve_integer(a, b)
        found = box_solve(rows, b)
        # the solver finds a solution whenever the box search does; a solver
        # failure means the box is empty; every solution re-multiplies
        # exactly.  (A solvable system can have all solutions outside the
        # box, so the reverse direction is asserted only on instances
        # constructed with an in-box solution.)
        if found is not None:
            assert res.ok
        if constructed:
            assert res.ok and found is not None
        if res.ok:
            assert a.mul_vec(res.solution) == b
    passed(10, "Smith gcd-of-minors and box-search agreement, 100 random "
               "instances each")
