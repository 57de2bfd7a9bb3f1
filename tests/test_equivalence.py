"""The three normality criteria agree on sphere-link fixtures.

For admissible non-negative quad vectors q with entries <= 2:

  lift(q) is Normal  <=>  the cycle condition holds at every vertex
                     <=>  a non-negative matching solution with quad part q
                          exists.

The last set is produced by the independent brute-force enumerator.  Its
bound is taken as the largest coordinate over all canonical lifts, which
makes the right-to-left inclusion exhaustive rather than sampled: any
normal q has its (verified) canonical lift inside the enumeration box.
"""

import itertools

from quadlift import NORMAL, lift
from quadlift.solver import quad_part
from conftest import load_doc
from oracles import (assert_canonical_lift, cycle_test,
                     enumerate_matching_solutions, triangle_part)


def admissible_vectors(tet_count, bound):
    opts = [(0, 0, 0)]
    for k in range(3):
        for val in range(1, bound + 1):
            row = [0, 0, 0]
            row[k] = val
            opts.append(tuple(row))
    for combo in itertools.product(opts, repeat=tet_count):
        yield [x for row in combo for x in row]


def test_triple_equivalence(sphere_fixtures):
    for name, tri in sphere_fixtures.items():
        normal_set = set()
        cycle_set = set()
        max_entry = 2
        for q in admissible_vectors(tri.tet_count, 2):
            key = tuple(q)
            if all(cycle_test(tri, q, v) for v in range(len(tri.links))):
                cycle_set.add(key)
            result = lift(tri, q)
            if result.classification == NORMAL:
                normal_set.add(key)
                assert_canonical_lift(tri, q, result)
                max_entry = max(max_entry, *result.canonical_lift)
        assert normal_set == cycle_set

        doc = load_doc(name + ".json")
        solutions = enumerate_matching_solutions(doc, max_entry)
        solution_quads = {
            tuple(quad_part(tri, list(s)))
            for s in solutions
            if max(quad_part(tri, list(s)), default=0) <= 2
        }
        assert solution_quads == normal_set


def test_triangle_and_quad_parts_split_losslessly(double_tet):
    chain = list(range(14))
    tris = triangle_part(double_tet, chain)
    quads = quad_part(double_tet, chain)
    assert tris == [0, 1, 2, 3, 7, 8, 9, 10]
    assert quads == [4, 5, 6, 11, 12, 13]
    rebuilt = []
    for tet in range(2):
        rebuilt.extend(tris[4 * tet:4 * tet + 4])
        rebuilt.extend(quads[3 * tet:3 * tet + 3])
    assert rebuilt == chain


def test_lift_acts_componentwise():
    # doubled tetrahedron plus a disjoint 1-tet sphere-link component
    import copy
    double = load_doc("double_tet.json")
    extra = load_doc("one_tet.json")
    merged = {"tets": 3, "gluings": copy.deepcopy(double["gluings"])}
    row = copy.deepcopy(extra["gluings"][0])
    for entry in row:
        entry["tet"] = 2
    merged["gluings"].append(row)

    from quadlift import parse_triangulation
    tri = parse_triangulation(merged)
    base = parse_triangulation(double)

    q = [1, 0, 0, 1, 0, 0, 0, 0, 0]
    result = lift(tri, q)
    assert result.classification == NORMAL
    small = lift(base, q[:6])
    assert result.canonical_lift[:14] == small.canonical_lift
    assert result.canonical_lift[14:] == [0] * 7
