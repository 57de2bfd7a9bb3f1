"""Seeded generators of valid triangulations and quad queries.

Triangulations are produced as gluing documents (the JSON format that
``quadlift.parse_triangulation`` reads), so the parser under test is the only
code that ever interprets them.  The seeds of the constructions, the
pentachoron and the figure-eight knot complement, are the documents in
``tests/data``.  Every function takes its randomness from an explicit
``random.Random`` so that one seed gives one input set.
"""

import copy
import json
import os

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tests", "data")

# Faces are named by the local vertex they omit; a face's corners are the
# other three local vertices in increasing order.
FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# Cocycle of the cyclic cover of fig8: copy k of face (tet, face) is glued to
# copy k + shift of its partner.  +1 on tet 0 faces 1 and 2, -1 on their
# partners.
_FIG8_SHIFT = {(0, 1): 1, (0, 2): 1, (1, 2): -1, (1, 0): -1}


def _load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return json.load(handle)


_PENTACHORON = _load("pentachoron.json")
# The figure-eight knot complement: two tetrahedra, one vertex with a torus
# link; and its spun-normal quad vector, (0,0,1) on tet 0 and (0,0,2) on tet 1.
_FIG8 = _load("fig8.json")
_FIG8_SPUN = _load("fig8_spun_quads.json")["quads"]


def _entry(tet, face, corners):
    return {"tet": tet, "face": face, "corners": list(corners)}


def pentachoron():
    """The boundary of the 4-simplex: five tetrahedra, five vertices, every
    link a 4-triangle sphere.  A fresh copy, since 1-4 moves edit it."""
    return copy.deepcopy(_PENTACHORON)


def one_four_move(doc, tet):
    """Subdivide tetrahedron ``tet`` by a 1-4 move, in place.

    Child k keeps the local labels of ``tet`` with vertex k replaced by the
    new interior vertex.  Child 0 reuses the index ``tet`` and children 1..3
    are appended.  Children k and f share the face omitting the other two
    old vertices; it is glued face k to face f by the transposition (k f).
    Gluings that pointed at face k of ``tet`` are re-pointed at child k.
    """
    gluings = doc["gluings"]
    t = doc["tets"]
    child = (tet, t, t + 1, t + 2)
    old = gluings[tet]
    gluings.extend([None] * 3)
    for k in range(4):
        row = []
        for f in range(4):
            if f == k:
                e = old[k]
                partner = child[e["face"]] if e["tet"] == tet else e["tet"]
                row.append(_entry(partner, e["face"], e["corners"]))
            else:
                swap = {k: f, f: k}
                row.append(_entry(child[f], k,
                                  [swap.get(v, v) for v in FACE_CORNERS[f]]))
        gluings[child[k]] = row
    for j, row in enumerate(gluings):
        if j in child:
            continue
        for e in row:
            if e["tet"] == tet:
                e["tet"] = child[e["face"]]
    doc["tets"] = t + 3
    return doc


def stacked(rng, moves):
    """The pentachoron grown by ``moves`` 1-4 moves on random tetrahedra:
    5 + 3*moves tets and 5 + moves vertices, every link a small sphere."""
    doc = pentachoron()
    for _ in range(moves):
        one_four_move(doc, rng.randrange(doc["tets"]))
    return doc


def fig8_cover(n):
    """The n-fold cyclic cover of the figure-eight knot complement.

    Copy k of tet i is tet 2k + i.  The result has one vertex, whose torus
    link has 8n triangles.
    """
    gluings = []
    for k in range(n):
        for i in range(2):
            row = []
            for f, e in enumerate(_FIG8["gluings"][i]):
                kk = (k + _FIG8_SHIFT.get((i, f), 0)) % n
                row.append(_entry(2 * kk + e["tet"], e["face"], e["corners"]))
            gluings.append(row)
    return {"tets": 2 * n, "gluings": gluings}


def fig8_spun(n, multiple=1):
    """The fig8 spun-normal quad vector pulled back to the n-fold cover."""
    return [multiple * x for _ in range(n) for row in _FIG8_SPUN for x in row]


def _separating_quad(a, b):
    """Quad type 1..3 separating local edge {a, b} from its opposite edge."""
    if a == 0 or b == 0:
        return a + b
    return 6 - a - b


def edge_link_vectors(tri):
    """Quad vectors of the edge-linking surfaces, one per edge class whose
    vector is admissible (at most one quad type per tet)."""
    out = []
    for edge in tri.edge_classes:
        q = [0] * (3 * tri.tet_count)
        for tet, a, b in edge.members:
            q[3 * tet + _separating_quad(a, b) - 1] += 1
        if admissible(q):
            out.append(q)
    return out


def admissible(q):
    return all(sum(1 for x in q[i:i + 3] if x) <= 1
               for i in range(0, len(q), 3))


def disjoint_sum(rng, vectors):
    """The sum of two random vectors with disjoint tet supports, or None when
    20 random pairs all overlap."""
    for _ in range(20):
        p, q = rng.sample(vectors, 2)
        if all(not (any(p[i:i + 3]) and any(q[i:i + 3]))
               for i in range(0, len(p), 3)):
            return [x + y for x, y in zip(p, q)]
    return None


def perturbed(rng, q):
    """``q`` plus one quad of random type in a random tet that ``q`` leaves
    empty, or None if every tet carries a quad."""
    empty = [i for i in range(0, len(q), 3) if not any(q[i:i + 3])]
    if not empty:
        return None
    out = list(q)
    out[rng.choice(empty) + rng.randrange(3)] += 1
    return out
