"""Independent brute-force oracles used by the tests.

The first sections are written against the raw gluing documents (or against
first principles) rather than against the library's internals, so a bug in
the package cannot hide in its own oracle.  The later ones are reference
implementations the package no longer needs: integer solving and kernels,
the per-disc boundary and the matching equations, and the per-entry
admissibility loop, per-vertex link builder, per-link dual tree at any root,
arc-by-arc cycle test and Smith-form lift that the package replaced.  The
last section holds small helpers that only the tests use.
"""

import copy
import itertools
import json
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from quadlift.intlinalg import (IntMatrix, SolveResult, smith_normal_form,
                                solve_with_smith)
from quadlift.links import VertexLink, build_all_links
from quadlift.solver import (NORMAL, NOT_NORMAL, SPUN_NORMAL,
                             AdmissibilityReport, LiftResult, boundary_test,
                             check_admissible, quad_boundary, quad_chain)
from quadlift.triangulation import (LOCAL_EDGES, PERMS, TriangulationError,
                                    perm_sign, quad_disc)

FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


# ----------------------------------------------------------------------
# geometric sign oracle on the standard simplex

_SIMPLEX = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - b[0] * (a[1] * c[2] - a[2] * c[1])
            + c[0] * (a[1] * b[2] - a[2] * b[1]))


def simplex_arc_sign(corner, tail, head, opposite):
    """Sign of the frame (a, b, e) at the edge midpoint, computed inside the
    positively oriented standard simplex with exact rational arithmetic.

    e is the directed edge tail->head of the face opposite ``opposite``; a is
    the in-face outward normal of that edge (away from ``corner``); b is the
    face normal pointing out of the tetrahedron (away from ``opposite``).
    """
    xv, xp, xq, xw = (_SIMPLEX[corner], _SIMPLEX[tail], _SIMPLEX[head],
                      _SIMPLEX[opposite])
    e = _sub(xq, xp)
    mid = tuple((p + q) / 2 for p, q in zip(xp, xq))
    mv = _sub(mid, xv)
    a = tuple(_dot(e, e) * c - _dot(mv, e) * d for c, d in zip(mv, e))
    n = _cross(_sub(xp, xv), _sub(xq, xv))
    b = n if _dot(n, _sub(xw, xv)) < 0 else tuple(-c for c in n)
    det = _det3(a, b, e)
    assert det != 0
    return 1 if det > 0 else -1


# ----------------------------------------------------------------------
# quad combinatorics from first principles

def quad_cut_corner(quad_type, face_slot):
    """Corner linked by quad Qk's arc in a face, derived from which edges the
    quad cuts (the four edges with one endpoint in {0,k})."""
    separated = {0, quad_type}
    cut = [frozenset(p) for p in itertools.combinations(range(4), 2)
           if len(separated & set(p)) == 1]
    face = set(FACE_CORNERS[face_slot])
    in_face = [edge for edge in cut if edge <= face]
    assert len(in_face) == 2
    (shared,) = set.intersection(*map(set, in_face))
    return shared


def quad_type_cutting(face_slot, corner):
    for k in (1, 2, 3):
        if quad_cut_corner(k, face_slot) == corner:
            return k
    raise AssertionError


# ----------------------------------------------------------------------
# raw class counting

def brute_force_class_counts(doc):
    """(vertex, edge, face) class counts by plain orbit closure on the raw
    document."""
    t = doc["tets"]

    def sigma(i, f):
        entry = doc["gluings"][i][f]
        m = {}
        for s, v in enumerate(FACE_CORNERS[f]):
            m[v] = entry["corners"][s]
        return entry["tet"], entry["face"], m

    def close(items, images):
        return len(set(_orbits(items, images).values()))

    verts = [(i, v) for i in range(t) for v in range(4)]
    vid = []
    edges = [(i, frozenset(p)) for i in range(t)
             for p in itertools.combinations(range(4), 2)]
    eid = []
    faces = [(i, f) for i in range(t) for f in range(4)]
    fid = []
    for i in range(t):
        for f in range(4):
            j, g, m = sigma(i, f)
            fid.append(((i, f), (j, g)))
            for v in FACE_CORNERS[f]:
                vid.append(((i, v), (j, m[v])))
            for a, b in itertools.combinations(FACE_CORNERS[f], 2):
                eid.append(((i, frozenset((a, b))), (j, frozenset((m[a], m[b])))))
    return close(verts, vid), close(edges, eid), close(faces, fid)


def _orbits(items, pairs):
    """{item: representative} for the equivalence closure of ``pairs``."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(y)] = find(x)
    return {x: find(x) for x in items}


def link_invariants(doc):
    """(edges identified with themselves reversed, {vertex class: Euler
    characteristic of its link}) by orbit closure on the raw document.

    A vertex class is the frozenset of its (tet, vertex) incidences.  The
    0-cells of a link are the orbits of directed edges (tet, a, b) whose
    tail (tet, a) lies in the class, its arcs the face corners in the class
    (two per arc) and its triangles the incidences."""
    t = doc["tets"]
    vertex_pairs, edge_pairs = [], []
    for i in range(t):
        for f in range(4):
            entry = doc["gluings"][i][f]
            j, m = entry["tet"], dict(zip(FACE_CORNERS[f], entry["corners"]))
            for v in FACE_CORNERS[f]:
                vertex_pairs.append(((i, v), (j, m[v])))
            for a, b in itertools.permutations(FACE_CORNERS[f], 2):
                edge_pairs.append(((i, a, b), (j, m[a], m[b])))
    vertex = _orbits([(i, v) for i in range(t) for v in range(4)],
                     vertex_pairs)
    edge = _orbits([(i, a, b) for i in range(t)
                    for a, b in itertools.permutations(range(4), 2)],
                   edge_pairs)
    reversed_edges = sorted((i, a, b) for i, a, b in edge
                            if a < b and edge[i, a, b] == edge[i, b, a])
    chis = {}
    for root in set(vertex.values()):
        members = frozenset(x for x, r in vertex.items() if r == root)
        corners = sum(vertex[i, v] == root for i in range(t)
                      for f in range(4) for v in FACE_CORNERS[f])
        cells = {edge[i, a, b] for i, a, b in edge if vertex[i, a] == root}
        chis[members] = len(cells) - corners // 2 + len(members)
    return reversed_edges, chis


# ----------------------------------------------------------------------
# matching-equation solution enumeration

def _inverse_corners(f, g, corners):
    src, dst = FACE_CORNERS[f], FACE_CORNERS[g]
    inv = [None] * 3
    for s in range(3):
        inv[dst.index(corners[s])] = src[s]
    return inv


def _face_counts(assign, f):
    """Per ascending corner of face f: triangles at the corner plus the quad
    whose arc there links it.  ``assign`` is (t0,t1,t2,t3,q1,q2,q3)."""
    return tuple(assign[v] + assign[4 + quad_type_cutting(f, v) - 1]
                 for v in FACE_CORNERS[f])


def _tet_tuples(bound, admissible_only, quad_fix=None, triangle_bound=None):
    tb = bound if triangle_bound is None else triangle_bound
    tris = itertools.product(range(tb + 1), repeat=4)
    if quad_fix is not None:
        quad_opts = [tuple(quad_fix)]
    elif admissible_only:
        quad_opts = [(0, 0, 0)]
        for k in range(3):
            for val in range(1, bound + 1):
                q = [0, 0, 0]
                q[k] = val
                quad_opts.append(tuple(q))
    else:
        quad_opts = list(itertools.product(range(bound + 1), repeat=3))
    return [t + q for t in tris for q in quad_opts]


def enumerate_matching_solutions(doc, bound, admissible_only=True,
                                 quad_part=None, triangle_bound=None):
    """All non-negative disc vectors with entries <= bound satisfying the
    matching equations of the raw document.

    With ``quad_part`` the quad coordinates are pinned (completion oracle) and
    only the triangles range over 0..triangle_bound.  Enumeration is by
    tetrahedron with hash buckets on the already-constrained face counts.
    """
    t = doc["tets"]

    pairs = []
    seen = set()
    for i in range(t):
        for f in range(4):
            entry = doc["gluings"][i][f]
            j, g, corners = entry["tet"], entry["face"], entry["corners"]
            if (j, g, i, f) in seen:
                continue
            seen.add((i, f, j, g))
            pairs.append(((i, f), (j, g), list(corners)))

    per_tet = []
    for tet in range(t):
        qf = None if quad_part is None else quad_part[3 * tet:3 * tet + 3]
        per_tet.append(_tet_tuples(bound, admissible_only, qf, triangle_bound))

    # constraints binding each tet to earlier tets, with corner maps reversed
    # so the constrained side is always the later tetrahedron
    stage_cons = [[] for _ in range(t)]
    self_cons = [[] for _ in range(t)]
    for (i, f), (j, g), corners in pairs:
        if i == j:
            self_cons[i].append((f, g, corners))
        elif i > j:
            stage_cons[i].append((f, (j, g), corners))
        else:
            stage_cons[j].append((g, (i, f), _inverse_corners(f, g, corners)))

    def self_ok(tet, assign):
        for f, g, corners in self_cons[tet]:
            tf = _face_counts(assign, f)
            tg = _face_counts(assign, g)
            dst = FACE_CORNERS[g]
            for s, v in enumerate(FACE_CORNERS[f]):
                if tf[s] != tg[dst.index(corners[s])]:
                    return False
        return True

    def own_key(tet, assign):
        return tuple(_face_counts(assign, f) for f, _, _ in stage_cons[tet])

    buckets = []
    for tet in range(t):
        if not stage_cons[tet]:
            buckets.append([a for a in per_tet[tet] if self_ok(tet, a)])
        else:
            bucket = {}
            for a in per_tet[tet]:
                if self_ok(tet, a):
                    bucket.setdefault(own_key(tet, a), []).append(a)
            buckets.append(bucket)

    solutions = []
    assign = [None] * t

    def partner_key(tet):
        key = []
        for f, (j, g), corners in stage_cons[tet]:
            counts = _face_counts(assign[j], g)
            dst = FACE_CORNERS[g]
            key.append(tuple(counts[dst.index(corners[s])] for s in range(3)))
        return tuple(key)

    def rec(tet):
        if tet == t:
            solutions.append(tuple(itertools.chain.from_iterable(assign)))
            return
        if not stage_cons[tet]:
            candidates = buckets[tet]
        else:
            candidates = buckets[tet].get(partner_key(tet), ())
        for a in candidates:
            assign[tet] = a
            rec(tet + 1)
        assign[tet] = None

    rec(0)
    return solutions


# ----------------------------------------------------------------------
# integer linear algebra oracles

def laplace_determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [[row[j] for j in range(n) if j != c] for row in rows[1:]]
        total += (-1) ** c * rows[0][c] * laplace_determinant(minor)
    return total


def minors_gcd(rows, k):
    """gcd of all k x k minors (0 if all vanish)."""
    m, n = len(rows), len(rows[0])
    g = 0
    for ri in itertools.combinations(range(m), k):
        for ci in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(laplace_determinant(sub)))
    return g


def box_solve(rows, b, lo=-5, hi=5):
    """Exhaustive search for an integer solution of A x = b inside a box,
    with interval pruning on the not-yet-assigned tail."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    lo_tail = [[0] * (n + 1) for _ in range(m)]
    hi_tail = [[0] * (n + 1) for _ in range(m)]
    for r in range(m):
        for j in range(n - 1, -1, -1):
            c = rows[r][j]
            lo_c = min(c * lo, c * hi)
            hi_c = max(c * lo, c * hi)
            lo_tail[r][j] = lo_tail[r][j + 1] + lo_c
            hi_tail[r][j] = hi_tail[r][j + 1] + hi_c

    x = [0] * n

    def rec(j, partial):
        if j == n:
            return all(partial[r] == b[r] for r in range(m)) and list(x) or None
        for r in range(m):
            need = b[r] - partial[r]
            if not lo_tail[r][j] <= need <= hi_tail[r][j]:
                return None
        for val in range(lo, hi + 1):
            x[j] = val
            res = rec(j + 1, [partial[r] + rows[r][j] * val for r in range(m)])
            if res is not None:
                return res
        return None

    return rec(0, [0] * m)


def solve_integer(a, b, row_order=None, col_order=None):
    """One integer solution of A x = b, or the obstruction.

    ``row_order``/``col_order`` optionally permute the matrix before the
    Smith reduction, changing pivot choices (and hence possibly the witness);
    the returned solution is expressed in the original coordinates.  Used to
    check that downstream results do not depend on the particular witness.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    if row_order is None and col_order is None:
        return solve_with_smith(smith_normal_form(a), b)
    rows = row_order if row_order is not None else range(a.nrows)
    cols = list(col_order) if col_order is not None else list(range(a.ncols))
    perm = IntMatrix([[a.rows[i][j] for j in cols] for i in rows])
    res = solve_with_smith(smith_normal_form(perm), [b[i] for i in rows])
    if not res.ok:
        return res
    x = [0] * a.ncols
    for k, j in enumerate(cols):
        x[j] = res.solution[k]
    return SolveResult(x)


def kernel_basis(a):
    """A lattice basis of the integer kernel of A (columns of V past the rank)."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    dec = smith_normal_form(a)
    return [[row[j] for row in dec.V.rows] for j in range(dec.rank, a.ncols)]


def determinant(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    m = [row[:] for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ----------------------------------------------------------------------
# relabeling isomorphisms

def relabel_doc(doc, tet_perm, vertex_perms):
    """Apply an isomorphism of the gluing data: tetrahedron i becomes
    tet_perm[i] and its vertices are relabeled by vertex_perms[i]."""
    t = doc["tets"]
    sigma_hat = [[None] * 4 for _ in range(t)]
    for i in range(t):
        for f in range(4):
            entry = doc["gluings"][i][f]
            m = [None] * 4
            for s, v in enumerate(FACE_CORNERS[f]):
                m[v] = entry["corners"][s]
            m[f] = entry["face"]
            sigma_hat[i][f] = (entry["tet"], m)

    new_gluings = [[None] * 4 for _ in range(t)]
    for i in range(t):
        rho = vertex_perms[i]
        rho_inv = [None] * 4
        for v in range(4):
            rho_inv[rho[v]] = v
        for f in range(4):
            j, m = sigma_hat[i][f]
            rho_j = vertex_perms[j]
            nf = rho[f]
            new_m = [rho_j[m[rho_inv[v]]] for v in range(4)]
            new_gluings[tet_perm[i]][nf] = {
                "tet": tet_perm[j],
                "face": new_m[nf],
                "corners": [new_m[v] for v in FACE_CORNERS[nf]],
            }
    return {"tets": t, "gluings": new_gluings}


def translate_disc(disc, tet_perm, vertex_perms):
    i, j = divmod(disc, 7)
    rho = vertex_perms[i]
    if j < 4:
        return 7 * tet_perm[i] + rho[j]
    a, b = rho[0], rho[j - 3]
    k = a + b if 0 in (a, b) else 6 - a - b
    return 7 * tet_perm[i] + 3 + k


def translate_disc_vector(vec, tet_perm, vertex_perms):
    out = [0] * len(vec)
    for disc, value in enumerate(vec):
        out[translate_disc(disc, tet_perm, vertex_perms)] = value
    return out


def translate_quad_vector(q, tet_perm, vertex_perms):
    t = len(q) // 3
    out = [0] * len(q)
    for i in range(t):
        rho = vertex_perms[i]
        for k in (1, 2, 3):
            a, b = rho[0], rho[k]
            k2 = a + b if 0 in (a, b) else 6 - a - b
            out[3 * tet_perm[i] + k2 - 1] = q[3 * i + k - 1]
    return out


def random_isomorphism(t, rng):
    tet_perm = list(range(t))
    rng.shuffle(tet_perm)
    vertex_perms = []
    for _ in range(t):
        rho = list(range(4))
        rng.shuffle(rho)
        vertex_perms.append(rho)
    return tet_perm, vertex_perms


def suspended_surface(genus):
    """The suspension of a genus-g surface: a closed orientable
    pseudo-manifold with 8g tetrahedra whose two poles have genus-g links.

    The surface is the 4g-gon with sides glued by the word
    a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1 (all corners become one vertex),
    coned from a centre c into 4g triangles (c, P_i, P_i+1).  Tet 4g*pole + i
    is the cone from that pole over triangle i, with local vertices 0 = pole,
    1 = c, 2 = P_i, 3 = P_i+1.  Face 0 is the triangle, glued to the other
    pole's copy; faces 2 and 3 hold the spokes shared with triangles i+1 and
    i-1; face 1 holds the polygon side, glued to its partner side reversed.
    """
    n = 4 * genus

    def side_partner(i):
        # a at side 4m pairs with a^-1 at side 4m+2, b at 4m+1 with 4m+3
        return i + 2 if i % 4 < 2 else i - 2

    def entry(tet, face, corners):
        return {"tet": tet, "face": face, "corners": corners}

    gluings = []
    for pole in range(2):
        base, other = n * pole, n * (1 - pole)
        for i in range(n):
            gluings.append([
                entry(other + i, 0, [1, 2, 3]),
                entry(base + side_partner(i), 1, [0, 3, 2]),
                entry(base + (i + 1) % n, 3, [0, 1, 2]),
                entry(base + (i - 1) % n, 2, [0, 1, 3]),
            ])
    return {"tets": 2 * n, "gluings": gluings}


def random_matrix(rng, max_rows, max_cols, lo=-4, hi=4):
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# ----------------------------------------------------------------------
# the per-disc boundary and the matching equations: the references for the
# arc table that the package builds with its links

def arc_sign(tri, tet, face_slot, corner):
    """Sign of the arc linking ``corner`` of face ``face_slot`` in the
    boundary of any disc of ``tet`` meeting it: the orientation of ``tet``
    times the parity of (corner, p, q, face_slot) for the directed edge
    (p, q) opposite ``corner``.  ``corner`` must lie in the face.  Opposite
    on the two sides of every glued face pair."""
    if corner == face_slot:
        raise ValueError("corner %d does not lie in face %d" % (corner, face_slot))
    p, q = directed_face_edge(tri, tet, face_slot, corner)
    return tri.tet_orientation[tet] * perm_sign((corner, p, q, face_slot))


def face_sides(tri, face_class, corner_slot=0):
    """The two incidences of a face class labeled by the sign of the arc at
    ``corner_slot``: returns ((tet, face) with +1, (tet, face) with -1).

    The two sides always carry opposite signs for each corner; which side is
    positive may depend on the corner, since the three edges of a face need
    not be directed cyclically.
    """
    rep, other = face_pairs(tri)[face_class]
    i, f = rep
    corner = FACE_CORNERS[f][corner_slot]
    if arc_sign(tri, i, f, corner) == 1:
        return rep, other
    return other, rep


def disc_boundary(tri, disc):
    """Boundary of one normal disc as a sorted list of (arc index, sign).

    A triangle cutting off corner c meets the three faces at c; the quad Qk
    meets all four faces, linking in each the corner shared by the two edges
    it cuts there.  Coefficients on a common arc are merged.
    """
    tet, j = divmod(disc, 7)
    if j < 4:
        faces = [(f, j) for f in range(4) if f != j]
    else:
        faces = [(f, quad_cut_corner(j - 3, f)) for f in range(4)]
    coeffs = {}
    for face_slot, corner in faces:
        arc = arc_of(tri, tet, face_slot, corner)
        coeffs[arc] = coeffs.get(arc, 0) + arc_sign(tri, tet, face_slot, corner)
    return sorted((arc, c) for arc, c in coeffs.items() if c != 0)


def boundary_of(tri, chain2):
    """The boundary of a 2-chain, summed from :func:`disc_boundary`."""
    out = [0] * tri.arc_count
    for disc, coeff in enumerate(chain2):
        if coeff:
            for arc, sign in disc_boundary(tri, disc):
                out[arc] += coeff * sign
    return out


class SparseColumns:
    """A sparse integer matrix stored per column as (row, value) lists."""

    def __init__(self, nrows, columns):
        self.nrows = nrows
        self.ncols = len(columns)
        self.columns = columns

    def apply(self, vec):
        """Matrix-vector product for a dense integer vector."""
        out = [0] * self.nrows
        for c, coeff in enumerate(vec):
            for r, v in self.columns[c]:
                out[r] += coeff * v
        return out


def matching_equations(tri):
    """The classical matching equations as a sparse matrix over disc vectors.

    One equation per (face class, corner): the unsigned count of discs meeting
    the arc from the representative side minus the count from the other side.
    Built from incidences only, with no use of the boundary signs, so it
    serves as an independent oracle for the kernel of the boundary matrix.
    """
    cached = tri._cache.get("matching")
    if cached is not None:
        return cached

    rep_side = {rep for rep, _ in face_pairs(tri)}
    columns = [dict() for _ in range(tri.disc_count)]

    def add(disc, tet, face_slot, corner):
        arc = arc_of(tri, tet, face_slot, corner)
        side = 1 if (tet, face_slot) in rep_side else -1
        col = columns[disc]
        col[arc] = col.get(arc, 0) + side

    for tet in range(tri.tet_count):
        for corner in range(4):
            for face_slot in range(4):
                if face_slot != corner:
                    add(triangle_disc(tet, corner), tet, face_slot, corner)
        for k in (1, 2, 3):
            for face_slot in range(4):
                corner = quad_cut_corner(k, face_slot)
                add(quad_disc(tet, k), tet, face_slot, corner)

    matrix = SparseColumns(
        tri.arc_count,
        [sorted((a, v) for a, v in col.items() if v != 0) for col in columns])
    tri._cache["matching"] = matrix
    return matrix


def apply_matching(tri, chain2):
    """Evaluate all matching equations on a disc vector."""
    return matching_equations(tri).apply(chain2)


def fundamental_class(tri, link):
    """The 2-chain with coefficient 1 on every triangle of the link; a cycle."""
    chain = [0] * tri.disc_count
    for disc in link.triangles:
        chain[disc] = 1
    return chain


def link_boundary_restriction_check(tri, link):
    """True iff the global boundary map restricts to the link's own boundary
    map: every link-triangle boundary is supported on the link's arcs, and
    every arc is bounded by exactly two triangle incidences with opposite
    signs (the two incidences can lie on the same triangle when a face is
    glued to another face of its own tetrahedron)."""
    appearances = {arc: [] for arc in link.arcs}
    for disc in link.triangles:
        tet, corner = divmod(disc, 7)
        for face_slot in range(4):
            if face_slot == corner:
                continue
            arc = arc_of(tri, tet, face_slot, corner)
            if arc not in appearances:
                return False
            appearances[arc].append(arc_sign(tri, tet, face_slot, corner))
    return all(sorted(signs) == [-1, 1] for signs in appearances.values())


# ----------------------------------------------------------------------
# the former library paths: the signed union-find of the edge classes, the
# per-entry admissibility loop, per-vertex link building and the Smith-form
# lift

def _local_edge(a, b):
    return LOCAL_EDGES.index((min(a, b), max(a, b)))


# _EDGE_UNIONS[24 * f + p] lists (k, k', rel) for the edges (c0, c1),
# (c0, c2), (c1, c2) of face f = (c0, c1, c2) glued by PERMS[p]: the gluing
# takes local edge k to edge k' of the partner tetrahedron, min->max to
# min->max when rel is +1.
_EDGE_UNIONS = tuple(
    tuple((_local_edge(a, b), _local_edge(sigma[a], sigma[b]),
           1 if sigma[a] < sigma[b] else -1)
          for a, b in itertools.combinations(FACE_CORNERS[f], 2))
    for f in range(4) for sigma in PERMS)


def union_find_edge_classes(tri):
    """(edge_class_at, edge_direction_at, members) of ``tri``'s gluings by
    the signed union-find the package ran before it walked round each edge:
    a union over representative faces, with value(x) = sign[x] *
    value(root[x]); the larger class relabels the smaller, a circular list
    through nxt, and the lists are spliced.  ``members`` lists each class's
    slots, ascending; classes are numbered by their first slot, where the
    direction is +1."""
    partner, perm = tri._partner, tri._perm
    n = 6 * tri.tet_count
    root, nxt = list(range(n)), list(range(n))
    size = [1] * n
    sign = [1] * n
    for x, y in enumerate(partner):
        if y < x:
            continue
        i6, j6 = 6 * (x >> 2), 6 * (y >> 2)
        for k, target, rel in _EDGE_UNIONS[24 * (x & 3) + perm[x]]:
            a, b = i6 + k, j6 + target
            ra, rb = root[a], root[b]
            if ra == rb:
                continue
            flip = sign[a] * rel * sign[b]   # value(rb) / value(ra)
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            z = rb
            while root[z] != ra:
                root[z] = ra
                sign[z] *= flip
                z = nxt[z]
            nxt[ra], nxt[rb] = nxt[rb], nxt[ra]
            size[ra] += size[rb]

    # A class runs min->max on its first member; first[e] is that direction
    # relative to the root's.
    label = [-1] * n
    first = []
    members = []
    for x, r in enumerate(root):
        if label[r] < 0:
            label[r] = len(members)
            first.append(sign[x])
            members.append([])
        members[label[r]].append(x)
    edge_class = tuple([label[r] for r in root])
    direction = tuple([s * first[e] for s, e in zip(sign, edge_class)])
    return edge_class, direction, members


def check_admissible_loop(q, tet_count=None):
    """``solver.check_admissible`` as one test per entry, the way the
    package checked admissibility before it tested each tetrahedron once."""
    if tet_count is not None and len(q) != 3 * tet_count:
        raise ValueError("expected %d quad coordinates, got %d"
                         % (3 * tet_count, len(q)))
    if len(q) % 3:
        raise ValueError("quad vector length %d is not a multiple of 3" % len(q))
    negatives = []
    conflicts = []
    for tet in range(len(q) // 3):
        present = []
        for k in (1, 2, 3):
            value = q[3 * tet + k - 1]
            if value < 0:
                negatives.append((tet, k, value))
            if value != 0:
                present.append(k)
        if len(present) > 1:
            conflicts.append((tet, tuple(present)))
    return AdmissibilityReport(tuple(negatives), tuple(conflicts))


def build_link(tri, vertex):
    """The link of one vertex class by a scan of every face class, the way
    the package built each link before it bucketed all links in one pass."""
    triangles = tuple(sorted(triangle_disc(*divmod(x, 4))
                             for x in tri.vertex_classes[vertex]))

    arcs = []
    arc_cells = {}
    arc_triangles = {}
    for c, ((i, f), (j, _)) in enumerate(face_pairs(tri)):
        _, sigma = gluing(tri, i, f)
        for slot, corner in enumerate(FACE_CORNERS[f]):
            if tri.vertex_class_at[4 * i + corner] != vertex:
                continue
            arc = 3 * c + slot
            arcs.append(arc)
            p, q = directed_face_edge(tri, i, f, corner)
            arc_cells[arc] = (end_cell(tri, i, corner, p),
                              end_cell(tri, i, corner, q))
            arc_triangles[arc] = (triangle_disc(i, corner),
                                  triangle_disc(j, sigma[corner]))
    arcs = tuple(sorted(arcs))

    cells = tuple(sorted(
        (e.index, end)
        for e in tri.edge_classes
        for end, v in ((0, e.tail_vertex), (1, e.head_vertex))
        if v == vertex))

    chi = len(cells) - len(arcs) + len(triangles)
    if chi % 2 != 0:
        raise TriangulationError(
            "link of vertex %d has odd Euler characteristic %d; not an "
            "orientable surface" % (vertex, chi))
    if triangles:
        index = {d: k for k, d in enumerate(triangles)}
        adjacency = [[] for _ in triangles]
        for arc in arcs:
            d1, d2 = arc_triangles[arc]
            adjacency[index[d1]].append(index[d2])
            adjacency[index[d2]].append(index[d1])
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(triangles):
            raise TriangulationError(
                "link of vertex %d is disconnected" % vertex)

    stub = SimpleNamespace(triangles=triangles, arcs=arcs)
    steps, closing = dual_tree(stub, len(triangles) - 1, tri.arc_discs)
    link = VertexLink(vertex, triangles, lambda: {vertex: cells},
                      (steps, closing), (0, len(steps), 0, len(closing)),
                      arc_cells.__getitem__)
    # the link reads its arcs off its tree, which holds each arc once
    assert link.arcs == arcs
    return link


def dual_tree(link, root, arc_discs):
    """A spanning tree of the link's dual graph, in the form of
    ``VertexLink.tree``, grown breadth first from the triangle at position
    ``root`` of ``link.triangles`` with each arc's two triangles and sign
    read from ``arc_discs``: the per-link tree the package grew before it
    grew one forest over all links."""
    neighbours = {d: [] for d in link.triangles}
    closing = []
    for arc in link.arcs:
        s, d, nb, _, _ = arc_discs[arc]
        if d == nb:
            closing.append((arc, d, d, 0))
        else:
            neighbours[d].append((arc, nb, s))
            neighbours[nb].append((arc, d, -s))
    root = link.triangles[root]
    steps = []
    used = set()
    seen = {root}
    queue = [root]
    for d in queue:
        for arc, nb, s in neighbours[d]:
            if arc in used:
                continue
            used.add(arc)
            if nb in seen:
                closing.append((arc, d, nb, s))
            else:
                seen.add(nb)
                steps.append((arc, d, nb, s))
                queue.append(nb)
    return steps, closing


def link_potential(tri, b, vertex, root=None):
    """The verdict of ``solver.boundary_test`` on the link of ``vertex`` in
    the form (ok, witness, reason): ``witness`` is the potential over
    ``link.triangles``, zero at position ``root``, or None with reason
    ``"no rational solution"``.  The default root is the last triangle,
    whose tree is the link's tree of ``tri.forest``, and the whole forest
    is walked; another root walks :func:`dual_tree` there, handed to
    ``boundary_test`` as the only tree of its forest."""
    link = tri.links[vertex]
    w = [0] * tri.disc_count
    if root is not None:
        tri = SimpleNamespace(forest=dual_tree(link, root, tri.arc_discs),
                              vertex_class_at=tri.vertex_class_at)
    if vertex in boundary_test(tri, b, w):
        return False, None, "no rational solution"
    return True, [w[d] for d in link.triangles], None


def cycle_imbalance(tri, b, vertex):
    """Signed endpoint sums of the quad boundary b at each 0-cell of the
    link of ``vertex``, read arc by arc from ``link.arc_cells``: the cycle
    test the package made before it read the sums off the residuals of the
    forest walk.  All zero exactly when b is a 1-cycle there."""
    sums = {}
    for arc, (tail, head) in tri.links[vertex].arc_cells.items():
        coeff = b[arc]
        if coeff:
            sums[head] = sums.get(head, 0) + coeff
            sums[tail] = sums.get(tail, 0) - coeff
    return {cell: s for cell, s in sorted(sums.items()) if s != 0}


def link_boundary_matrix(tri, link):
    """Dense boundary matrix of the link complex: rows follow ``link.arcs``,
    columns follow ``link.triangles``, entries are the disc-boundary signs."""
    row_of = {arc: r for r, arc in enumerate(link.arcs)}
    rows = [[0] * len(link.triangles) for _ in link.arcs]
    for c, disc in enumerate(link.triangles):
        for arc, coeff in disc_boundary(tri, disc):
            rows[row_of[arc]][c] += coeff
    return IntMatrix(rows)


def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    arcs = set(link.arcs)
    return [c if arc in arcs else 0 for arc, c in enumerate(chain1)]


def partial_boundary(tri, q, vertex):
    """Boundary of the quad 2-chain projected to the arcs linking ``vertex``,
    as a chain over all arcs."""
    return projection(tri.links[vertex], boundary_of(tri, quad_chain(tri, q)))


def smith_lift(tri, q, decompositions=None):
    """The lift by a Smith normal form of each link's dense boundary matrix,
    as the package computed it before the spanning-tree walk; the shift of
    each vertex is the minimum of the Smith witness.  ``decompositions``, a
    dict kept by the caller for one triangulation, saves each link's Smith
    form for the next query."""
    report = check_admissible(q, tri.tet_count)
    if not report.ok:
        raise ValueError("inadmissible quadrilateral coordinates: %r" % (report,))

    boundary = boundary_of(tri, quad_chain(tri, q))
    chains = [projection(link, boundary) for link in tri.links]
    cycle_failures = []
    for link, chain in zip(tri.links, chains):
        sums = {}
        for arc in link.arcs:
            if chain[arc]:
                tail, head = link.arc_cells[arc]
                sums[head] = sums.get(head, 0) + chain[arc]
                sums[tail] = sums.get(tail, 0) - chain[arc]
        imbalance = tuple((c, s) for c, s in sorted(sums.items()) if s)
        if imbalance:
            cycle_failures.append((link.vertex, imbalance))
    if cycle_failures:
        return LiftResult(NOT_NORMAL, cycle_failures=tuple(cycle_failures))

    witnesses = {}
    boundary_failures = []
    for link, chain in zip(tri.links, chains):
        if decompositions is None:
            decompositions = {}
        if link.vertex not in decompositions:
            decompositions[link.vertex] = smith_normal_form(
                link_boundary_matrix(tri, link))
        res = solve_with_smith(decompositions[link.vertex], [-chain[arc] for arc in link.arcs])
        if res.ok:
            witnesses[link.vertex] = res.solution
        else:
            boundary_failures.append((link.vertex, res.reason))
    if boundary_failures:
        return LiftResult(SPUN_NORMAL, boundary_failures=tuple(boundary_failures))

    coords = quad_chain(tri, q)
    shifts = {}
    for vertex, witness in witnesses.items():
        m = min(witness)
        shifts[vertex] = m
        for disc, value in zip(tri.links[vertex].triangles, witness):
            coords[disc] = value - m
    assert not any(boundary_of(tri, coords))
    return LiftResult(NORMAL, coords, shifts)


def check_witness_independence(tri, q, result, rng, trials):
    """Assert that ``result`` (a Normal lift of q) is what every witness
    gives.  Per vertex: ``trials`` Smith witnesses of the link's dense system,
    each with randomly permuted rows and columns, and the potential walk
    rooted at every triangle of the link must all, after subtracting their
    minimum, equal the canonical lift on the link's triangles, and must all
    give ``min(w) - w[-1]`` as the vertex's shift."""
    b = quad_boundary(tri, q)
    for v, link in enumerate(tri.links):
        canonical = [result.canonical_lift[d] for d in link.triangles]
        shift = result.per_vertex_shift[v]
        witnesses = []
        a = link_boundary_matrix(tri, link)
        rhs = [-b[arc] for arc in link.arcs]
        for _ in range(trials):
            rows = list(range(a.nrows))
            cols = list(range(a.ncols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            res = solve_integer(a, rhs, row_order=rows, col_order=cols)
            assert res.ok
            witnesses.append(res.solution)
        for root in range(len(link.triangles)):
            ok, w, reason = link_potential(tri, b, v, root=root)
            assert ok and reason is None and w[root] == 0
            assert a.mul_vec(w) == rhs
            witnesses.append(w)
        for w in witnesses:
            m = min(w)
            assert [x - m for x in w] == canonical
            assert m - w[-1] == shift


# ----------------------------------------------------------------------
# helpers that only the tests use

def identity(n):
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zeros(m, n):
    return IntMatrix([[0] * n for _ in range(m)])


def matmul(a, b):
    """The product of two IntMatrix values."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch %dx%d * %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))
    cols = list(zip(*b.rows)) if b.rows else []
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols]
                      for row in a.rows])


def to_dense(matrix):
    """The rows of a matrix with ``columns`` of (row, value) lists as dense
    lists."""
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for c, col in enumerate(matrix.columns):
        for r, v in col:
            rows[r][c] = v
    return rows


def triangle_part(tri, chain2):
    """The triangle coordinates of a 2-chain (4 per tetrahedron)."""
    return [chain2[7 * tet + c]
            for tet in range(tri.tet_count) for c in range(4)]


def small_vectors(tri, rng, count):
    """Random admissible quad vectors with entries up to 2; most are not
    cycles on every link."""
    out = []
    for _ in range(count):
        q = [0] * tri.quad_count
        for tet in range(tri.tet_count):
            k = rng.randrange(4)
            if k:
                q[3 * tet + k - 1] = rng.randint(1, 2)
        out.append(q)
    return out


def cycle_test(tri, q, vertex):
    return not cycle_imbalance(tri, quad_boundary(tri, q), vertex)


def edge_slot(tet, a, b):
    """The flat index 6*tet+k of local edge {a, b}, k its LOCAL_EDGES index."""
    return 6 * tet + LOCAL_EDGES.index((min(a, b), max(a, b)))


def edge_class(tri, tet, a, b):
    return tri.edge_class_at[edge_slot(tet, a, b)]


def edge_direction(tri, tet, a, b):
    """+1 if the class direction of edge {a,b} runs min->max in this
    tetrahedron's labels, -1 otherwise."""
    return tri.edge_direction_at[edge_slot(tet, a, b)]


def triangle_disc(tet, corner):
    return 7 * tet + corner


def face_pairs(tri):
    """The two face slots (tet, face) of every face class, the
    representative (the lesser slot 4i+f) first, in representative order:
    entry c is face class c."""
    return [(divmod(x, 4), divmod(y, 4))
            for x, y in enumerate(tri._partner) if y > x]


def gluing(tri, tet, face_slot):
    """((tet, face) glued to ``face_slot``, the gluing as a permutation of
    {0,1,2,3} taking the omitted vertex to the omitted vertex)."""
    x = 4 * tet + face_slot
    return divmod(tri._partner[x], 4), PERMS[tri._perm[x]]


def arc_of(tri, tet, face_slot, corner):
    """Global index of the normal arc in the given face linking ``corner``:
    3 * (face class) + the position of the corner in the representative
    face."""
    x = 4 * tet + face_slot
    y = tri._partner[x]
    if y < x:
        face_slot, corner = y & 3, PERMS[tri._perm[x]][corner]
    # the face class numbers its representative slot, x < partner, among all
    rep = min(x, y)
    face_class = sum(1 for z, w in enumerate(tri._partner[:rep]) if w > z)
    return 3 * face_class + FACE_CORNERS[face_slot].index(corner)


def directed_face_edge(tri, tet, face_slot, corner):
    """The edge of the face opposite ``corner`` as an ordered local pair
    (tail, head) following the global edge direction."""
    p, q = (v for v in FACE_CORNERS[face_slot] if v != corner)
    return (p, q) if edge_direction(tri, tet, p, q) == 1 else (q, p)


def end_cell(tri, tet, cone, other):
    """The 0-cell of the link of ``cone``'s vertex class lying on edge
    {cone, other}, as a pair (edge class, end) with end 0=tail, 1=head."""
    low_tail = edge_direction(tri, tet, cone, other) == 1
    return (edge_class(tri, tet, cone, other),
            0 if low_tail == (cone < other) else 1)


def arc_info(tri, arc):
    """(representative (tet, face), corner_slot, rep_corner) for an arc
    index."""
    rep, _ = face_pairs(tri)[arc // 3]
    slot = arc % 3
    return rep, slot, FACE_CORNERS[rep[1]][slot]


def serialize(tri):
    """The canonical JSON document for this triangulation."""
    gluings = []
    for i in range(tri.tet_count):
        row = []
        for f in range(4):
            (j, g), sigma = gluing(tri, i, f)
            row.append({"tet": j, "face": g,
                        "corners": [sigma[v] for v in FACE_CORNERS[f]]})
        gluings.append(row)
    return {"tets": tri.tet_count, "gluings": gluings}


def to_text(tri):
    return json.dumps(serialize(tri), indent=2, sort_keys=True) + "\n"


def flip_edge(tri, e):
    """A copy of ``tri`` with the direction of edge class ``e`` reversed,
    its links and arc table rebuilt.  No answer of the package may depend
    on edge directions, so every answer must be the same on the copy."""
    flipped = copy.copy(tri)
    # the EdgeClass objects, which read the directions, are cached there
    flipped._cache = {}
    flipped.edge_direction_at = tuple(
        -d if c == e else d
        for c, d in zip(tri.edge_class_at, tri.edge_direction_at))
    flipped.links = build_all_links(flipped)
    return flipped
