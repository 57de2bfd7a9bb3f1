"""Independent brute-force oracles used by the tests.

Everything here is deliberately written against the raw gluing documents (or
against first principles) rather than against the library's internals, so a
bug in the package cannot hide in its own oracle.
"""

import itertools
from fractions import Fraction
from math import gcd

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
        parent = {x: x for x in items}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in images:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
        return len({find(x) for x in items})

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


def random_matrix(rng, max_rows, max_cols, lo=-4, hi=4):
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# ----------------------------------------------------------------------
# the former library paths: per-vertex link building and the Smith-form lift

def build_link(tri, vertex):
    """The link of one vertex class by a scan of every face class, the way
    the package built each link before it bucketed all links in one pass."""
    from quadlift.links import VertexLink
    from quadlift.triangulation import TriangulationError, triangle_disc

    vc = tri.vertex_classes[vertex]
    triangles = tuple(sorted(triangle_disc(t, v) for t, v in vc.members))

    arcs = []
    arc_cells = {}
    arc_triangles = {}
    for fc in tri.face_classes:
        i, f = fc.rep
        sigma = tri.corner_map(i, f)
        j, _ = tri.partner(i, f)
        for slot, corner in enumerate(FACE_CORNERS[f]):
            if tri.vertex_class_of[(i, corner)] != vertex:
                continue
            arc = 3 * fc.index + slot
            arcs.append(arc)
            p, q = tri.directed_face_edge(i, f, corner)
            arc_cells[arc] = (tri.end_cell(i, corner, p),
                              tri.end_cell(i, corner, q))
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

    return VertexLink(vertex, triangles, arcs, cells, arc_cells,
                      arc_triangles, chi)


def link_boundary_matrix(tri, link):
    """Dense boundary matrix of the link complex: rows follow ``link.arcs``,
    columns follow ``link.triangles``, entries are the disc-boundary signs."""
    from quadlift import IntMatrix, disc_boundary

    row_of = {arc: r for r, arc in enumerate(link.arcs)}
    rows = [[0] * len(link.triangles) for _ in link.arcs]
    for c, disc in enumerate(link.triangles):
        for arc, coeff in disc_boundary(tri, disc):
            rows[row_of[arc]][c] += coeff
    return IntMatrix(rows)


def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    return [c if arc in link.arc_set else 0 for arc, c in enumerate(chain1)]


def partial_boundary(tri, q, vertex):
    """Boundary of the quad 2-chain projected to the arcs linking ``vertex``,
    as a chain over all arcs."""
    from quadlift import apply_boundary, quad_chain

    return projection(tri.links[vertex],
                      apply_boundary(tri, quad_chain(tri, q)))


def smith_lift(tri, q, decompositions=None):
    """The lift by a Smith normal form of each link's dense boundary matrix,
    as the package computed it before the spanning-tree walk; the shift of
    each vertex is the minimum of the Smith witness.  ``decompositions``, a
    dict kept by the caller for one triangulation, saves each link's Smith
    form for the next query."""
    from quadlift import (NORMAL, NOT_NORMAL, SPUN_NORMAL, LiftResult,
                          apply_boundary, check_admissible, quad_chain,
                          smith_normal_form, solve_with_smith)

    report = check_admissible(q, tri.tet_count)
    if not report.ok:
        raise ValueError("inadmissible quadrilateral coordinates: %r" % (report,))

    chains = [partial_boundary(tri, q, v) for v in range(len(tri.links))]
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
    assert not any(apply_boundary(tri, coords))
    return LiftResult(NORMAL, coords, shifts)


def check_witness_independence(tri, q, result, rng, trials):
    """Assert that ``result`` (a Normal lift of q) is what every witness
    gives.  Per vertex: ``trials`` Smith witnesses of the link's dense system,
    each with randomly permuted rows and columns, and the potential walk
    rooted at every triangle of the link must all, after subtracting their
    minimum, equal the canonical lift on the link's triangles, and must all
    give ``min(w) - w[-1]`` as the vertex's shift."""
    from quadlift import boundary_test, link_quad_boundary, solve_integer

    for v, link in enumerate(tri.links):
        canonical = [result.canonical_lift[d] for d in link.triangles]
        shift = result.per_vertex_shift[v]
        witnesses = []
        a = link_boundary_matrix(tri, link)
        rhs = [-c for c in link_quad_boundary(tri, q, v)]
        for _ in range(trials):
            rows = list(range(a.nrows))
            cols = list(range(a.ncols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            res = solve_integer(a, rhs, row_order=rows, col_order=cols)
            assert res.ok
            witnesses.append(res.solution)
        for root in range(len(link.triangles)):
            ok, w, reason = boundary_test(tri, q, v, root=root)
            assert ok and reason is None and w[root] == 0
            assert a.mul_vec(w) == rhs
            witnesses.append(w)
        for w in witnesses:
            m = min(w)
            assert [x - m for x in w] == canonical
            assert m - w[-1] == shift
