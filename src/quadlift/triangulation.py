"""Closed orientable 3-pseudo-manifolds given as tetrahedra with face pairings.

Conventions used throughout the package:

* A tetrahedron has local vertices 0,1,2,3.  Face slot ``f`` is the face
  omitting local vertex ``f``; its corners, listed in increasing order, are
  ``FACE_CORNERS[f]``.
* Every face slot is glued to exactly one other face slot and the pairing is
  an involution, so the complex is closed.  A gluing carries a corner
  correspondence, stored internally as a permutation of {0,1,2,3} that maps
  the corners of the source face to the corners of the target face and the
  omitted vertex to the omitted vertex.
* Tetrahedra carry orientation signs (+1/-1) such that every gluing reverses
  the induced face orientation; edge classes carry a direction, fixed by the
  lexicographically least local representative.

The quotient complex must be a manifold away from its vertices: the link of
every vertex class is a closed connected orientable surface (a sphere exactly
at manifold points).  Links are built and checked on construction.
"""

import json

__all__ = [
    "FACE_CORNERS",
    "LOCAL_EDGES",
    "TriangulationError",
    "FaceClass",
    "EdgeClass",
    "VertexClass",
    "Triangulation",
    "parse_triangulation",
    "orient",
    "orient_edges",
    "perm_sign",
    "quad_corner_in_face",
    "quad_type_through",
    "triangle_disc",
    "quad_disc",
    "disc_info",
]

# Corners of face slot f, in increasing local-vertex order.
FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# The six local edges of a tetrahedron as sorted vertex pairs.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_EDGE_SLOT = {pair: k for k, pair in enumerate(LOCAL_EDGES)}

# _CORNER_SLOT[f][v] is the position of corner v inside FACE_CORNERS[f].
_CORNER_SLOT = tuple(
    {v: s for s, v in enumerate(FACE_CORNERS[f])} for f in range(4)
)

# Disc types per tetrahedron: indices 0..3 are the triangles cutting off the
# corresponding vertex, 4..6 are the quadrilaterals Q1, Q2, Q3, where Qk
# separates edge {0,k} from the opposite edge.
DISC_TYPES = 7


def perm_sign(seq):
    """Sign of a sequence of distinct comparable values (+1 even, -1 odd)."""
    sign = 1
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def quad_corner_in_face(quad_type, face_slot):
    """Corner linked by the boundary arc of quad Qk inside the given face.

    Qk separates edge {0,k} from the opposite edge, so it cuts the four
    remaining edges; inside each face the two cut edges share one corner.
    """
    k = quad_type
    if face_slot == 0:
        return k
    if face_slot == k:
        return 0
    return 6 - k - face_slot


def quad_type_through(face_slot, corner):
    """The quad type whose arc in ``face_slot`` links ``corner`` (inverse of
    :func:`quad_corner_in_face`)."""
    if face_slot == 0:
        return corner
    if corner == 0:
        return face_slot
    return 6 - face_slot - corner


def triangle_disc(tet, corner):
    return 7 * tet + corner


def quad_disc(tet, quad_type):
    return 7 * tet + 3 + quad_type


def disc_info(disc):
    """Decompose a disc index into (tet, kind, value).

    ``kind`` is ``"triangle"`` with the cut-off corner, or ``"quad"`` with the
    quad type 1..3.
    """
    tet, j = divmod(disc, 7)
    if j < 4:
        return tet, "triangle", j
    return tet, "quad", j - 3


class TriangulationError(ValueError):
    """Raised when a document does not describe a valid closed orientable
    3-pseudo-manifold."""


class _SignedUnionFind:
    """Union-find with a +-1 sign between each element and its class root.

    Used for edge identifications, where the sign tracks whether two local
    copies of an edge are identified preserving or reversing direction.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n

    def find(self, x):
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        s = 1
        for y in reversed(path):
            s *= self.sign[y]
            self.parent[y] = x
            self.sign[y] = s
        return x

    def relation(self, x):
        """Return (root, sign of x relative to the root)."""
        r = self.find(x)
        return r, (1 if x == r else self.sign[x])

    def union(self, x, y, rel):
        """Impose value(x) = rel * value(y); return False on a sign conflict."""
        rx, sx = self.relation(x)
        ry, sy = self.relation(y)
        if rx == ry:
            return sx == rel * sy
        self.parent[ry] = rx
        self.sign[ry] = sx * rel * sy
        return True


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class FaceClass:
    """A face of the quotient complex: a glued pair of face slots.

    ``rep`` is the lexicographically least incidence (tet, face_slot) and
    ``other`` the second one.  Normal arcs are indexed by (face class, corner
    slot), where corner slots 0..2 enumerate the corners of the representative
    face in increasing local-vertex order.
    """

    __slots__ = ("index", "rep", "other")

    def __init__(self, index, rep, other):
        self.index = index
        self.rep = rep
        self.other = other

    def __repr__(self):
        return "FaceClass(%d, rep=%s, other=%s)" % (self.index, self.rep, self.other)


class EdgeClass:
    """An edge of the quotient complex with its chosen direction.

    The direction runs from the smaller to the larger vertex label in the
    least local representative (unless the class was explicitly flipped).
    ``tail_vertex``/``head_vertex`` are vertex-class indices.
    """

    __slots__ = ("index", "rep", "members", "tail_local", "head_local",
                 "tail_vertex", "head_vertex")

    def __init__(self, index, rep, members, tail_local, head_local,
                 tail_vertex, head_vertex):
        self.index = index
        self.rep = rep
        self.members = members
        self.tail_local = tail_local
        self.head_local = head_local
        self.tail_vertex = tail_vertex
        self.head_vertex = head_vertex

    @property
    def valence(self):
        return len(self.members)

    def __repr__(self):
        t, _, _ = self.rep
        return "EdgeClass(%d, tet %d %d->%d)" % (
            self.index, t, self.tail_local, self.head_local)


class VertexClass:
    __slots__ = ("index", "rep", "members")

    def __init__(self, index, rep, members):
        self.index = index
        self.rep = rep
        self.members = members

    def __repr__(self):
        return "VertexClass(%d, rep=%s, degree=%d)" % (
            self.index, self.rep, len(self.members))


class Triangulation:
    """A validated closed orientable triangulated 3-pseudo-manifold.

    Instances are immutable once constructed and safe to share between
    threads.  Construction computes and checks everything: the face, edge and
    vertex classes, tetrahedron orientation signs, edge directions, and the
    vertex links (which must be closed connected orientable surfaces).

    ``flipped_edges`` reverses the canonical direction of the given edge
    classes; classification results must not depend on this and the option
    exists so that independence can be tested.
    """

    def __init__(self, doc, flipped_edges=frozenset()):
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise TriangulationError("malformed document: %s" % exc) from exc
        self._load(doc)
        self._compute_face_classes()
        self._compute_vertex_classes()
        self._compute_orientations()
        self._compute_edge_classes(frozenset(flipped_edges))
        self._cache = {}
        self._validate_links()

    # ------------------------------------------------------------------
    # construction

    def _load(self, doc):
        # Integers are checked with ``type(x) is int``: JSON true and false
        # load as bool, which ``isinstance(x, int)`` would accept.
        if not isinstance(doc, dict):
            raise TriangulationError("malformed document: expected an object")
        try:
            t = doc["tets"]
            gluings = doc["gluings"]
        except (KeyError, TypeError) as exc:
            raise TriangulationError(
                "malformed document: missing 'tets' or 'gluings'") from exc
        if type(t) is not int or t <= 0:
            raise TriangulationError("malformed document: 'tets' must be a "
                                     "positive integer")
        if not isinstance(gluings, list) or len(gluings) != t:
            raise TriangulationError("malformed document: 'gluings' must list "
                                     "%d tetrahedra" % t)
        self.tet_count = t

        # report missing gluings before validating the ones that are present
        for i in range(t):
            row = gluings[i]
            if not isinstance(row, list) or len(row) != 4:
                raise TriangulationError(
                    "malformed document: tetrahedron %d must list 4 faces" % i)
            for f in range(4):
                if row[f] is None:
                    raise TriangulationError(
                        "unglued face: tetrahedron %d face %d" % (i, f))

        perm = [[None] * 4 for _ in range(t)]
        partner = [[None] * 4 for _ in range(t)]
        for i in range(t):
            row = gluings[i]
            for f in range(4):
                entry = row[f]
                try:
                    j = entry["tet"]
                    g = entry["face"]
                    corners = entry["corners"]
                except (KeyError, TypeError) as exc:
                    raise TriangulationError(
                        "malformed document: tetrahedron %d face %d" % (i, f)
                    ) from exc
                if not (type(j) is int and 0 <= j < t):
                    raise TriangulationError(
                        "tetrahedron %d face %d glued to unknown tetrahedron "
                        "%r" % (i, f, j))
                if not (type(g) is int and 0 <= g <= 3):
                    raise TriangulationError(
                        "tetrahedron %d face %d glued to unknown face %r"
                        % (i, f, g))
                if (j, g) == (i, f):
                    raise TriangulationError(
                        "tetrahedron %d face %d glued to itself" % (i, f))
                if (not isinstance(corners, list) or len(corners) != 3
                        or any(type(c) is not int or not 0 <= c <= 3
                               for c in corners)):
                    raise TriangulationError(
                        "malformed corner correspondence at tetrahedron %d "
                        "face %d" % (i, f))
                if g in corners:
                    raise TriangulationError(
                        "corner correspondence at tetrahedron %d face %d maps "
                        "a corner to the omitted vertex %d" % (i, f, g))
                sigma = [None] * 4
                for s, v in enumerate(FACE_CORNERS[f]):
                    sigma[v] = corners[s]
                sigma[f] = g
                if sorted(sigma) != [0, 1, 2, 3]:
                    raise TriangulationError(
                        "corner correspondence at tetrahedron %d face %d is "
                        "not a bijection" % (i, f))
                perm[i][f] = tuple(sigma)
                partner[i][f] = (j, g)

        # involutivity: the partner entry must be the exact inverse
        for i in range(t):
            for f in range(4):
                j, g = partner[i][f]
                if partner[j][g] != (i, f):
                    raise TriangulationError(
                        "non-involutive pairing: tetrahedron %d face %d -> "
                        "tetrahedron %d face %d -> tetrahedron %d face %d"
                        % (i, f, j, g, *partner[j][g]))
                back = perm[j][g]
                fwd = perm[i][f]
                if any(back[fwd[v]] != v for v in range(4)):
                    raise TriangulationError(
                        "non-involutive corner correspondence between "
                        "tetrahedron %d face %d and tetrahedron %d face %d"
                        % (i, f, j, g))

        self._perm = perm
        self._partner = partner

    def _compute_face_classes(self):
        classes = []
        face_class_of = {}
        for i in range(self.tet_count):
            for f in range(4):
                if (i, f) in face_class_of:
                    continue
                j, g = self._partner[i][f]
                index = len(classes)
                classes.append(FaceClass(index, (i, f), (j, g)))
                face_class_of[(i, f)] = index
                face_class_of[(j, g)] = index
        self.face_classes = tuple(classes)
        self.face_class_of = face_class_of

    def _compute_vertex_classes(self):
        t = self.tet_count
        uf = _UnionFind(4 * t)
        for i in range(t):
            for f in range(4):
                sigma = self._perm[i][f]
                j, _ = self._partner[i][f]
                for v in FACE_CORNERS[f]:
                    uf.union(4 * i + v, 4 * j + sigma[v])
        members = {}
        for i in range(t):
            for v in range(4):
                members.setdefault(uf.find(4 * i + v), []).append((i, v))
        classes = []
        vertex_class_of = {}
        for group in sorted(members.values()):
            idx = len(classes)
            classes.append(VertexClass(idx, group[0], tuple(group)))
            for inc in group:
                vertex_class_of[inc] = idx
        self.vertex_classes = tuple(classes)
        self.vertex_class_of = vertex_class_of

    def _compute_edge_classes(self, flipped):
        t = self.tet_count
        uf = _SignedUnionFind(6 * t)
        for i in range(t):
            for f in range(4):
                sigma = self._perm[i][f]
                j, _ = self._partner[i][f]
                cs = FACE_CORNERS[f]
                for a, b in ((cs[0], cs[1]), (cs[0], cs[2]), (cs[1], cs[2])):
                    x, y = sigma[a], sigma[b]
                    rel = 1 if x < y else -1
                    src = 6 * i + _EDGE_SLOT[(a, b)]
                    dst = 6 * j + _EDGE_SLOT[(min(x, y), max(x, y))]
                    if not uf.union(src, dst, rel):
                        raise TriangulationError(
                            "edge identified with itself reversing direction: "
                            "tetrahedron %d edge (%d,%d); the quotient is not "
                            "a manifold away from vertices" % (i, a, b))
        groups = {}
        for i in range(t):
            for k, (a, b) in enumerate(LOCAL_EDGES):
                root, sign = uf.relation(6 * i + k)
                groups.setdefault(root, []).append(((i, a, b), sign))
        classes = []
        edge_class_of = {}
        edge_dir = {}
        for group in sorted(groups.values()):
            group.sort()
            idx = len(classes)
            rep, rep_sign = group[0]
            flip = -1 if idx in flipped else 1
            for (member, sign) in group:
                edge_class_of[member] = idx
                edge_dir[member] = sign * rep_sign * flip
            ra, rb = rep[1], rep[2]
            tail, head = (ra, rb) if flip == 1 else (rb, ra)
            classes.append(EdgeClass(
                idx, rep, tuple(m for m, _ in group), tail, head,
                self.vertex_class_of[(rep[0], tail)],
                self.vertex_class_of[(rep[0], head)]))
        if any(e >= len(classes) or e < 0 for e in flipped):
            raise ValueError("flipped edge class out of range")
        self.edge_classes = tuple(classes)
        self.edge_class_of = edge_class_of
        self._edge_dir = edge_dir
        self._flipped = frozenset(flipped)

    def _compute_orientations(self):
        t = self.tet_count
        orientation = [0] * t
        for start in range(t):
            if orientation[start]:
                continue
            orientation[start] = 1
            queue = [start]
            while queue:
                i = queue.pop()
                for f in range(4):
                    j, _ = self._partner[i][f]
                    need = -orientation[i] * perm_sign(self._perm[i][f])
                    if orientation[j] == 0:
                        orientation[j] = need
                        queue.append(j)
                    elif orientation[j] != need:
                        raise TriangulationError(
                            "non-orientable complex: orientation conflict at "
                            "the gluing of tetrahedron %d face %d" % (i, f))
        self.tet_orientation = tuple(orientation)

    def _validate_links(self):
        from . import links as _links

        self.links = _links.build_all_links(self)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def arc_count(self):
        return 3 * len(self.face_classes)

    @property
    def disc_count(self):
        return 7 * self.tet_count

    @property
    def quad_count(self):
        return 3 * self.tet_count

    def partner(self, tet, face_slot):
        return self._partner[tet][face_slot]

    def corner_map(self, tet, face_slot):
        """The gluing of ``face_slot`` as a permutation of {0,1,2,3} (omitted
        vertex mapped to omitted vertex)."""
        return self._perm[tet][face_slot]

    def arc_of(self, tet, face_slot, corner):
        """Global index of the normal arc in the given face linking ``corner``."""
        fc = self.face_classes[self.face_class_of[(tet, face_slot)]]
        if (tet, face_slot) == fc.rep:
            c = corner
        else:
            c = self._perm[tet][face_slot][corner]
        return 3 * fc.index + _CORNER_SLOT[fc.rep[1]][c]

    def arc_info(self, arc):
        """Return (face_class, corner_slot, rep_corner) for an arc index."""
        fc = self.face_classes[arc // 3]
        slot = arc % 3
        return fc, slot, FACE_CORNERS[fc.rep[1]][slot]

    def arc_vertex(self, arc):
        """Vertex class linked by the arc."""
        fc, _, corner = self.arc_info(arc)
        return self.vertex_class_of[(fc.rep[0], corner)]

    def arc_name(self, arc):
        return "face %d corner %d" % (arc // 3, arc % 3)

    def edge_direction(self, tet, a, b):
        """+1 if the class direction of edge {a,b} runs min->max in this
        tetrahedron's labels, -1 otherwise."""
        if a > b:
            a, b = b, a
        return self._edge_dir[(tet, a, b)]

    def directed_face_edge(self, tet, face_slot, corner):
        """The edge of the face opposite ``corner`` as an ordered local pair
        (tail, head) following the global edge direction."""
        x, y = (v for v in FACE_CORNERS[face_slot] if v != corner)
        if self._edge_dir[(tet, x, y)] == 1:
            return x, y
        return y, x

    def end_cell(self, tet, cone, other):
        """The 0-cell of the link of ``cone``'s vertex class lying on edge
        {cone, other}, as a pair (edge class, end) with end 0=tail, 1=head."""
        a, b = (cone, other) if cone < other else (other, cone)
        e = self.edge_class_of[(tet, a, b)]
        tail_local = a if self._edge_dir[(tet, a, b)] == 1 else b
        return e, 0 if cone == tail_local else 1

    def cell_name(self, cell):
        e, end = cell
        return "edge %d %s" % (e, "tail" if end == 0 else "head")

    def flipped_edges(self):
        return self._flipped

    def with_edge_flipped(self, edge_class):
        """A copy of this triangulation with one edge direction reversed."""
        if not 0 <= edge_class < len(self.edge_classes):
            raise ValueError("edge class %r out of range" % (edge_class,))
        return Triangulation(self.serialize(),
                             flipped_edges=self._flipped ^ {edge_class})

    # ------------------------------------------------------------------
    # serialization

    def serialize(self):
        """The canonical JSON document for this triangulation."""
        gluings = []
        for i in range(self.tet_count):
            row = []
            for f in range(4):
                j, g = self._partner[i][f]
                sigma = self._perm[i][f]
                row.append({"tet": j, "face": g,
                            "corners": [sigma[v] for v in FACE_CORNERS[f]]})
            gluings.append(row)
        return {"tets": self.tet_count, "gluings": gluings}

    def to_text(self):
        return json.dumps(self.serialize(), indent=2, sort_keys=True) + "\n"

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.serialize() == other.serialize()
                and self._flipped == other._flipped)

    def __repr__(self):
        return "Triangulation(%d tets, %d vertices, %d edges, %d faces)" % (
            self.tet_count, len(self.vertex_classes), len(self.edge_classes),
            len(self.face_classes))


def parse_triangulation(source):
    """Parse and validate a triangulation document (JSON text or dict)."""
    return Triangulation(source)


def orient(tri):
    """Tetrahedron orientation signs of ``tri``.

    Orientations are assigned on construction (the first tetrahedron of each
    connected component gets +1); this is the identity on validated input and
    exists so the stage can be re-run and checked for determinism.
    """
    return tri


def orient_edges(tri):
    """Edge directions of ``tri``; like :func:`orient`, a validated identity."""
    return tri
