"""Closed orientable 3-pseudo-manifolds given as tetrahedra with face pairings.

Conventions used throughout the package:

* A tetrahedron has local vertices 0,1,2,3.  Face slot ``f`` is the face
  omitting local vertex ``f``; its corners, listed in increasing order, are
  ``FACE_CORNERS[f]``.
* Every face slot is glued to exactly one other face slot and the pairing is
  an involution, so the complex is closed.  A gluing is a permutation of
  {0,1,2,3} taking the corners of the source face to those of the target
  face and the omitted vertex to the omitted vertex.
* Per-slot data lives in flat sequences: face slot f of tetrahedron i at
  4i+f (its partner slot 4j+g, the index of its gluing in ``PERMS``, and
  ``face_class_at``), local vertex v at 4i+v (``vertex_class_at``), and
  local edge {a,b} at 6i+k, k its index in ``LOCAL_EDGES`` (``edge_class_at``
  and ``edge_direction_at``, +1 where the class runs a->b for a < b).
* Tetrahedron i has 7 normal disc types, disc index 7i+j: the triangles
  cutting off vertex j at j=0..3 and the quadrilaterals Q1, Q2, Q3 at
  j=4..6, where Qk separates edge {0,k} from the opposite edge.
* Tetrahedra carry orientation signs (+1/-1) such that every gluing reverses
  the induced face orientation; edge classes carry a direction, fixed by the
  lexicographically least local representative.

An orientable closed complex is a manifold away from its vertices, and the
link of every vertex class is a closed orientable surface (a sphere exactly at
manifold points), connected as the classes are its components: see
``Triangulation._compute_edge_classes`` and ``links.build_all_links``.
"""

import json
from itertools import combinations, permutations

# Corners of face slot f, in increasing local-vertex order.
FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# The six local edges of a tetrahedron as sorted vertex pairs.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_EDGE_SLOT = {pair: k for k, pair in enumerate(LOCAL_EDGES)}


def perm_sign(seq):
    """Sign of a sequence of distinct comparable values (+1 even, -1 odd)."""
    sign = 1
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _slot(a, b):
    """The index in LOCAL_EDGES of the edge {a, b}."""
    return _EDGE_SLOT[(a, b) if a < b else (b, a)]


def _edge_name(x):
    """(tet, a, b) of the local edge {a, b} (a < b) at flat index x."""
    i, k = divmod(x, 6)
    return (i,) + LOCAL_EDGES[k]


# Gluings are stored as indices into PERMS, the 24 permutations of {0,1,2,3}.
PERMS = tuple(permutations(range(4)))
_PERM_INVERSE = tuple(PERMS.index(tuple(map(sigma.index, range(4))))
                      for sigma in PERMS)
_PERM_SIGN = tuple(map(perm_sign, PERMS))

# _GLUING[(f, g, c0, c1, c2)] is the permutation taking face f to face g and
# the corners FACE_CORNERS[f] to c0, c1, c2.  A key is there exactly when it
# describes a bijection of the two faces.
_GLUING = {(f, sigma[f]) + tuple(sigma[v] for v in FACE_CORNERS[f]): p
           for p, sigma in enumerate(PERMS) for f in range(4)}

# _EDGE_UNIONS[24 * f + p] lists (k, k', rel) for the edges (c0, c1),
# (c0, c2), (c1, c2) of face f = (c0, c1, c2) glued by PERMS[p]: the gluing
# takes local edge k to edge k' of the partner tetrahedron, min->max to
# min->max when rel is +1.
_EDGE_UNIONS = tuple(
    tuple((_slot(a, b), _slot(sigma[a], sigma[b]),
           1 if sigma[a] < sigma[b] else -1)
          for a, b in combinations(FACE_CORNERS[f], 2))
    for f in range(4) for sigma in PERMS)


def _arc_edges(f, v):
    x, y = (u for u in FACE_CORNERS[f] if u != v)
    return x, y, _slot(x, y), _slot(v, x), _slot(v, y)


# ARC_EDGES[f][v] = (x, y, k, kx, ky) for the arc of face f linking its
# corner v: the edge {x, y} of the face opposite v (x < y) is local edge k,
# and the edges {v, x} and {v, y}, which hold the arc's end cells, are kx
# and ky.
ARC_EDGES = tuple({v: _arc_edges(f, v) for v in FACE_CORNERS[f]}
                  for f in range(4))


def quad_type_through(face_slot, corner):
    """The quad type whose arc in ``face_slot`` links ``corner``.

    Qk separates edge {0,k} from the opposite edge, so it cuts the four
    remaining edges; inside each face the two cut edges share one corner.
    """
    if face_slot == 0:
        return corner
    if corner == 0:
        return face_slot
    return 6 - face_slot - corner


def quad_disc(tet, quad_type):
    return 7 * tet + 3 + quad_type


class TriangulationError(ValueError):
    """Raised when a document does not describe a valid closed orientable
    3-pseudo-manifold."""


def _gluing_of(t, i, f, j, g, corners):
    """The permutation index of the gluing of tetrahedron i face f to
    tetrahedron j face g with these corners; raises the error of an entry
    that does not describe one."""
    if not (type(j) is int and 0 <= j < t):
        raise TriangulationError(
            "tetrahedron %d face %d glued to unknown tetrahedron %r"
            % (i, f, j))
    if not (type(g) is int and 0 <= g <= 3):
        raise TriangulationError(
            "tetrahedron %d face %d glued to unknown face %r" % (i, f, g))
    if (j, g) == (i, f):
        raise TriangulationError(
            "tetrahedron %d face %d glued to itself" % (i, f))
    if (not isinstance(corners, list) or len(corners) != 3
            or any(type(c) is not int or not 0 <= c <= 3 for c in corners)):
        raise TriangulationError(
            "malformed corner correspondence at tetrahedron %d face %d"
            % (i, f))
    if g in corners:
        raise TriangulationError(
            "corner correspondence at tetrahedron %d face %d maps a corner "
            "to the omitted vertex %d" % (i, f, g))
    p = _GLUING.get((f, g, *corners))
    if p is None:
        raise TriangulationError(
            "corner correspondence at tetrahedron %d face %d is not a "
            "bijection" % (i, f))
    return p


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
    least local representative.
    ``tail_vertex``/``head_vertex`` are vertex-class indices; ``slots`` are
    the flat indices 6i+k of the members, ascending.
    """

    __slots__ = ("index", "rep", "slots", "tail_local", "head_local",
                 "tail_vertex", "head_vertex")

    def __init__(self, index, slots, tail_local, head_local, tail_vertex,
                 head_vertex):
        self.index = index
        self.rep = _edge_name(slots[0])
        self.slots = slots
        self.tail_local = tail_local
        self.head_local = head_local
        self.tail_vertex = tail_vertex
        self.head_vertex = head_vertex

    @property
    def members(self):
        return tuple(map(_edge_name, self.slots))

    @property
    def valence(self):
        return len(self.slots)

    def __repr__(self):
        t, _, _ = self.rep
        return "EdgeClass(%d, tet %d %d->%d)" % (
            self.index, t, self.tail_local, self.head_local)


class VertexClass:
    """A vertex of the quotient complex; ``slots``: its 4i+v, ascending."""

    __slots__ = ("index", "rep", "slots")

    def __init__(self, index, slots):
        self.index = index
        self.rep = divmod(slots[0], 4)
        self.slots = slots

    @property
    def members(self):
        return tuple(divmod(x, 4) for x in self.slots)

    def __repr__(self):
        return "VertexClass(%d, rep=%s, degree=%d)" % (
            self.index, self.rep, len(self.slots))


class Triangulation:
    """A validated closed orientable triangulated 3-pseudo-manifold.

    Instances are immutable once constructed and safe to share between
    threads.  Construction checks the gluings and the orientability, and
    computes everything else: the face and edge classes (``face_classes``
    builds its objects on first use), orientation signs, edge directions,
    and, in ``links.build_all_links``, the vertex classes with their links
    and the discs meeting each arc (``arc_discs``).  The ``EdgeClass``
    objects, which name the vertex classes at their ends, come last.
    """

    def __init__(self, doc):
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except (ValueError, RecursionError) as exc:
                raise TriangulationError("malformed document: %s" % exc) from exc
        self._load(doc)
        self._compute_face_classes()
        self._compute_orientations()
        members = self._compute_edge_classes()
        self._cache = {}
        from . import links   # which imports this module
        self.links = links.build_all_links(self)   # and the vertex classes
        vertex_class = self.vertex_class_at
        self.edge_classes = tuple(
            EdgeClass(e, tuple(group), a, b, vertex_class[4 * i + a],
                      vertex_class[4 * i + b])
            for e, group in enumerate(members)
            for i, a, b in [_edge_name(group[0])])

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

        # One lookup accepts a well-formed entry; _gluing_of gives the
        # permutation of any other entry or raises its error.
        partner = []
        perm = []
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
                p = None
                if (type(j) is int and 0 <= j < t and type(g) is int
                        and (j != i or g != f) and type(corners) is list
                        and len(corners) == 3 and type(corners[0]) is int
                        and type(corners[1]) is int is type(corners[2])):
                    p = _GLUING.get((f, g, *corners))
                if p is None:
                    p = _gluing_of(t, i, f, j, g, corners)
                partner.append(4 * j + g)
                perm.append(p)

        # involutivity: the partner entry must be the exact inverse
        for x in range(4 * t):
            y = partner[x]
            if partner[y] != x:
                raise TriangulationError(
                    "non-involutive pairing: tetrahedron %d face %d -> "
                    "tetrahedron %d face %d -> tetrahedron %d face %d"
                    % (x >> 2, x & 3, y >> 2, y & 3,
                       partner[y] >> 2, partner[y] & 3))
            if perm[y] != _PERM_INVERSE[perm[x]]:
                raise TriangulationError(
                    "non-involutive corner correspondence between "
                    "tetrahedron %d face %d and tetrahedron %d face %d"
                    % (x >> 2, x & 3, y >> 2, y & 3))

        self._partner = partner
        self._perm = perm

    def _compute_face_classes(self):
        # slot x represents its class when its partner comes later
        partner = self._partner
        face_class = [0] * len(partner)
        for c, x in enumerate(x for x, y in enumerate(partner) if y > x):
            face_class[x] = face_class[partner[x]] = c
        self.face_class_at = tuple(face_class)

    @property
    def face_classes(self):
        """The FaceClass of every face, built on first use."""
        classes = self._cache.get("faces")
        if classes is None:
            pairs = ((x, y) for x, y in enumerate(self._partner) if y > x)
            classes = self._cache["faces"] = tuple(
                FaceClass(c, divmod(x, 4), divmod(y, 4))
                for c, (x, y) in enumerate(pairs))
        return classes

    def _compute_edge_classes(self):
        """Signed union over representative faces, with value(x) = sign[x]
        * value(root[x]); the partner side of a face imposes the same
        relations.  The larger class relabels the smaller, a circular list
        through nxt, and the lists are spliced.  Returns each class's slots,
        ascending; classes are numbered by their first slot.

        No class meets itself reversed, so no union closes a conflict.  Its
        members form one cycle round the edge, and a walk round the cycle
        turns one way; with the orientations, which every gluing respects
        once the orientation check has passed, that turn fixes a direction
        of the edge that each step carries to the next member.  (A reversed
        edge would make the link of its midpoint RP^2.)
        """
        partner, perm = self._partner, self._perm
        n = 6 * self.tet_count
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

        # A class runs min->max on its first member; first[e] is that
        # direction relative to the root's.
        label = [-1] * n
        first = []
        members = []
        for x, r in enumerate(root):
            if label[r] < 0:
                label[r] = len(members)
                first.append(sign[x])
                members.append([])
            members[label[r]].append(x)
        self.edge_class_at = edge_class = tuple([label[r] for r in root])
        self.edge_direction_at = tuple([s * first[e] for s, e
                                        in zip(sign, edge_class)])
        return members

    def _compute_orientations(self):
        t = self.tet_count
        partner, perm = self._partner, self._perm
        orientation = [0] * t
        for start in range(t):
            if orientation[start]:
                continue
            orientation[start] = 1
            queue = [start]
            while queue:
                i = queue.pop()
                for f in range(4):
                    x = 4 * i + f
                    j = partner[x] >> 2
                    need = -orientation[i] * _PERM_SIGN[perm[x]]
                    if orientation[j] == 0:
                        orientation[j] = need
                        queue.append(j)
                    elif orientation[j] != need:
                        raise TriangulationError(
                            "non-orientable complex: orientation conflict at "
                            "the gluing of tetrahedron %d face %d" % (i, f))
        self.tet_orientation = tuple(orientation)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def arc_count(self):
        return 6 * self.tet_count   # three per face, two faces per tet

    @property
    def disc_count(self):
        return 7 * self.tet_count

    @property
    def quad_count(self):
        return 3 * self.tet_count

    def partner(self, tet, face_slot):
        return divmod(self._partner[4 * tet + face_slot], 4)

    def corner_map(self, tet, face_slot):
        """The gluing of ``face_slot`` as a permutation of {0,1,2,3} (omitted
        vertex mapped to omitted vertex)."""
        return PERMS[self._perm[4 * tet + face_slot]]

    def arc_name(self, arc):
        return "face %d corner %d" % (arc // 3, arc % 3)

    def cell_name(self, cell):
        e, end = cell
        return "edge %d %s" % (e, "tail" if end == 0 else "head")

    def __repr__(self):
        return "Triangulation(%d tets, %d vertices, %d edges, %d faces)" % (
            self.tet_count, len(self.vertex_classes), len(self.edge_classes),
            2 * self.tet_count)


def parse_triangulation(source):
    """Parse and validate a triangulation document (JSON text or dict)."""
    return Triangulation(source)

