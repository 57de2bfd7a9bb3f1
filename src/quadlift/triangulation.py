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
  4i+f (its partner slot 4j+g and the index of its gluing in ``PERMS``),
  local vertex v at 4i+v (``vertex_class_at``), and local edge {a,b} at
  6i+k, k its index in ``LOCAL_EDGES`` (``edge_class_at`` and
  ``edge_direction_at``, +1 where the class runs a->b for a < b).
* Tetrahedron i has 7 normal disc types, disc index 7i+j: the triangles
  cutting off vertex j at j=0..3 and the quadrilaterals Q1, Q2, Q3 at
  j=4..6, where Qk separates edge {0,k} from the opposite edge.
* Tetrahedra carry orientation signs (+1/-1) such that every gluing reverses
  the induced face orientation; edge classes, found by walking round each
  edge, carry a direction, fixed by the lexicographically least local
  representative.

An orientable closed complex is a manifold away from its vertices, and the
link of every vertex class is a closed orientable surface (a sphere exactly at
manifold points), connected as the classes are its components: see
``Triangulation._compute_edge_classes`` and ``links.build_all_links``.
"""

import json
from itertools import permutations

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


def edge_ends(x, direction):
    """The slots 4i+a and 4i+b of the tail and head of an edge class with
    member x = 6i+k of direction ``direction`` there: the class runs along
    LOCAL_EDGES[k] where that is +1, and back where it is -1."""
    a, b = LOCAL_EDGES[x % 6][::direction]
    return x // 6 * 4 + a, x // 6 * 4 + b


# Gluings are stored as indices into PERMS, the 24 permutations of {0,1,2,3}.
PERMS = tuple(permutations(range(4)))
_PERM_INVERSE = tuple(PERMS.index(tuple(map(sigma.index, range(4))))
                      for sigma in PERMS)
_PERM_SIGN = tuple(map(perm_sign, PERMS))
_SIGN = dict(zip(PERMS, _PERM_SIGN))   # the signs keyed by permutation

# _GLUING[(f, g, c0, c1, c2)] is the permutation taking face f to face g and
# the corners FACE_CORNERS[f] to c0, c1, c2.  A key is there exactly when it
# describes a bijection of the two faces.
_GLUING = {(f, sigma[f]) + tuple(sigma[v] for v in FACE_CORNERS[f]): p
           for p, sigma in enumerate(PERMS) for f in range(4)}

def _step(k, c, sigma):
    a, b = LOCAL_EDGES[k]
    d = 6 - a - b - c   # the fourth vertex, which is in both faces
    rel = 1 if sigma[a] < sigma[b] else -1
    return _slot(sigma[a], sigma[b]), sigma[d], rel


# _STEP[96 * k + 24 * c + p] = (k', c', rel) for local edge k and a face
# holding it, the one omitting c, glued by PERMS[p]: the gluing takes edge k
# to edge k' of the partner tetrahedron, min->max to min->max when rel is +1,
# and c' is omitted by the partner's other face on edge k'.
_STEP = tuple(None if c in LOCAL_EDGES[k] else _step(k, c, sigma)
              for k in range(6) for c in range(4) for sigma in PERMS)
# the first face holding local edge k omits _FIRST_FACE[k]
_FIRST_FACE = tuple(min({0, 1, 2, 3}.difference(pair)) for pair in LOCAL_EDGES)


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


class EdgeClass:
    """An edge class of the quotient complex: ``slots``, the flat indices
    6i+k of its members, ascending, and ``members``, their (tet, a, b) with
    a < b.  Its direction and ends are in the flat tables
    (``edge_direction_at``, :func:`edge_ends`)."""

    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = slots

    @property
    def members(self):
        return tuple((x // 6,) + LOCAL_EDGES[x % 6] for x in self.slots)


def _members(class_at):
    """The slots of each class of the per-slot ``class_at``, ascending, in
    class order: the classes are numbered in order of first slot."""
    members = {}
    for x, c in enumerate(class_at):
        members.setdefault(c, []).append(x)
    return tuple(map(tuple, members.values()))


class Triangulation:
    """A validated closed orientable triangulated 3-pseudo-manifold.

    Instances are immutable once constructed and safe to share between
    threads.  Construction checks the gluings and the orientability, and
    computes the orientation signs, the edge classes with their directions
    (``edge_class_at``, ``edge_direction_at``) and, in
    ``links.build_all_links``, the vertex classes (``vertex_class_at``),
    their links and ``forest``, the discs of each arc (``arc_discs``) and
    the link of each arc (``arc_link``).
    What only a report or a test reads is built on first use: the ends of
    an arc (``arc_end_ids(arcs)``, ``arc_ends(arc)``), each link's ``arcs``,
    ``arc_cells`` and 0-cell count (with the Euler characteristic it gives),
    the slot tuples of ``vertex_classes`` and the ``EdgeClass`` objects of
    ``edge_classes``, which hold only their members.  The gluings stay in the flat per-slot
    ``_partner`` and ``_perm``.
    """

    def __init__(self, doc):
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except (ValueError, RecursionError) as exc:
                raise TriangulationError("malformed document: %s" % exc) from exc
        self._load(doc)
        self._compute_orientations()
        self._compute_edge_classes()
        self._cache = {}
        from . import links   # which imports this module
        self.links = links.build_all_links(self)   # and vertex_class_at

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

    @property
    def vertex_classes(self):
        """The slots 4i+v of every vertex class, ascending, built on first
        use."""
        classes = self._cache.get("vertices")
        if classes is None:
            classes = self._cache["vertices"] = _members(self.vertex_class_at)
        return classes

    @property
    def edge_classes(self):
        """The EdgeClass of every edge class, built on first use."""
        classes = self._cache.get("edges")
        if classes is None:
            classes = self._cache["edges"] = tuple(
                map(EdgeClass, _members(self.edge_class_at)))
        return classes

    def _compute_edge_classes(self):
        """Walk round each edge.  Local edge k of tetrahedron i lies in two
        of its faces; crossing one of them, by its gluing, reaches a local
        edge of the partner tetrahedron, which the walk leaves by its other
        face (``_STEP``).  Every face is glued to exactly one other, so these
        steps pair the (slot, face) incidences, and a class is one cycle
        round the edge that meets each member once: the walk from the
        class's first slot, slots taken in ascending order, visits the class
        and returns there.  Classes are numbered by their first slot, where
        the direction is +1 (min->max), and each step carries it by rel.

        The direction closes up round the cycle.  A walk round the edge
        turns one way; with the orientations, which every gluing respects
        once the orientation check has passed, that turn fixes a direction
        of the edge that each step carries to the next member, so no class
        meets itself reversed.  (A reversed edge would make the link of its
        midpoint RP^2.)
        """
        partner, perm = self._partner, self._perm
        n = 6 * self.tet_count
        edge_class = [-1] * n
        direction = [1] * n
        first = []   # first[e]: the first slot of class e
        for start in range(n):
            if edge_class[start] >= 0:
                continue
            i, k = divmod(start, 6)
            c, d, x, e = _FIRST_FACE[k], 1, start, len(first)
            first.append(start)
            while True:
                edge_class[x] = e
                direction[x] = d
                y = 4 * i + c
                k, c, rel = _STEP[96 * k + 24 * c + perm[y]]
                i = partner[y] >> 2
                x = 6 * i + k
                if x == start:
                    break
                d *= rel
        self._edge_first = first
        self.edge_class_at = tuple(edge_class)
        self.edge_direction_at = tuple(direction)

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

    def arc_name(self, arc):
        return "face %d corner %d" % (arc // 3, arc % 3)

    def cell_name(self, cell):
        e, end = cell
        return "edge %d %s" % (e, "tail" if end == 0 else "head")

    def __repr__(self):
        return "Triangulation(%d tets, %d vertices, %d edges, %d faces)" % (
            self.tet_count, len(self.links), len(self._edge_first),
            2 * self.tet_count)


def parse_triangulation(source):
    """Parse and validate a triangulation document (JSON text or dict)."""
    return Triangulation(source)

