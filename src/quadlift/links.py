"""Vertex-linking surfaces and their simplicial chain complexes.

The normal triangles, joined across the normal arcs, form one graph on the
triangle discs, and its components are the vertex classes.  The link of a
class v is the closed surface its triangles sweep out; its 1-cells are the
arcs linking v and its 0-cells sit on the ends of the edge classes incident
to v.  The link pass grows one breadth-first forest over the graph, which
numbers the classes and is what ``solver.boundary_test`` walks, all links
in one pass.  Every link is connected by definition and orientable (see
:func:`build_all_links`), so the Euler characteristic fixes its type.
"""

from functools import cache, partial
from itertools import product
from operator import itemgetter

from .triangulation import (_SIGN, FACE_CORNERS, PERMS, _slot, edge_ends,
                            quad_type_through)


def _arc_rows(f, sigma):
    """Per corner v of face f glued by sigma: (v, sigma[v], the disc
    offsets 3+k of the quads Qk through the arc on each side, the local
    edge of the face's edge {x, y} opposite v, and the sign rule of
    ``chains`` for orientation +1 and x->y)."""
    rows = []
    for v in FACE_CORNERS[f]:
        x, y = (u for u in FACE_CORNERS[f] if u != v)
        rows.append((v, sigma[v], quad_type_through(f, v) + 3,
                     quad_type_through(sigma[f], sigma[v]) + 3,
                     _slot(x, y), _SIGN[v, x, y, f]))
    return tuple(rows)


# _ARC_ROWS[24 * f + p]: the rows of face f glued by PERMS[p].
_ARC_ROWS = tuple(_arc_rows(f, sigma) for f in range(4) for sigma in PERMS)


def _end_row(f, v):
    """(k, kx, lx, ky, ly): the local edges of {x, y}, {v, x} and {v, y} for
    the arc of face f linking v, with lx, ly +1 when v is the lower end."""
    x, y = (u for u in FACE_CORNERS[f] if u != v)
    return (_slot(x, y), _slot(v, x), 1 if v < x else -1,
            _slot(v, y), 1 if v < y else -1)


# _END_ROWS[3 * v + k - 1]: the _end_row of the one arc linking v that Qk
# meets; the lookup fails at import unless the 12 arcs give 12 keys.
_BY_QUAD = {3 * v + quad_type_through(f, v) - 1: _end_row(f, v)
            for f in range(4) for v in FACE_CORNERS[f]}
_END_ROWS = tuple(_BY_QUAD[n] for n in range(12))


def arc_end_ids(rows, edge_class, edge_dir, arcs):
    """The 0-cells at the ends of ``arcs`` as ids 2e + end, tail then head
    of each arc in turn.  ``tri.arc_end_ids(arcs)`` binds the tables."""
    ids = []
    for arc in arcs:
        _, d, _, quad, _ = rows[arc]
        # the row's triangle d = 7i+v and quad 7i+3+k name the arc's face:
        # 3d + quad - 4 is 28i + 3v + k - 1
        k, kx, lx, ky, ly = _END_ROWS[(3 * d + quad - 4) % 28]
        base = d // 7 * 6
        kx += base
        ky += base
        # the cell on edge {v, x} is its tail (end 0) when v is the tail,
        # that is when the edge's direction equals lx
        tail = 2 * edge_class[kx] + (edge_dir[kx] != lx)
        head = 2 * edge_class[ky] + (edge_dir[ky] != ly)
        ids += (tail, head) if edge_dir[base + k] == 1 else (head, tail)
    return ids


def cell_tuples(count):
    """The 0-cells (edge class, end) of ``count`` edge classes as tuples,
    the tail and then the head of each class in turn."""
    return list(product(range(count), (0, 1)))


def arc_ends(end_ids, cell_list, arc):
    """The (tail, head) 0-cells of an arc, the tuples of ``cell_list()`` at
    its ``end_ids``.  ``tri.arc_ends(arc)`` binds the tables."""
    tail, head = end_ids((arc,))
    cell = cell_list()
    return cell[tail], cell[head]


def link_cell_counts(first, vertex_class, count):
    """The number of 0-cells of each of the ``count`` links, by one scan
    over the edge classes: each end of class e (first member ``first[e]``)
    is a 0-cell of the link of the vertex there."""
    counts = [0] * count
    for x in first:
        tail, head = edge_ends(x, 1)
        counts[vertex_class[tail]] += 1
        counts[vertex_class[head]] += 1
    return counts


class VertexLink:
    """The triangulated linking surface of one vertex class.

    * ``triangles``: disc indices of the link's normal triangles, sorted.
    * ``arcs``: global arc indices of its 1-cells, sorted.
    * ``euler_characteristic``, ``genus`` and ``is_sphere`` count its
      0-cells, entry ``vertex`` of ``cell_counts()``, which gives the count
      of every link (:func:`link_cell_counts`).  A 0-cell is an (edge class,
      end) pair, end 0=tail 1=head.
    * ``arc_cells[arc]``: the (tail, head) 0-cells of the oriented arc, by
      ``ends``, the triangulation's ``arc_ends``; built on first use.
    * ``gather(w)``: the tuple of a disc-indexed ``w`` at ``triangles``.
    * ``tree``: (steps, closing), the slices ``span`` of the dual forest
      ``forest`` of :func:`build_all_links` that are the link's tree,
      rooted at the last triangle.  A step (arc, d, nb, s) crosses a tree
      arc from triangle disc d to disc nb, where s is the arc's coefficient
      in the boundary of d; the steps reach every triangle.  A closing
      entry is an arc outside the tree in the same form; an arc whose two
      sides lie on one triangle is closing with d = nb and s = 0.  Each arc
      is one entry; arcs and discs are global indices.

    The two link triangles along an arc, and their signs on it, are the
    arc's entry of the triangulation's ``arc_discs``.  A link holds no
    reference to the triangulation.
    """

    __slots__ = ("vertex", "triangles", "cell_counts", "gather", "forest",
                 "span", "ends", "_arc_cells")

    def __init__(self, vertex, triangles, cell_counts, forest, span, ends):
        self.vertex = vertex
        self.triangles = triangles
        self.cell_counts = cell_counts
        self.gather = itemgetter(*triangles)
        self.forest = forest
        self.span = span
        self.ends = ends
        self._arc_cells = None

    @property
    def euler_characteristic(self):
        start, end, first, last = self.span
        return (self.cell_counts()[self.vertex] - (end - start + last - first)
                + len(self.triangles))

    @property
    def genus(self):
        return (2 - self.euler_characteristic) // 2

    @property
    def is_sphere(self):
        return self.euler_characteristic == 2

    @property
    def tree(self):
        (steps, closing), (start, end, first, last) = self.forest, self.span
        return steps[start:end], closing[first:last]

    @property
    def arc_cells(self):
        if self._arc_cells is None:
            steps, closing = self.tree
            self._arc_cells = {arc: self.ends(arc) for arc in sorted(
                [entry[0] for entry in steps + closing])}
        return self._arc_cells

    @property
    def arcs(self):
        return tuple(self.arc_cells)

    def __repr__(self):
        return "VertexLink(vertex %d, %d triangles, chi %d)" % (
            self.vertex, len(self.triangles), self.euler_characteristic)


def build_all_links(tri):
    """Decide the vertex classes and build the link of each, in one pass
    over the face classes and one breadth-first forest over the discs.

    The arc of face f of tetrahedron i linking corner v joins the triangles
    (i, v) and (j, sigma[v]) of the face's gluing sigma.  A vertex class is
    a component of the graph these arcs make, numbered by its first slot
    (``tri.vertex_class_at``), and its link is the component, so it is
    connected by definition.  Every link is also a closed orientable
    surface, which is not checked.  Closed: each arc has a triangle on
    either side, and the triangles round a 0-cell (edge class, end) form
    one disc, as the edge class is one cycle that never meets itself
    reversed (see ``Triangulation._compute_edge_classes``).
    Orientable, so of even Euler characteristic: the two triangles on an
    arc give it opposite signs (``s`` and ``-s`` below), as every gluing
    reverses the face orientation.

    The same pass decides which discs meet each arc, and with what sign,
    for the whole triangulation.  It stores ``tri.arc_discs[arc] = (s,
    tri_a, tri_b, quad_a, quad_b)``: the triangle disc ``tri_a`` and the
    quad disc ``quad_a`` (7i+3+k for Qk of tetrahedron i) of the
    representative side of the arc's face have coefficient ``s`` on the
    arc, and those of the other side, ``tri_b`` and ``quad_b``, have
    ``-s``; this table is the boundary matrix, a row per arc
    (``chains.BoundaryMatrix``).  On a face glued to another face of its own
    tetrahedron the two triangles can be one disc, whose terms cancel; the
    two quads are always different types.  The ends of an arc
    (:func:`arc_end_ids`, :func:`arc_ends`), each link's ``arcs`` and
    ``arc_cells``, the 0-cell count of every link (:func:`link_cell_counts`)
    and the 0-cell tuples the arcs share (:func:`cell_tuples`) are built on
    first use.

    The forest visits the triangles in descending order, so each tree grows
    breadth first from its link's last triangle, through each disc's arcs
    in index order; an arc whose two sides lie on one disc is no edge of
    the graph and goes first into the closing arcs.  ``tri.forest`` is
    (steps, closing): the steps of every tree in the order they grow, and
    the closing arcs link after link; each link's tree is a slice of each.
    The arcs of the discs sit in two flat lists: a list per disc (7t lists)
    made the garbage collector run a third more often in a parse-and-lift
    loop.
    """
    edge_class, edge_dir = tri.edge_class_at, tri.edge_direction_at
    orientation, perm = tri.tet_orientation, tri._perm
    first = tri._edge_first   # first[e]: the first member 6i+k of class e
    # one tuple per 0-cell (edge class, end), shared by every arc, made on
    # the first read of any
    cell_list = cache(partial(cell_tuples, len(first)))
    # sides[3d:3d + fill[d]]: the arcs of disc d, in index order
    sides = [0] * (21 * tri.tet_count)
    fill = [0] * (7 * tri.tet_count)
    arc_discs = []
    loops = []     # (arc, d, d, 0) for an arc whose two sides lie on disc d
    # face classes in the order of their representative slots x < y
    for x, y in enumerate(tri._partner):
        if y < x:
            continue
        i = x >> 2
        di, dj, ki, o = 7 * i, 7 * (y >> 2), 6 * i, orientation[i]
        for v, image, qa, qb, k, s in _ARC_ROWS[24 * (x & 3) + perm[x]]:
            arc = len(arc_discs)
            d, nb = di + v, dj + image
            arc_discs.append((s * o * edge_dir[ki + k], d, nb, di + qa,
                              dj + qb))
            if d != nb:
                sides[3 * d + fill[d]] = sides[3 * nb + fill[nb]] = arc
                fill[d] += 1
                fill[nb] += 1
            else:
                loops.append((arc, d, d, 0))
    tri.arc_discs = arc_discs = tuple(arc_discs)
    used = [False] * len(arc_discs)
    seen = [False] * len(fill)
    steps = []     # the steps of every tree, tree after tree
    trees = []     # (triangles, start and end of its steps, its closing)
    for root in range(len(fill) - 1, -1, -1):
        if root % 7 > 3 or seen[root]:
            continue
        seen[root] = True
        start, closing = len(steps), []
        queue = [root]
        for d in queue:    # the queue grows while it is read
            for arc in sides[3 * d:3 * d + fill[d]]:
                if used[arc]:
                    continue
                used[arc] = True
                s, a, nb, _, _ = arc_discs[arc]
                if a != d:
                    nb, s = a, -s
                if seen[nb]:
                    closing.append((arc, d, nb, s))
                else:
                    seen[nb] = True
                    steps.append((arc, d, nb, s))
                    queue.append(nb)
        queue.sort()
        trees.append((queue, start, len(steps), closing))
    trees.sort()   # by first triangle, which no two trees share
    # disc 7i+v is the triangle of slot 4i+v
    vertex_class = [0] * (4 * tri.tet_count)
    for c, (triangles, _, _, _) in enumerate(trees):
        for d in triangles:
            vertex_class[d - 3 * (d // 7)] = c
    tri.vertex_class_at = vertex_class = tuple(vertex_class)
    closings = [[] for _ in trees]
    for entry in loops:   # disc 7i+v is the triangle of slot 4i+v
        closings[vertex_class[entry[1] - 3 * (entry[1] // 7)]].append(entry)
    closing = []
    tri.forest = forest = (steps, closing)
    tri.arc_end_ids = end_ids = partial(arc_end_ids, arc_discs, edge_class,
                                        edge_dir)
    tri.arc_ends = ends = partial(arc_ends, end_ids, cell_list)
    cell_counts = cache(partial(link_cell_counts, first, vertex_class,
                                len(trees)))
    links = []
    for c, (triangles, start, end, tree_closing) in enumerate(trees):
        opening = len(closing)
        closing += closings[c] + tree_closing
        links.append(VertexLink(c, tuple(triangles), cell_counts, forest,
                                (start, end, opening, len(closing)), ends))
    return tuple(links)


# Not used by the package.  perfbench/test_bench.py's tracer test expects
# every traced target but ``solver.smith_normal_form`` to exist, and
# ``links.projection`` is one of them.
def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    arcs = set(link.arcs)
    return [c if arc in arcs else 0 for arc, c in enumerate(chain1)]
