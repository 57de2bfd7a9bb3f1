"""Vertex-linking surfaces and their simplicial chain complexes.

The normal triangles, joined across the normal arcs, form one graph on the
triangle discs, and its components are the vertex classes.  The link of a
class v is the closed surface its triangles sweep out; its 1-cells are the
arcs linking v and its 0-cells sit on the ends of the edge classes incident
to v.  The link pass grows one breadth-first forest over the graph, which
numbers the classes and gives each link the tree ``solver.boundary_test``
walks.  Every link is connected by definition and orientable (see
:func:`build_all_links`), so the Euler characteristic fixes its type.
"""

from .triangulation import (ARC_EDGES, FACE_CORNERS, LOCAL_EDGES, PERMS,
                            VertexClass, perm_sign, quad_type_through)


def _arc_rows(f, sigma):
    """Per corner v of face f glued by sigma: (v, sigma[v], the quad
    offsets k-1 through the arc on each side, the local edge of its edge
    {x, y}, the sign rule of ``chains`` for orientation +1 and x->y, and the
    local edges of its end cells, each with +1 when v is the lower end)."""
    rows = []
    for v in FACE_CORNERS[f]:
        x, y, k, kx, ky = ARC_EDGES[f][v]
        rows.append((v, sigma[v], quad_type_through(f, v) - 1,
                     quad_type_through(sigma[f], sigma[v]) - 1,
                     k, perm_sign((v, x, y, f)),
                     kx, 1 if v < x else -1, ky, 1 if v < y else -1))
    return tuple(rows)


# _ARC_ROWS[24 * f + p]: the rows of face f glued by PERMS[p].
_ARC_ROWS = tuple(_arc_rows(f, sigma) for f in range(4) for sigma in PERMS)


class VertexLink:
    """The triangulated linking surface of one vertex class.

    * ``triangles``: disc indices of the link's normal triangles, sorted.
    * ``arcs``: global arc indices of its 1-cells, sorted.
    * ``cells``: its 0-cells as (edge class, end) pairs, end 0=tail 1=head.
    * ``arc_cells[arc]``: the (tail, head) 0-cells of the oriented arc.
    * ``tree``: (steps, closing), the link's tree of the dual forest of
      :func:`build_all_links`, rooted at the last triangle.  A step (arc,
      d, nb, s) crosses a tree arc from triangle disc d to disc nb, where s
      is the arc's coefficient in the boundary of d; the steps reach every
      triangle.  A closing entry is an arc outside the tree in the same
      form; an arc whose two sides lie on one triangle is closing with
      d = nb and s = 0.  Arcs and discs are global indices.

    The two link triangles along an arc, and their signs on it, are the
    arc's entry of the triangulation's ``arc_discs``.
    """

    __slots__ = ("vertex", "triangles", "arcs", "cells", "arc_cells",
                 "euler_characteristic", "genus", "is_sphere", "tree")

    def __init__(self, vertex, triangles, arcs, cells, arc_cells, tree):
        self.vertex = vertex
        self.triangles = triangles
        self.arcs = arcs
        self.cells = cells
        self.arc_cells = arc_cells
        chi = len(cells) - len(arcs) + len(triangles)
        self.euler_characteristic = chi
        self.genus = (2 - chi) // 2
        self.is_sphere = chi == 2
        self.tree = tree

    def __repr__(self):
        return "VertexLink(vertex %d, %d triangles, chi %d)" % (
            self.vertex, len(self.triangles), self.euler_characteristic)


def build_all_links(tri):
    """Decide the vertex classes and build the link of each, in one pass
    over the face classes and one breadth-first forest over the discs.

    The arc of face f of tetrahedron i linking corner v joins the triangles
    (i, v) and (j, sigma[v]) of the face's gluing sigma.  A vertex class is
    a component of the graph these arcs make, numbered by its first slot
    (``tri.vertex_classes`` and ``tri.vertex_class_at``), and its link is
    the component, so it is connected by definition.  Every link is also a
    closed orientable surface, which is not checked.  Closed: each arc has a
    triangle on either side, and the triangles round a 0-cell (edge class,
    end) form one disc, as the edge class is one cycle that never meets
    itself reversed (see ``Triangulation._compute_edge_classes``).
    Orientable, so of even Euler characteristic: the two triangles on an
    arc give it opposite signs (``s`` and ``-s`` below), as every gluing
    reverses the face orientation.

    The same pass decides which discs meet each arc, and with what sign, for
    the whole triangulation.  It stores ``tri.arc_discs[arc] = (s, tri_a,
    tri_b, quad_a, quad_b)``: the triangle disc ``tri_a`` and the quad
    ``quad_a`` (an index 3i+k-1 of the quad vector) of the representative
    side of the arc's face have coefficient ``s`` on the arc, and those of
    the other side, ``tri_b`` and ``quad_b``, have ``-s``.  On a face glued
    to another face of its own tetrahedron the two triangles can be one
    disc, whose terms cancel; the two quads are always different types.

    The forest visits the triangles in descending order, so each tree grows
    breadth first from its link's last triangle, through each disc's arcs
    in index order; an arc whose two sides lie on one disc is no edge of
    the graph and goes first into the closing arcs.  The arcs of the discs
    sit in two flat lists: a list per disc (7t lists) made the garbage
    collector run a third more often in a parse-and-lift loop.
    """
    edge_class, edge_dir = tri.edge_class_at, tri.edge_direction_at
    orientation, perm = tri.tet_orientation, tri._perm
    # first[e]: the first member 6i+k of edge class e, which numbers them
    first = []
    for x, e in enumerate(edge_class):
        if e == len(first):
            first.append(x)
    # one tuple per 0-cell (edge class, end), shared by every arc there
    cell = [(e, end) for e in range(len(first)) for end in (0, 1)]
    ends = []   # ends[arc]: the (tail, head) 0-cells of the oriented arc
    # sides[3d:3d + fill[d]]: the arcs of disc d, in index order
    sides = [0] * (21 * tri.tet_count)
    fill = [0] * (7 * tri.tet_count)
    arc_discs = []
    # face classes in the order of their representative slots x < y
    for x, y in enumerate(tri._partner):
        if y < x:
            continue
        i, j = x >> 2, y >> 2
        o = orientation[i]
        for (v, image, quad_a, quad_b, k, s, kx, lx, ky, ly
             ) in _ARC_ROWS[24 * (x & 3) + perm[x]]:
            arc = len(arc_discs)
            kx += 6 * i
            ky += 6 * i
            # the cell on edge {v, x} is its tail (end 0) when v is the tail,
            # that is when the edge's direction equals lx
            cell_x = cell[2 * edge_class[kx] + ((1 - edge_dir[kx] * lx) >> 1)]
            cell_y = cell[2 * edge_class[ky] + ((1 - edge_dir[ky] * ly) >> 1)]
            if edge_dir[6 * i + k] == 1:
                ends.append((cell_x, cell_y))
            else:
                ends.append((cell_y, cell_x))
                s = -s
            s *= o
            d, nb = 7 * i + v, 7 * j + image
            arc_discs.append((s, d, nb, 3 * i + quad_a, 3 * j + quad_b))
            if d != nb:
                sides[3 * d + fill[d]] = sides[3 * nb + fill[nb]] = arc
                fill[d] += 1
                fill[nb] += 1
    tri.arc_discs = arc_discs = tuple(arc_discs)
    used = [False] * len(arc_discs)
    seen = [False] * len(fill)
    trees = []
    for root in range(len(fill) - 1, -1, -1):
        if root % 7 > 3 or seen[root]:
            continue
        seen[root] = True
        steps, closing = [], []
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
        trees.append((queue, steps, closing))
    trees.sort()   # by first triangle, which no two trees share
    # disc 7i+v is the triangle of slot 4i+v
    vertex_class = [0] * (4 * tri.tet_count)
    classes = []
    for c, (triangles, _, _) in enumerate(trees):
        slots = tuple([d - 3 * (d // 7) for d in triangles])
        for x in slots:
            vertex_class[x] = c
        classes.append(VertexClass(c, slots))
    tri.vertex_classes = tuple(classes)
    tri.vertex_class_at = vertex_class = tuple(vertex_class)
    arcs = [[] for _ in trees]
    arc_cells = [{} for _ in trees]
    closings = [[] for _ in trees]
    for arc, (_, d, nb, _, _) in enumerate(arc_discs):
        c = vertex_class[d - 3 * (d // 7)]
        arcs[c].append(arc)
        arc_cells[c][arc] = ends[arc]
        if d == nb:
            closings[c].append((arc, d, d, 0))
    # edge class e runs from a to b on its first member 6i+k: the ends of
    # LOCAL_EDGES[k], reversed where its direction there is -1
    cells = [[] for _ in trees]
    for e, x in enumerate(first):
        a, b = LOCAL_EDGES[x % 6][::edge_dir[x]]
        cells[vertex_class[x // 6 * 4 + a]].append(cell[2 * e])
        cells[vertex_class[x // 6 * 4 + b]].append(cell[2 * e + 1])
    return tuple(VertexLink(c, tuple(triangles), tuple(arcs[c]),
                            tuple(cells[c]), arc_cells[c],
                            (steps, closings[c] + closing))
                 for c, (triangles, steps, closing) in enumerate(trees))


# Not used by the package.  perfbench/test_bench.py's tracer test expects
# every traced target but ``solver.smith_normal_form`` to exist, and
# ``links.projection`` is one of them.
def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    arcs = set(link.arcs)
    return [c if arc in arcs else 0 for arc, c in enumerate(chain1)]
