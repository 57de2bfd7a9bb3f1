"""Vertex-linking surfaces and their simplicial chain complexes.

The link of a vertex class v is the closed surface swept out by the normal
triangles cutting off v, one per incidence of v in a tetrahedron.  Its 1-cells
are the normal arcs linking v and its 0-cells sit on the ends of the edge
classes incident to v.  On a valid triangulation every link is connected and
orientable, and its homeomorphism type is determined by the Euler
characteristic.  Each link also carries a spanning tree of its dual graph
(triangles joined across arcs), grown at parse by the same walk that checks
that the link is connected; ``solver.boundary_test`` walks it.
"""

from .chains import sign_rule
from .triangulation import (FACE_CORNERS, TriangulationError,
                            quad_type_through, triangle_disc)


class VertexLink:
    """The triangulated linking surface of one vertex class.

    * ``triangles``: disc indices of the link's normal triangles, sorted.
    * ``arcs``: global arc indices of its 1-cells, sorted.
    * ``cells``: its 0-cells as (edge class, end) pairs, end 0=tail 1=head.
    * ``arc_cells[arc]``: the (tail, head) 0-cells of the oriented arc.
    * ``tree``: the spanning tree of :func:`dual_tree` rooted at the last
      triangle.

    The two link triangles along an arc, and their signs on it, are the
    arc's entry of the triangulation's ``arc_discs`` (see
    :func:`build_all_links`).
    """

    __slots__ = ("vertex", "triangles", "arcs", "cells", "arc_cells",
                 "euler_characteristic", "genus", "is_sphere", "tree")

    def __init__(self, vertex, triangles, arcs, cells, arc_cells,
                 euler_characteristic, arc_discs):
        self.vertex = vertex
        self.triangles = triangles
        self.arcs = arcs
        self.cells = cells
        self.arc_cells = arc_cells
        self.euler_characteristic = euler_characteristic
        self.genus = (2 - euler_characteristic) // 2
        self.is_sphere = euler_characteristic == 2
        self.tree = dual_tree(self, len(triangles) - 1, arc_discs)

    def __repr__(self):
        return "VertexLink(vertex %d, %d triangles, chi %d)" % (
            self.vertex, len(self.triangles), self.euler_characteristic)


def build_all_links(tri):
    """Build the link of every vertex class in one pass over the face, edge
    and vertex classes; raises if a link is not a closed connected
    orientable surface.

    The same pass decides which discs meet each arc, and with what sign, for
    the whole triangulation.  It stores ``tri.arc_discs[arc] = (s, tri_a,
    tri_b, quad_a, quad_b)``: the triangle disc ``tri_a`` and the quad
    ``quad_a`` (an index 3i+k-1 of the quad vector) of the representative
    side of the arc's face have coefficient ``s`` on the arc, and those of
    the other side, ``tri_b`` and ``quad_b``, have ``-s``.  On a face glued
    to another face of its own tetrahedron the two triangles can be one
    disc, whose terms cancel; the two quads are always different types.
    """
    count = len(tri.vertex_classes)
    arcs = [[] for _ in range(count)]
    arc_cells = [{} for _ in range(count)]
    arc_discs = []
    for fc in tri.face_classes:
        i, f = fc.rep
        sigma = tri.corner_map(i, f)
        j, g = fc.other
        orientation = tri.tet_orientation[i]
        for slot, corner in enumerate(FACE_CORNERS[f]):
            vertex = tri.vertex_class_of[(i, corner)]
            arc = 3 * fc.index + slot
            arcs[vertex].append(arc)
            p, q = tri.directed_face_edge(i, f, corner)
            arc_cells[vertex][arc] = (tri.end_cell(i, corner, p),
                                      tri.end_cell(i, corner, q))
            arc_discs.append((sign_rule(orientation, corner, p, q, f),
                              triangle_disc(i, corner),
                              triangle_disc(j, sigma[corner]),
                              3 * i + quad_type_through(f, corner) - 1,
                              3 * j + quad_type_through(g, sigma[corner]) - 1))
    tri.arc_discs = arc_discs = tuple(arc_discs)
    cells = [[] for _ in range(count)]
    for e in tri.edge_classes:
        cells[e.tail_vertex].append((e.index, 0))
        cells[e.head_vertex].append((e.index, 1))
    return tuple(
        _checked_link(vc.index,
                      tuple(sorted(triangle_disc(t, v) for t, v in vc.members)),
                      tuple(arcs[vc.index]), tuple(sorted(cells[vc.index])),
                      arc_cells[vc.index], arc_discs)
        for vc in tri.vertex_classes)


def _checked_link(vertex, triangles, arcs, cells, arc_cells, arc_discs):
    """The VertexLink of these cells, once its Euler characteristic is even
    and its spanning tree reaches every triangle."""
    chi = len(cells) - len(arcs) + len(triangles)
    if chi % 2 != 0:
        raise TriangulationError(
            "link of vertex %d has odd Euler characteristic %d; not an "
            "orientable surface" % (vertex, chi))
    link = VertexLink(vertex, triangles, arcs, cells, arc_cells, chi,
                      arc_discs)
    if len(link.tree[0]) != len(triangles) - 1:
        raise TriangulationError("link of vertex %d is disconnected" % vertex)
    return link


def dual_tree(link, root, arc_discs):
    """A spanning tree of the link's dual graph, grown breadth first from
    the triangle at position ``root`` of ``link.triangles``; each arc's two
    triangles and sign are its entry of ``arc_discs``.

    Returns (steps, closing).  A step (k, d, nb, s) crosses the tree arc at
    position k of ``link.arcs`` from triangle d to triangle nb, where s is
    the arc's coefficient in the boundary of d (d and nb are positions in
    ``link.triangles``).  A closing entry (k, d, nb, s) is an arc outside
    the tree in the same form; an arc whose two sides lie on one triangle is
    closing with d = nb and s = 0.  The steps reach every triangle exactly
    when the link is connected.
    """
    index = {d: k for k, d in enumerate(link.triangles)}
    neighbours = [[] for _ in link.triangles]
    closing = []
    for k, arc in enumerate(link.arcs):
        s, d1, d2, _, _ = arc_discs[arc]
        d, nb = index[d1], index[d2]
        if d == nb:
            closing.append((k, d, d, 0))
        else:
            neighbours[d].append((k, nb, s))
            neighbours[nb].append((k, d, -s))
    steps = []
    used = [False] * len(link.arcs)
    seen = [False] * len(link.triangles)
    seen[root] = True
    queue = [root]
    for d in queue:    # the queue grows while it is read
        for k, nb, s in neighbours[d]:
            if used[k]:
                continue
            used[k] = True
            if seen[nb]:
                closing.append((k, d, nb, s))
            else:
                seen[nb] = True
                steps.append((k, d, nb, s))
                queue.append(nb)
    return steps, closing


# Not used by the package.  perfbench/test_bench.py's tracer test expects
# every traced target but ``solver.smith_normal_form`` to exist, and
# ``links.projection`` is one of them.
def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    arcs = set(link.arcs)
    return [c if arc in arcs else 0 for arc, c in enumerate(chain1)]
