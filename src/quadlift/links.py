"""Vertex-linking surfaces and their simplicial chain complexes.

The link of a vertex class v is the closed surface swept out by the normal
triangles cutting off v, one per incidence of v in a tetrahedron.  Its 1-cells
are the normal arcs linking v and its 0-cells sit on the ends of the edge
classes incident to v.  On a valid triangulation every link is connected and
orientable, and its homeomorphism type is determined by the Euler
characteristic.
"""

from .triangulation import (FACE_CORNERS, TriangulationError, triangle_disc)

__all__ = [
    "VertexLink",
    "build_all_links",
    "fundamental_class",
    "link_boundary_restriction_check",
]


class VertexLink:
    """The triangulated linking surface of one vertex class.

    * ``triangles``: disc indices of the link's normal triangles, sorted.
    * ``arcs``: global arc indices of its 1-cells, sorted.
    * ``cells``: its 0-cells as (edge class, end) pairs, end 0=tail 1=head.
    * ``arc_cells[arc]``: the (tail, head) 0-cells of the oriented arc.
    * ``arc_triangles[arc]``: the two link triangles adjacent along the arc.
    """

    __slots__ = ("vertex", "triangles", "arcs", "arc_set", "cells",
                 "arc_cells", "arc_triangles", "euler_characteristic",
                 "genus", "is_sphere")

    def __init__(self, vertex, triangles, arcs, cells, arc_cells,
                 arc_triangles, euler_characteristic):
        self.vertex = vertex
        self.triangles = triangles
        self.arcs = arcs
        self.arc_set = frozenset(arcs)
        self.cells = cells
        self.arc_cells = arc_cells
        self.arc_triangles = arc_triangles
        self.euler_characteristic = euler_characteristic
        self.genus = (2 - euler_characteristic) // 2
        self.is_sphere = euler_characteristic == 2

    def __repr__(self):
        return "VertexLink(vertex %d, %d triangles, chi %d)" % (
            self.vertex, len(self.triangles), self.euler_characteristic)


def build_all_links(tri):
    """Build the link of every vertex class in one pass over the face, edge
    and vertex classes; raises if a link is not a closed connected
    orientable surface."""
    count = len(tri.vertex_classes)
    arcs = [[] for _ in range(count)]
    arc_cells = [{} for _ in range(count)]
    arc_triangles = [{} for _ in range(count)]
    for fc in tri.face_classes:
        i, f = fc.rep
        sigma = tri.corner_map(i, f)
        j, _ = tri.partner(i, f)
        for slot, corner in enumerate(FACE_CORNERS[f]):
            vertex = tri.vertex_class_of[(i, corner)]
            arc = 3 * fc.index + slot
            arcs[vertex].append(arc)
            p, q = tri.directed_face_edge(i, f, corner)
            arc_cells[vertex][arc] = (tri.end_cell(i, corner, p),
                                      tri.end_cell(i, corner, q))
            arc_triangles[vertex][arc] = (triangle_disc(i, corner),
                                          triangle_disc(j, sigma[corner]))
    cells = [[] for _ in range(count)]
    for e in tri.edge_classes:
        cells[e.tail_vertex].append((e.index, 0))
        cells[e.head_vertex].append((e.index, 1))
    return tuple(
        _checked_link(vc.index,
                      tuple(sorted(triangle_disc(t, v) for t, v in vc.members)),
                      tuple(arcs[vc.index]), tuple(sorted(cells[vc.index])),
                      arc_cells[vc.index], arc_triangles[vc.index])
        for vc in tri.vertex_classes)


def _checked_link(vertex, triangles, arcs, cells, arc_cells, arc_triangles):
    """The VertexLink of these cells, once its Euler characteristic is even
    and its triangles are connected across its arcs."""
    chi = len(cells) - len(arcs) + len(triangles)
    if chi % 2 != 0:
        raise TriangulationError(
            "link of vertex %d has odd Euler characteristic %d; not an "
            "orientable surface" % (vertex, chi))

    # connectivity: walk the triangle adjacency graph
    if triangles:
        index = {d: k for k, d in enumerate(triangles)}
        adjacency = [[] for _ in triangles]
        for arc in arcs:
            d1, d2 = arc_triangles[arc]
            adjacency[index[d1]].append(index[d2])
            adjacency[index[d2]].append(index[d1])
        seen = [False] * len(triangles)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            for nb in adjacency[stack.pop()]:
                if not seen[nb]:
                    seen[nb] = True
                    count += 1
                    stack.append(nb)
        if count != len(triangles):
            raise TriangulationError(
                "link of vertex %d is disconnected" % vertex)

    return VertexLink(vertex, triangles, arcs, cells, arc_cells,
                      arc_triangles, chi)


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
    from . import chains

    appearances = {arc: [] for arc in link.arcs}
    for disc in link.triangles:
        tet, corner = divmod(disc, 7)
        for face_slot in range(4):
            if face_slot == corner:
                continue
            arc = tri.arc_of(tet, face_slot, corner)
            if arc not in link.arc_set:
                return False
            appearances[arc].append(chains.arc_sign(tri, tet, face_slot, corner))
    return all(sorted(signs) == [-1, 1] for signs in appearances.values())


# Not used by the package.  perfbench/test_bench.py's tracer test expects
# every traced target but ``solver.smith_normal_form`` to exist, and
# ``links.projection`` is one of them.
def projection(link, chain1):
    """Project a 1-chain onto the arcs of the link (zero elsewhere)."""
    return [c if arc in link.arc_set else 0 for arc, c in enumerate(chain1)]
