"""The chain complex of normal discs and arcs with its boundary matrix.

Degree-2 chains are integer vectors over the 7t normal disc types (disc index
7i+j: triangles at j=0..3, quads Q1..Q3 at j=4..6); degree-1 chains live on
the oriented normal arcs, 3 per face class.  An arc is oriented along the
global direction of the edge of its face opposite the linked corner.

The sign with which an arc appears in a disc boundary is computed
combinatorially: for a disc of tetrahedron D whose boundary meets face F in
the arc linking corner v, the sign is

    orientation(D) * parity(v, p, q, w)

where (p, q) is the directed edge of F opposite v and w is the vertex of D
opposite F.  This is the unique rule compatible with evaluating, inside a
positively embedded tetrahedron, the orientation of the frame (outward in-face
normal at the edge midpoint, outward face normal, edge direction); the test
suite checks the rule against that determinant computation directly.
"""

from itertools import permutations

from .triangulation import (FACE_CORNERS, disc_info, perm_sign, quad_disc,
                            quad_corner_in_face, triangle_disc)

# perm_sign of every ordering of the four local vertices
_ORDER_SIGN = {order: perm_sign(order) for order in permutations(range(4))}


def sign_rule(orientation, corner, p, q, face_slot):
    """The sign rule above: ``orientation`` of the tetrahedron times the
    parity of (corner, p, q, face_slot), for the directed edge (p, q) of the
    face opposite ``corner``."""
    return orientation * _ORDER_SIGN[(corner, p, q, face_slot)]


def arc_sign(tri, tet, face_slot, corner):
    """Sign of the arc linking ``corner`` of face ``face_slot`` in the
    boundary of any disc of ``tet`` meeting it.  ``corner`` must lie in the
    face.  Opposite on the two sides of every glued face pair."""
    if corner == face_slot:
        raise ValueError("corner %d does not lie in face %d" % (corner, face_slot))
    p, q = tri.directed_face_edge(tet, face_slot, corner)
    return sign_rule(tri.tet_orientation[tet], corner, p, q, face_slot)


def face_sides(tri, face_class, corner_slot=0):
    """The two incidences of a face class labeled by the sign of the arc at
    ``corner_slot``: returns ((tet, face) with +1, (tet, face) with -1).

    The two sides always carry opposite signs for each corner; which side is
    positive may depend on the corner, since the three edges of a face need
    not be directed cyclically.
    """
    fc = tri.face_classes[face_class]
    i, f = fc.rep
    corner = FACE_CORNERS[f][corner_slot]
    if arc_sign(tri, i, f, corner) == 1:
        return fc.rep, fc.other
    return fc.other, fc.rep


def disc_boundary(tri, disc):
    """Boundary of one normal disc as a sorted list of (arc index, sign).

    A triangle cutting off corner c meets the three faces at c; the quad Qk
    meets all four faces, linking in each the corner shared by the two edges
    it cuts there.  Coefficients on a common arc are merged.
    """
    tet, kind, value = disc_info(disc)
    coeffs = {}
    if kind == "triangle":
        for face_slot in range(4):
            if face_slot == value:
                continue
            arc = tri.arc_of(tet, face_slot, value)
            coeffs[arc] = coeffs.get(arc, 0) + arc_sign(tri, tet, face_slot, value)
    else:
        for face_slot in range(4):
            corner = quad_corner_in_face(value, face_slot)
            arc = tri.arc_of(tet, face_slot, corner)
            coeffs[arc] = coeffs.get(arc, 0) + arc_sign(tri, tet, face_slot, corner)
    return sorted((arc, c) for arc, c in coeffs.items() if c != 0)


class SparseColumns:
    """A sparse integer matrix stored per column as (row, value) lists."""

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows, columns):
        self.nrows = nrows
        self.ncols = len(columns)
        self.columns = columns

    def apply(self, vec):
        """Matrix-vector product for a dense integer vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns"
                             % (len(vec), self.ncols))
        out = [0] * self.nrows
        for c, coeff in enumerate(vec):
            if coeff:
                for r, v in self.columns[c]:
                    out[r] += coeff * v
        return out

    def to_dense(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for c, col in enumerate(self.columns):
            for r, v in col:
                rows[r][c] = v
        return rows

    def triplets(self):
        """All nonzero entries as (row, col, value), in row-major order."""
        out = []
        for c, col in enumerate(self.columns):
            for r, v in col:
                out.append((r, c, v))
        out.sort()
        return out

    @property
    def nnz(self):
        return sum(len(col) for col in self.columns)


def boundary_matrix(tri):
    """The boundary matrix from discs to arcs (3*|faces| rows, 7t columns).

    Column j is the boundary of disc j; assembly is per disc and the result
    is cached on the triangulation.
    """
    cached = tri._cache.get("boundary")
    if cached is None:
        cached = SparseColumns(
            tri.arc_count,
            [disc_boundary(tri, d) for d in range(tri.disc_count)])
        tri._cache["boundary"] = cached
    return cached


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

    rep_side = {fc.rep for fc in tri.face_classes}
    columns = [dict() for _ in range(tri.disc_count)]

    def add(disc, tet, face_slot, corner):
        arc = tri.arc_of(tet, face_slot, corner)
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
                corner = quad_corner_in_face(k, face_slot)
                add(quad_disc(tet, k), tet, face_slot, corner)

    matrix = SparseColumns(
        tri.arc_count,
        [sorted((a, v) for a, v in col.items() if v != 0) for col in columns])
    tri._cache["matching"] = matrix
    return matrix


def apply_boundary(tri, chain2):
    """The 1-chain boundary of a 2-chain (length 7t in, 3*|faces| out)."""
    return boundary_matrix(tri).apply(chain2)


def apply_matching(tri, chain2):
    """Evaluate all matching equations on a disc vector."""
    return matching_equations(tri).apply(chain2)
