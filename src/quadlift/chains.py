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
suite checks the rule against that determinant computation directly.  The
rule is applied once per arc, by the pass that builds the vertex links
(``links.build_all_links``), which records the discs meeting every arc in
``tri.arc_discs``; the boundary matrix is that table read per disc.
"""

from itertools import permutations

from .triangulation import perm_sign

# perm_sign of every ordering of the four local vertices
_ORDER_SIGN = {order: perm_sign(order) for order in permutations(range(4))}


def sign_rule(orientation, corner, p, q, face_slot):
    """The sign rule above: ``orientation`` of the tetrahedron times the
    parity of (corner, p, q, face_slot), for the directed edge (p, q) of the
    face opposite ``corner``."""
    return orientation * _ORDER_SIGN[(corner, p, q, face_slot)]


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

    Column j is the boundary of disc j, read from ``tri.arc_discs`` (built
    with the links) in ascending arc order; the result is cached on the
    triangulation.
    """
    cached = tri._cache.get("boundary")
    if cached is None:
        columns = [[] for _ in range(tri.disc_count)]
        for arc, (s, tri_a, tri_b, quad_a, quad_b) in enumerate(tri.arc_discs):
            # quad index 3i+k-1 is disc 7i+3+k
            for a, b in ((tri_a, tri_b), (quad_a + 4 * (quad_a // 3 + 1),
                                          quad_b + 4 * (quad_b // 3 + 1))):
                if a != b:
                    columns[a].append((arc, s))
                    columns[b].append((arc, -s))
        cached = SparseColumns(tri.arc_count, columns)
        tri._cache["boundary"] = cached
    return cached


def apply_boundary(tri, chain2):
    """The 1-chain boundary of a 2-chain (length 7t in, 3*|faces| out)."""
    return boundary_matrix(tri).apply(chain2)
