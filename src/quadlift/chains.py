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
(``links.build_all_links``, from a table of the parities), which records the
discs meeting every arc in ``tri.arc_discs``: that table is the boundary
matrix, one row per arc.
"""


class BoundaryMatrix:
    """The boundary matrix from discs to arcs (3*|faces| rows, 7t columns),
    read from the arc table without a copy: row ``arc`` is s * (tri_a -
    tri_b + quad_a - quad_b) for the arc's entry (s, tri_a, tri_b, quad_a,
    quad_b) of ``tri.arc_discs``, all four disc indices; two equal discs
    cancel."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, tri):
        self.nrows = tri.arc_count
        self.ncols = tri.disc_count
        self.rows = tri.arc_discs

    def apply(self, vec):
        """Matrix-vector product for a dense integer vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns"
                             % (len(vec), self.ncols))
        return [s * (vec[a] - vec[b] + vec[c] - vec[d])
                for s, a, b, c, d in self.rows]

    @property
    def columns(self):
        """Column j as the list of its nonzero (arc, value), arcs ascending."""
        columns = [[] for _ in range(self.ncols)]
        for arc, (s, a, b, c, d) in enumerate(self.rows):
            for x, y in ((a, b), (c, d)):
                if x != y:
                    columns[x].append((arc, s))
                    columns[y].append((arc, -s))
        return columns

    def triplets(self):
        """All nonzero entries as (row, col, value), in row-major order."""
        return sorted((r, c, v) for c, col in enumerate(self.columns)
                      for r, v in col)

    @property
    def nnz(self):
        return 2 * sum((a != b) + (c != d) for _, a, b, c, d in self.rows)


def boundary_matrix(tri):
    """The boundary matrix of ``tri``: a view of ``tri.arc_discs``."""
    return BoundaryMatrix(tri)


def apply_boundary(tri, chain2):
    """The 1-chain boundary of a 2-chain (length 7t in, 3*|faces| out)."""
    return boundary_matrix(tri).apply(chain2)
