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
discs meeting every arc in ``tri.arc_discs``; the boundary matrix reads that
table.
"""


class BoundaryMatrix:
    """The boundary matrix from discs to arcs (3*|faces| rows, 7t columns)
    in five flat sequences, one entry per arc: row ``arc`` is s * (tri_a -
    tri_b + quad_a - quad_b) for the arc's entry of ``tri.arc_discs``, the
    quads as disc indices; two equal discs cancel."""

    __slots__ = ("nrows", "ncols", "signs", "tri_a", "tri_b", "quad_a",
                 "quad_b")

    def __init__(self, tri):
        self.nrows = tri.arc_count
        self.ncols = tri.disc_count
        self.signs, self.tri_a, self.tri_b, quad_a, quad_b = zip(
            *tri.arc_discs)
        # quad index 3i+k-1 is disc 7i+3+k
        self.quad_a = [q + 4 * (q // 3) + 4 for q in quad_a]
        self.quad_b = [q + 4 * (q // 3) + 4 for q in quad_b]

    def apply(self, vec):
        """Matrix-vector product for a dense integer vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns"
                             % (len(vec), self.ncols))
        return [s * (vec[a] - vec[b] + vec[c] - vec[d]) for s, a, b, c, d
                in zip(self.signs, self.tri_a, self.tri_b, self.quad_a,
                       self.quad_b)]

    @property
    def columns(self):
        """Column j as the list of its nonzero (arc, value), arcs ascending."""
        columns = [[] for _ in range(self.ncols)]
        for arc, (s, a, b, c, d) in enumerate(zip(
                self.signs, self.tri_a, self.tri_b, self.quad_a, self.quad_b)):
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
        return 2 * sum((a != b) + (c != d) for a, b, c, d in zip(
            self.tri_a, self.tri_b, self.quad_a, self.quad_b))


def boundary_matrix(tri):
    """The boundary matrix of ``tri``, cached on the triangulation."""
    cached = tri._cache.get("boundary")
    if cached is None:
        cached = tri._cache["boundary"] = BoundaryMatrix(tri)
    return cached


def apply_boundary(tri, chain2):
    """The 1-chain boundary of a 2-chain (length 7t in, 3*|faces| out)."""
    return boundary_matrix(tri).apply(chain2)
