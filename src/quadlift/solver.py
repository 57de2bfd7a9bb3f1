"""Classification of quadrilateral coordinates and the canonical minimal lift.

A quadrilateral vector assigns a non-negative integer to each of the 3t quad
types (flat index 3i+k-1 for quad Qk of tetrahedron i) and is admissible when
no tetrahedron carries two different quad types.  The vector belongs to a
normal surface exactly when the triangle coordinates can be completed so that
all matching equations hold, i.e. when the boundary of the quad 2-chain,
restricted to each vertex link, bounds there.  Three outcomes:

* ``NotNormal``: the restricted boundary fails to be a 1-cycle in some link.
* ``SpunNormal``: a cycle in every link, but not a boundary in some link
  (possible only for links of positive genus; the data then belongs to a
  spun-normal surface of the ideal triangulation).
* ``Normal``: bounds in every link.  The completion is normalized per vertex
  so that at least one triangle coefficient of every link is zero, which
  makes it the unique minimal representative: every other completion adds
  non-negative multiples of whole vertex links.

Every arc of a link lies on exactly two link triangles with opposite signs,
so "bounds, and of what?" is a potential difference on the link's dual
graph.  With d the boundary map, ``lift`` makes one pass per stage over the
whole triangulation, so a query costs O(t): the quad boundary b, the
quad half of the rows of the boundary matrix ``tri.arc_discs`` applied to
the quad chain (:func:`quad_boundary`); one walk over the dual forest of
the links (``tri.forest``), with w = 0 at each root, and one filter that
keeps the nonzero residuals r = b + dw on the arcs outside the trees
(:func:`boundary_test`); the cycle test of each link on the 0-cell sums of
its residuals (:func:`cycle_imbalance`); and the shift of each link's
minimum to 0.  As ddw = 0, r has the 0-cell sums of b, so b is a cycle on a
link exactly when r is; as the tree fixes w, b bounds exactly when r = 0,
over the integers too (H1 of a closed orientable surface is torsion-free).
A Normal lift is then checked against its rows: the walk and the shift
write only triangle entries, so dcoords = 0 exactly when the triangle half
of each row gives -b, and coords >= 0.
"""

from . import chains
# Neither name is used here.  perfbench/test_bench.py's tracer test deletes
# ``solver.smith_normal_form`` and expects every other traced target, among
# them ``solver.solve_with_smith``, to still exist.
from .intlinalg import smith_normal_form, solve_with_smith  # noqa: F401
from .record import Record
from .triangulation import quad_disc

NORMAL = "Normal"
SPUN_NORMAL = "SpunNormal"
NOT_NORMAL = "NotNormal"


class AdmissibilityReport(Record):
    """Violations of non-negativity and of the one-quad-type-per-tet rule."""

    __slots__ = ("negatives",   # (tet, quad type, value)
                 "conflicts")   # (tet, (types with nonzero coefficient...))

    @property
    def ok(self):
        return not self.negatives and not self.conflicts


def check_admissible(q, tet_count=None):
    if tet_count is not None and len(q) != 3 * tet_count:
        raise ValueError("expected %d quad coordinates, got %d"
                         % (3 * tet_count, len(q)))
    if len(q) % 3:
        raise ValueError("quad vector length %d is not a multiple of 3" % len(q))
    negatives = []
    conflicts = []
    # one test per tetrahedron; entries are built only for one that fails
    for tet, row in enumerate(zip(q[0::3], q[1::3], q[2::3])):
        a, b, c = row
        if a < 0 or b < 0 or c < 0 or (a and (b or c)) or (b and c):
            negatives.extend((tet, k, x) for k, x in enumerate(row, 1)
                             if x < 0)
            present = tuple(k for k, x in enumerate(row, 1) if x != 0)
            if len(present) > 1:
                conflicts.append((tet, present))
    return AdmissibilityReport(tuple(negatives), tuple(conflicts))


def quad_chain(tri, q):
    """Embed a quad vector as a 2-chain supported on the quad summand."""
    if len(q) != tri.quad_count:
        raise ValueError("expected %d quad coordinates, got %d"
                         % (tri.quad_count, len(q)))
    chain = [0] * tri.disc_count
    for k in (1, 2, 3):
        # q[3i+k-1], quad Qk of tetrahedron i, is disc 7i+3+k
        chain[3 + k::7] = q[k - 1::3]
    return chain


def quad_part(tri, chain2):
    """Extract the quad vector of a 2-chain."""
    return [chain2[quad_disc(tet, k)]
            for tet in range(tri.tet_count) for k in (1, 2, 3)]


def quad_boundary(tri, q):
    """The boundary b of the quad chain c, indexed by arc: s * (c[quad_a] -
    c[quad_b]) for each arc's row of the boundary matrix ``tri.arc_discs``."""
    chain = quad_chain(tri, q)
    return [s * (chain[a] - chain[b]) for s, _, _, a, b in tri.arc_discs]


def boundary_test(tri, b, w):
    """Write into ``w`` (indexed by disc, 0 at each root) the potential
    that makes r = b + dw vanish on the tree arcs of ``tri.forest``, and
    return {vertex: [(arc, r), ...]} over the closing arcs with r != 0; a
    link is absent exactly when b bounds there."""
    steps, closing = tri.forest
    for arc, d, nb, s in steps:
        w[nb] = w[d] + s * b[arc]
    residual = {}
    for arc, d, nb, s in closing:
        r = s * (w[d] - w[nb]) + b[arc]
        if r:   # disc 7i+v is the triangle of slot 4i+v
            residual.setdefault(tri.vertex_class_at[d - 3 * (d // 7)],
                                []).append((arc, r))
    return residual


def cycle_imbalance(tri, residual, vertex):
    """The nonzero sums of the residuals of ``vertex`` at their end 0-cells,
    which are those of b: none exactly when b is a 1-cycle on its link.
    The ends of the link's residual arcs are computed in one call, as ids
    2e + end, and a cell's (e, end) tuple is made only for a nonzero sum."""
    entries = residual.get(vertex)
    if not entries:
        return {}
    arcs, rs = zip(*entries)
    ends = tri.arc_end_ids(arcs)
    sums = dict.fromkeys(ends, 0)
    for r, tail, head in zip(rs, ends[0::2], ends[1::2]):
        sums[head] += r
        sums[tail] -= r
    return {divmod(c, 2): s for c, s in sorted(sums.items()) if s}


class LiftResult(Record):
    """Outcome of classifying a quad vector.

    ``canonical_lift`` (present only for Normal) is the full disc vector with
    the given quad part and the minimal non-negative triangle completion;
    ``per_vertex_shift`` records, per vertex, min(w) - w[last] for a link
    potential w (any two differ by a constant), where ``last`` is the
    link's last triangle, the root of the walk of :func:`boundary_test`.
    """

    __slots__ = ("classification", "canonical_lift", "per_vertex_shift",
                 "cycle_failures", "boundary_failures")

    def __init__(self, classification, canonical_lift=None,
                 per_vertex_shift=None, cycle_failures=(), boundary_failures=()):
        super().__init__(classification, canonical_lift,
                         {} if per_vertex_shift is None else per_vertex_shift,
                         cycle_failures, boundary_failures)


def lift(tri, q):
    """Classify an admissible non-negative quad vector; compute the canonical
    lift when it is Normal.

    Raises ValueError on inadmissible input.  Any two potentials of a link
    differ by a constant, which the per-vertex normalization removes, so the
    canonical lift does not depend on the spanning tree.
    """
    report = check_admissible(q, tri.tet_count)
    if not report.ok:
        raise ValueError("inadmissible quadrilateral coordinates: %r" % (report,))

    rows = chains.boundary_matrix(tri).rows
    # the triangle entries of coords start at 0, so every root's is 0
    coords = quad_chain(tri, q)
    b = [s * (coords[x] - coords[y]) for s, _, _, x, y in rows]
    residual = boundary_test(tri, b, coords)
    cycle_failures = []
    for vertex in range(len(tri.links)):
        imbalance = cycle_imbalance(tri, residual, vertex)
        if imbalance:
            cycle_failures.append((vertex, tuple(imbalance.items())))
    if cycle_failures:
        return LiftResult(NOT_NORMAL, cycle_failures=tuple(cycle_failures))
    if residual:
        return LiftResult(SPUN_NORMAL, boundary_failures=tuple(
            (vertex, "no rational solution") for vertex in sorted(residual)))

    # a link whose minimum is its root's 0 needs no shift, as most do
    shift = [min(link.gather(coords)) for link in tri.links]
    for link, m in zip(tri.links, shift):
        if m:
            for d in link.triangles:
                coords[d] -= m
    # the walk and the shift write only triangle entries, so the quad half
    # of the boundary of coords is still b, and this is exactly dcoords = 0
    if ([s * (coords[y] - coords[x]) for s, x, y, _, _ in rows] != b
            or min(coords) < 0):
        raise AssertionError("canonical lift failed its own postconditions")
    return LiftResult(NORMAL, coords, dict(enumerate(shift)))


class NormalityReport(Record):
    """Checks of a full disc vector: non-negative, admissible, and in the
    kernel of the boundary map (equivalently, all matching equations hold)."""

    __slots__ = ("negatives",        # (disc, value)
                 "admissibility",    # an AdmissibilityReport
                 "violated_arcs")    # (arc, boundary coefficient)

    @property
    def ok(self):
        return (not self.negatives and self.admissibility.ok
                and not self.violated_arcs)


def verify_normal(tri, coords):
    if len(coords) != tri.disc_count:
        raise ValueError("expected %d coordinates, got %d"
                         % (tri.disc_count, len(coords)))
    negatives = tuple((disc, value) for disc, value in enumerate(coords)
                      if value < 0)
    admissibility = check_admissible(quad_part(tri, coords), tri.tet_count)
    residue = chains.apply_boundary(tri, coords)
    violated = tuple((arc, value) for arc, value in enumerate(residue) if value)
    return NormalityReport(negatives, admissibility, violated)


# ----------------------------------------------------------------------
# coordinate documents

def _load_rows(doc, tet_count, key, width, kind, row_kind):
    """Read {key: [[...] x t]}, rows of ``width`` integers, into a flat
    vector.  JSON true and false load as bool, so entries must have type
    ``int`` exactly."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError("malformed %s document: missing '%s'" % (kind, key))
    rows = doc[key]
    if not isinstance(rows, list) or len(rows) != tet_count:
        raise ValueError("%s document must list %d tetrahedra"
                         % (kind, tet_count))
    flat = []
    for tet, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != width
                or any(type(x) is not int for x in row)):
            raise ValueError("malformed %s row for tetrahedron %d"
                             % (row_kind, tet))
        flat.extend(row)
    return flat


def load_quads(doc, tet_count):
    """Read {"quads": [[q1,q2,q3] x t]} into a flat quad vector."""
    return _load_rows(doc, tet_count, "quads", 3, "quads", "quad")


def load_normal_coords(doc, tet_count):
    """Read {"coords": [[t0,t1,t2,t3,q1,q2,q3] x t]} into a flat disc vector."""
    return _load_rows(doc, tet_count, "coords", 7, "coordinates", "coordinate")
