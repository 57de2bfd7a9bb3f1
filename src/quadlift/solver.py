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
graph.  One walk over a spanning tree of that graph, from a root with
potential 0, fixes the triangle coefficients; the arcs outside the tree then
either all balance (Normal) or one does not (SpunNormal).  The tree is built
with the link at parse (``VertexLink.tree``).  Each link costs time
proportional to its size, and a query costs O(t).
"""

from dataclasses import dataclass, field

from . import chains
from .links import dual_tree
# Neither name is used here.  perfbench/test_bench.py's tracer test deletes
# ``solver.smith_normal_form`` and expects every other traced target, among
# them ``solver.solve_with_smith``, to still exist.
from .intlinalg import smith_normal_form, solve_with_smith  # noqa: F401
from .triangulation import quad_disc

NORMAL = "Normal"
SPUN_NORMAL = "SpunNormal"
NOT_NORMAL = "NotNormal"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Violations of non-negativity and of the one-quad-type-per-tet rule."""

    negatives: tuple    # (tet, quad type, value)
    conflicts: tuple    # (tet, (types with nonzero coefficient...))

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
    for tet in range(len(q) // 3):
        present = []
        for k in (1, 2, 3):
            value = q[3 * tet + k - 1]
            if value < 0:
                negatives.append((tet, k, value))
            if value != 0:
                present.append(k)
        if len(present) > 1:
            conflicts.append((tet, tuple(present)))
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


def link_quad_boundary(tri, q, vertex):
    """Coefficients of the quad chain's boundary on the arcs linking
    ``vertex``, in the order of ``link.arcs``.

    Every arc links exactly one vertex class, so the links together carry
    the whole boundary.  Each coefficient is s * (q[quad_a] - q[quad_b])
    for the arc's entry of ``tri.arc_discs``.
    """
    if len(q) != tri.quad_count:
        raise ValueError("expected %d quad coordinates, got %d"
                         % (tri.quad_count, len(q)))
    rows = [tri.arc_discs[arc] for arc in tri.links[vertex].arcs]
    return [s * (q[a] - q[b]) for s, _, _, a, b in rows]


def cycle_imbalance(tri, q, vertex):
    """Signed endpoint sums of the link's quad boundary at each 0-cell of the
    link; all zero exactly when the chain is a 1-cycle there."""
    link = tri.links[vertex]
    sums = {}
    for arc, coeff in zip(link.arcs, link_quad_boundary(tri, q, vertex)):
        if coeff:
            tail, head = link.arc_cells[arc]
            sums[head] = sums.get(head, 0) + coeff
            sums[tail] = sums.get(tail, 0) - coeff
    return {cell: s for cell, s in sorted(sums.items()) if s != 0}


def boundary_test(tri, q, vertex, root=None):
    """Decide whether the link's quad boundary b bounds in the link.

    Returns (ok, witness, reason): on success ``witness`` is the integer
    potential w over the link's triangles (ordered as ``link.triangles``)
    with boundary -b, zero at position ``root``.  The default root is the
    last triangle, whose tree ``link.tree`` was built at parse; another root
    builds its own tree.  The potential is unique up to adding a constant,
    which is a multiple of the link's fundamental class.  Otherwise
    ``reason`` is ``"no rational solution"``: an arc outside the tree does
    not balance.
    An integer obstruction cannot occur, since the first homology of a
    closed orientable surface has no torsion.
    """
    link = tri.links[vertex]
    steps, closing = (link.tree if root is None
                      else dual_tree(link, root, tri.arc_discs))
    b = link_quad_boundary(tri, q, vertex)
    w = [0] * len(link.triangles)
    for k, d, nb, s in steps:
        w[nb] = w[d] + s * b[k]
    for k, d, nb, s in closing:
        if s * (w[d] - w[nb]) + b[k]:
            return False, None, "no rational solution"
    return True, w, None


@dataclass(frozen=True)
class LiftResult:
    """Outcome of classifying a quad vector.

    ``canonical_lift`` (present only for Normal) is the full disc vector with
    the given quad part and the minimal non-negative triangle completion;
    ``per_vertex_shift`` records, per vertex, min(w) - w[last] for the link
    potential w of :func:`boundary_test`, where ``last`` is the link's last
    triangle.  It is the same for every root of the walk.
    """

    classification: str
    canonical_lift: list = None
    per_vertex_shift: dict = field(default_factory=dict)
    cycle_failures: tuple = ()
    boundary_failures: tuple = ()


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

    cycle_failures = []
    for vertex in range(len(tri.links)):
        imbalance = cycle_imbalance(tri, q, vertex)
        if imbalance:
            cycle_failures.append((vertex, tuple(imbalance.items())))
    if cycle_failures:
        return LiftResult(NOT_NORMAL, cycle_failures=tuple(cycle_failures))

    witnesses = {}
    boundary_failures = []
    for vertex in range(len(tri.links)):
        ok, witness, reason = boundary_test(tri, q, vertex)
        if ok:
            witnesses[vertex] = witness
        else:
            boundary_failures.append((vertex, reason))
    if boundary_failures:
        return LiftResult(SPUN_NORMAL, boundary_failures=tuple(boundary_failures))

    coords = quad_chain(tri, q)
    shifts = {}
    for vertex, witness in witnesses.items():
        link = tri.links[vertex]
        m = min(witness)
        shifts[vertex] = m - witness[-1]
        for disc, value in zip(link.triangles, witness):
            coords[disc] = value - m

    residue = chains.apply_boundary(tri, coords)
    if any(residue) or min(coords) < 0:
        raise AssertionError("canonical lift failed its own postconditions")
    return LiftResult(NORMAL, coords, shifts)


@dataclass(frozen=True)
class NormalityReport:
    """Checks of a full disc vector: non-negative, admissible, and in the
    kernel of the boundary map (equivalently, all matching equations hold)."""

    negatives: tuple        # (disc, value)
    admissibility: AdmissibilityReport
    violated_arcs: tuple    # (arc, boundary coefficient)

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


def normal_coords_doc(coords):
    return {"coords": [list(coords[i:i + 7]) for i in range(0, len(coords), 7)]}
