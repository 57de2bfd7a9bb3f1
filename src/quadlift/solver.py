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
either all balance (Normal) or one does not (SpunNormal).  Each link costs
time proportional to its size, and a query costs O(t).
"""

from collections import deque
from dataclasses import dataclass, field

from . import chains
# Neither name is used here.  perfbench/test_bench.py's tracer test deletes
# ``solver.smith_normal_form`` and expects every other traced target, among
# them ``solver.solve_with_smith``, to still exist.
from .intlinalg import smith_normal_form, solve_with_smith  # noqa: F401
from .triangulation import quad_disc

__all__ = [
    "NORMAL",
    "SPUN_NORMAL",
    "NOT_NORMAL",
    "AdmissibilityReport",
    "check_admissible",
    "quad_chain",
    "quad_part",
    "triangle_part",
    "link_quad_boundary",
    "cycle_imbalance",
    "cycle_test",
    "boundary_test",
    "LiftResult",
    "lift",
    "NormalityReport",
    "verify_normal",
    "load_quads",
    "quads_doc",
    "load_normal_coords",
    "normal_coords_doc",
]

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
    for tet in range(tri.tet_count):
        for k in (1, 2, 3):
            chain[quad_disc(tet, k)] = q[3 * tet + k - 1]
    return chain


def quad_part(tri, chain2):
    """Extract the quad vector of a 2-chain."""
    return [chain2[quad_disc(tet, k)]
            for tet in range(tri.tet_count) for k in (1, 2, 3)]


def triangle_part(tri, chain2):
    """Extract the triangle coordinates of a 2-chain (4 per tetrahedron)."""
    return [chain2[7 * tet + c]
            for tet in range(tri.tet_count) for c in range(4)]


def _quad_arcs(tri):
    """For every arc, the (quad index, sign) pairs of the quads whose
    boundary meets it: at most one per side of its face."""
    table = tri._cache.get("quad-arcs")
    if table is None:
        columns = chains.boundary_matrix(tri).columns
        table = [[] for _ in range(tri.arc_count)]
        for tet in range(tri.tet_count):
            for k in (1, 2, 3):
                for arc, sign in columns[quad_disc(tet, k)]:
                    table[arc].append((3 * tet + k - 1, sign))
        tri._cache["quad-arcs"] = table
    return table


def link_quad_boundary(tri, q, vertex):
    """Coefficients of the quad chain's boundary on the arcs linking
    ``vertex``, in the order of ``link.arcs``.

    Every arc links exactly one vertex class, so the links together carry
    the whole boundary.
    """
    if len(q) != tri.quad_count:
        raise ValueError("expected %d quad coordinates, got %d"
                         % (tri.quad_count, len(q)))
    table = _quad_arcs(tri)
    out = []
    for arc in tri.links[vertex].arcs:
        value = 0
        for index, sign in table[arc]:
            value += q[index] * sign
        out.append(value)
    return out


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


def cycle_test(tri, q, vertex):
    return not cycle_imbalance(tri, q, vertex)


def _dual_tree(tri, link, root):
    """A spanning tree of the link's dual graph, grown breadth first from
    the triangle at position ``root`` of ``link.triangles``.

    Returns (steps, closing).  A step (k, d, nb, s) crosses the tree arc at
    position k of ``link.arcs`` from triangle d to triangle nb, where s is
    the arc's sign in the boundary of d (positions index
    ``link.triangles``).  A closing entry (k, d, nb, s) is an arc outside the
    tree in the same form.  An arc whose two incidences lie on one triangle
    cancels in its boundary; it is closing with d = nb.
    """
    columns = chains.boundary_matrix(tri).columns
    arc_pos = {arc: k for k, arc in enumerate(link.arcs)}
    sides = [[] for _ in link.arcs]
    for d, disc in enumerate(link.triangles):
        for arc, sign in columns[disc]:
            sides[arc_pos[arc]].append((d, sign))
    neighbours = [[] for _ in link.triangles]
    closing = []
    for k, incidences in enumerate(sides):
        if incidences:
            (d, s), (nb, _) = incidences
            neighbours[d].append((k, nb, s))
            neighbours[nb].append((k, d, -s))
        else:
            closing.append((k, root, root, 1))
    steps = []
    used = [False] * len(link.arcs)
    seen = [False] * len(link.triangles)
    seen[root] = True
    queue = deque([root])
    while queue:
        d = queue.popleft()
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


def boundary_test(tri, q, vertex, root=None):
    """Decide whether the link's quad boundary b bounds in the link.

    Returns (ok, witness, reason): on success ``witness`` is the integer
    potential w over the link's triangles (ordered as ``link.triangles``)
    with boundary -b, zero at position ``root`` (default the last
    triangle).  It is unique up to adding a constant, which is a multiple of
    the link's fundamental class.  Otherwise ``reason`` is
    ``"no rational solution"``: an arc outside the tree does not balance.
    An integer obstruction cannot occur, since the first homology of a
    closed orientable surface has no torsion.
    """
    link = tri.links[vertex]
    if root is None:
        key = ("dual-tree", vertex)
        tree = tri._cache.get(key)
        if tree is None:
            tree = _dual_tree(tri, link, len(link.triangles) - 1)
            tri._cache[key] = tree
    else:
        tree = _dual_tree(tri, link, root)
    steps, closing = tree
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
    if any(residue) or any(x < 0 for x in coords):
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

def load_quads(doc, tet_count):
    """Read {"quads": [[q1,q2,q3] x t]} into a flat quad vector.  JSON true
    and false load as bool, so entries must have type ``int`` exactly."""
    if not isinstance(doc, dict) or "quads" not in doc:
        raise ValueError("malformed quads document: missing 'quads'")
    rows = doc["quads"]
    if not isinstance(rows, list) or len(rows) != tet_count:
        raise ValueError("quads document must list %d tetrahedra" % tet_count)
    flat = []
    for tet, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != 3
                or any(type(x) is not int for x in row)):
            raise ValueError("malformed quad row for tetrahedron %d" % tet)
        flat.extend(row)
    return flat


def quads_doc(q):
    return {"quads": [list(q[i:i + 3]) for i in range(0, len(q), 3)]}


def load_normal_coords(doc, tet_count):
    """Read {"coords": [[t0,t1,t2,t3,q1,q2,q3] x t]} into a flat disc vector."""
    if not isinstance(doc, dict) or "coords" not in doc:
        raise ValueError("malformed coordinates document: missing 'coords'")
    rows = doc["coords"]
    if not isinstance(rows, list) or len(rows) != tet_count:
        raise ValueError("coordinates document must list %d tetrahedra" % tet_count)
    flat = []
    for tet, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != 7
                or any(type(x) is not int for x in row)):
            raise ValueError("malformed coordinate row for tetrahedron %d" % tet)
        flat.extend(row)
    return flat


def normal_coords_doc(coords):
    return {"coords": [list(coords[i:i + 7]) for i in range(0, len(coords), 7)]}
