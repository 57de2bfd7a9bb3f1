"""Normal surfaces on triangulated 3-pseudo-manifolds via chain complexes.

The package builds, for a closed orientable complex of tetrahedra with all
faces glued in pairs, the integer chain complex whose 2-chains are normal
disc vectors and whose 1-chains live on oriented normal arcs.  A disc vector
satisfies the matching equations exactly when its boundary vanishes, so
normal surfaces are the non-negative admissible kernel elements.  On top of
this the package decides which quadrilateral vectors belong to normal (or
spun-normal) surfaces and computes the canonical minimal triangle completion.

Typical use::

    from quadlift import parse_triangulation, lift

    tri = parse_triangulation(open("double_tet.json").read())
    result = lift(tri, [1, 0, 0, 1, 0, 0])
    result.classification        # "Normal"
    result.canonical_lift        # full disc vector, minimal per vertex
"""

from .triangulation import (
    FACE_CORNERS,
    LOCAL_EDGES,
    Triangulation,
    TriangulationError,
    parse_triangulation,
    orient,
    orient_edges,
    perm_sign,
    quad_corner_in_face,
    quad_type_through,
    triangle_disc,
    quad_disc,
    disc_info,
)
from .chains import (
    arc_sign,
    face_sides,
    disc_boundary,
    boundary_matrix,
    matching_equations,
    apply_boundary,
    apply_matching,
)
from .links import (
    VertexLink,
    build_all_links,
    fundamental_class,
    link_boundary_restriction_check,
)
from .intlinalg import (
    IntMatrix,
    SmithDecomposition,
    SolveResult,
    smith_normal_form,
    solve_integer,
    solve_with_smith,
    kernel_basis,
    determinant,
)
from .solver import (
    NORMAL,
    SPUN_NORMAL,
    NOT_NORMAL,
    AdmissibilityReport,
    check_admissible,
    quad_chain,
    quad_part,
    triangle_part,
    link_quad_boundary,
    cycle_imbalance,
    cycle_test,
    boundary_test,
    LiftResult,
    lift,
    NormalityReport,
    verify_normal,
    load_quads,
    quads_doc,
    load_normal_coords,
    normal_coords_doc,
)

__version__ = "0.1.0"
