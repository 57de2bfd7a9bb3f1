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

from .triangulation import (Triangulation, TriangulationError,
                            parse_triangulation)
from .solver import (NORMAL, NOT_NORMAL, SPUN_NORMAL, LiftResult, lift,
                     verify_normal)

__version__ = "0.1.0"
