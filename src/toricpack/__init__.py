"""Exact-arithmetic maximal simplex packings of Delzant polytopes.

The public surface: exact rational linear algebra (:mod:`toricpack.linalg`),
generic polytope machinery (:mod:`toricpack.polytope`), Delzant validation
and generators (:mod:`toricpack.delzant`), packing construction and
maximization (:mod:`toricpack.packing`), offset perturbation families
(:mod:`toricpack.perturb`), and a CLI (``toricpack``).
"""

from .delzant import (
    DelzantPolytope,
    NotDelzantError,
    VertexFrame,
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    rational_length,
    scale,
    translate,
    validate_delzant,
)
from .linalg import (
    Rational,
    format_rat,
    gcd_primitive,
    mat_det,
    rat,
)
from .packing import (
    AdmissibleSimplex,
    Packing,
    admissible_simplex,
    build_packing_polytope,
    density,
    disjointness_oracle,
    maximize,
    realize,
    simplices_disjoint,
)
from .perturb import (
    PerturbationError,
    ScanError,
    ScanResult,
    compare_root_midpoint,
    is_admissible,
    is_homothetic,
    perturb,
    safe_radius_estimate,
    scan_segment,
)
from .polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HalfSpace,
    HPolytope,
    PolytopeError,
    UnboundedPolytopeError,
    VertexData,
    contains,
    enumerate_vertices,
    hpolytope,
    intersect,
    remove_redundant,
    vertex_set,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSimplex",
    "DegeneratePolytopeError",
    "DelzantPolytope",
    "EmptyPolytopeError",
    "HPolytope",
    "HalfSpace",
    "NotDelzantError",
    "Packing",
    "PerturbationError",
    "PolytopeError",
    "Rational",
    "ScanError",
    "ScanResult",
    "UnboundedPolytopeError",
    "VertexData",
    "VertexFrame",
    "admissible_simplex",
    "build_packing_polytope",
    "compare_root_midpoint",
    "contains",
    "density",
    "disjointness_oracle",
    "enumerate_vertices",
    "format_rat",
    "gcd_primitive",
    "hpolytope",
    "intersect",
    "is_admissible",
    "is_homothetic",
    "make_chopped_simplex",
    "make_cube",
    "make_product",
    "make_simplex",
    "mat_det",
    "maximize",
    "perturb",
    "rat",
    "rational_length",
    "realize",
    "remove_redundant",
    "safe_radius_estimate",
    "scale",
    "scan_segment",
    "simplices_disjoint",
    "translate",
    "validate_delzant",
    "vertex_set",
]
