"""Exact-arithmetic maximal simplex packings of Delzant polytopes.

The public surface: exact rational linear algebra (:mod:`toricpack.linalg`),
H-representations with the double description behind them
(:mod:`toricpack.polytope`), Delzant validation and generators
(:mod:`toricpack.delzant`), maximization, realization and the disjointness
oracle of packings (:mod:`toricpack.packing`), offset perturbation families
and scans (:mod:`toricpack.perturb`), and a CLI (``toricpack``).
"""

from .delzant import (
    DelzantPolytope,
    NotDelzantError,
    VertexFrame,
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    scale,
    translate,
    validate_delzant,
)
from .linalg import (
    format_rat,
    gcd_primitive,
    rat,
)
from .packing import (
    AdmissibleSimplex,
    Packing,
    admissible_simplex,
    density,
    disjointness_oracle,
    maximize,
    realize,
)
from .perturb import (
    PerturbationError,
    ScanError,
    ScanResult,
    compare_root_midpoint,
    is_admissible,
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
    hpolytope,
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
    "ScanError",
    "ScanResult",
    "UnboundedPolytopeError",
    "VertexFrame",
    "admissible_simplex",
    "compare_root_midpoint",
    "density",
    "disjointness_oracle",
    "format_rat",
    "gcd_primitive",
    "hpolytope",
    "is_admissible",
    "make_chopped_simplex",
    "make_cube",
    "make_product",
    "make_simplex",
    "maximize",
    "perturb",
    "rat",
    "realize",
    "safe_radius_estimate",
    "scale",
    "scan_segment",
    "translate",
    "validate_delzant",
]
