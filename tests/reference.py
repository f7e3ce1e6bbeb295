"""Brute-force reference for the library's vertex enumeration.

The library enumerates vertices by double description only.  This module
keeps the exhaustive active-set search, which shares no code with it, as
the reference the tests compare it against.
"""

import itertools

from toricpack.linalg import SingularMatrixError, mat_rank, solve_linear
from toricpack.polytope import EmptyPolytopeError, HPolytope


def brute_force_vertex_set(P: HPolytope) -> tuple:
    """Sorted vertices of P: solve every n-subset of facet equations and
    keep the solutions that satisfy all halfspaces.

    The normals must span R^n, so that a nonempty P has a vertex; no vertex
    then means P is empty.  Boundedness is not checked.
    """
    n = P.dim
    if mat_rank([h.normal for h in P.halfspaces]) < n:
        raise ValueError("the reference needs normals spanning the space")
    found = set()
    for combo in itertools.combinations(P.halfspaces, n):
        try:
            x = solve_linear([h.normal for h in combo], [h.offset for h in combo])
        except SingularMatrixError:
            continue
        if all(h.eval_at(x) >= 0 for h in P.halfspaces):
            found.add(x)
    if not found:
        raise EmptyPolytopeError("empty polytope")
    return tuple(sorted(found))
