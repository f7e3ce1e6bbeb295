"""Brute-force references for the library's vertex and edge enumeration.

The library enumerates vertices by double description only, and finds
edges from vertex-facet incidence alone.  This module keeps the exhaustive
active-set search and the rank test for edges as the references the tests
compare them against.  Neither shares an enumeration step with the
library; both use its exact elimination in ``linalg``, which
``test_linalg`` checks against the cofactor and Leibniz formulas.
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


def brute_force_edges(P: HPolytope, vertices, incidence) -> tuple:
    """Index pairs (i, j), i < j, whose common active facets have normals of
    rank dim - 1: the segment between the two vertices is then a face."""
    edges = []
    for i, j in itertools.combinations(range(len(vertices)), 2):
        common = sorted(set(incidence[i]) & set(incidence[j]))
        if mat_rank([P.halfspaces[k].normal for k in common]) == P.dim - 1:
            edges.append((i, j))
    return tuple(edges)
