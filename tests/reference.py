"""Brute-force references for the library's vertex and edge enumeration,
for offset perturbation, and for the volume.

The library enumerates vertices by double description only, and finds
edges from vertex-facet incidence alone.  This module keeps the exhaustive
active-set search and the rank test for edges as the references the tests
compare them against.  Neither shares an enumeration step with the
library; both use its exact elimination in ``linalg``, which
``test_linalg`` checks against the cofactor and Leibniz formulas.

The library builds an admissible perturbation from the base's vertex
cones, frames included; :func:`reference_perturb` enumerates and validates
the shifted H-representation instead and compares fans, and is the oracle
for it.

The library takes a Delzant polytope's volume from its vertex cones by
Brion's formula; :func:`reference_volume` triangulates any bounded
polytope by recursive facet subdivision instead, and is the oracle for it.
"""

import itertools
import math
from fractions import Fraction

from toricpack.delzant import (
    DelzantPolytope,
    NotDelzantError,
    _validate_reduced,
    validate_delzant,
)
from toricpack.linalg import (
    SingularMatrixError,
    affine_rank,
    as_vec,
    mat_det,
    mat_rank,
    solve_linear,
    vec_sub,
)
from toricpack.perturb import PerturbationError
from toricpack.polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HalfSpace,
    HPolytope,
    PolytopeError,
    VertexData,
    _reduce,
    enumerate_vertices,
)


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


def same_fan(D1: DelzantPolytope, D2: DelzantPolytope) -> bool:
    """True iff the facet normal lists agree (same order) and the
    vertex-facet incidence combinatorics coincide."""
    h1, h2 = D1.hrep.halfspaces, D2.hrep.halfspaces
    if len(h1) != len(h2) or D1.dim != D2.dim:
        return False
    if any(a.normal != b.normal for a, b in zip(h1, h2)):
        return False
    return {frozenset(s) for s in D1.vdata.incidence} == {
        frozenset(s) for s in D2.vdata.incidence
    }


def shifted(base: DelzantPolytope, s) -> HPolytope:
    """The base's H-representation with offsets lambda_i + s^i."""
    return HPolytope(
        base.dim,
        tuple(HalfSpace(h.normal, h.offset + si) for h, si in zip(base.hrep.halfspaces, s)),
    )


def reference_perturb(base: DelzantPolytope, s) -> DelzantPolytope:
    """The polytope with offsets lambda_i + s^i by enumeration: reduce the
    shifted H-representation, validate it, and compare its fan with the
    base's.  The first failure raises :class:`PerturbationError`."""
    sv = as_vec(s)
    if len(sv) != base.hrep.num_facets:
        raise ValueError("offset vector length must match the facet count")
    raw = shifted(base, sv)
    try:
        reduced, vd = _reduce(raw)
    except EmptyPolytopeError as exc:
        raise PerturbationError("empty", str(exc)) from exc
    except DegeneratePolytopeError as exc:
        raise PerturbationError("empty", "no interior") from exc
    if len(reduced.halfspaces) != len(raw.halfspaces):
        raise PerturbationError(
            "lost facet",
            f"{len(raw.halfspaces) - len(reduced.halfspaces)} facet(s) became redundant",
        )
    try:
        D = _validate_reduced(reduced, vd)
    except NotDelzantError as exc:
        raise PerturbationError("not Delzant", str(exc)) from exc
    if not same_fan(D, base):
        raise PerturbationError("fan changed")
    return D


def vertex_affinity_holds(base: DelzantPolytope, s1, s2, t) -> bool:
    """Exact check, on the enumerated polytopes, that vertices interpolate
    affinely in the offsets: v_I((1-t) s1 + t s2) = (1-t) v_I(s1) + t v_I(s2),
    vertices matched by their active facet sets.  The three offsets must
    keep every facet, so that facet indices agree."""
    t = Fraction(t)
    mid_s = tuple((1 - t) * a + t * b for a, b in zip(as_vec(s1), as_vec(s2)))

    def by_active(s) -> dict:
        D = validate_delzant(shifted(base, as_vec(s)))
        assert D.hrep.num_facets == base.hrep.num_facets
        return {frozenset(inc): v for v, inc in zip(D.vertices, D.vdata.incidence)}

    m1, m2, mid = by_active(s1), by_active(s2), by_active(mid_s)
    return all(
        v == tuple((1 - t) * a + t * b for a, b in zip(m1[key], m2[key]))
        for key, v in mid.items()
    )


def reference_volume(P: HPolytope, vd: VertexData | None = None) -> Fraction:
    """Exact Euclidean volume.

    Anchors at the lexicographically smallest vertex, triangulates every
    facet not containing it recursively, and sums |det| / n! per simplex.
    """
    if vd is None:
        vd = enumerate_vertices(P)
    n = P.dim
    verts = vd.vertices
    if affine_rank(verts) < n:
        raise DegeneratePolytopeError("degenerate polytope")
    inc = [frozenset(s) for s in vd.incidence]

    def subdivide(face: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
        if d == 1:
            if len(face) != 2:
                raise PolytopeError("malformed edge during triangulation")
            return [face]
        anchor = face[0]  # indices are in vertex lex order already
        face_set = set(face)
        simplices: list[tuple[int, ...]] = []
        seen: set[frozenset[int]] = set()
        for h in range(P.num_facets):
            tight = tuple(i for i in face if h in inc[i])
            if len(tight) == len(face_set) or not tight:
                continue
            pts = [verts[i] for i in tight]
            if affine_rank(pts) != d - 1:
                continue
            key = frozenset(tight)
            if key in seen or anchor in key:
                continue
            seen.add(key)
            for s in subdivide(tight, d - 1):
                simplices.append((anchor,) + s)
        return simplices

    total = Fraction(0)
    for s in subdivide(tuple(range(len(verts))), n):
        rows = [vec_sub(verts[i], verts[s[0]]) for i in s[1:]]
        total += abs(mat_det(rows))
    return total / math.factorial(n)
