"""Packings of a Delzant polytope by admissible corner simplices.

A packing assigns a radius x_i >= 0 to every vertex of the polytope; the
feasible radii vectors form a convex polytope P in R^V cut out by
nonnegativity and the pairwise bounds x_i + x_j <= pair_bounds[i][j].  The
packed fraction of the volume is sum(x_i^n) / (n! vol), a strictly convex
function for n >= 2, so its maximum over the feasible set is attained at
vertices and the maximizers are finitely many.  Only the edges of D bind,
so no route here builds the V + V(V-1)/2 rows of P; ``pack --json``
prints them straight from ``pair_bounds``.

The maximizers are found without enumerating P.  First an edge-block
bound, :func:`_certified`: split the vertices into single vertices and
matched edges of D, bound the density on each block by its own system,
and when some product of block maximizers is a packing, the bound is the
maximum and those products are all the maximizers.  This settles cubes of
every dimension and most members of their offset families in
milliseconds.  When the bound is not reached: the density grows in every
radius, so each maximizer is blocked: no radius can grow alone.  The
blocked vertices of P are the vertices of its down-closure
P - R^V_+ = {x_i <= r_i, x_i + x_j <= l_ij on the edges of D}, an
unbounded polyhedron with far fewer vertices (42 against 743 for the
4-cube), and double description enumerates that.  Both routes read the
edge lengths in integers over a common denominator, for :func:`maximize`
and for every sample of an offset scan alike.  A geometric disjointness
oracle, :func:`disjointness_oracle`, intersects the realized simplices
pairwise in exact arithmetic, an independent cross-check of the pair
bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .delzant import DelzantPolytope
from .linalg import IntVec, Vec, as_vec, common_denominator
from .polytope import EmptyPolytopeError, HalfSpace, HPolytope, _cone_rays, _polytope_rays


@dataclass(frozen=True)
class Packing:
    """A feasible radii vector together with its exact density."""

    radii: Vec
    density: Fraction


@dataclass(frozen=True)
class AdmissibleSimplex:
    """The unique admissible simplex of a given radius at a vertex.

    ``hull`` is the closed convex hull; the packing convention excludes the
    facet opposite the center, the hull's last row.  The simplex is the
    image of the model corner {x >= 0, sum x <= radius} under
    x -> frame . x + center with the frame columns the primitive edge
    directions at the vertex.
    """

    radius: Fraction
    frame_columns: tuple[IntVec, ...]
    center: Vec
    hull: HPolytope


def _binding(frames, num: list[int]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The least length r_i at each vertex, and the binding edges (i, j, t),
    i < j, with t < r_i + r_j, in lexicographic order.  The lengths are
    num / q over any common q, one per edge slot: the neighbours of each
    frame in turn."""
    V = len(frames)
    n = len(num) // V
    r = [min(num[i * n:(i + 1) * n]) for i in range(V)]
    edges = sorted(
        (i, j, t)
        for i, f in enumerate(frames)
        for t, j in zip(num[i * n:(i + 1) * n], f.neighbor_indices)
        if i < j and t < r[i] + r[j]
    )
    return r, edges


def _maximal_rays(frames, num: list[int], q: int) -> list[IntVec]:
    """Integer rays (x0; y), x0 > 0, of the homogenized down-closure of the
    packing polytope with these frames' edges, one per vertex y / x0 of the
    packing polytope at which no radius can grow alone; the recession rays
    -e_i (x0 = 0) are left out.  The lengths are num / q, as for
    :func:`_binding`, so :func:`maximize` and each scan sample pass their
    own.  The rows are x0 >= 0, r_i x0 - q x_i >= 0, and
    l x0 - q (x_i + x_j) >= 0 on each binding edge (i, j) in order; the
    other edge rows are implied by x_i <= r_i.
    """
    V = len(frames)
    r, edges = _binding(frames, num)
    rows = [(1,) + (0,) * V]
    rows += [(r[i],) + tuple(-q * (k == i) for k in range(V)) for i in range(V)]
    rows += [(t,) + tuple(-q * (k == i or k == j) for k in range(V)) for i, j, t in edges]
    return [ray for ray in _cone_rays(rows, V + 1)[0] if ray[0]]


def _certified(frames, num: list[int], q: int, n: int) -> tuple[Fraction, list[IntVec]] | None:
    """The largest sum(x_i^n) over the packing polytope with these frames'
    edges, lengths num / q as for :func:`_maximal_rays`, and every x that
    attains it as a ray (q; q x), in :func:`_ranked`'s format; None when
    the edge-block bound below is not reached, or n = 1.

    Each binding edge (i, j, t) of :func:`_binding` is a candidate block:
    over 0 <= a <= r_i, 0 <= b <= r_j, a + b <= t the largest a^n + b^n is
    M_ij, at one or both corners (r_i, t - r_i) and (t - r_j, r_j).  A
    greedy matching takes the blocks by gain r_i^n + r_j^n - M_ij, highest
    first and ties by (i, j); a vertex left unmatched is a block of its own
    at r_i.  The bound is the sum of the block maxima, and the maximizers
    are the products of block maximizers that meet every binding edge,
    found by backtracking over the blocks with each edge checked as soon
    as both of its ends are set.  See :func:`maximize` for the proof.
    """
    if n == 1:
        return None
    V = len(frames)
    r, edges = _binding(frames, num)
    tops = {}
    for i, j, t in edges:
        corners = [(r[i], t - r[i]), (t - r[j], r[j])]
        top = max(a**n + b**n for a, b in corners)
        tops[i, j] = top, [c for c in corners if c[0] ** n + c[1] ** n == top]
    block_of = [-1] * V
    blocks = []
    for i, j in sorted(tops, key=lambda e: (tops[e][0] - r[e[0]] ** n - r[e[1]] ** n, e)):
        if block_of[i] < 0 and block_of[j] < 0:
            block_of[i] = block_of[j] = len(blocks)
            blocks.append(((i, j), *tops[i, j]))
    for i in range(V):
        if block_of[i] < 0:
            block_of[i] = len(blocks)
            blocks.append(((i,), r[i] ** n, [(r[i],)]))
    checks: list[list[tuple[int, int, int]]] = [[] for _ in blocks]
    for i, j, t in edges:
        checks[max(block_of[i], block_of[j])].append((i, j, t))
    x = [0] * V
    found: list[IntVec] = []
    tried = [0]
    while tried:
        b = len(tried) - 1
        members, _, maximizers = blocks[b]
        if tried[b] == len(maximizers):
            tried.pop()
            continue
        for v, c in zip(members, maximizers[tried[b]]):
            x[v] = c
        tried[b] += 1
        if all(x[i] + x[j] <= t for i, j, t in checks[b]):
            if b + 1 < len(blocks):
                tried.append(0)
            else:
                found.append((q, *x))
    if not found:
        return None
    return Fraction(sum(top for _, top, _ in blocks), q**n), found


def _ranked(rays, n: int) -> tuple[Fraction, list[IntVec]]:
    """The largest sum(y_i^n) / x0^n over the rays (x0; y), and the rays
    that attain it, in their order.  Keys are compared as cross products,
    the denominators x0^n being positive."""
    top, bottom = -1, 1
    argmax: list[IntVec] = []
    for ray in rays:
        num, den = sum(c**n for c in ray[1:]), ray[0] ** n
        if num * bottom > top * den:
            top, bottom = num, den
            argmax = [ray]
        elif num * bottom == top * den:
            argmax.append(ray)
    assert argmax
    return Fraction(top, bottom), argmax


def density(D: DelzantPolytope, x) -> Fraction:
    """Packed volume fraction sum(x_i^n) / (n! vol) of a radii vector."""
    pt = as_vec(x)
    if len(pt) != D.num_vertices:
        raise ValueError("radii vector length mismatch")
    if any(c < 0 for c in pt):
        raise ValueError("radii must be nonnegative")
    n = D.dim
    return sum(c**n for c in pt) / (math.factorial(n) * D.euclidean_volume)


def maximize(D: DelzantPolytope) -> tuple[Fraction, tuple[Packing, ...]]:
    """Exact maximum density and all maximal packings, in lexicographic
    radii order.

    The edge-block bound of :func:`_certified` settles the maximum when it
    is reached, with no double description.  Otherwise the integer rays
    (x0; y) of :func:`_maximal_rays` are ranked by sum(y_i^n) / x0^n
    (:func:`_ranked`), the packed volume at the vertex y / x0 up to the
    factor n! vol.  Either way vertices are built only for the exact ties.

    Why the bound certifies, for n >= 2.  Each x in P has 0 <= x_i <= r_i,
    by the least edge at i, so its restriction to a block meets the
    block's system, and sum(x_i^n) <= sum_B M_B.  Since sum(x_i^n) is
    strictly convex, a block's maximizers are vertices of its polygon, and
    the corners dominate the other vertices coordinatewise, so they are
    the corners that reach M_B.  The sum reaches the bound exactly when
    every block sits at one of its maximizers.  A product of block
    maximizers has 0 <= x_i <= r_i, so it lies in P exactly when it meets
    every binding edge, an edge with t >= r_i + r_j being implied.  So if
    some product is feasible, the bound is the maximum over P, and the
    maximizers of P are exactly the feasible products, all of them
    vertices of P by strict convexity.

    When the bound is not reached, the rays are the vertices of the
    down-closure P - R^V_+ of the packing polytope P, and the value, the
    ties and their order are those of the maximum over every vertex of P:

    - The density grows strictly in each radius, so a maximizing vertex v
      is blocked: each x_i meets some x_i + x_j <= l_ij with equality.
    - So the sum of the tight edge normals e_i + e_j at v is a strictly
      positive vector in v's normal cone.  A nearby interior point c of
      that cone is still positive and makes v the unique maximizer of
      c . x over P, hence over P - R^V_+, where c . (x - u) < c . x for
      u >= 0 nonzero.  So v is a vertex of P - R^V_+.
    - Conversely, a vertex of P - R^V_+ has no negative coordinate (it
      could move along that axis both ways), so it lies in P, and a point
      of P that is a vertex of the larger set is a vertex of P.
    - The rows of :func:`_maximal_rays` cut out exactly P - R^V_+: a point
      y of them is below max(y, 0), which lies in P because r_j <= l_ij
      for every edge at j, and every point below P meets the rows.
    """
    n = D.dim
    num, q = common_denominator(t for f in D.frames for t in f.lengths)
    best, argmax = _certified(D.frames, num, q, n) or _ranked(_maximal_rays(D.frames, num, q), n)
    value = best / (math.factorial(n) * D.euclidean_volume)
    verts = sorted(tuple(Fraction(c, ray[0]) for c in ray[1:]) for ray in argmax)
    return value, tuple(Packing(v, value) for v in verts)


def realize(D: DelzantPolytope, x) -> tuple[AdmissibleSimplex, ...]:
    """Admissible simplices of a feasible radii vector (positive radii only).

    x is checked on x >= 0 and x_i + x_j <= l_ij on the frames' edges, as
    the least edge at i gives x_i <= r_i, implying the other pair rows.
    """
    pt = as_vec(x)
    if len(pt) != D.num_vertices:
        raise ValueError("dimension mismatch")
    if any(c < 0 for c in pt) or any(
        pt[i] + pt[j] > t
        for i, f in enumerate(D.frames)
        for t, j in zip(f.lengths, f.neighbor_indices)
    ):
        raise ValueError("not a packing")
    return tuple(
        admissible_simplex(D, i, c) for i, c in enumerate(pt) if c > 0
    )


def admissible_simplex(D: DelzantPolytope, i: int, radius) -> AdmissibleSimplex:
    """The unique admissible simplex of the given radius at vertex i.

    The frame F at a Delzant vertex is the inverse of the active facet
    normals N_I (rows in facet order): the edge leaving facet f lies on
    every other active facet and meets f at lattice distance 1.  So the
    model coordinates of x are N_I (x - v), and the hull is x_k >= 0 on
    each active facet plus the outer facet sum_k x_k <= radius, whose
    normal is minus the sum of the active normals.
    """
    r = Fraction(radius)
    if r < 0 or r > D.corner_radii[i]:
        raise ValueError(
            f"radius {r} outside [0, {D.corner_radii[i]}] at vertex {i}"
        )
    active = [D.hrep.halfspaces[f] for f in D.incidence[i]]
    n = D.dim
    outer = tuple(-sum(h.normal[c] for h in active) for c in range(n))
    rows = active + [HalfSpace(outer, -sum(h.offset for h in active) - r)]
    return AdmissibleSimplex(
        radius=r,
        frame_columns=D.directions[i],
        center=D.vertices[i],
        hull=HPolytope(n, tuple(rows)),
    )


def _half_open_disjoint(si: AdmissibleSimplex, sj: AdmissibleSimplex) -> bool:
    """The closed hulls are intersected exactly, by one double description
    of their stacked rows; the half-open simplices are disjoint iff the
    intersection is empty or lies inside the excluded outer facet hyperplane
    of either simplex (a convex set contained in a union of two hyperplanes
    lies in one of them).  It lies in that hyperplane exactly when every
    vertex's tight set holds the facet's row."""
    rows = si.hull.halfspaces + sj.hull.halfspaces
    try:
        _, masks, order = _polytope_rays(HPolytope(si.hull.dim, rows))
    except EmptyPolytopeError:
        return True
    # Row r > 0 of the homogenized system is halfspace r - 1; each hull's
    # outer facet is its last.
    outer = (len(si.hull.halfspaces), len(rows))
    return any(all(m >> order.index(r) & 1 for m in masks) for r in outer)


def disjointness_oracle(D: DelzantPolytope, x) -> bool:
    """Pairwise geometric disjointness of the realized simplices.

    Requires each radius to be individually admissible (0 <= x_i <= r_i);
    radii of zero contribute no simplex.
    """
    pt = as_vec(x)
    if len(pt) != D.num_vertices:
        raise ValueError("radii vector length mismatch")
    for i, c in enumerate(pt):
        if c < 0 or c > D.corner_radii[i]:
            raise ValueError(f"radius {c} not admissible at vertex {i}")
    simplices = [admissible_simplex(D, i, c) for i, c in enumerate(pt) if c > 0]
    return all(
        _half_open_disjoint(a, b) for a, b in itertools.combinations(simplices, 2)
    )
