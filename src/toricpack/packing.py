"""Packings of a Delzant polytope by admissible corner simplices.

A packing assigns a radius x_i >= 0 to every vertex of the polytope; the
feasible radii vectors form a convex polytope P in R^V cut out by
nonnegativity and the pairwise bounds x_i + x_j <= pair_bounds[i][j].  The
packed fraction of the volume is sum(x_i^n) / (n! vol), a strictly convex
function for n >= 2, so its maximum over the feasible set is attained at
vertices and the maximizers are finitely many.  Only the edges of D bind,
so no route here builds the V + V(V-1)/2 rows of P; ``pack --json``
prints them straight from the integer edge lengths.

The maximizers are found without enumerating P, by one routine,
:func:`_maxima`, for :func:`maximize` and for every sample of an offset
scan alike, reading the edge lengths in integers at the polytope's
scale.  An edge-block bound, :func:`_certified`, settles cubes of
every dimension and most members of their offset families in
milliseconds.  Where it is not reached, double description enumerates
the down-closure P - R^V_+, an unbounded polyhedron with far fewer
vertices (42 against 743 for the 4-cube), once per chamber along a scan;
:func:`maximize` proves both routes.  A geometric disjointness
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
from .linalg import IntVec, Vec, as_vec, gcd_primitive
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


def _binding(neighbors, num: list[int]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The least length r_i at each vertex, and the binding edges (i, j, t),
    i < j, with t < r_i + r_j, in lexicographic order.  The lengths are
    num / q over any common q, one per edge slot: the neighbours of each
    vertex in frame order, vertex by vertex."""
    V = len(neighbors)
    n = len(num) // V
    r = [min(num[i * n:(i + 1) * n]) for i in range(V)]
    edges = sorted(
        (i, j, t)
        for i, nbrs in enumerate(neighbors)
        for t, j in zip(num[i * n:(i + 1) * n], nbrs)
        if i < j and t < r[i] + r[j]
    )
    return r, edges


def _maximal_rays(r: list[int], edges: list[tuple[int, int, int]], q: int) -> list[IntVec]:
    """Integer rays (x0; y), x0 > 0, of the homogenized down-closure of the
    packing polytope, one per vertex y / x0 of the packing polytope at which
    no radius can grow alone; the recession rays -e_i (x0 = 0) are left
    out.  The least lengths r and the binding edges are those of
    :func:`_binding`, over the common denominator q.  The rows are
    x0 >= 0, r_i x0 - q x_i >= 0, and t x0 - q (x_i + x_j) >= 0 on each
    binding edge (i, j) in order; the other edge rows are implied by
    x_i <= r_i.

    Double description runs them in the slacks z_i = r_i x0 - q x_i, as
    x0 >= 0, z >= 0 and z_i + z_j >= (r_i + r_j - t) x0: the invertible
    linear map (x0; x) -> (x0; z) keeps every row's value, so it maps
    extreme rays to extreme rays, and (x0; x) is the primitive form of
    (q z0; r z0 - z).  Each row keeps its last nonzero coordinate, so the
    insertion order is kept, and z_i >= 0 pivots on the unit vector of
    z_i, on which every vector so far is 0: no vector changes.
    """
    V = len(r)
    rows = [(1,) + (0,) * V]
    rows += [(0, *(int(k == i) for k in range(V))) for i in range(V)]
    rows += [(t - r[i] - r[j], *(int(k in (i, j)) for k in range(V))) for i, j, t in edges]
    return [
        gcd_primitive((q * z0, *(c * z0 - z for c, z in zip(r, zs))))[0]
        for z0, *zs in _cone_rays(rows, V + 1)[0]
        if z0
    ]


def _certified(
    r: list[int], edges: list[tuple[int, int, int]], q: int, n: int
) -> tuple[Fraction, list[IntVec]] | None:
    """The largest sum(x_i^n) over the packing polytope of :func:`_binding`'s
    least lengths r and binding edges, over the common denominator q, and
    every x that attains it as a ray (q; q x), in :func:`_ranked`'s format;
    None when the edge-block bound below is not reached, or n = 1.

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
    V = len(r)
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


def _maxima(neighbors, lengths, N: int, n: int) -> list[tuple[Fraction, list[IntVec]]]:
    """The largest sum(x_i^n) over the packing polytope at each sample
    k = 0..N, with the rays that attain it as for :func:`_ranked`.  Sample
    k has the edge slots of these neighbours, of lengths num / q for
    ``lengths(k) = (num, q)`` as for :func:`_binding`, affine in k.

    Each sample reads its binding edges once, for both routes.  The
    samples are certified in order (:func:`_certified`; see
    :func:`maximize`), and from the first that is not to the end, double
    description of the down-closure (:func:`_maximal_rays`) runs once per
    chamber, not once per sample.  Why the chambers give the rays that
    double description gives at every sample:

    - Keys.  Besides the rows of :func:`_maximal_rays`, the down-closure
      is cut out by the fixed rows x_i <= l_ij and x_i + x_j <= l_ij, one
      pair per edge slot (i, j) (r_i is the least l_ij at i, and a pair
      row with l_ij >= r_i + r_j is implied), and each right-hand side is
      affine in k.  At a sample whose keys are compared, each vertex is
      keyed by its tight set on these rows as soon as double description
      returns it.  Distinct vertices have distinct tight sets, since a
      vertex is the only solution of its tight rows, so equal key sets
      mean equal vertex counts.
    - Equal families of tight sets at samples t_a < t_b give, at every t
      in between, exactly the interpolated vertices with the same tight
      sets.  Let y(t) interpolate the vertices of tight set T at t_a and
      t_b.  Every slack at y(t) is affine in t: zero at both ends on T,
      positive at both ends off T.  So y(t) is feasible and tight on
      exactly T, whose rows have full rank: a vertex.  Its tangent cone
      {d : A_T d <= 0} depends only on T.  So an edge of P(t) at y(t) leaves
      along a ray that starts an edge at y(t_a) too, tight on the same rows
      of T.  That edge is bounded, since the recession cone does not depend
      on t; it reaches the vertex of some tight set T', and its rows
      T & T' cut out a line.  At t, the face on T & T' holds the distinct
      vertices y(t) and y'(t), so it is the edge between them: each edge
      reaches the same neighbour at both ends and at t.  The interpolated
      vertices thus form a component of the graph of bounded edges, which
      is connected for a pointed polyhedron, so they are all the vertices.
      Where the families differ, double description runs at the middle
      sample and both halves recurse.
    - The interpolated vertex of sample k between DD samples a < b, with
      rays (x0a; ya) and (x0b; yb), is the integer ray
      (q x0a x0b; (q - p) x0b ya + p x0a yb) with p = k - a, q = b - a,
      ranked with the others by :func:`_ranked`.
    """
    # Edge slot (i, j): the edge from vertex i to its neighbour j, in frame
    # order, so each edge has two slots; a key has a bit per fixed row.
    slots = [(i, j) for i, nbrs in enumerate(neighbors) for j in nbrs]
    keyed: dict[int, dict[int, IntVec]] = {}
    ranked: list = [None] * (N + 1)

    def run_dd(k: int, key: bool, binding=None) -> None:
        """Double description at sample k (on its binding edges, if given),
        its rays ranked and, with ``key``, keyed by their tight sets on the
        fixed rows: only the ends of a gap of at least 2 are compared."""
        num, q = lengths(k)
        rays = _maximal_rays(*(binding or _binding(neighbors, num)), q)
        ranked[k] = _ranked(rays, n)
        if key:
            keyed[k] = {}
            for ray in rays:
                x0, y = ray[0], [c * q for c in ray[1:]]
                tight = 0
                for (i, j), t in zip(slots, num):
                    tight = tight << 2 | (y[i] == t * x0) << 1 | (y[i] + y[j] == t * x0)
                keyed[k][tight] = ray

    def fill(a: int, b: int) -> None:
        if b - a < 2:
            return
        if keyed[a].keys() != keyed[b].keys():
            m = (a + b) // 2
            run_dd(m, b - a > 2)
            fill(a, m)
            fill(m, b)
            return
        q = b - a
        pairs = [(ray, keyed[b][tight]) for tight, ray in keyed[a].items()]
        for p in range(1, q):
            ranked[a + p] = _ranked(
                [
                    (q * x0 * z0,) + tuple((q - p) * z0 * y + p * x0 * z for y, z in zip(ya, zb))
                    for (x0, *ya), (z0, *zb) in pairs
                ],
                n,
            )

    for k in range(N + 1):
        num, q = lengths(k)
        binding = _binding(neighbors, num)
        ranked[k] = _certified(*binding, q, n)
        if ranked[k] is None:
            run_dd(k, N - k > 1, binding)
            if k < N:
                run_dd(N, N - k > 1)
            fill(k, N)
            break
    return ranked


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

    This is :func:`_maxima` at one sample.  The edge-block bound of
    :func:`_certified` settles the maximum when it is reached, with no
    double description.  Otherwise the integer rays (x0; y) of
    :func:`_maximal_rays` are ranked by sum(y_i^n) / x0^n (:func:`_ranked`),
    the packed volume at y / x0 up to the factor n! vol.  Either way
    vertices are built only for the exact ties.

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
    neighbors, num, q = D._edge_slots
    [(best, argmax)] = _maxima(neighbors, lambda k: (num, q), 0, n)
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
