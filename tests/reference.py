"""Brute-force references for the library's vertex and edge enumeration,
for offset perturbation, and for the volume.

The library enumerates vertices by double description only, and finds
edges from vertex-facet incidence alone.  This module keeps the exhaustive
active-set search and the rank test for edges as the references the tests
compare them against.  Neither shares an enumeration step with the
library; both use its exact elimination in ``linalg``, which
``test_linalg`` checks against the cofactor and Leibniz formulas.

The library builds an admissible perturbation from the base's vertex
cones, frames included; :func:`reference_perturb` enumerates the shifted
H-representation instead, validates it by :func:`reference_validate_reduced`
and compares fans, and is the oracle for it.

The library takes a Delzant polytope's volume from its vertex cones by
Brion's formula; :func:`reference_volume` triangulates any bounded
polytope by recursive facet subdivision instead, and is the oracle for it.

The library reads vertex-facet incidence from double description's tight
sets, keeps the rows with maximal tight sets as the facets, reads each
vertex frame from the inverse of the active normals and each neighbour
off the incidence.  The routes they replaced are kept here as their
oracles: :func:`reference_incidence` evaluates every halfspace at every
vertex, :func:`reference_remove_redundant` keeps the rows whose tight
vertices have affine rank dim - 1, and :func:`reference_validate_reduced`
takes the edges of :func:`brute_force_edges` and builds every frame from
primitive vertex differences along them and their determinant.
:func:`solve_linear` serves the active-set search.

The library's double description starts from the whole space and pivots
its lineality away, one independent row at a time.  The start it replaced
is kept here as its oracle: :func:`reference_dd_rays` solves for the first
cone of a greedy row basis B by one elimination of [B | I], and
:func:`reference_polytope_rays` decides a low-rank system by double
description on the quotient modulo the lineality space.  Both share the
library's adjacency test.

The library scans an offset segment from its two ends, interpolating the
samples between them and running double description once per chamber;
:func:`reference_scan_segment` builds and maximizes every sample, and is
the oracle for it.

The library builds the rows of the packing down-closure once, in integers
over a common denominator of the edge lengths, and checks a packing on the
edges read from the frames.  The routes they replaced are kept here:
:func:`reference_maximal_rays` builds the down-closure as an ``HPolytope``
from the binding edges filtered through the pair-bound matrix, and
homogenizes it; :func:`reference_edge_system` is the packing polytope from
those edges, and :func:`packing_polytope_vertices` enumerates it.
:func:`mat_rank` and :func:`affine_rank`, which the library no longer
calls, serve the references here.

The public names that no command reached have left the library for here,
:func:`build_packing_polytope` as the oracle of the rows ``pack --json``
prints; those that decide something do it by the library's private routes.

Wrappers with one caller in the library were folded into that caller, and
the routes they gave are kept here as the oracles of their replacements:
:func:`intersect` and :func:`vertex_set` (with
:func:`reference_half_open_disjoint`) for the disjointness test on tight
sets, :func:`mat_det` for the determinant the Delzant check reports,
:func:`nthroot_bounds` (with :func:`reference_compare_root_midpoint`) for
the root comparison on integer floors, and :func:`_homothetic` for a
scan's homothety test on edge lengths.

The library keeps a Delzant polytope's vertex cones in integers at one
scale, moves offsets there and reads edge lengths, volumes and maxima off
integer numerators.  The Fraction routes it replaced are kept here as
their oracles: :func:`reference_moved` moves the Fraction vertices and
evaluates every off-vertex slack, :func:`reference_edge_lengths` reads
each edge's length off Fraction vertices, and :func:`common_denominator`
writes Fractions over one denominator, as :func:`reference_volume_brion`
and :func:`reference_maximize` do.
"""

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from toricpack.delzant import (
    DelzantPolytope,
    NotDelzantError,
    VertexFrame,
    _brion_terms,
    _brion_volume,
    validate_delzant,
)
from toricpack.linalg import (
    Vec,
    _floor_root_scaled,
    as_vec,
    bareiss,
    dot,
    gcd_primitive,
    nthroot_decimal,
    rat,
    rational_nthroot,
    vec_add,
    vec_scale,
)
from toricpack.packing import (
    AdmissibleSimplex,
    Packing,
    _half_open_disjoint,
    _maxima,
    admissible_simplex,
    maximize,
)
from toricpack.perturb import (
    PerturbationError,
    ScanError,
    ScanResult,
    perturb,
)
from toricpack.polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HalfSpace,
    HPolytope,
    PolytopeError,
    UnboundedPolytopeError,
    _bits,
    _cone_rays,
    _homogenized_rows,
    _insertion_order,
    _LowRankCone,
    _reduce,
    _third_positions,
    _tight_columns,
    _polytope_rays,
    _tight_vertices,
    _vertex,
)


def common_denominator(xs) -> tuple[list[int], int]:
    """The rationals xs as integer numerators over their least common
    denominator, and that denominator (1 for no xs)."""
    xs = list(xs)
    q = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (q // x.denominator) for x in xs], q


def reference_edge_lengths(verts, i: int, dirs, neighbors) -> tuple[Fraction, ...]:
    """The lattice length t of each edge at vertex i, where the edge along
    primitive d reaches vertex j: v_j - v_i = t d, read off one nonzero
    coordinate of d, in Fractions."""
    lengths = []
    for d, j in zip(dirs, neighbors):
        c = next(c for c, x in enumerate(d) if x)
        lengths.append((verts[j][c] - verts[i][c]) / d[c])
    return tuple(lengths)


def reference_slack_forms(D: DelzantPolytope) -> tuple:
    """Vertex by vertex, each facet j off the vertex v_I as (j, c, a): c its
    Fraction slack at v_I and a = (<u_j, d_f>)_f."""
    return tuple(
        tuple(
            (j, h.eval_at(v), tuple(dot(h.normal, d) for d in dirs))
            for j, h in enumerate(D.hrep.halfspaces)
            if j not in active
        )
        for v, active, dirs in zip(D.vertices, D.incidence, D.directions)
    )


def reference_moved(base: DelzantPolytope, s) -> tuple[list, list]:
    """The moved vertices v_I(s) = v_I + sum_{f in I} s^f d_f in base order,
    and vertex by vertex every off-vertex slack c + a . s_I - s^j of
    :func:`reference_slack_forms`, all in Fractions."""
    sv = as_vec(s)
    moved, slacks = [], []
    for v, active, dirs, forms in zip(
        base.vertices, base.incidence, base.directions, reference_slack_forms(base)
    ):
        s_I = [sv[f] for f in active]
        moved.append(tuple(
            c + sum(x * d[k] for x, d in zip(s_I, dirs)) for k, c in enumerate(v)
        ))
        slacks.extend(c + dot(a, s_I) - sv[j] for j, c, a in forms)
    return moved, slacks


def reference_volume_brion(D: DelzantPolytope) -> Fraction:
    """Brion's sum over D's cones with the heights <xi, v> of its Fraction
    vertices written over their common denominator."""
    xi, denoms = _brion_terms(D.directions)
    heights, q = common_denominator(dot(xi, v) for v in D.vertices)
    return _brion_volume(D.dim, denoms, heights, q)


def reference_maximize(D: DelzantPolytope) -> tuple:
    """``maximize`` on the edge lengths of :func:`reference_edge_lengths`
    over their common denominator, with :func:`reference_volume_brion`."""
    frames = D.frames
    num, q = common_denominator(
        t for i, f in enumerate(frames)
        for t in reference_edge_lengths(D.vertices, i, f.directions, f.neighbor_indices)
    )
    neighbors = [f.neighbor_indices for f in frames]
    [(best, argmax)] = _maxima(neighbors, lambda k: (num, q), 0, D.dim)
    value = best / (math.factorial(D.dim) * reference_volume_brion(D))
    verts = sorted(tuple(Fraction(c, ray[0]) for c in ray[1:]) for ray in argmax)
    return value, tuple(Packing(v, value) for v in verts)


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those
    scales."""
    out = []
    scale = 1
    for r in rows:
        ints, m = common_denominator(map(rat, r))
        out.append(ints)
        scale *= m
    return out, scale


def mat_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    a, scale = _integer_rows(rows)
    _, pivots, d = bareiss(a)
    return Fraction(d, scale) if len(pivots) == n else Fraction(0)


def nthroot_bounds(q: Fraction, n: int, digits: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of q**(1/n) with hi - lo <= 10**-digits."""
    if q < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    lo_int = _floor_root_scaled(q, n, digits)
    return Fraction(lo_int, scale), Fraction(lo_int + 1, scale)


def reference_compare_root_midpoint(mid: Fraction, left: Fraction, right: Fraction, n: int) -> int:
    """Sign of 2*mid^(1/n) - left^(1/n) - right^(1/n), exactly, from
    :func:`nthroot_bounds` enclosures at the library's precisions."""
    if mid <= 0 or left <= 0 or right <= 0:
        raise ValueError("root comparison requires positive values")
    if n == 1:
        diff = 2 * mid - left - right
        return (diff > 0) - (diff < 0)
    rl = rational_nthroot(left / mid, n)
    rr = rational_nthroot(right / mid, n)
    if rl is not None and rr is not None:
        diff = 2 - rl - rr
        return (diff > 0) - (diff < 0)
    prec = 30
    while prec <= 4000:
        lo_m, hi_m = nthroot_bounds(mid, n, prec)
        lo_l, hi_l = nthroot_bounds(left, n, prec)
        lo_r, hi_r = nthroot_bounds(right, n, prec)
        if 2 * lo_m - hi_l - hi_r > 0:
            return 1
        if 2 * hi_m - lo_l - lo_r < 0:
            return -1
        prec *= 2
    raise ArithmeticError("root comparison did not separate")


def vertex_set(P: HPolytope) -> tuple[Vec, ...]:
    """All vertices of a bounded polytope, lexicographically sorted.

    Raises on empty or unbounded input.  Use this when the combinatorial
    structure is not needed: it skips mapping the tight sets to halfspaces.
    """
    return tuple(sorted(map(_vertex, _polytope_rays(P)[0])))


def intersect(P: HPolytope, Q: HPolytope) -> tuple[Vec, ...]:
    """The vertices of the intersection of two polytopes of the same ambient
    dimension, lexicographically sorted; () when it is empty."""
    if P.dim != Q.dim:
        raise ValueError("ambient dimension mismatch")
    try:
        return vertex_set(HPolytope(P.dim, P.halfspaces + Q.halfspaces))
    except EmptyPolytopeError:
        return ()


def reference_half_open_disjoint(si: AdmissibleSimplex, sj: AdmissibleSimplex) -> bool:
    """The closed hulls are intersected exactly; the half-open simplices are
    disjoint iff the intersection is empty or lies inside the excluded
    outer facet hyperplane of either simplex (a convex set contained in a
    union of two hyperplanes lies in one of them)."""
    overlap = intersect(si.hull, sj.hull)
    if not overlap:
        return True
    for s in (si, sj):
        h = s.hull.halfspaces[-1]
        if all(h.eval_at(v) == 0 for v in overlap):
            return True
    return False


def _homothetic(n: int, vol1: Fraction, vol2: Fraction, verts1, verts2) -> bool:
    """Whether the polytope with vertices verts2 and volume vol2 is
    lam * P1 + v for the polytope P1 with vertices verts1 and volume vol1.

    With rational vertex data any homothety ratio is rational, so lam must
    be the rational n-th root of the volume ratio; the translation is fixed
    by the lexicographically smallest vertices and verified on the full
    vertex sets.
    """
    lam = rational_nthroot(vol2 / vol1, n)
    if lam is None:
        return False
    v = tuple(b - lam * a for a, b in zip(min(verts1), min(verts2)))
    mapped = {vec_add(vec_scale(lam, w), v) for w in verts1}
    return mapped == set(verts2)


class SingularMatrixError(ValueError):
    pass


def solve_linear(rows, rhs) -> Vec:
    """Exact unique solution of A x = b; raises on singular systems."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_linear requires a square system")
    a, _ = _integer_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    reduced, pivots, d = bareiss(a)
    if pivots != list(range(n)):
        raise SingularMatrixError("degenerate system")
    return tuple(Fraction(r[n], d) for r in reduced)


def mat_rank(rows) -> int:
    """Exact rank."""
    return len(bareiss(_integer_rows(rows)[0])[1])


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    return mat_rank([vec_sub(p, base) for p in points[1:]])


def vec_sub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def primitive_direction(d) -> tuple:
    """Write a nonzero rational vector as t * u with u primitive integral, t > 0."""
    ints, denom = common_denominator(d)
    u, g = gcd_primitive(ints)
    return u, Fraction(g, denom)


def rational_length(a, b) -> Fraction:
    """Lattice length of the segment from a to b: the t > 0 with
    b - a = t * u for primitive integral u."""
    return primitive_direction(vec_sub(as_vec(b), as_vec(a)))[1]


def contains(P: HPolytope, x) -> bool:
    """Closed membership test."""
    pt = as_vec(x)
    if len(pt) != P.dim:
        raise ValueError("dimension mismatch")
    return all(h.eval_at(pt) >= 0 for h in P.halfspaces)


VertexData = namedtuple("VertexData", "vertices incidence edges")


def enumerate_vertices(P: HPolytope) -> VertexData:
    """The vertices of a bounded polytope, simple or not, with the incidence
    read off double description's tight sets; the edges are the pairs that
    share at least dim - 1 facets on which no third vertex lies, by the
    library's adjacency test.  Raises on empty or unbounded input."""
    verts, masks = _tight_vertices(P)
    cols = _tight_columns(masks)
    alive = (1 << len(masks)) - 1
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(masks)), 2)
        if (masks[i] & masks[j]).bit_count() >= P.dim - 1
        and not _third_positions(masks[i] & masks[j], (1 << i) | (1 << j), cols, alive)
    ]
    return VertexData(verts, tuple(map(_bits, masks)), tuple(edges))


def remove_redundant(P: HPolytope) -> HPolytope:
    """The library's minimal H-representation, ``_reduce(P)[0]``."""
    return _reduce(P)[0]


def is_homothetic(D1: DelzantPolytope, D2: DelzantPolytope) -> bool:
    """Exact test for D2 = lam * D1 + v with rational lam > 0."""
    if D1.dim != D2.dim:
        raise ValueError("dimension mismatch")
    return _homothetic(D1.dim, D1.euclidean_volume, D2.euclidean_volume, D1.vertices, D2.vertices)


def simplices_disjoint(D: DelzantPolytope, i: int, xi, j: int, xj) -> bool:
    """Exact disjointness of two half-open admissible simplices."""
    return _half_open_disjoint(admissible_simplex(D, i, xi), admissible_simplex(D, j, xj))


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


def greedy_row_basis(rows) -> list[int]:
    """Indices of the first linearly independent rows spanning the row
    space: the pivot columns of the transposed rows."""
    return bareiss(list(zip(*rows)))[1]


def reference_dd_rays(rows, dim) -> tuple[list, list[int]]:
    """The extreme rays and tight sets of the pointed cone
    {x : r . x >= 0 for r in rows}, by double description from the cone of
    a greedy row basis B, whose rays are the columns of B^-1; the other
    rows go in in list order.  Raises _LowRankCone() when
    rank(rows) < dim."""
    basis = greedy_row_basis(rows)
    if len(basis) < dim:
        raise _LowRankCone()

    # [B | I] reduces to [d I | d B^-1].
    unit = [[int(r == c) for c in range(dim)] for r in range(dim)]
    reduced, _, d = bareiss([list(rows[i]) + e for i, e in zip(basis, unit)])
    sign = 1 if d > 0 else -1
    rays, masks = [], []  # by slot
    cols = [0] * len(rows)  # by row: the slots tight on it
    for j in range(dim):
        rays.append(gcd_primitive([sign * row[dim + j] for row in reduced])[0])
        m = 0
        for pos, i in enumerate(basis):
            if pos != j:
                m |= 1 << i
                cols[i] |= 1 << j
        masks.append(m)
    live = list(range(dim))
    alive = (1 << dim) - 1

    basis_set = set(basis)
    for k in (i for i in range(len(rows)) if i not in basis_set):
        dots = [dot(rows[k], rays[s]) for s in live]
        pos = [(s, d) for s, d in zip(live, dots) if d > 0]
        zero = [s for s, d in zip(live, dots) if d == 0]
        neg = [(s, d) for s, d in zip(live, dots) if d < 0]
        for s in zero:
            masks[s] |= 1 << k
            cols[k] |= 1 << s
        if not neg:
            continue
        if not pos and not zero:
            return [], []
        made = len(rays)
        for p, dp in pos:
            for m, dm in neg:
                common = masks[p] & masks[m]
                if common.bit_count() < dim - 2:
                    continue
                if _third_positions(common, (1 << p) | (1 << m), cols, alive):
                    continue
                rays.append(gcd_primitive([dp * y - dm * x for x, y in zip(rays[p], rays[m])])[0])
                masks.append(common | 1 << k)
        for s in range(made, len(rays)):
            for r in range(len(rows)):
                if masks[s] >> r & 1:
                    cols[r] |= 1 << s
            alive |= 1 << s
        for m, _ in neg:
            alive ^= 1 << m
        live = [p for p, _ in pos] + zero + list(range(made, len(rays)))
    return [rays[s] for s in live], [masks[s] for s in live]


def reference_polytope_rays(P: HPolytope) -> tuple[list, list[int], list[int]]:
    """The library's ``_polytope_rays`` with :func:`reference_dd_rays`: the
    rays (x0; y), x0 > 0, of the homogenized cone of a bounded nonempty
    polytope, their tight sets and the insertion order.  A low-rank system
    is decided on the quotient modulo the lineality space, x = B^T y for a
    row basis B, to which the x0 coordinate descends."""
    rows = _homogenized_rows(P)
    order = _insertion_order(rows)
    rows = [rows[i] for i in order]
    try:
        rays, masks = reference_dd_rays(rows, P.dim + 1)
    except _LowRankCone:
        basis_rows = [rows[i] for i in greedy_row_basis(rows)]
        projected = [tuple(dot(row, b) for b in basis_rows) for row in rows]
        qrays, _ = reference_dd_rays([gcd_primitive(p)[0] for p in projected], len(basis_rows))
        if any(dot(y, [b[0] for b in basis_rows]) for y in qrays):
            raise UnboundedPolytopeError("unbounded polytope")
        raise EmptyPolytopeError("empty polytope")
    if all(ray[0] == 0 for ray in rays):
        raise EmptyPolytopeError("empty polytope")
    if any(ray[0] == 0 for ray in rays):
        raise UnboundedPolytopeError("unbounded polytope")
    return rays, masks, order


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
    return {frozenset(s) for s in D1.incidence} == {frozenset(s) for s in D2.incidence}


def shifted(base: DelzantPolytope, s) -> HPolytope:
    """The base's H-representation with offsets lambda_i + s^i."""
    return HPolytope(
        base.dim,
        tuple(HalfSpace(h.normal, h.offset + si) for h, si in zip(base.hrep.halfspaces, s)),
    )


def reference_perturb(base: DelzantPolytope, s) -> DelzantPolytope:
    """The polytope with offsets lambda_i + s^i by enumeration: reduce the
    shifted H-representation, validate it with the rank-test edges of
    :func:`reference_validate_reduced`, and compare its fan with the
    base's.  The first failure raises :class:`PerturbationError`."""
    sv = as_vec(s)
    if len(sv) != base.hrep.num_facets:
        raise ValueError("offset vector length must match the facet count")
    raw = shifted(base, sv)
    try:
        reduced, verts, incidence = _reduce(raw)
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
        D = reference_validate_reduced(reduced, verts, incidence)
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
        return {frozenset(inc): v for v, inc in zip(D.vertices, D.incidence)}

    m1, m2, mid = by_active(s1), by_active(s2), by_active(mid_s)
    return all(
        v == tuple((1 - t) * a + t * b for a, b in zip(m1[key], m2[key]))
        for key, v in mid.items()
    )


def reference_volume(P: HPolytope) -> Fraction:
    """Exact Euclidean volume.

    Anchors at the lexicographically smallest vertex, triangulates every
    facet not containing it recursively, and sums |det| / n! per simplex.
    """
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


def reference_incidence(P: HPolytope, verts) -> tuple:
    """Sorted indices of the halfspaces tight at each vertex, by evaluating
    every halfspace at every vertex."""
    return tuple(
        tuple(i for i, h in enumerate(P.halfspaces) if h.eval_at(v) == 0)
        for v in verts
    )


def reference_remove_redundant(P: HPolytope) -> HPolytope:
    """Minimal H-representation: keep exactly the halfspaces supporting a
    facet (a tight vertex set of affine rank dim - 1), the first of any
    duplicates, in input order."""
    verts = vertex_set(P)
    if affine_rank(verts) < P.dim:
        raise DegeneratePolytopeError("degenerate polytope")
    incidence = reference_incidence(P, verts)
    kept: dict[int, int] = {}  # index in P -> index in the reduced polytope
    seen: set[tuple] = set()
    for i, h in enumerate(P.halfspaces):
        tight = [v for v, inc in zip(verts, incidence) if i in inc]
        if affine_rank(tight) != P.dim - 1:
            continue
        key = (h.normal, h.offset)
        if key in seen:
            continue
        seen.add(key)
        kept[i] = len(kept)
    return HPolytope(P.dim, tuple(P.halfspaces[i] for i in kept))


def reference_validate_reduced(reduced: HPolytope, verts, incidence) -> DelzantPolytope:
    """Delzant validation with the edges from the rank test,
    :func:`brute_force_edges`, and every frame built from the primitive
    directions of the vertex differences along its edges, with the
    unimodularity test on their determinant.

    The polytope is built from these directions, and its ``frames`` are
    these rank-test frames: they are stored in the instance as the cached
    value of the property, so the library's derivation never runs on it."""
    n = reduced.dim
    nverts = len(verts)

    neighbors: dict[int, list[int]] = {i: [] for i in range(nverts)}
    for i, j in brute_force_edges(reduced, verts, incidence):
        neighbors[i].append(j)
        neighbors[j].append(i)

    frames: list[VertexFrame] = []
    for i in range(nverts):
        active = incidence[i]
        if len(active) != n or len(neighbors[i]) != n:
            raise NotDelzantError(f"not simple at vertex {i}")
        # Order the edges at the vertex by the facet they leave.
        by_omitted: dict[int, int] = {}
        for j in neighbors[i]:
            omitted = set(active) - set(incidence[j])
            if len(omitted) != 1:
                raise NotDelzantError(f"not simple at vertex {i}")
            f = omitted.pop()
            if f in by_omitted:
                raise NotDelzantError(f"not simple at vertex {i}")
            by_omitted[f] = j
        order = [by_omitted[f] for f in sorted(by_omitted)]
        dirs = []
        lens = []
        for j in order:
            u, t = primitive_direction(vec_sub(verts[j], verts[i]))
            dirs.append(u)
            lens.append(t)
        det = mat_det(dirs)
        if det != 1 and det != -1:
            raise NotDelzantError(
                f"not unimodular at vertex {i} (det = {det})"
            )
        frames.append(VertexFrame(tuple(dirs), tuple(lens), tuple(order)))
    D = DelzantPolytope(reduced, verts, incidence, tuple(f.directions for f in frames))
    D.__dict__["frames"] = tuple(frames)
    return D


def reference_scan_segment(
    base: DelzantPolytope, s1, s2, samples: int
) -> ScanResult:
    """Scan t -> Delta_{(1-t) s1 + t s2} at t = k/samples, k = 0..samples,
    one :func:`perturb` and one :func:`maximize` per sample.

    Every sample is validated; an inadmissible one raises ScanError naming
    its t.  Certificates: midpoint concavity of vol^(1/n) over the whole
    segment and midpoint convexity of omega^(1/n) for triples within
    [0, 1/4], all in exact arithmetic.
    """
    if samples < 1:
        raise ValueError("need at least one subdivision")
    v1 = as_vec(s1)
    v2 = as_vec(s2)
    ts: list[Fraction] = []
    vols: list[Fraction] = []
    omegas: list[Fraction] = []
    decs: list[str] = []
    counts: list[int] = []
    first: DelzantPolytope | None = None
    last: DelzantPolytope | None = None
    n = base.dim
    for k in range(samples + 1):
        t = Fraction(k, samples)
        s = vec_add(vec_scale(1 - t, v1), vec_scale(t, v2))
        try:
            D = perturb(base, s)
        except PerturbationError as exc:
            raise ScanError(f"inadmissible sample at t = {t}: {exc}") from exc
        if k == 0:
            first = D
        if k == samples:
            last = D
        omega, packs = maximize(D)
        ts.append(t)
        vols.append(D.euclidean_volume)
        omegas.append(omega)
        decs.append(nthroot_decimal(omega, n))
        counts.append(len(packs))

    vol_cmps = [
        reference_compare_root_midpoint(vols[k], vols[k - 1], vols[k + 1], n)
        for k in range(1, samples)
    ]
    near_zero = [
        reference_compare_root_midpoint(omegas[k], omegas[k - 1], omegas[k + 1], n)
        for k in range(1, samples)
        if Fraction(k + 1, samples) <= Fraction(1, 4)
    ]
    assert first is not None and last is not None
    return ScanResult(
        samples=samples,
        ts=tuple(ts),
        volumes=tuple(vols),
        omegas=tuple(omegas),
        omega_root_decimals=tuple(decs),
        maximizer_counts=tuple(counts),
        vol_root_midpoint_concave=all(c >= 0 for c in vol_cmps),
        vol_root_strictly_concave_somewhere=any(c > 0 for c in vol_cmps),
        vol_root_all_midpoints_equal=all(c == 0 for c in vol_cmps),
        omega_root_midpoint_convex_near_zero=all(c <= 0 for c in near_zero),
        endpoints_homothetic=is_homothetic(first, last),
    )


def reference_binding_edges(D: DelzantPolytope) -> list:
    """The edges (i, j, l_ij) with l_ij < r_i + r_j, filtered from the
    edge list through the full pair-bound matrix, in lexicographic order."""
    r, b = D.corner_radii, D.pair_bounds
    return [(i, j, b[i][j]) for i, j in D.edges if b[i][j] < r[i] + r[j]]


def reference_packing_rows(V: int, bounds, radii=None) -> HPolytope:
    """x >= 0 in R^V, or x <= radii when given, plus x_i + x_j <= b for
    each (i, j, b) in bounds."""
    if radii is not None:
        rows = [HalfSpace(tuple(-int(k == i) for k in range(V)), -radii[i]) for i in range(V)]
    else:
        rows = [HalfSpace(tuple(int(k == i) for k in range(V)), 0) for i in range(V)]
    for i, j, b in bounds:
        normal = tuple(-int(k == i) - int(k == j) for k in range(V))
        rows.append(HalfSpace(normal, -b))
    return HPolytope(V, tuple(rows))


def build_packing_polytope(D: DelzantPolytope) -> HPolytope:
    """The full packing system: x_i >= 0 for each vertex, then
    x_i + x_j <= pair_bounds[i][j] for every pair i < j in lexicographic
    order, the rows that ``pack --json`` prints."""
    b = D.pair_bounds
    pairs = itertools.combinations(range(D.num_vertices), 2)
    return reference_packing_rows(D.num_vertices, [(i, j, b[i][j]) for i, j in pairs])


def reference_edge_system(D: DelzantPolytope) -> HPolytope:
    """The packing polytope from the edge graph of D: x >= 0, plus
    x_i + x_j <= l_ij on each edge (i, j) with l_ij < r_i + r_j.  Every
    other row of ``build_packing_polytope`` is implied."""
    return reference_packing_rows(D.num_vertices, reference_binding_edges(D))


def packing_polytope_vertices(D: DelzantPolytope) -> tuple:
    """All vertices of the packing polytope, lexicographically sorted."""
    return vertex_set(reference_edge_system(D))


def reference_maximal_rays(D: DelzantPolytope) -> list:
    """The rays (x0; y), x0 > 0, of the homogenized down-closure
    {x_i <= r_i, x_i + x_j <= l_ij on the binding edges} of D's packing
    polytope, built as an ``HPolytope`` with ``Fraction`` offsets and
    homogenized row by row, then enumerated by the library's double
    description."""
    down = reference_packing_rows(D.num_vertices, reference_binding_edges(D), D.corner_radii)
    rays = _cone_rays(_homogenized_rows(down), D.num_vertices + 1)[0]
    return [ray for ray in rays if ray[0]]
