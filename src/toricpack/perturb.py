"""Offset perturbation families of a Delzant polytope.

Moving each facet offset by s^i sweeps out a family of polytopes with the
same normals.  Admissible parameters keep the facet count, the Delzant
property, and the normal fan.  On a fixed fan each vertex is affine in the
parameter, v_I(s) = v_I + sum_{f in I} s^f d_f along the base's vertex
frame, so an admissible member is built from the base's vertex cones, and
keeps their frame directions, with no vertex enumeration; only a rejected
parameter is enumerated, to name what failed.  Along segments of
admissible parameters the polytopes interpolate Minkowski-linearly, and
the n-th roots of volume and of maximal density satisfy discrete
concavity/convexity certificates checked here in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delzant import (
    DelzantPolytope,
    NotDelzantError,
    VertexFrame,
    _edge_lengths,
    _validate_reduced,
)
from .linalg import (
    as_vec,
    dot,
    nthroot_bounds,
    nthroot_decimal,
    rational_nthroot,
    vec_add,
    vec_scale,
)
from .packing import maximize
from .polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HPolytope,
    HalfSpace,
    VertexData,
    _reduce,
)


class PerturbationError(ValueError):
    """Raised when an offset parameter leaves the admissible region.

    ``code`` is one of "empty", "lost facet", "not Delzant", "fan changed".
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


class ScanError(ValueError):
    pass


def perturb(base: DelzantPolytope, s) -> DelzantPolytope:
    """The polytope D(s) with offsets lambda_i + s^i, built on the base's fan.

    At the base vertex with active facets I the frame columns d_f (one per
    f in I) invert the active normals N_I, so the point of D(s) on the same
    facets is v_I(s) = v_I + sum_{f in I} s^f d_f.  The offset is accepted
    exactly when every facet outside I keeps strictly positive slack at
    every v_I(s), and D(s) is then the moved vertices in lexicographic order
    with the base's incidence, edges and frame directions, renumbered;
    nothing is enumerated and no frame is recomputed.  The moved neighbour
    across the edge along d_f lies on the ray from v_I(s) along d_f (see
    below), so the edge's lattice length is read off the moved vertices by
    :func:`~toricpack.delzant._edge_lengths`, as in validation.

    Why this is enough: each v_I(s) is feasible and lies on exactly the n
    facets I, so it is a simple vertex of D(s).  Its edge along d_f keeps
    the facets I - {f}, on which the moved neighbour across the base's edge
    along d_f also lies, on the side d_f points to; so each of its n edges
    reaches a moved vertex.  The graph of D(s) is connected, so these are
    all of its vertices, and the fan is the base's.  Conversely, a D(s) with
    the base's fan has exactly these simple vertices, each on exactly the
    facets I, so every rejected offset changes the fan or worse.

    A rejected offset is reduced and validated in full to name the first
    failure as a :class:`PerturbationError`: "empty", "lost facet", "not
    Delzant", and otherwise "fan changed".
    """
    sv = as_vec(s)
    if len(sv) != base.hrep.num_facets:
        raise ValueError(
            f"offset vector has {len(sv)} entries, the polytope has "
            f"{base.hrep.num_facets} facets"
        )
    shifted = HPolytope(
        base.dim,
        tuple(
            HalfSpace(h.normal, h.offset + si)
            for h, si in zip(base.hrep.halfspaces, sv)
        ),
    )
    incidence = base.vdata.incidence
    moved = [
        tuple(
            c + sum(sv[f] * d[k] for f, d in zip(active, frame.directions))
            for k, c in enumerate(v)
        )
        for v, active, frame in zip(base.vertices, incidence, base.frames)
    ]
    if all(
        h.eval_at(w) > 0
        for w, active in zip(moved, incidence)
        for j, h in enumerate(shifted.halfspaces)
        if j not in active
    ):
        order = sorted(range(len(moved)), key=moved.__getitem__)
        rank = {i: k for k, i in enumerate(order)}
        edges = sorted(tuple(sorted((rank[i], rank[j]))) for i, j in base.vdata.edges)
        vd = VertexData(
            tuple(moved[i] for i in order),
            tuple(incidence[i] for i in order),
            tuple(edges),
        )
        frames = []
        for i in order:
            f = base.frames[i]
            lengths = _edge_lengths(moved, i, f.directions, f.neighbor_indices)
            neighbors = tuple(rank[j] for j in f.neighbor_indices)
            frames.append(VertexFrame(f.directions, lengths, neighbors))
        return DelzantPolytope(shifted, vd, tuple(frames))
    try:
        reduced, vd = _reduce(shifted)
    except EmptyPolytopeError as exc:
        raise PerturbationError("empty", str(exc)) from exc
    except DegeneratePolytopeError as exc:
        raise PerturbationError("empty", "no interior") from exc
    if len(reduced.halfspaces) != len(shifted.halfspaces):
        raise PerturbationError(
            "lost facet",
            f"{len(shifted.halfspaces) - len(reduced.halfspaces)} facet(s) became redundant",
        )
    try:
        _validate_reduced(reduced, vd)
    except NotDelzantError as exc:
        raise PerturbationError("not Delzant", str(exc)) from exc
    raise PerturbationError("fan changed")


def is_admissible(base: DelzantPolytope, s) -> bool:
    try:
        perturb(base, s)
    except PerturbationError:
        return False
    return True


def safe_radius_estimate(base: DelzantPolytope) -> Fraction:
    """Exact admissibility radius of the offsets in the max-norm.

    The bound is open: every offset s with max|s^i| strictly below the
    returned radius is admissible, and some offset with max|s^i| equal to
    it is not.  At the vertex with active facets I the normals N_I form a
    unimodular matrix whose inverse is the vertex frame (the edge
    directions d_f, ordered by the facet f each leaves), and the vertex
    moves as v_I(s) = N_I^-1 (lambda_I + s_I).  The slack of another facet
    j there is c + a . s_I - s^j, with c its slack at the base vertex and
    a = u_j N_I^-1 = (<u_j, d_f>)_f (integral).  It stays positive for all
    max|s^i| < rho exactly when rho <= c / (|a|_1 + 1); the radius is the
    least such bound over all vertices and facets.
    """
    halfspaces = base.hrep.halfspaces
    bounds: list[Fraction] = []
    for v, active, frame in zip(base.vertices, base.vdata.incidence, base.frames):
        for j, h in enumerate(halfspaces):
            if j in active:
                continue
            a = [dot(h.normal, d) for d in frame.directions]
            bounds.append(h.eval_at(v) / (sum(abs(c) for c in a) + 1))
    return min(bounds)


# ---------------------------------------------------------------------------
# Exact comparisons of n-th root combinations.


def compare_root_midpoint(mid: Fraction, left: Fraction, right: Fraction, n: int) -> int:
    """Sign of 2*mid^(1/n) - left^(1/n) - right^(1/n), exactly.

    If left/mid and right/mid are both rational n-th powers the comparison
    is rational.  Otherwise the two sides differ (incommensurable radicals
    over Q cannot cancel against 2*mid^(1/n)), and adaptive-precision
    integer root bounds settle the sign.
    """
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


def is_homothetic(D1: DelzantPolytope, D2: DelzantPolytope) -> bool:
    """Exact test for D2 = lam * D1 + v with rational lam > 0.

    With rational vertex data any homothety ratio is rational, so lam must
    be the rational n-th root of the volume ratio; the translation is fixed
    by the lexicographically smallest vertices and verified on the full
    vertex sets.
    """
    if D1.dim != D2.dim:
        raise ValueError("dimension mismatch")
    lam = rational_nthroot(D2.euclidean_volume / D1.euclidean_volume, D1.dim)
    if lam is None:
        return False
    v = tuple(
        b - lam * a for a, b in zip(D1.vertices[0], D2.vertices[0])
    )
    mapped = {vec_add(vec_scale(lam, w), v) for w in D1.vertices}
    return mapped == set(D2.vertices)


# ---------------------------------------------------------------------------
# Segment scans.


@dataclass(frozen=True)
class ScanResult:
    """Exact per-sample data along an admissible offset segment.

    ``omega_root_decimals`` renders omega^(1/n) to 30 significant digits
    for reporting; every certificate below is decided by exact comparison
    of n-th powers, independent of that rendering.
    """

    samples: int
    ts: tuple[Fraction, ...]
    volumes: tuple[Fraction, ...]
    omegas: tuple[Fraction, ...]
    omega_root_decimals: tuple[str, ...]
    maximizer_counts: tuple[int, ...]
    vol_root_midpoint_concave: bool
    vol_root_strictly_concave_somewhere: bool
    vol_root_all_midpoints_equal: bool
    omega_root_midpoint_convex_near_zero: bool
    endpoints_homothetic: bool


def scan_segment(
    base: DelzantPolytope, s1, s2, samples: int
) -> ScanResult:
    """Scan t -> Delta_{(1-t) s1 + t s2} at t = k/samples, k = 0..samples.

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
        compare_root_midpoint(vols[k], vols[k - 1], vols[k + 1], n)
        for k in range(1, samples)
    ]
    near_zero = [
        compare_root_midpoint(omegas[k], omegas[k - 1], omegas[k + 1], n)
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
