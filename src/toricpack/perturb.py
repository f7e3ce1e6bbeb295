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
Offsets move in integers at one scale (:func:`~toricpack.delzant._moved`);
a scan interpolates its samples from its ends' integers for the one
routine behind :func:`maximize` and the Brion sum of ``euclidean_volume``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .delzant import (
    DelzantPolytope,
    NotDelzantError,
    _brion_terms,
    _brion_volume,
    _edge_lengths,
    _moved,
    _validate_reduced,
)
from .linalg import (
    _floor_root_scaled,
    as_vec,
    dot,
    nthroot_decimal,
    rational_nthroot,
    vec_add,
    vec_scale,
)
from .packing import _maxima
from .polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    _reduce,
    hpolytope,
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
    exactly when every off-vertex slack of :func:`_moved` is positive, and
    D(s) is then the moved vertices, made Fractions, in lexicographic order
    with the base's incidence and directions, reordered alike; nothing is
    enumerated and no edge is built.  The member derives its own frames
    from these, as a validated polytope does: the moved neighbour across
    the edge along d_f lies on the ray from v_I(s) along d_f (see below),
    so the edge's lattice length is read off the moved vertices.

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
    moved, slacks, q = _moved(base, sv)
    shifted = hpolytope(
        base.dim, [(h.normal, h.offset + si) for h, si in zip(base.hrep.halfspaces, sv)]
    )
    if all(x > 0 for x in slacks):
        order = sorted(range(len(moved)), key=moved.__getitem__)
        return DelzantPolytope(
            shifted,
            tuple(tuple(Fraction(c, q) for c in moved[i]) for i in order),
            tuple(base.incidence[i] for i in order),
            tuple(base.directions[i] for i in order),
        )
    try:
        reduced, verts, incidence = _reduce(shifted)
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
        _validate_reduced(reduced, verts, incidence)
    except NotDelzantError as exc:
        raise PerturbationError("not Delzant", str(exc)) from exc
    raise PerturbationError("fan changed")


def is_admissible(base: DelzantPolytope, s) -> bool:
    """Whether :func:`perturb` accepts s: every off-vertex slack of
    :func:`_moved` is positive, tested in integers.  No member is built."""
    return all(x > 0 for x in _moved(base, as_vec(s))[1])


def safe_radius_estimate(base: DelzantPolytope) -> Fraction:
    """Exact admissibility radius of the offsets in the max-norm.

    The bound is open: every offset s with max|s^i| strictly below the
    returned radius is admissible, and some offset with max|s^i| equal to
    it is not.  The slack of facet j off the vertex v_I is affine in s:
    c + a . s_I - s^j, with c its slack at s = 0 (``base._lattice``) and
    a = (<u_j, d_f>)_f.  It stays positive for all max|s^i| < rho exactly
    when rho <= c / (|a|_1 + 1); the radius is the least such bound over
    all vertices and facets, found by cross-multiplying integers.
    """
    _, slacks, q = base._lattice
    weights = [
        sum(abs(dot(h.normal, d)) for d in dirs) + 1
        for active, dirs in zip(base.incidence, base.directions)
        for j, h in enumerate(base.hrep.halfspaces)
        if j not in active
    ]
    c, w = min(zip(slacks, weights), key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    return Fraction(c, w * q)


# ---------------------------------------------------------------------------
# Exact comparisons of n-th root combinations.


def compare_root_midpoint(mid: Fraction, left: Fraction, right: Fraction, n: int) -> int:
    """Sign of 2*mid^(1/n) - left^(1/n) - right^(1/n), exactly.

    If left/mid and right/mid are both rational n-th powers the comparison
    is rational.  Otherwise the two sides differ (incommensurable radicals
    over Q cannot cancel against 2*mid^(1/n)), and adaptive-precision
    integer root bounds settle the sign.  At prec digits let a, b and c be
    the floors of 10^prec times mid^(1/n), left^(1/n) and right^(1/n).
    Each scaled root lies in [floor, floor + 1), so 10^prec times the
    difference is less than 2 from 2a - b - c and has its sign once
    |2a - b - c| > 2.  prec starts at 30 digits and doubles, up to 4000.
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
        a, b, c = (_floor_root_scaled(q, n, prec) for q in (mid, left, right))
        if abs(2 * a - b - c) > 2:
            return 1 if 2 * a > b + c else -1
        prec *= 2
    raise ArithmeticError("root comparison did not separate")


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

    No member polytope is built.  The two ends are tested by their
    off-vertex slacks (:func:`_moved`), t = 0 first; if one is refused,
    :func:`perturb` runs once, at the first inadmissible sample, and
    ScanError names its t.  Every sample is interpolated from the ends'
    integers at their two scales, and the maxima come from
    :func:`~toricpack.packing._maxima`, the routine behind :func:`maximize`.
    Certificates: midpoint concavity of vol^(1/n) over the whole segment
    and midpoint convexity of omega^(1/n) for triples within [0, 1/4], all
    in exact arithmetic.  The ends are homothetic when their edge lengths
    are proportional.

    Why this gives what per-sample validation and :func:`maximize` give:

    - The ends decide every sample.  Each off-vertex slack of :func:`_moved`
      is affine in s, hence in t: a at t = 0 and b at t = 1 give
      ((N - k) a + k b) / N at sample k.  So admissible ends make every
      sample admissible, and if only end 1 is refused, the first refused
      sample is the least k >= N a q1 / (a q1 - b q0) over the slacks
      with b <= 0, for a and b over the ends' scales q0 and q1.
      Every member then has the base's vertex cones, its vertex
      v_I(t) = (1-t) v_I(0) + t v_I(1), and each edge length, read off
      v_j - v_i = l d, is interpolated likewise; its volume is Brion's sum
      over those cones, :func:`~toricpack.delzant._brion_volume` as in
      ``euclidean_volume``, with
      <xi, v(t)> = (1-t) <xi, v(0)> + t <xi, v(1)>.
    - The maxima.  A sample's edge lengths, in the base's edge slots, are
      the member's and affine in k, as ``_maxima`` asks.  omega and the
      maximizer count are symmetric in the vertices, so numbering them in
      base order rather than in the member's order changes neither.
    - Homothety.  D(1) = lam D(0) + v with lam > 0 exactly when every edge
      length at t = 1 is lam times its length at t = 0.  Such a homothety
      keeps the fan, so it maps the vertex on facets I to the vertex on I
      and each edge v_j - v_i = l d to lam l d.  Conversely, with
      v = v_0(1) - lam v_0(0), each edge from i to j along d gives
      v_j(1) - v_i(1) = lam l d = lam (v_j(0) - v_i(0)), so
      v_i(1) = lam v_i(0) + v spreads along the connected edge graph to
      every vertex.  Both ends' lengths are positive numerators over one
      denominator, so proportional numerators give lam > 0.
    """
    if samples < 1:
        raise ValueError("need at least one subdivision")
    v1 = as_vec(s1)
    v2 = as_vec(s2)
    n = base.dim
    N = samples

    def refuse(k: int) -> None:
        """Raise ScanError at the refused sample k, named by perturb."""
        t = Fraction(k, N)
        try:
            perturb(base, vec_add(vec_scale(1 - t, v1), vec_scale(t, v2)))
        except PerturbationError as exc:
            raise ScanError(f"inadmissible sample at t = {t}: {exc}") from exc

    moved0, slacks0, q0 = _moved(base, v1)
    if not all(x > 0 for x in slacks0):
        refuse(0)
    moved1, slacks1, q1 = _moved(base, v2)
    if not all(x > 0 for x in slacks1):
        refuse(min(
            -(-N * a * q1 // (a * q1 - b * q0)) for a, b in zip(slacks0, slacks1) if b <= 0
        ))

    neighbors = base._edge_slots[0]
    ends = [(moved0, q0), (moved1, q1)]
    lengths = _sampled([(_edge_lengths(vs, base.directions, neighbors), q) for vs, q in ends], N)
    xi, denoms = _brion_terms(base.directions)
    heights = _sampled([([dot(xi, v) for v in vs], q) for vs, q in ends], N)
    ranked = _maxima(neighbors, lengths, N, n)

    num0, numN = lengths(0)[0], lengths(N)[0]
    vols = [_brion_volume(n, denoms, *heights(k)) for k in range(N + 1)]
    omegas = [ranked[k][0] / (math.factorial(n) * vols[k]) for k in range(N + 1)]

    vol_cmps = [
        compare_root_midpoint(vols[k], vols[k - 1], vols[k + 1], n)
        for k in range(1, samples)
    ]
    near_zero = [
        compare_root_midpoint(omegas[k], omegas[k - 1], omegas[k + 1], n)
        for k in range(1, samples)
        if 4 * (k + 1) <= samples
    ]
    return ScanResult(
        samples=samples,
        ts=tuple(Fraction(k, N) for k in range(N + 1)),
        volumes=tuple(vols),
        omegas=tuple(omegas),
        omega_root_decimals=tuple(nthroot_decimal(om, n) for om in omegas),
        maximizer_counts=tuple(len(r[1]) for r in ranked),
        vol_root_midpoint_concave=all(c >= 0 for c in vol_cmps),
        vol_root_strictly_concave_somewhere=any(c > 0 for c in vol_cmps),
        vol_root_all_midpoints_equal=all(c == 0 for c in vol_cmps),
        omega_root_midpoint_convex_near_zero=all(c <= 0 for c in near_zero),
        endpoints_homothetic=all(x * numN[0] == y * num0[0] for x, y in zip(num0, numN)),
    )


def _sampled(ends, N: int):
    """k -> (1 - k/N) x / qx + (k/N) y / qy for the integers x, y of the
    ends [(xs, qx), (ys, qy)], as integers over N qx qy, and N qx qy."""
    (xs, qx), (ys, qy) = ends
    return lambda k: ([(N - k) * x * qy + k * y * qx for x, y in zip(xs, ys)], N * qx * qy)
