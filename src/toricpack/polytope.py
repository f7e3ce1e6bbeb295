"""Exact convex polytope machinery over the rationals.

Polytopes are handled in H-representation: an intersection of halfspaces
{x : <normal, x> >= offset} with primitive integral inward normals.  Vertices
are enumerated by the incremental double description method (Fukuda and
Prodon 1996) on the homogenized cone, in exact integer arithmetic; the tests
hold it equal to an exhaustive active-set search.  It starts from the
whole space and pivots its lineality away, one independent row at a time;
a system of low rank leaves lineality, which the row x0 >= 0 puts in
x0 = 0.  A polytope is enumerated once, and no halfspace is evaluated at a
vertex afterwards: double description tracks each ray's tight set exactly,
so the vertex-facet incidence is its masks, and reduction to the minimal
H-representation keeps the rows whose tight vertex sets are maximal, then
hands the vertex set on to the incidence of the result.
Every double description, of a polytope or of the packing down-closure,
goes through :func:`_cone_rays`, which alone fixes the row insertion order.

Adjacency is decided on bits, by one test shared by double description and
``DelzantPolytope.frames``, which finds each vertex's neighbours with it.
Tight sets are bitmasks over rows; their transpose holds, per row, the
bitmask of the positions tight on it.  Two positions are adjacent exactly
when the AND of the transposed masks of their common rows, started from
the mask of all live positions, leaves only the pair.  Double description
keeps the transpose up to date as it inserts rows, and keeps, per positive
ray, the last third ray that proved a pair non-adjacent: one mask test with
that witness settles a pair before any AND is taken (for the cube-4
packing polytope, 631 k of 1.26 M candidate pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import IntVec, Vec, dot, gcd_primitive, rat


class PolytopeError(ValueError):
    pass


class EmptyPolytopeError(PolytopeError):
    pass


class UnboundedPolytopeError(PolytopeError):
    pass


class DegeneratePolytopeError(PolytopeError):
    pass


@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace {x : <normal, x> >= offset}.

    The constructor rescales so the normal is primitive integral; the inward
    direction is preserved.
    """

    normal: IntVec
    offset: Fraction

    def __init__(self, normal, offset):
        ints = tuple(int(c) for c in normal)
        if ints != tuple(normal):
            raise ValueError("normal entries must be integers")
        prim, g = gcd_primitive(ints)
        object.__setattr__(self, "normal", prim)
        object.__setattr__(self, "offset", rat(offset) if g == 1 else rat(offset) / g)

    def eval_at(self, x) -> Fraction:
        """Slack <normal, x> - offset; nonnegative inside."""
        return dot(self.normal, x) - self.offset


@dataclass(frozen=True)
class HPolytope:
    """Intersection of halfspaces in R^dim (not validated at construction)."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __init__(self, dim, halfspaces):
        hs = tuple(halfspaces)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        for h in hs:
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "halfspaces", hs)

    @property
    def num_facets(self) -> int:
        return len(self.halfspaces)


def hpolytope(dim: int, rows) -> HPolytope:
    """Build an HPolytope from (normal, offset) pairs."""
    return HPolytope(dim, tuple(HalfSpace(n, o) for n, o in rows))


# ---------------------------------------------------------------------------
# Double description over integer cone rows.


class _LowRankCone(Exception):
    """Lineality is left in the cone; ``args[0]`` holds its live rays."""


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _tight_columns(masks: list[int]) -> list[int]:
    """Transpose of the tight sets: entry r is the bitmask of the positions
    i whose ``masks[i]`` holds row r."""
    cols = [0] * max(masks, default=0).bit_length()
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def _third_positions(common: int, pair: int, cols: list[int], alive: int) -> int:
    """Positions of ``alive`` other than ``pair`` that are tight on every
    row of ``common``, as a bitmask; 0 exactly when the pair is adjacent.
    ``pair`` may be one position, to find the other end of an edge.

    ANDs the columns of the common rows into the mask of every live
    position, highest row first, and stops once only the pair is left.
    Starting from ``alive`` rather than -1 keeps the test right when the
    pair shares no row.  (Highest row first measured about 20% faster than
    lowest first on the cube-4 packing system, for as many ANDs.)
    """
    acc = alive
    while common:
        top = common.bit_length() - 1
        acc &= cols[top]
        if acc == pair:
            return 0
        common ^= 1 << top
    return acc ^ pair


def _pivoted(v: IntVec, l: IntVec, dl: int, nz: list[tuple[int, int]]) -> IntVec:
    """Primitive dl v - (row . v) l, the row given by its nonzero pairs nz."""
    dv = sum(coef * v[c] for c, coef in nz)
    return gcd_primitive([dl * x - dv * y for x, y in zip(v, l)])[0] if dv else v


def _dd_rays(rows: list[IntVec], dim: int) -> tuple[list[IntVec], list[int]]:
    """Extreme rays of the pointed cone {x : r . x >= 0 for r in rows}, with
    their tight sets: bitmasks of the row positions each ray lies on.

    Incremental double description from R^dim, whose lineality basis is the
    unit vectors, inserting the rows in list order; lineality is tight on
    every row so far.  A row nonzero on a lineality vector l, with
    row . l > 0, is a pivot: each other lineality vector and live ray v
    becomes the primitive form of (row . l) v - (row . v) l, which is tight
    on the row and has row . l times v's slack on every earlier row, and l
    becomes a ray tight on every earlier row.  Another row is a double
    description step; two adjacent rays span a face holding the lineality,
    so they share at least dim - len(lineality) - 2 rows.  A new ray, a
    positive combination of two rays, lies on exactly their common rows and
    the new one.  Each ray keeps the slot it was made in, and the transpose
    of the tight sets (one bitmask of slots per row) is kept up to date, so
    that rays p and m are adjacent exactly when the AND of the columns of
    their common rows, started from the mask of live slots, is {p, m}
    (:func:`_third_positions`); a dead ray only leaves that mask.  A third
    ray found on all common rows is kept as p's witness and tried first on
    p's next pair.  Raises _LowRankCone with the live rays when lineality is
    left, that is when rank(rows) < dim.
    """
    lineality = [(0,) * r + (1,) + (0,) * (dim - r - 1) for r in range(dim)]
    rays: list[IntVec] = []  # by slot
    masks: list[int] = []  # by slot
    cols = [0] * len(rows)  # by row: the slots tight on it
    live: list[int] = []
    alive = 0

    for k, row in enumerate(rows):
        nz = [(c, coef) for c, coef in enumerate(row) if coef]
        bit_k = 1 << k
        dl = 0
        for i, l in enumerate(lineality):
            dl = sum(coef * l[c] for c, coef in nz)
            if dl:
                break
        if dl:
            del lineality[i]
            if dl < 0:
                l, dl = tuple(-x for x in l), -dl
            lineality = [_pivoted(v, l, dl, nz) for v in lineality]
            for s in live:
                rays[s] = _pivoted(rays[s], l, dl, nz)
                masks[s] |= bit_k
            cols[k] = alive
            bit = 1 << len(rays)
            cols[:k] = [c | bit for c in cols[:k]]
            alive |= bit
            live.append(len(rays))
            rays.append(l)
            masks.append(bit_k - 1)
            continue

        dots = [sum(coef * rays[s][c] for c, coef in nz) for s in live]
        pos = [(s, d) for s, d in zip(live, dots) if d > 0]
        zero = [s for s, d in zip(live, dots) if d == 0]
        neg = [(s, d) for s, d in zip(live, dots) if d < 0]
        for s in zero:
            masks[s] |= bit_k
            cols[k] |= 1 << s
        if not neg:
            continue

        made = len(rays)
        need = dim - len(lineality) - 2
        for p, dp in pos:
            mp = masks[p]
            rp = rays[p]
            witness = -1
            for m, dm in neg:
                common = mp & masks[m]
                if common.bit_count() < need:
                    continue
                # The witness may be a negative ray still to be paired with p.
                if witness != m and witness >= 0 and masks[witness] & common == common:
                    continue
                others = _third_positions(common, (1 << p) | (1 << m), cols, alive)
                if others:
                    witness = (others & -others).bit_length() - 1
                    continue
                rm = rays[m]
                rays.append(gcd_primitive([dp * rm[c] - dm * rp[c] for c in range(dim)])[0])
                masks.append(common | bit_k)
        for s in range(made, len(rays)):
            bit = 1 << s
            mask = masks[s]
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= bit
                mask ^= low
            alive |= bit
        for m, _ in neg:
            alive ^= 1 << m
        live = [p for p, _ in pos] + zero + list(range(made, len(rays)))
    if lineality:
        raise _LowRankCone([rays[s] for s in live])
    return [rays[s] for s in live], [masks[s] for s in live]


def _homogenized_rows(P: HPolytope) -> list[IntVec]:
    """Primitive integer rows of the lifted cone
    {(x0, x) : x0 >= 0, <u,x> >= l*x0}.

    The row of <u, x> >= p/q, with p/q in lowest terms, is (-p, q u).  It is
    primitive as built: u is primitive, so the entries of q u have gcd q,
    and gcd(p, q u_1, ..., q u_n) = gcd(p, q) = 1 (for p = 0, q = 1).
    """
    rows: list[IntVec] = [(1,) + (0,) * P.dim]
    for h in P.halfspaces:
        q = h.offset.denominator
        rows.append((-h.offset.numerator,) + tuple(q * c for c in h.normal))
    return rows


def _insertion_order(rows: list[IntVec]) -> list[int]:
    """Indices of the rows in the order double description inserts them:
    by last nonzero coordinate, ties in input order."""

    def last_nonzero(r: IntVec) -> int:
        for i in range(len(r) - 1, -1, -1):
            if r[i] != 0:
                return i
        return -1

    return sorted(range(len(rows)), key=lambda i: (last_nonzero(rows[i]), i))


def _cone_rays(rows: list[IntVec], dim: int) -> tuple[list[IntVec], list[int], list[int]]:
    """Extreme rays of the pointed cone {x in R^dim : r . x >= 0 for r in
    rows}, by double description with the rows in :func:`_insertion_order`.
    The rows must have rank dim; raises _LowRankCone otherwise.

    Beside the rays come their tight sets, as bitmasks of insertion
    positions, and the insertion order: position p holds row order[p].
    A homogenized system's row x0 >= 0, nonzero only at x0, goes in first,
    and its pivot on e_0 makes the origin a ray; the lineality left by a
    low-rank system is tight on it.
    """
    order = _insertion_order(rows)
    rays, masks = _dd_rays([rows[i] for i in order], dim)
    return rays, masks, order


def _polytope_rays(P: HPolytope) -> tuple[list[IntVec], list[int], list[int]]:
    """Extreme rays (x0; y) of the homogenized cone of a bounded, nonempty
    polytope, each with x0 > 0: the vertices of P are y / x0, one per ray.
    The tight sets and the insertion order come beside them, as in
    :func:`_cone_rays`; row r > 0 of :func:`_homogenized_rows` is
    halfspace r - 1 of P.

    Raises on empty or unbounded input.  Lineality left by a low-rank system
    is tight on the row x0 >= 0, so P is nonempty exactly when some live ray
    has x0 > 0, and then it holds a line: it is unbounded.
    """
    # With no ray at x0 > 0 the cone has no point there, so emptiness takes
    # precedence over lineality and over leftover recession rays.
    try:
        rays, masks, order = _cone_rays(_homogenized_rows(P), P.dim + 1)
    except _LowRankCone as low:
        rays, masks = low.args[0], None
    if all(ray[0] == 0 for ray in rays):
        raise EmptyPolytopeError("empty polytope")
    if masks is None or any(ray[0] == 0 for ray in rays):
        raise UnboundedPolytopeError("unbounded polytope")
    return rays, masks, order


# ---------------------------------------------------------------------------
# Vertex enumeration.


def _vertex(ray: IntVec) -> Vec:
    return tuple(Fraction(c, ray[0]) for c in ray[1:])


def _tight_vertices(P: HPolytope) -> tuple[tuple[Vec, ...], list[int]]:
    """The vertices of a bounded polytope, lexicographically sorted, and
    beside each its tight set: the bitmask of the halfspaces it lies on,
    double description's mask mapped back through the insertion order
    with the row x0 >= 0 left out."""
    rays, masks, order = _polytope_rays(P)
    bit = [1 << (i - 1) if i else 0 for i in order]
    pairs = sorted(
        ((_vertex(ray), sum(bit[p] for p in _bits(m))) for ray, m in zip(rays, masks)),
        key=lambda p: p[0],
    )
    return tuple(v for v, _ in pairs), [m for _, m in pairs]


def _reduce(P: HPolytope) -> tuple[HPolytope, tuple[Vec, ...], tuple[tuple[int, ...], ...]]:
    """Minimal H-representation of P, its sorted vertices and their facet
    incidence, from one enumeration of P; no edge is computed, since
    ``DelzantPolytope.frames`` reads each neighbour off the incidence.

    Double description hands on each vertex's tight set.  A halfspace is
    kept when its tight vertex set is nonempty and lies strictly inside no
    other halfspace's tight set; of rows with equal tight sets the first is
    kept, in input order.  These are exactly the facets: P is checked
    full-dimensional first, so every facet of P is supported by some row.
    The check is that no row is tight at every vertex: such a row is tight
    on all of P, an implicit equality, and a nonempty polytope is
    full-dimensional exactly when its system has none (Schrijver, Theory
    of Linear and Integer Programming, 8.2).  The tight vertices of a row
    are the vertices of the face it supports, and the vertex sets of faces
    nest like the faces, so a row supporting a lower face has a tight set
    strictly inside that of a facet's row, while a facet's vertex set is
    strictly inside no other proper face's.  The facet's affine hull then
    fixes its row's primitive (normal, offset), so rows with one facet set
    are duplicates.  The reduced polytope is the same set, so P's vertices
    are its vertices, and its incidence is P's renumbered.
    """
    verts, masks = _tight_vertices(P)
    cols = _tight_columns(masks)
    if (1 << len(verts)) - 1 in cols:
        raise DegeneratePolytopeError("degenerate polytope")
    cols += [0] * (P.num_facets - len(cols))
    kept: dict[int, int] = {}  # index in P -> index in the reduced polytope
    seen: set[int] = set()
    for i, c in enumerate(cols):
        if not c or c in seen or any(c & d == c and c != d for d in cols):
            continue
        seen.add(c)
        kept[i] = len(kept)
    reduced = HPolytope(P.dim, tuple(P.halfspaces[i] for i in kept))
    incidence = tuple(tuple(kept[i] for i in _bits(m) if i in kept) for m in masks)
    return reduced, verts, incidence
