"""Delzant polytopes: validation, vertex frames, radii, generators.

A Delzant polytope is simple (n facets at every vertex) and at each vertex
the primitive edge directions form a Z-basis of the lattice, i.e. an
integer matrix of determinant +-1.  Validation is that per-cone test: it
stores each vertex cone's directions beside a plain H-representation.  The
vertex frames that the packing constructions consume are derived from them
on first use, each neighbour read off the incidence (across facet f, the
one other vertex on the vertex's other facets).
The volume is Brion's sum over the vertex cones, :func:`_brion_volume`,
which offset scans take for every sample too.

Inside, the vertex cones are integers at one scale, moved by
:func:`_moved` and cached at the base offsets as ``_lattice``.  With Q the
lcm of the offset denominators, L = Q lambda is integral, and on the
facets I of a vertex N_I v_I = lambda_I, so Q v_I = sum_{f in I} L_f d_f
over the integral columns d_f of N_I^-1, and each off-vertex slack
<u_j, Q v_I> - L_j, are integral.  Along an edge v_j - v_i = t d with d
primitive, Q t d is integral; if Q t = p / r in lowest terms, r divides
every p d_k, so every d_k, so r = 1: each edge length is an integer over
Q.  A Fraction is built only where a public field or property returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import IntVec, Vec, bareiss, dot, gcd_primitive, rat
from .polytope import (
    HPolytope,
    PolytopeError,
    _reduce,
    _third_positions,
    _tight_columns,
    hpolytope,
)


class NotDelzantError(PolytopeError):
    """Validation failure; the message names the first violating vertex."""


@dataclass(frozen=True)
class VertexFrame:
    """Edge data at one vertex: primitive directions u^j, rational lengths
    t^j, and the neighbor vertex reached along each edge.  A frame's vertex
    is its position in :attr:`DelzantPolytope.frames`, which derives it.

    Edges are ordered by the facet of the vertex they leave (the unique
    active facet not containing the edge), so frames are reproducible.
    """

    directions: tuple[IntVec, ...]
    lengths: tuple[Fraction, ...]
    neighbor_indices: tuple[int, ...]


@dataclass(frozen=True)
class DelzantPolytope:
    """A validated Delzant polytope: its minimal H-representation, its
    vertices in lexicographic order, their sorted active facets and each
    vertex cone's edge directions (the columns of N_I^-1).  These fix the
    frames, which, like all else, are derived on first use and cached.
    """

    hrep: HPolytope
    vertices: tuple[Vec, ...]
    incidence: tuple[tuple[int, ...], ...]
    directions: tuple[tuple[IntVec, ...], ...]

    @property
    def dim(self) -> int:
        return self.hrep.dim

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def _edge_slots(self) -> tuple[tuple[tuple[int, ...], ...], list[int], int]:
        """Each vertex's neighbours in frame order, the lattice lengths of
        these edge slots over the scale Q, and Q.  Across active facet f of
        vertex i, the other n - 1 active facets cut out the edge along d_f
        (v_i is on no other facet), so its other end j is the one other
        vertex on them, found by double description's adjacency test from
        all vertices (so that n = 1, with no facet left, works).  So
        v_j - v_i = t d_f for the edge length t, read off by
        :func:`_edge_lengths`."""
        masks = [sum(1 << f for f in active) for active in self.incidence]
        on = _tight_columns(masks)
        everyone = (1 << len(masks)) - 1
        neighbors = tuple(
            tuple(
                _third_positions(mask ^ (1 << f), 1 << i, on, everyone).bit_length() - 1
                for f in self.incidence[i]
            )
            for i, mask in enumerate(masks)
        )
        verts, _, q = self._lattice
        return neighbors, _edge_lengths(verts, self.directions, neighbors), q

    @cached_property
    def frames(self) -> tuple[VertexFrame, ...]:
        """The vertex frames, from the integer edge slots."""
        neighbors, lengths, q = self._edge_slots
        n = self.dim
        return tuple(
            VertexFrame(dirs, tuple(Fraction(t, q) for t in lengths[i * n:(i + 1) * n]), nbrs)
            for i, (dirs, nbrs) in enumerate(zip(self.directions, neighbors))
        )

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges: the sorted neighbour pairs (i, j), i < j, of the frames."""
        return tuple(
            (i, j) for i, f in enumerate(self.frames) for j in sorted(f.neighbor_indices) if i < j
        )

    @cached_property
    def corner_radii(self) -> tuple[Fraction, ...]:
        """The largest admissible radius at each vertex: the least edge
        length there."""
        return tuple(min(f.lengths) for f in self.frames)

    @cached_property
    def pair_bounds(self) -> tuple[tuple[Fraction, ...], ...]:
        """The right-hand sides of the pairwise packing constraints:
        ``pair_bounds[i][j]`` is the edge length for adjacent vertices, the
        radius sum otherwise, and 0 on the diagonal."""
        q = self._edge_slots[2]
        return tuple(tuple(Fraction(b, q) for b in row) for row in self._bound_numerators())

    def _bound_numerators(self) -> list[list[int]]:
        """:attr:`pair_bounds` in integers over the scale Q of the edge slots."""
        neighbors, lengths, _ = self._edge_slots
        n = self.dim
        radii = [min(lengths[i:i + n]) for i in range(0, len(lengths), n)]
        slot = dict(zip(((i, j) for i, nbrs in enumerate(neighbors) for j in nbrs), lengths))
        return [
            [slot.get((i, j), (a + b) * (i != j)) for j, b in enumerate(radii)]
            for i, a in enumerate(radii)
        ]

    @cached_property
    def _lattice(self) -> tuple[list[IntVec], list[int], int]:
        """The vertex cones in integers: :func:`_moved` at s = 0, whose
        scale Q is the lcm of the offset denominators."""
        return _moved(self, [0] * self.hrep.num_facets)

    @cached_property
    def euclidean_volume(self) -> Fraction:
        """Exact Euclidean volume by Brion's formula over the vertex cones
        (Brion 1988; Lawrence 1991): :func:`_brion_volume`, the sum every
        scan sample takes too, over the terms of :func:`_brion_terms`, with
        the heights <xi, Q v> of the integer vertices."""
        verts, _, q = self._lattice
        xi, denoms = _brion_terms(self.directions)
        return _brion_volume(self.dim, denoms, [dot(xi, v) for v in verts], q)


def _moved(D: DelzantPolytope, s) -> tuple[list[IntVec], list[int], int]:
    """D's vertex cones at the offsets lambda + s (ints or Fractions), in
    integers at the scale Q_s, the lcm of the denominators of lambda and s:
    the vertices Q_s v_I(s) = sum_{f in I} L_f d_f, L = Q_s (lambda + s),
    in D's order; vertex by vertex, every off-vertex slack
    <u_j, Q_s v_I(s)> - L_j; and Q_s.  s is admissible exactly when every
    slack is positive (:func:`~toricpack.perturb.perturb`)."""
    halfspaces = D.hrep.halfspaces
    if len(s) != len(halfspaces):
        raise ValueError(
            f"offset vector has {len(s)} entries, the polytope has {len(halfspaces)} facets"
        )
    q = math.lcm(*(h.offset.denominator for h in halfspaces), *(x.denominator for x in s))
    L = [
        h.offset.numerator * (q // h.offset.denominator) + x.numerator * (q // x.denominator)
        for h, x in zip(halfspaces, s)
    ]
    verts, slacks = [], []
    for active, dirs in zip(D.incidence, D.directions):
        v = tuple(sum(L[f] * d[k] for f, d in zip(active, dirs)) for k in range(D.dim))
        verts.append(v)
        slacks += [dot(h.normal, v) - L[j] for j, h in enumerate(halfspaces) if j not in active]
    return verts, slacks, q


def _brion_terms(directions) -> tuple[IntVec, list[int]]:
    """The direction xi of Brion's formula for the vertex cones with these
    edge directions, and the denominator prod_f (-<xi, d_f>) of each cone.

    Each vertex cone is unimodular with edge directions d_f, so for any xi
    with no <xi, d_f> = 0,

        vol = (1/n!) sum_v <xi, v>^n / prod_f (-<xi, d_f>).

    Take xi = (1, M, ..., M^(n-1)) with M = 1 + the largest |entry| of any
    direction.  For a nonzero integral d whose last nonzero entry is
    d_k, |d_k M^k| >= M^k, while the lower terms sum to at most
    (M - 1)(1 + M + ... + M^(k-1)) = M^k - 1 in absolute value; so
    <xi, d> != 0.  Only the directions enter, so every member of an
    offset family shares the terms, and only <xi, v> moves.
    """
    n = len(directions[0])
    m = 1 + max(abs(c) for dirs in directions for d in dirs for c in d)
    xi = tuple(m**k for k in range(n))
    return xi, [math.prod(-dot(xi, d) for d in dirs) for dirs in directions]


def _brion_volume(n: int, denoms, heights, q: int) -> Fraction:
    """Brion's sum (1/n!) sum_v <xi, v>^n / d_v over the cone denominators
    d_v of :func:`_brion_terms`, with <xi, v> = heights[v] / q, in integers."""
    dl = math.lcm(*denoms)
    total = sum(dl // d * h**n for d, h in zip(denoms, heights))
    return Fraction(total, dl * math.factorial(n) * q**n)


def validate_delzant(P: HPolytope) -> DelzantPolytope:
    """Check the Delzant condition and build the enriched structure.

    The input is reduced first; failures raise :class:`NotDelzantError`
    naming the first violating vertex in lexicographic vertex order.
    """
    return _validate_reduced(*_reduce(P))


def _validate_reduced(reduced: HPolytope, verts, incidence) -> DelzantPolytope:
    """:func:`validate_delzant` on a minimal H-representation with its
    vertices and facet incidence: the per-cone test, no edge built.

    A vertex on other than n facets is not simple.  At a simple vertex the
    frame comes from its cone, not from its edges.  Let N_I hold the active
    normals in facet order; n normals active at a vertex are independent.
    One fraction-free elimination of [N_I | 1] gives det N_I and N_I^-1, and
    column k of N_I^-1 is the edge that leaves facet I[k]: it is tight on
    the other active facets and has slack 1 on I[k].  With primitive
    normals the vertex is Delzant exactly when det N_I = +-1.  Let U hold
    the primitive edge directions u_k as columns; then N_I U = diag(c) with
    positive integers c.  If det U = +-1, N_I = diag(c) U^-1 has integral
    rows divisible by the c_k, so primitivity forces c = 1 and
    det N_I = +-1.  Conversely an integral N_I^-1 = U diag(c)^-1 has
    integral columns u_k / c_k, so c = 1 again and U = N_I^-1.

    The elimination holds det N_I^-1 on the right, so det times its column
    k is a positive multiple of the edge along u_k: a failing vertex
    reports the determinant of their primitive forms: they are independent,
    so it is the last pivot of their fraction-free elimination.
    """
    n = reduced.dim
    unit = [[int(r == c) for c in range(n)] for r in range(n)]
    dirs: list[tuple[IntVec, ...]] = []
    for i, active in enumerate(incidence):
        if len(active) != n:
            raise NotDelzantError(f"not simple at vertex {i}")
        rows, _, det = bareiss(
            [list(reduced.halfspaces[f].normal) + e for f, e in zip(active, unit)]
        )
        cols = tuple(tuple(det * row[n + k] for row in rows) for k in range(n))
        if det not in (1, -1):
            prim = [gcd_primitive(c)[0] for c in cols]
            raise NotDelzantError(
                f"not unimodular at vertex {i} (det = {bareiss(prim)[2]})"
            )
        dirs.append(cols)
    return DelzantPolytope(reduced, verts, incidence, tuple(dirs))


def _edge_lengths(verts: list[IntVec], directions, neighbors) -> list[int]:
    """The lattice length t of every edge slot, vertex by vertex in frame
    order, from integer vertices over a common scale: the edge along
    primitive d from vertex i reaches vertex j, and v_j - v_i = t d is read
    off one nonzero coordinate of d, exactly (see the module docstring)."""
    lengths = []
    for v, dirs, nbrs in zip(verts, directions, neighbors):
        for d, j in zip(dirs, nbrs):
            c = next(c for c, x in enumerate(d) if x)
            lengths.append((verts[j][c] - v[c]) // d[c])
    return lengths


# ---------------------------------------------------------------------------
# Generators.


def make_simplex(n: int, scale=1) -> DelzantPolytope:
    """Standard n-simplex {x >= 0, sum x <= s}, dilated by ``scale``."""
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {n}")
    s = rat(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    rows = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    rows.append(((-1,) * n, -s))
    return validate_delzant(hpolytope(n, rows))


def make_cube(n: int, scale=1) -> DelzantPolytope:
    """Unit n-cube [0, s]^n."""
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    s = rat(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [(e, 0) for e in unit] + [(tuple(-c for c in e), -s) for e in unit]
    return validate_delzant(hpolytope(n, rows))


def make_product(D1: DelzantPolytope, D2: DelzantPolytope) -> DelzantPolytope:
    """Direct product in R^(n1+n2); facets of D1 first, then of D2."""
    rows = [(h.normal + (0,) * D2.dim, h.offset) for h in D1.hrep.halfspaces]
    rows += [((0,) * D1.dim + h.normal, h.offset) for h in D2.hrep.halfspaces]
    return validate_delzant(hpolytope(D1.dim + D2.dim, rows))


def make_chopped_simplex(eps1, eps2, n: int = 2) -> DelzantPolytope:
    """Standard n-simplex with admissible corner simplices of radii eps1,
    eps2 removed at the vertices e_1 and e_2.

    The cut at e_i is the hyperplane x_i = 1 - eps_i, the unique admissible
    chop of that depth.  Zero-depth cuts are dropped by reduction.
    """
    e1, e2 = rat(eps1), rat(eps2)
    if n < 2:
        raise ValueError(f"chopped simplex dimension must be >= 2, got {n}")
    if e1 < 0 or e2 < 0:
        raise ValueError("chop depths must be nonnegative")
    if e1 + e2 > 1:
        raise ValueError("chop depths violate eps1 + eps2 <= 1")
    if e1 >= 1 or e2 >= 1:
        raise ValueError("chop depth must be less than 1")
    rows = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    rows.append(((-1,) * n, -1))
    rows.append((tuple(-int(j == 0) for j in range(n)), e1 - 1))
    rows.append((tuple(-int(j == 1) for j in range(n)), e2 - 1))
    try:
        return validate_delzant(hpolytope(n, rows))
    except PolytopeError as exc:
        raise ValueError(f"chop parameters give an invalid polytope: {exc}") from exc


def scale(D: DelzantPolytope, lam) -> DelzantPolytope:
    """Dilate by a positive rational factor about the origin."""
    factor = rat(lam)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    rows = [(h.normal, h.offset * factor) for h in D.hrep.halfspaces]
    return validate_delzant(hpolytope(D.dim, rows))


def translate(D: DelzantPolytope, shift) -> DelzantPolytope:
    """Translate by a rational vector (offsets gain <normal, shift>)."""
    v = tuple(map(rat, shift))
    rows = [
        (h.normal, h.offset + sum(c * s for c, s in zip(h.normal, v)))
        for h in D.hrep.halfspaces
    ]
    return validate_delzant(hpolytope(D.dim, rows))
