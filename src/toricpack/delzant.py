"""Delzant polytopes: validation, vertex frames, radii, generators.

A Delzant polytope is simple (n facets at every vertex) and at each vertex
the primitive edge directions form a Z-basis of the lattice, i.e. an
integer matrix of determinant +-1.  Validation enriches a plain
H-representation with the per-vertex frame data that the packing
constructions consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (
    IntVec,
    Vec,
    dot,
    mat_det,
    primitive_direction,
    rat,
    vec_sub,
)
from .polytope import (
    HPolytope,
    HalfSpace,
    PolytopeError,
    VertexData,
    _reduce,
)


class NotDelzantError(PolytopeError):
    """Validation failure; the message names the first violating vertex."""


@dataclass(frozen=True)
class VertexFrame:
    """Edge data at one vertex: primitive directions u^j, rational lengths
    t^j, and the neighbor vertex reached along each edge.

    Edges are ordered by the facet of the vertex they leave (the unique
    active facet not containing the edge), so frames are reproducible.
    """

    vertex_index: int
    directions: tuple[IntVec, ...]
    lengths: tuple[Fraction, ...]
    neighbor_indices: tuple[int, ...]


@dataclass(frozen=True)
class DelzantPolytope:
    """A validated Delzant polytope with cached combinatorial data.

    ``corner_radii[i]`` is the largest admissible radius at vertex i (the
    minimum rational edge length there).  ``pair_bounds[i][j]`` is the edge
    length for adjacent vertex pairs and the radius sum otherwise; it is the
    right-hand side of the pairwise packing constraints.
    """

    hrep: HPolytope
    vdata: VertexData
    frames: tuple[VertexFrame, ...]
    corner_radii: tuple[Fraction, ...]
    pair_bounds: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return self.hrep.dim

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return self.vdata.vertices

    @property
    def num_vertices(self) -> int:
        return len(self.vdata.vertices)

    @cached_property
    def euclidean_volume(self) -> Fraction:
        """Exact Euclidean volume by Brion's formula over the vertex cones
        (Brion 1988; Lawrence 1991).

        Each vertex cone is unimodular with edge directions d_f, so for any
        xi with no <xi, d_f> = 0,

            vol = (1/n!) sum_v <xi, v>^n / prod_f (-<xi, d_f>).

        Take xi = (1, M, ..., M^(n-1)) with M = 1 + the largest |entry| of
        any frame direction.  For a nonzero integral d whose last nonzero
        entry is d_k, |d_k M^k| >= M^k, while the lower terms sum to at most
        (M - 1)(1 + M + ... + M^(k-1)) = M^k - 1 in absolute value; so
        <xi, d> != 0.
        """
        n = self.dim
        m = 1 + max(abs(c) for f in self.frames for d in f.directions for c in d)
        xi = tuple(m**k for k in range(n))
        total = Fraction(0)
        for v, frame in zip(self.vertices, self.frames):
            denom = 1
            for d in frame.directions:
                denom *= -dot(xi, d)
            total += dot(xi, v) ** n / denom
        return total / math.factorial(n)


def rational_length(a, b) -> Fraction:
    """Lattice length of the segment from a to b: the t > 0 with
    b - a = t * u for primitive integral u."""
    d = vec_sub(tuple(map(rat, b)), tuple(map(rat, a)))
    if all(x == 0 for x in d):
        raise ValueError("zero-length segment")
    _, t = primitive_direction(d)
    return t


def validate_delzant(P: HPolytope) -> DelzantPolytope:
    """Check the Delzant condition and build the enriched structure.

    The input is reduced first; failures raise :class:`NotDelzantError`
    naming the first violating vertex in lexicographic vertex order.
    """
    return _validate_reduced(*_reduce(P))


def _validate_reduced(reduced: HPolytope, vd: VertexData) -> DelzantPolytope:
    """:func:`validate_delzant` on a minimal H-representation whose vertex
    data, edges included, is already known."""
    n = reduced.dim
    nverts = len(vd.vertices)

    neighbors: dict[int, list[int]] = {i: [] for i in range(nverts)}
    for i, j in vd.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)

    frames: list[VertexFrame] = []
    for i in range(nverts):
        active = vd.incidence[i]
        if len(active) != n or len(neighbors[i]) != n:
            raise NotDelzantError(f"not simple at vertex {i}")
        # Order the edges at the vertex by the facet they leave.
        by_omitted: dict[int, int] = {}
        for j in neighbors[i]:
            omitted = set(active) - set(vd.incidence[j])
            if len(omitted) != 1:
                raise NotDelzantError(f"not simple at vertex {i}")
            f = omitted.pop()
            if f in by_omitted:
                raise NotDelzantError(f"not simple at vertex {i}")
            by_omitted[f] = j
        order = [by_omitted[f] for f in sorted(by_omitted)]
        dirs: list[IntVec] = []
        lens: list[Fraction] = []
        for j in order:
            u, t = primitive_direction(vec_sub(vd.vertices[j], vd.vertices[i]))
            dirs.append(u)
            lens.append(t)
        det = mat_det(dirs)
        if det != 1 and det != -1:
            raise NotDelzantError(
                f"not unimodular at vertex {i} (det = {det})"
            )
        frames.append(VertexFrame(i, tuple(dirs), tuple(lens), tuple(order)))
    return _from_frames(reduced, vd, tuple(frames))


def _from_frames(
    reduced: HPolytope, vd: VertexData, frames: tuple[VertexFrame, ...]
) -> DelzantPolytope:
    """The Delzant polytope with these vertex frames: its corner radii are
    the least edge lengths, and its pair bounds follow from the radii and
    the edges."""
    radii = [min(f.lengths) for f in frames]
    bounds: list[tuple[Fraction, ...]] = []
    for f in frames:
        row = [radii[f.vertex_index] + r for r in radii]
        row[f.vertex_index] = Fraction(0)
        for t, j in zip(f.lengths, f.neighbor_indices):
            row[j] = t
        bounds.append(tuple(row))
    return DelzantPolytope(reduced, vd, frames, tuple(radii), tuple(bounds))


# ---------------------------------------------------------------------------
# Generators.


def make_simplex(n: int, scale=1) -> DelzantPolytope:
    """Standard n-simplex {x >= 0, sum x <= s}, dilated by ``scale``."""
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {n}")
    s = rat(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    rows = [(tuple(int(i == j) for j in range(n)), Fraction(0)) for i in range(n)]
    rows.append(((-1,) * n, -s))
    return validate_delzant(HPolytope(n, [HalfSpace(u, o) for u, o in rows]))


def make_cube(n: int, scale=1) -> DelzantPolytope:
    """Unit n-cube [0, s]^n."""
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    s = rat(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    rows = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rows.append((e, Fraction(0)))
    for i in range(n):
        e = tuple(-int(i == j) for j in range(n))
        rows.append((e, -s))
    return validate_delzant(HPolytope(n, [HalfSpace(u, o) for u, o in rows]))


def make_product(D1: DelzantPolytope, D2: DelzantPolytope) -> DelzantPolytope:
    """Direct product in R^(n1+n2); facets of D1 first, then of D2."""
    n1, n2 = D1.dim, D2.dim
    rows = []
    for h in D1.hrep.halfspaces:
        rows.append((h.normal + (0,) * n2, h.offset))
    for h in D2.hrep.halfspaces:
        rows.append(((0,) * n1 + h.normal, h.offset))
    return validate_delzant(HPolytope(n1 + n2, [HalfSpace(u, o) for u, o in rows]))


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
    rows: list[tuple[tuple[int, ...], Fraction]] = []
    for i in range(n):
        rows.append((tuple(int(i == j) for j in range(n)), Fraction(0)))
    rows.append(((-1,) * n, Fraction(-1)))
    rows.append((tuple(-int(j == 0) for j in range(n)), e1 - 1))
    rows.append((tuple(-int(j == 1) for j in range(n)), e2 - 1))
    try:
        return validate_delzant(HPolytope(n, [HalfSpace(u, o) for u, o in rows]))
    except PolytopeError as exc:
        raise ValueError(f"chop parameters give an invalid polytope: {exc}") from exc


def scale(D: DelzantPolytope, lam) -> DelzantPolytope:
    """Dilate by a positive rational factor about the origin."""
    factor = rat(lam)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    rows = [(h.normal, h.offset * factor) for h in D.hrep.halfspaces]
    return validate_delzant(HPolytope(D.dim, [HalfSpace(u, o) for u, o in rows]))


def translate(D: DelzantPolytope, shift) -> DelzantPolytope:
    """Translate by a rational vector (offsets gain <normal, shift>)."""
    v = tuple(map(rat, shift))
    rows = [
        (h.normal, h.offset + sum(c * s for c, s in zip(h.normal, v)))
        for h in D.hrep.halfspaces
    ]
    return validate_delzant(HPolytope(D.dim, [HalfSpace(u, o) for u, o in rows]))
