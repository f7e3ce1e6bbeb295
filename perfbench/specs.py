"""Benchmark inputs and the exact reference values they are checked against.

Every polytope is built here as an H-representation {x : <u_i, x> >= l_i}
together with its volume in closed form, without calling the library.  The
vertex, edge, radius and admissibility computations below are an independent
brute-force route (every n-subset of facets), used only on the small specs
that the checks need them for.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction
Row = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class Spec:
    """A benchmark polytope: its rows, its dimension and its exact volume.

    ``density`` is the hand-derived maximum density where one is known;
    ``density_one`` marks the specs the density-one classification says
    reach 1 (simplices and the square).
    """

    name: str
    dim: int
    rows: tuple[Row, ...]
    volume: Fraction
    density_one: bool = False
    density: Fraction | None = None
    image_of: str | None = None

    def document(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "halfspaces": [
                {"normal": list(u), "offset": fmt(l)} for u, l in self.rows
            ],
        }


def fmt(q: Fraction) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _unit(n: int, i: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign * int(i == j) for j in range(n))


def simplex(n: int) -> Spec:
    rows = [(_unit(n, i), F(0)) for i in range(n)] + [((-1,) * n, F(-1))]
    return Spec(f"simplex-{n}", n, tuple(rows), F(1, math.factorial(n)), density_one=True)


def cube(n: int) -> Spec:
    rows = [(_unit(n, i), F(0)) for i in range(n)]
    rows += [(_unit(n, i, -1), F(-1)) for i in range(n)]
    return Spec(f"cube-{n}", n, tuple(rows), F(1), density_one=(n == 2))


def chopped(e1: Fraction, e2: Fraction, n: int = 2) -> Spec:
    """Standard n-simplex with the corners e_1 and e_2 cut at depths e1, e2."""
    base = simplex(n)
    rows = base.rows + ((_unit(n, 0, -1), e1 - 1), (_unit(n, 1, -1), e2 - 1))
    vol = (1 - e1**n - e2**n) / math.factorial(n)
    return Spec(f"chopped-{n}", n, rows, vol)


def product(a: Spec, b: Spec) -> Spec:
    rows = tuple((u + (0,) * b.dim, l) for u, l in a.rows)
    rows += tuple(((0,) * a.dim + u, l) for u, l in b.rows)
    return Spec(f"{a.name}x{b.name}", a.dim + b.dim, rows, a.volume * b.volume)


def named(spec: Spec, name: str, **kw) -> Spec:
    return Spec(name, spec.dim, spec.rows, spec.volume, **{
        "density_one": spec.density_one, "density": spec.density, **kw})


def square() -> Spec:
    return named(cube(2), "square")


def pentagon() -> Spec:
    return named(chopped(F(1, 10), F(1, 10)), "pentagon", density=F(83, 98))


def pentagon20() -> Spec:
    return named(chopped(F(1, 20), F(1, 20)), "pentagon-1_20", density=F(363, 398))


def prism() -> Spec:
    return named(product(simplex(1), simplex(2)), "prism")


def chopped3() -> Spec:
    return chopped(F(1, 10), F(1, 5), 3)


# ---------------------------------------------------------------------------
# Images under x -> mu * A x + t with A unimodular.


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A product of a signed permutation and a few elementary shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2)
        shear = [[int(r == c) for c in range(n)] for r in range(n)]
        shear[i][j] = rng.choice((-1, 1))
        m = _mat_mul(shear, m)
    return m


def image(spec: Spec, rng: random.Random) -> Spec:
    """The image of ``spec`` under a seeded unimodular map, a rational
    scaling and a translation: the same maximum and maximizer count."""
    n = spec.dim
    a = random_unimodular(n, rng)
    a_inv = [list(map(F, row)) for row in inverse([list(map(F, r)) for r in a])]
    mu = rng.choice((F(2), F(3, 2), F(2, 3), F(5, 4), F(3)))
    t = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    rows = []
    for u, l in spec.rows:
        # <u, A^-1 (y - t) / mu> >= l  <=>  <u A^-1, y> >= mu l + <u A^-1, t>
        w = tuple(int(sum(u[k] * a_inv[k][j] for k in range(n))) for j in range(n))
        rows.append((w, mu * l + sum(c * s for c, s in zip(w, t))))
    return Spec(f"image-{spec.name}", n, tuple(rows), spec.volume * mu**n,
                density=spec.density, image_of=spec.name)


# The spec the program must refuse: the normals [1.7, 0] and [0, true] are
# not integers, so the file is malformed, whatever they truncate to.
MALFORMED = {
    "name": "malformed",
    "dim": 2,
    "halfspaces": [
        {"normal": [1.7, 0], "offset": "0"},
        {"normal": [0, True], "offset": "0"},
        {"normal": [-1, 0], "offset": "-1"},
        {"normal": [0, -1], "offset": "-1"},
    ],
}


# ---------------------------------------------------------------------------
# Independent exact geometry (brute force over facet subsets).


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gauss-Jordan solve of a square system; None when singular."""
    n = len(rows)
    m = [list(map(F, r)) + [F(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    cols = [solve(a, [F(int(i == j)) for i in range(n)]) for j in range(n)]
    if any(c is None for c in cols):
        raise ValueError("singular matrix")
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@dataclass
class Geometry:
    """Vertices (lexicographic), active facets, edges with lattice lengths
    and corner radii of a simple polytope, found by brute force."""

    vertices: list[tuple[Fraction, ...]]
    active: list[frozenset[int]]
    edges: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    radii: list[Fraction] = field(default_factory=list)


def lattice_length(a, b) -> Fraction:
    d = [F(y) - F(x) for x, y in zip(a, b)]
    den = math.lcm(*(c.denominator for c in d))
    return F(math.gcd(*(int(c * den) for c in d)), den)


def geometry(spec: Spec) -> Geometry:
    n, rows = spec.dim, spec.rows
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for combo in itertools.combinations(range(len(rows)), n):
        x = solve([list(rows[i][0]) for i in combo], [rows[i][1] for i in combo])
        if x is None:
            continue
        slacks = [sum(c * v for c, v in zip(u, x)) - l for u, l in rows]
        if all(s >= 0 for s in slacks):
            found[tuple(x)] = frozenset(i for i, s in enumerate(slacks) if s == 0)
    verts = sorted(found)
    geo = Geometry(verts, [found[v] for v in verts])
    for i, j in itertools.combinations(range(len(verts)), 2):
        if len(geo.active[i] & geo.active[j]) == n - 1:
            geo.edges[(i, j)] = lattice_length(verts[i], verts[j])
    geo.radii = [
        min(l for e, l in geo.edges.items() if i in e) for i in range(len(verts))
    ]
    return geo


def exact_safe_radius(spec: Spec, geo: Geometry) -> Fraction:
    """Supremum of the max-norm radius of admissible offset perturbations.

    At a vertex cone I the vertex moves as v_I(s) = N_I^-1 (l_I + s_I), so
    the slack of another facet j is c + a . s_I - s_j with c its base slack
    and a = u_j N_I^-1; it stays positive for every |s| < rho exactly when
    rho <= c / (|a|_1 + 1).
    """
    best: Fraction | None = None
    for v, act in zip(geo.vertices, geo.active):
        idx = sorted(act)
        n_inv = inverse([list(map(F, spec.rows[i][0])) for i in idx])
        for j, (u, l) in enumerate(spec.rows):
            if j in act:
                continue
            c = sum(a * b for a, b in zip(u, v)) - l
            a = [sum(u[k] * n_inv[k][m] for k in range(spec.dim)) for m in range(len(idx))]
            rho = c / (sum(abs(x) for x in a) + 1)
            best = rho if best is None or rho < best else best
    assert best is not None
    return best


def is_packing(geo: Geometry, x) -> bool:
    """The paper's constraint system: x_i + x_j <= edge length on every
    edge; non-adjacent pairs are implied by the box 0 <= x_i <= r_i."""
    return all(x[i] + x[j] <= l for (i, j), l in geo.edges.items())


def radius_vectors(geo: Geometry, count: int, rng: random.Random) -> list[tuple]:
    """``count`` seeded vectors in the box 0 <= x_i <= r_i.

    The even ones are packings: every radius is a seeded multiple of r_i/12
    up to r_i/2, and x_i + x_j <= (r_i + r_j)/2 <= l_ij holds on every edge.
    The odd ones set both ends of one edge, which the box allows to overlap,
    to their full radii and the radii of their other neighbours to 0, so
    that edge is the only pair that overlaps.  Which radii are positive and
    which pair overlaps depend on the vector's position, not on the seed,
    so the oracle's work does not move with the seed.
    """
    tight = [e for e, l in sorted(geo.edges.items()) if geo.radii[e[0]] + geo.radii[e[1]] > l]
    out = []
    for k in range(count):
        x = [r * F(rng.randint(1, 6), 12) for r in geo.radii]
        if k % 2:
            i, j = tight[(k // 2) % len(tight)]
            for a, b in geo.edges:
                if {a, b} & {i, j}:
                    x[a] = x[b] = F(0)
            x[i], x[j] = geo.radii[i], geo.radii[j]
        out.append(tuple(x))
    return out


def finite_difference(values: list[Fraction], order: int) -> list[Fraction]:
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values
