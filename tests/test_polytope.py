import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toricpack.linalg
import toricpack.polytope
from reference import (
    affine_rank,
    brute_force_edges,
    brute_force_vertex_set,
    contains,
    enumerate_vertices,
    intersect,
    mat_rank,
    reference_dd_rays,
    reference_edge_system,
    reference_incidence,
    reference_polytope_rays,
    reference_remove_redundant,
    reference_volume,
    remove_redundant,
    vertex_set,
)
from test_linalg import low_rank_matrices
from toricpack.delzant import (
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    validate_delzant,
)
from toricpack.linalg import vec_add, vec_scale
from toricpack.packing import disjointness_oracle, maximize
from toricpack.perturb import PerturbationError, perturb
from toricpack.polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HPolytope,
    HalfSpace,
    PolytopeError,
    UnboundedPolytopeError,
    _dd_rays,
    _homogenized_rows,
    _LowRankCone,
    _polytope_rays,
    _reduce,
    hpolytope,
)

F = Fraction


def unit_square():
    return hpolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])


def std_simplex(n):
    rows = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    rows.append(((-1,) * n, -1))
    return hpolytope(n, rows)


def triangle_prism():
    return hpolytope(
        3,
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((-1, -1, 0), -1),
            ((0, 0, 1), 0),
            ((0, 0, -1), -1),
        ],
    )


def cross_polytope(n):
    """conv(+-e_i): all sign patterns of sum +-x_i <= 1."""
    rows = []
    for signs in itertools.product((1, -1), repeat=n):
        rows.append((signs, -1))
    return hpolytope(n, rows)


@st.composite
def bounded_polytopes(draw):
    """A unit box plus a few random cutting halfspaces: always bounded."""
    n = draw(st.integers(2, 3))
    rows = [(tuple(int(i == j) for j in range(n)), F(0)) for i in range(n)]
    rows += [
        (tuple(-int(i == j) for j in range(n)), F(-2)) for i in range(n)
    ]
    extra = draw(st.integers(0, 2))
    for _ in range(extra):
        normal = tuple(
            draw(st.integers(-2, 2)) for _ in range(n)
        )
        if all(c == 0 for c in normal):
            continue
        rows.append((normal, F(draw(st.integers(-3, 0)))))
    return hpolytope(n, rows)


class TestHalfSpace:
    def test_normalizes_to_primitive(self):
        h = HalfSpace((4, 6), F(2))
        assert h.normal == (2, 3)
        assert h.offset == 1

    def test_preserves_direction(self):
        h = HalfSpace((-2, -2), -3)
        assert h.normal == (-1, -1)
        assert h.offset == F(-3, 2)

    def test_zero_normal(self):
        with pytest.raises(ValueError):
            HalfSpace((0, 0), 1)

    @pytest.mark.parametrize("normal", [(F(1, 2), 1), (1.5, 0)])
    def test_non_integer_normal(self, normal):
        with pytest.raises(ValueError, match="^normal entries must be integers$"):
            HalfSpace(normal, 0)

    @pytest.mark.parametrize(
        "dim, message",
        [(0, "dimension must be >= 1"), (3, "halfspace dimension mismatch")],
    )
    def test_polytope_checks(self, dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HPolytope(dim, unit_square().halfspaces)


class TestEnumerate:
    def test_standard_simplex(self):
        vd = enumerate_vertices(std_simplex(2))
        assert vd.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))

    def test_unit_square(self):
        vd = enumerate_vertices(unit_square())
        assert len(vd.vertices) == 4
        assert len(vd.edges) == 4

    def test_prism_counts(self):
        vd = enumerate_vertices(triangle_prism())
        assert len(vd.vertices) == 6
        assert len(vd.edges) == 9

    def test_empty(self):
        P = hpolytope(2, [((1, 0), 2), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])
        with pytest.raises(EmptyPolytopeError, match="empty polytope"):
            enumerate_vertices(P)

    def test_unbounded(self):
        with pytest.raises(UnboundedPolytopeError, match="unbounded polytope"):
            enumerate_vertices(hpolytope(2, [((1, 0), 0), ((0, 1), 0)]))

    def test_empty_with_free_directions(self):
        # Contradictory constraints in one coordinate, others unconstrained.
        P = hpolytope(3, [((0, 0, 1), 0), ((0, 0, -1), 1)])
        with pytest.raises(EmptyPolytopeError):
            enumerate_vertices(P)

    def test_methods_agree_on_fixed_family(self):
        for P in (
            unit_square(),
            std_simplex(2),
            std_simplex(3),
            std_simplex(4),
            triangle_prism(),
            cross_polytope(3),
            cross_polytope(4),
        ):
            assert vertex_set(P) == brute_force_vertex_set(P)

    def test_octahedron_degenerate_vertices(self):
        # Every vertex of the 3-cross-polytope lies on four facets, a
        # degenerate case stressing the adjacency bookkeeping.
        vd = enumerate_vertices(cross_polytope(3))
        assert len(vd.vertices) == 6
        assert all(len(inc) == 4 for inc in vd.incidence)
        assert len(vd.edges) == 12
        assert reference_volume(cross_polytope(3)) == F(4, 3)

    def test_incidence_rank_is_full(self):
        vd = enumerate_vertices(triangle_prism())
        P = triangle_prism()
        for v, inc in zip(vd.vertices, vd.incidence):
            rows = [P.halfspaces[i].normal for i in inc]
            assert mat_rank(rows) == 3
            for i in inc:
                assert P.halfspaces[i].eval_at(v) == 0

    @given(bounded_polytopes())
    @example(unit_square())
    @example(triangle_prism())
    @example(cross_polytope(3))
    @settings(max_examples=30, deadline=None)
    def test_edge_midpoints(self, P):
        # The edges from incidence are those of the rank test, and edge
        # midpoints lie in the polytope with active set of rank n-1.
        vd = enumerate_vertices(P)
        assert vd.edges == brute_force_edges(P, vd.vertices, vd.incidence)
        for i, j in vd.edges:
            mid = vec_scale(F(1, 2), vec_add(vd.vertices[i], vd.vertices[j]))
            assert contains(P, mid)
            active = [h.normal for h in P.halfspaces if h.eval_at(mid) == 0]
            assert mat_rank(active) == P.dim - 1


def square_pyramid():
    """Apex (0, 0, 0) on four facets over the square [0, 1]^2 at height 1."""
    return hpolytope(
        3,
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((-1, 0, 1), 0),
            ((0, -1, 1), 0),
            ((0, 0, -1), -1),
        ],
    )


def square_with_extra_rows():
    """The unit square with a duplicate row, a rescaled duplicate, a row
    touching it at one corner and a row touching it nowhere."""
    return hpolytope(
        2,
        [
            ((0, 1), 0),
            ((1, 0), 0),
            ((1, 1), 0),  # weakly redundant: tight at (0, 0) only
            ((-1, 0), -1),
            ((2, 0), 0),  # the row x >= 0 again
            ((0, -1), -1),
            ((-1, -1), -3),  # tight nowhere
            ((0, 1), 0),
        ],
    )


class TestTightSets:
    """Incidence is double description's tight sets, and reduction keeps
    the rows with maximal tight sets; both agree with evaluating every
    halfspace at every vertex and with the affine-rank facet test."""

    @given(bounded_polytopes())
    @example(square_with_extra_rows())
    @example(cross_polytope(3))
    @example(square_pyramid())
    @example(hpolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), 0)]))
    # Degenerate: a point in R^2, and a flat square in R^3.
    @example(hpolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)]))
    @example(
        hpolytope(
            3,
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), 0)],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_evaluation(self, P):
        try:
            vd = enumerate_vertices(P)
        except EmptyPolytopeError:
            with pytest.raises(EmptyPolytopeError):
                reference_remove_redundant(P)
            return
        assert vd.incidence == reference_incidence(P, vd.vertices)
        try:
            expected = reference_remove_redundant(P)
        except DegeneratePolytopeError:
            with pytest.raises(DegeneratePolytopeError):
                remove_redundant(P)
            return
        reduced, verts, incidence = _reduce(P)
        assert reduced == expected
        assert verts == vd.vertices
        assert incidence == reference_incidence(reduced, verts)

    def test_first_duplicate_kept(self):
        P = square_with_extra_rows()
        reduced = remove_redundant(P)
        assert reduced.halfspaces == tuple(P.halfspaces[i] for i in (0, 1, 3, 5))

    def test_non_simple_incidence(self):
        # The apex of the pyramid lies on four facets, every vertex of the
        # octahedron on four; no row is redundant.
        for P in (square_pyramid(), cross_polytope(3)):
            reduced, verts, incidence = _reduce(P)
            assert reduced == P
            assert max(len(inc) for inc in incidence) == 4
            assert incidence == reference_incidence(P, verts)


class TestEnumerationOracle:
    @given(bounded_polytopes())
    @settings(max_examples=30, deadline=None)
    def test_double_description_matches_brute_force(self, P):
        try:
            brute = brute_force_vertex_set(P)
        except EmptyPolytopeError:
            with pytest.raises(EmptyPolytopeError):
                vertex_set(P)
            return
        assert vertex_set(P) == brute

    def test_hull_roundtrip_idempotent(self):
        # Rebuild an H-representation from the vertex set via polar duality
        # and check the vertex set is reproduced.
        for P in (unit_square(), std_simplex(2), triangle_prism()):
            verts = vertex_set(P)
            k = len(verts)
            centroid = tuple(sum(v[c] for v in verts) / k for c in range(P.dim))
            shifted = [tuple(x - c for x, c in zip(v, centroid)) for v in verts]
            polar = HPolytope(P.dim, tuple(map(_polar_halfspace, shifted)))
            # Facets of the hull correspond to polar vertices.
            rebuilt = HPolytope(
                P.dim, tuple(map(_polar_halfspace, vertex_set(polar)))
            )
            assert set(vertex_set(rebuilt)) == set(shifted)


def checked_rays(P):
    """The rays of _polytope_rays(P) after checking double description's
    invariants: no ray twice, every ray an extreme ray of the homogenized
    cone, inside it with tight rows of rank dim - 1, and every mask exactly
    the positions, in insertion order, of the rows the ray lies on."""
    rays, masks, order = _polytope_rays(P)
    assert len(set(rays)) == len(rays) == len(masks)
    rows = _homogenized_rows(P)
    rows = [rows[i] for i in order]
    for ray, mask in zip(rays, masks):
        assert ray[0] > 0
        dots = [sum(a * b for a, b in zip(row, ray)) for row in rows]
        assert all(d >= 0 for d in dots)
        assert mat_rank([row for row, d in zip(rows, dots) if d == 0]) == P.dim
        assert mask == sum(1 << k for k, d in enumerate(dots) if d == 0)
    return rays


class TestHomogenizedRows:
    @given(bounded_polytopes())
    @example(square_with_extra_rows())
    @example(hpolytope(2, [((2, 0), F(1, 3)), ((0, 3), F(-5, 6)), ((-1, -1), F(-7, 4))]))
    @settings(max_examples=30, deadline=None)
    def test_rows_primitive(self, P):
        # No gcd pass: (-p, q u) is primitive for p/q in lowest terms and a
        # primitive normal u.
        for row in _homogenized_rows(P):
            assert math.gcd(*row) == 1


class TestDoubleDescriptionInvariants:
    @given(bounded_polytopes())
    @example(cross_polytope(3))
    @settings(max_examples=30, deadline=None)
    def test_random_polytopes(self, P):
        try:
            brute = brute_force_vertex_set(P)
        except EmptyPolytopeError:
            return
        assert len(checked_rays(P)) == len(brute)

    @pytest.mark.parametrize(
        "D,count",
        [
            (make_cube(3), 35),
            (make_product(make_simplex(1), make_simplex(2)), 28),
            (make_chopped_simplex(F(1, 10), F(1, 5), 3), 125),
            (make_product(make_simplex(3), make_simplex(1)), 156),
            (make_cube(4), 743),
            (make_product(make_simplex(2), make_cube(2)), 1816),
            (make_chopped_simplex(F(1, 10), F(1, 5), 4), 1400),
        ],
        ids=["cube3", "prism", "chopped3", "simplex3xsimplex1", "cube4", "simplex2xsquare",
             "chopped4"],
    )
    def test_edge_systems(self, D, count):
        # The packing systems that maximize enumerates.  The brute-force
        # reference reaches the prism's; the other counts are pinned.
        P = reference_edge_system(D)
        assert len(checked_rays(P)) == count
        if P.num_facets <= 15:
            assert len(brute_force_vertex_set(P)) == count

    @pytest.mark.parametrize(
        "rows,ends",
        [
            ([((1,), 0), ((-1,), -3)], {(1, 0), (1, 3)}),
            ([((1,), F(1, 2)), ((-1,), F(-7, 3))], {(2, 1), (3, 7)}),
            # Redundant rows force insertions into the 2-dimensional cone,
            # where the two rays to join share no tight row.
            ([((1,), 0), ((1,), -1), ((-1,), -3), ((-1,), -5)], {(1, 0), (1, 3)}),
        ],
    )
    def test_interval_endpoints(self, rows, ends):
        rays = checked_rays(hpolytope(1, rows))
        assert len(rays) == 2 and set(rays) == ends

    def test_cube4_maximize(self):
        best, packings = maximize(make_cube(4))
        assert best == F(1, 3) and len(packings) == 2


def _polar_halfspace(v):
    """Halfspace <v, y> <= 1 with integer data: <-den*v, y> >= -den."""
    import math

    den = math.lcm(*(c.denominator for c in v))
    return HalfSpace(tuple(-int(c * den) for c in v), F(-den))


class TestRemoveRedundant:
    def test_duplicate_constraint(self):
        P = hpolytope(
            2,
            [
                ((1, 0), 0),
                ((0, 1), 0),
                ((-1, 0), -1),
                ((0, -1), -1),
                ((2, 0), 0),
            ],
        )
        assert remove_redundant(P).num_facets == 4

    def test_slack_constraint(self):
        P = hpolytope(
            2,
            [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 0), -5)],
        )
        R = remove_redundant(P)
        assert R.num_facets == 4
        assert all(h.offset != -5 for h in R.halfspaces)

    def test_empty_region(self):
        P = hpolytope(1, [((1,), 1), ((-1,), 0)])
        with pytest.raises(EmptyPolytopeError):
            remove_redundant(P)

    def test_tangent_at_vertex_dropped(self):
        # A constraint touching only a vertex supports no facet.
        P = hpolytope(
            2,
            [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((-1, 0), -1)],
        )
        assert remove_redundant(P).num_facets == 3


class TestVolume:
    @pytest.mark.parametrize("n,expect", [(1, 1), (2, F(1, 2)), (3, F(1, 6)), (4, F(1, 24))])
    def test_simplex(self, n, expect):
        assert reference_volume(std_simplex(n)) == expect

    def test_cube(self):
        assert reference_volume(unit_square()) == 1

    def test_prism(self):
        assert reference_volume(triangle_prism()) == F(1, 2)

    def test_chopped_simplex_exact(self):
        P = hpolytope(
            2,
            [
                ((1, 0), 0),
                ((0, 1), 0),
                ((-1, -1), -1),
                ((-1, 0), F(-9, 10)),
                ((0, -1), F(-9, 10)),
            ],
        )
        assert reference_volume(P) == F(49, 100)

    def test_chopped_simplex_monte_carlo(self):
        # Sampling sanity oracle; floats are fine for a statistical check.
        rng = random.Random(20240817)
        hits = 0
        samples = 200_000
        for _ in range(samples):
            x = rng.random()
            y = rng.random()
            if x + y <= 1 and x <= 0.9 and y <= 0.9:
                hits += 1
        assert abs(hits / samples - 0.49) < 0.005

    def test_translation_invariance(self):
        P = std_simplex(2)
        shifted = hpolytope(
            2, [((1, 0), 5), ((0, 1), 7), ((-1, -1), -13)]
        )
        assert reference_volume(P) == reference_volume(shifted)

    @pytest.mark.parametrize("lam", [2, 3, F(1, 2), F(5, 3)])
    def test_scaling_law(self, lam):
        P = unit_square()
        scaled = HPolytope(
            2, tuple(HalfSpace(h.normal, h.offset * lam) for h in P.halfspaces)
        )
        assert reference_volume(scaled) == lam**2 * reference_volume(P)

    def test_degenerate(self):
        P = hpolytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
        with pytest.raises(DegeneratePolytopeError, match="degenerate polytope"):
            reference_volume(P)


class TestContains:
    def test_cases(self):
        P = unit_square()
        assert contains(P, (F(1, 2), F(1, 2)))
        assert not contains(P, (2, 0))
        assert contains(P, (1, 1))  # boundary: closed convention
        with pytest.raises(ValueError):
            contains(P, (1, 2, 3))


@st.composite
def cone_rows(draw):
    """Integer rows in R^dim, dim from 1 to 4, at least dim of them; half
    the time the unit rows come first, so that the cone is the orthant cut
    by the others."""
    dim = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(row, min_size=dim, max_size=dim + 4))
    if draw(st.booleans()):
        rows = [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + rows
    return rows, dim


@st.composite
def low_rank_polytopes(draw):
    """Halfspaces in R^n, n = 2 or 3, whose normals span fewer than n
    dimensions: strips, slabs and infeasible ones."""
    n = draw(st.integers(2, 3))
    nonzero = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    base = draw(st.lists(nonzero, min_size=1, max_size=n - 1))
    rows = []
    for coefs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                        max_size=len(base)), min_size=1, max_size=5)):
        normal = tuple(sum(c * b[j] for c, b in zip(coefs, base)) for j in range(n))
        if any(normal):
            rows.append((normal, draw(st.fractions(-3, 3, max_denominator=4))))
    assume(rows)
    return hpolytope(n, rows)


def dd_outcome(dd, *args):
    """What a double description route gives: its (ray, mask) pairs as a
    set, or the class of the error it raises."""
    try:
        rays, masks = dd(*args)[:2]
    except (_LowRankCone, PolytopeError) as err:
        return type(err)
    return set(zip(rays, masks))


class TestLinealityStart:
    """Double description from the whole space against the start it
    replaced: a greedy row basis, its first cone from one elimination of
    [B | I], and double description on the quotient for a low-rank
    system."""

    @given(cone_rows())
    @example(([(1, 0), (0, 1), (-1, -1)], 2))
    @example(([(0, 1), (1, 0), (1, 1), (-1, 2)], 2))
    @settings(max_examples=150, deadline=None)
    def test_full_rank_rows(self, case):
        rows, dim = case
        assume(mat_rank(rows) == dim)
        assert dd_outcome(_dd_rays, rows, dim) == dd_outcome(reference_dd_rays, rows, dim)

    @given(low_rank_matrices(max_rows=6, max_cols=4))
    @settings(max_examples=80, deadline=None)
    def test_low_rank_rows(self, rows):
        rows = [tuple(r) for r in rows]
        dim = len(rows[0])
        expect = dd_outcome(reference_dd_rays, rows, dim)
        assert dd_outcome(_dd_rays, rows, dim) == expect
        if mat_rank(rows) < dim:
            assert expect is _LowRankCone

    @given(st.one_of(low_rank_polytopes(), bounded_polytopes()))
    @example(hpolytope(2, [((1, 0), 0), ((-1, 0), -1)]))
    @example(hpolytope(2, [((1, 0), 0), ((-1, 0), 1)]))
    @example(hpolytope(3, [((0, 0, 1), 0), ((0, 0, -1), -1)]))
    @example(hpolytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1)]))
    @example(hpolytope(3, [((0, 0, 1), 0), ((0, 0, -1), 1)]))
    @example(hpolytope(2, [((1, 0), 0), ((0, 1), 0)]))
    @settings(max_examples=150, deadline=None)
    def test_polytopes(self, P):
        got = dd_outcome(_polytope_rays, P)
        assert got == dd_outcome(reference_polytope_rays, P)
        if mat_rank([h.normal for h in P.halfspaces]) < P.dim:
            assert got in (EmptyPolytopeError, UnboundedPolytopeError)

    def test_strip_outcomes(self):
        strip = hpolytope(2, [((1, 0), 0), ((-1, 0), -1)])
        with pytest.raises(UnboundedPolytopeError, match="unbounded polytope"):
            vertex_set(strip)
        with pytest.raises(EmptyPolytopeError, match="empty polytope"):
            vertex_set(hpolytope(2, [((1, 0), 0), ((-1, 0), 1)]))


class TestNoElimination:
    """Double description eliminates nothing: ``linalg.bareiss`` runs only
    for the vertex frames of validation, once per vertex."""

    @pytest.fixture()
    def eliminations(self, monkeypatch):
        sizes = []
        original = toricpack.linalg.bareiss

        def counted(rows):
            sizes.append(len(rows))
            return original(rows)

        for name, module in list(sys.modules.items()):
            if name.startswith("toricpack") and getattr(module, "bareiss", None) is original:
                monkeypatch.setattr(module, "bareiss", counted)
        return sizes

    def test_maximize_cube4(self, eliminations, monkeypatch):
        # The edge-block bound certifies cube 4; switched off, maximize runs
        # double description on the down-closure.
        monkeypatch.setattr(sys.modules["toricpack.packing"], "_certified", lambda *args: None)
        D = make_cube(4)
        eliminations.clear()
        assert maximize(D)[0] == F(1, 3)
        assert eliminations == []

    def test_vertex_set(self, eliminations):
        for P in (unit_square(), cross_polytope(3), triangle_prism()):
            vertex_set(P)
        for P in (hpolytope(2, [((1, 0), 0), ((-1, 0), -1)]),
                  hpolytope(2, [((1, 0), 0), ((-1, 0), 1)])):
            with pytest.raises(PolytopeError):
                vertex_set(P)
        assert eliminations == []

    def test_disjointness_oracle_cube3(self, eliminations):
        D = make_cube(3)
        packings = maximize(D)[1]
        eliminations.clear()
        assert all(disjointness_oracle(D, p.radii) for p in packings)
        assert eliminations == []

    def test_validate_delzant_frames_only(self, eliminations):
        for P in (make_cube(3).hrep, make_chopped_simplex(F(1, 10), F(1, 10)).hrep):
            eliminations.clear()
            D = validate_delzant(P)
            assert eliminations == [D.dim] * D.num_vertices


class TestIntersect:
    def test_overlap_strip(self):
        P = unit_square()
        Q = hpolytope(
            2, [((1, 0), F(1, 2)), ((0, 1), 0), ((-1, 0), F(-3, 2)), ((0, -1), -1)]
        )
        r = intersect(P, Q)
        assert affine_rank(r) == 2
        assert len(r) == 4

    def test_disjoint(self):
        P = unit_square()
        Q = hpolytope(2, [((1, 0), 5), ((0, 1), 0), ((-1, 0), -6), ((0, -1), -1)])
        assert intersect(P, Q) == ()

    def test_shared_facet(self):
        P = unit_square()
        Q = hpolytope(2, [((1, 0), 1), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -1)])
        r = intersect(P, Q)
        assert affine_rank(r) == 1
        assert r == ((F(1), F(0)), (F(1), F(1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intersect(unit_square(), std_simplex(3))


class TestOneEnumeration:
    """Reduction hands its vertex set on, so each polytope is enumerated at
    most once.  Every enumeration of a polytope, with or without its tight
    sets, runs double description through ``_polytope_rays``."""

    @pytest.fixture()
    def enumerated(self, monkeypatch):
        seen = []
        original = toricpack.polytope._polytope_rays

        def counted(P):
            seen.append(P)
            return original(P)

        for name, module in list(sys.modules.items()):
            if name.startswith("toricpack") and getattr(module, "_polytope_rays", None) is original:
                monkeypatch.setattr(module, "_polytope_rays", counted)
        return seen

    def test_validate_delzant(self, pentagon, enumerated):
        validate_delzant(pentagon.hrep)
        assert len(enumerated) == 1

    def test_perturb(self, pentagon, enumerated):
        # An admissible offset is built on the base's fan; only a rejected
        # one is enumerated, to name the failure.
        perturb(pentagon, (0, 0, 0, F(1, 100), 0))
        assert len(enumerated) == 0
        with pytest.raises(PerturbationError):
            perturb(pentagon, (0, 0, 0, F(-1, 5), 0))
        assert len(enumerated) == 1

    def test_intersect(self, enumerated):
        # The disjointness oracle intersects each pair of simplices by one
        # enumeration of their stacked hulls.
        D = make_cube(3)
        for x in [p.radii for p in maximize(D)[1]] + [(F(1, 2),) * 8, (F(1, 3),) * 8]:
            k = sum(c > 0 for c in x)
            enumerated.clear()
            assert disjointness_oracle(D, x)
            assert len(enumerated) == k * (k - 1) // 2
