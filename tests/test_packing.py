import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    build_packing_polytope,
    common_denominator,
    contains,
    enumerate_vertices,
    packing_polytope_vertices,
    reference_edge_lengths,
    reference_edge_system,
    reference_half_open_disjoint,
    reference_maximal_rays,
    reference_maximize,
    reference_volume,
    reference_volume_brion,
    vertex_set,
)

from toricpack.delzant import make_chopped_simplex, make_cube, make_product, make_simplex
from toricpack.packing import (
    _binding,
    _certified,
    _half_open_disjoint,
    _maximal_rays,
    _maxima,
    _ranked,
    admissible_simplex,
    density,
    disjointness_oracle,
    maximize,
    realize,
)
from toricpack.perturb import perturb, safe_radius_estimate, scan_segment

F = Fraction

# The conftest fixtures plus two 8-vertex solids, built once here for the
# property test below.
BASES = {
    "square": make_cube(2),
    "simplex2": make_simplex(2),
    "simplex3": make_simplex(3),
    "rectangle": make_product(make_simplex(1, 2), make_simplex(1, 1)),
    "pentagon": make_chopped_simplex(F(1, 10), F(1, 10)),
    "prism": make_product(make_simplex(1), make_simplex(2)),
    "cube3": make_cube(3),
    "chopped3": make_chopped_simplex(F(1, 10), F(1, 5), 3),
}


# Bases whose members the edge-block bound certifies, and the prism, whose
# members it does not.
CERTIFIED_BASES = {
    "square": BASES["square"],
    "cube3": BASES["cube3"],
    "cube4": make_cube(4),
    "pentagon": BASES["pentagon"],
    "pentagonxsimplex1": make_product(BASES["pentagon"], make_simplex(1)),
    "prism": BASES["prism"],
}


@st.composite
def admissible_offsets(draw, bases=BASES):
    """A base polytope and an offset vector strictly inside its safe radius."""
    name = draw(st.sampled_from(sorted(bases)))
    base = bases[name]
    rho = safe_radius_estimate(base)
    k = base.hrep.num_facets
    steps = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return name, tuple(rho * c / 4 for c in steps)


def vertex_argmax(D, verts):
    """Maximum density over the sorted vertices ``verts`` and the vertices
    that attain it, in their order."""
    best = max(density(D, v) for v in verts)
    return best, [v for v in verts if density(D, v) == best]


def full_system_argmax(D):
    """Maximum density and its maximizers over every vertex of the unpruned
    packing system, in lexicographic order."""
    return vertex_argmax(D, vertex_set(build_packing_polytope(D)))


def blocked_vertices(D):
    """The vertices of the packing polytope at which no radius can grow
    alone: every x_i equals the least l_ij - x_j over the edges (i, j)."""
    around = {i: [] for i in range(D.num_vertices)}
    for i, j in D.edges:
        around[i].append(j)
        around[j].append(i)
    return [
        v for v in packing_polytope_vertices(D)
        if all(c == min(D.pair_bounds[i][j] - v[j] for j in around[i]) for i, c in enumerate(v))
    ]


def neighbors(D):
    """Each vertex's neighbours, in frame order."""
    return [f.neighbor_indices for f in D.frames]


def maximal_rays(D):
    """The rays that maximize ranks: those of the down-closure built from
    D's edge lengths over their common denominator."""
    num, q = common_denominator(t for f in D.frames for t in f.lengths)
    return _maximal_rays(*_binding(neighbors(D), num), q)


def down_closure_vertices(D):
    """The vertices y / x0 of the rays that maximize ranks, sorted; every
    ray must be finite."""
    rays = maximal_rays(D)
    assert all(ray[0] > 0 for ray in rays)
    verts = sorted(tuple(F(c, ray[0]) for c in ray[1:]) for ray in rays)
    assert len(set(verts)) == len(verts)
    return verts


class TestBuild:
    def test_square_constraints(self, square):
        PP = build_packing_polytope(square)
        assert PP.dim == 4
        assert PP.num_facets == 4 + 6
        bounds = {}
        for h in PP.halfspaces[4:]:
            pair = tuple(i for i, c in enumerate(h.normal) if c == -1)
            bounds[pair] = -h.offset
        # Adjacent pairs bounded by 1, the two diagonals by 2.
        assert sorted(bounds.values()) == [1, 1, 1, 1, 2, 2]
        assert bounds[(0, 3)] == 2 and bounds[(1, 2)] == 2

    def test_simplex_constraints(self, simplex2):
        PP = build_packing_polytope(simplex2)
        pair_rows = PP.halfspaces[3:]
        assert len(pair_rows) == 3
        assert all(-h.offset == 1 for h in pair_rows)

    def test_interval(self):
        D = make_simplex(1, F(7, 3))
        PP = build_packing_polytope(D)
        assert PP.num_facets == 3
        assert -PP.halfspaces[2].offset == F(7, 3)


class TestDensity:
    def test_square_diagonal(self, square):
        assert density(square, (1, 0, 0, 1)) == 1
        assert density(square, (0, 1, 1, 0)) == 1

    def test_simplex_corner(self, simplex2):
        assert density(simplex2, (1, 0, 0)) == 1

    def test_zero(self, pentagon):
        assert density(pentagon, (0,) * 5) == 0

    def test_dimension_mismatch(self, square):
        with pytest.raises(ValueError):
            density(square, (1, 0, 0))

    def test_negative_rejected(self, square):
        with pytest.raises(ValueError):
            density(square, (-1, 0, 0, 0))


class TestMaximize:
    def test_square_two_diagonal_maximizers(self, square):
        best, packs = maximize(square)
        assert best == 1
        assert [p.radii for p in packs] == [
            (F(0), F(1), F(1), F(0)),
            (F(1), F(0), F(0), F(1)),
        ]
        # Each maximizer is supported on a nonadjacent (diagonal) pair.
        edges = {frozenset(e) for e in square.edges}
        for p in packs:
            support = frozenset(i for i, c in enumerate(p.radii) if c > 0)
            assert len(support) == 2 and support not in edges

    @pytest.mark.parametrize("n", [2, 3])
    def test_simplex_coordinate_maximizers(self, n):
        D = make_simplex(n)
        best, packs = maximize(D)
        assert best == 1
        expect = sorted(
            tuple(F(int(i == k)) for i in range(n + 1)) for k in range(n + 1)
        )
        assert [p.radii for p in packs] == expect

    def test_rectangle_max_half(self, rectangle):
        best, packs = maximize(rectangle)
        assert best == F(1, 2)
        radii = {p.radii for p in packs}
        # Diagonal pairs plus the two length-2 edge pairs are all maximal.
        assert (F(1), F(0), F(1), F(0)) in radii
        assert (F(0), F(1), F(0), F(1)) in radii
        assert len(radii) == 4

    def test_results_deduplicated_and_feasible(self, pentagon, prism):
        for D in (pentagon, prism):
            best, packs = maximize(D)
            radii = [p.radii for p in packs]
            assert len(set(radii)) == len(radii)
            PP = build_packing_polytope(D)
            for p in packs:
                assert contains(PP, p.radii)
                assert p.density == best
                assert disjointness_oracle(D, p.radii)

    def test_pruned_system_matches_full(self, square, simplex2, rectangle, prism):
        for D in (square, simplex2, rectangle, prism):
            full = vertex_set(build_packing_polytope(D))
            assert packing_polytope_vertices(D) == full

    def test_implied_box_on_vertices(self, square, pentagon, prism):
        for D in (square, pentagon, prism):
            for v in packing_polytope_vertices(D):
                assert all(c <= r for c, r in zip(v, D.corner_radii))

    def test_strict_convexity_at_edge_midpoints(self, square, simplex2, rectangle):
        for D in (square, simplex2, rectangle):
            best, _ = maximize(D)
            vd = enumerate_vertices(build_packing_polytope(D))
            dens = [density(D, v) for v in vd.vertices]
            for i, j in vd.edges:
                if dens[i] != dens[j] or (dens[i] == best and dens[j] == best):
                    mid = tuple(
                        (a + b) / 2 for a, b in zip(vd.vertices[i], vd.vertices[j])
                    )
                    assert density(D, mid) < best


class TestMaximizeMatchesFullSystem:
    @settings(max_examples=40, deadline=None)
    @given(admissible_offsets())
    @example(("square", (0,) * 4))
    @example(("simplex2", (0,) * 3))
    @example(("simplex3", (0,) * 4))
    @example(("rectangle", (0,) * 4))
    @example(("pentagon", (0,) * 5))
    @example(("prism", (0,) * 5))
    @example(("cube3", (0,) * 6))
    @example(("chopped3", (0,) * 6))
    def test_argmax_of_density(self, case):
        name, offsets = case
        D = perturb(BASES[name], offsets)
        best, packs = maximize(D)
        expect_best, expect_radii = full_system_argmax(D)
        assert best == expect_best
        assert [p.radii for p in packs] == expect_radii
        assert all(p.density == best for p in packs)


def ranked_points(best):
    """The value and the sorted points y / x0 of a ranked maximum."""
    value, rays = best
    return value, sorted(tuple(F(c, ray[0]) for c in ray[1:]) for ray in rays)


class TestCertified:
    """Where the edge-block bound is reached, it gives the value and the
    ties that ranking the down-closure's rays gives, with no double
    description."""

    @settings(max_examples=30, deadline=None)
    @given(admissible_offsets(CERTIFIED_BASES))
    @example(("cube4", (0,) * 8))
    @example(("prism", (0,) * 5))
    def test_offsets(self, case):
        name, offsets = case
        D = perturb(CERTIFIED_BASES[name], offsets)
        num, q = common_denominator(t for f in D.frames for t in f.lengths)
        binding = _binding(neighbors(D), num)
        got = _certified(*binding, q, D.dim)
        if got is not None:
            assert ranked_points(got) == ranked_points(_ranked(_maximal_rays(*binding, q), D.dim))

    def test_interval_not_certified(self):
        D = make_simplex(1)
        assert _certified(*_binding(neighbors(D), [1, 1]), 1, 1) is None

    @pytest.mark.parametrize(
        "D, dds",
        [(make_cube(4), 0), (BASES["pentagon"], 0), (BASES["chopped3"], 1)],
        ids=["cube4", "pentagon", "chopped3"],
    )
    def test_dd_calls(self, monkeypatch, D, dds):
        packing_module = importlib.import_module("toricpack.packing")
        calls = []
        cone_rays = packing_module._cone_rays
        monkeypatch.setattr(
            packing_module, "_cone_rays", lambda *args: calls.append(args) or cone_rays(*args)
        )
        maximize(D)
        assert len(calls) == dds


# Bases that the edge-block bound never certifies, so that a scan of any
# segment takes the chamber route from sample 0.
UNCERTIFIED_BASES = {
    "chopped3": BASES["chopped3"],
    "chopped4": make_chopped_simplex(F(1, 10), F(1, 5), 4),
    "prism": BASES["prism"],
    "simplex2xsimplex2": make_product(make_simplex(2), make_simplex(2)),
}


def seeded_segment(base, seed):
    """The ends s1, s2 of a segment of offsets inside half the safe radius."""
    rng = random.Random(seed)
    rho = safe_radius_estimate(base)
    return [tuple(rho * F(rng.randint(-4, 4), 8) for _ in base.hrep.halfspaces) for _ in "ab"]


class TestMaxima:
    """Along a segment, the chamber route of ``_maxima`` gives at each
    sample the value and the rays, as points y / x0, that the routine gives
    on that sample's lengths alone, as ``maximize`` calls it."""

    @pytest.mark.parametrize("certify", [True, False], ids=["certified", "uncertified"])
    @pytest.mark.parametrize("name", sorted(UNCERTIFIED_BASES))
    def test_segment_equals_each_sample(self, monkeypatch, name, certify):
        packing_module = importlib.import_module("toricpack.packing")
        if not certify:
            monkeypatch.setattr(packing_module, "_certified", lambda *args: None)
        base = UNCERTIFIED_BASES[name]
        s1, s2 = seeded_segment(base, 2525)
        calls, dds = [], []
        monkeypatch.setattr(
            importlib.import_module("toricpack.perturb"), "_maxima",
            lambda *args: calls.append(args) or _maxima(*args),
        )
        cone_rays = packing_module._cone_rays
        monkeypatch.setattr(
            packing_module, "_cone_rays", lambda *args: dds.append(args) or cone_rays(*args)
        )
        scan_segment(base, s1, s2, 8)
        [(nbrs, lengths, N, n)] = calls
        num, q = lengths(0)
        assert _certified(*_binding(nbrs, num), q, n) is None
        assert len(dds) < N + 1
        got = _maxima(nbrs, lengths, N, n)
        for k in range(N + 1):
            [want] = _maxima(nbrs, lambda _: lengths(k), 0, n)
            assert ranked_points(got[k]) == ranked_points(want), k


class TestBindingEdges:
    """The down-closure rows built in integers from the frames, with the
    binding edges read from the frames' lengths, give the rays of the
    HPolytope route over the binding edges filtered through the pair
    bounds: the same rays in the same order."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_fixtures(self, name):
        D = BASES[name]
        assert maximal_rays(D) == reference_maximal_rays(D)

    @settings(max_examples=25, deadline=None)
    @given(admissible_offsets())
    def test_offsets(self, case):
        name, offsets = case
        D = perturb(BASES[name], offsets)
        assert maximal_rays(D) == reference_maximal_rays(D)


class TestDownClosure:
    """maximize enumerates the down-closure {x_i <= r_i, x_i + x_j <= l_ij}:
    its vertices are exactly the blocked vertices of the packing polytope."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_fixtures(self, name):
        D = BASES[name]
        assert down_closure_vertices(D) == blocked_vertices(D)

    @settings(max_examples=25, deadline=None)
    @given(admissible_offsets())
    def test_offsets(self, case):
        name, offsets = case
        D = perturb(BASES[name], offsets)
        assert down_closure_vertices(D) == blocked_vertices(D)

    def test_cube4_count(self):
        # 42 of the 743 vertices of cube 4's packing polytope are blocked.
        D = make_cube(4)
        verts = down_closure_vertices(D)
        assert len(verts) == 42
        assert verts == blocked_vertices(D)

    @pytest.mark.parametrize(
        "D",
        [
            make_cube(4),
            make_product(make_simplex(2), make_cube(2)),
            make_chopped_simplex(F(1, 10), F(1, 5), 4),
            make_product(make_simplex(3), make_simplex(1)),
            make_product(make_simplex(2), make_simplex(2)),
            make_product(make_chopped_simplex(F(1, 10), F(1, 10)), make_simplex(1)),
        ],
        ids=["cube4", "simplex2xsquare", "chopped4", "simplex3xsimplex1", "simplex2xsimplex2",
             "pentagonxsimplex1"],
    )
    def test_argmax_over_all_vertices(self, D):
        best, packs = maximize(D)
        expect_best, expect_radii = vertex_argmax(D, packing_polytope_vertices(D))
        assert best == expect_best
        assert [p.radii for p in packs] == expect_radii


class TestWalls:
    """Instances whose full packing polytope double description did not
    finish (cube 5) or took seconds (the chopped 5-simplex), and cubes up
    to 7: down-closure double description did not finish cube 6 in ten
    minutes."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_cube_checkerboards(self, n):
        # 2^(n-1) / n!: the two checkerboards fill half the corners.
        D = make_cube(n)
        best, packs = maximize(D)
        assert best == F(2 ** (n - 1), math.factorial(n))
        expect = sorted(
            tuple(F(int(sum(v) % 2 == parity)) for v in D.vertices) for parity in (0, 1)
        )
        assert [p.radii for p in packs] == expect

    def test_chopped5(self):
        best, packs = maximize(make_chopped_simplex(F(1, 10), F(1, 5), 5))
        assert best == F(32897, 99967)
        assert len(packs) == 80


class TestRealize:
    def test_square_corner_triangle(self, square):
        simplices = realize(square, (1, 0, 0, 0))
        assert len(simplices) == 1
        s = simplices[0]
        assert s.center == (F(0), F(0))
        hull_verts = set(vertex_set(s.hull))
        assert hull_verts == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
        outer = s.hull.halfspaces[-1]
        assert outer.normal == (-1, -1) and outer.offset == -1

    def test_simplex_full(self, simplex2):
        (s,) = realize(simplex2, (1, 0, 0))
        assert set(vertex_set(s.hull)) == set(simplex2.vertices)

    def test_four_quarter_triangles(self, square):
        simplices = realize(square, (F(1, 2),) * 4)
        assert len(simplices) == 4
        for s in simplices:
            assert reference_volume(s.hull) == F(1, 8)

    def test_infeasible(self, square):
        with pytest.raises(ValueError, match="not a packing"):
            realize(square, (1, 1, 0, 0))

    @pytest.mark.parametrize("x", [(1, 0, 0), (1, 0, 0, 0, 0)])
    def test_length_mismatch(self, square, x):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            realize(square, x)
        with pytest.raises(ValueError, match="^radii vector length mismatch$"):
            disjointness_oracle(square, x)

    @pytest.mark.parametrize("radius", [F(-1, 4), F(11, 10)])
    def test_radius_outside_corner(self, pentagon, radius):
        # The pentagon's corner radius at vertex 0 is 9/10.
        with pytest.raises(ValueError, match=f"^radius {radius} outside \\[0, 9/10\\] at vertex 0$"):
            admissible_simplex(pentagon, 0, radius)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_refuses_as_edge_system(self, name):
        # Up to three radii at quarter steps of their corner radius, one step
        # below 0 to two above r_i, and the rest 0: they meet the rows
        # x_i + x_j <= l_ij on both sides and with equality.
        D = BASES[name]
        system = reference_edge_system(D)
        rng = random.Random(name)
        refused = 0
        for _ in range(200):
            x = [F(0)] * D.num_vertices
            for i in rng.sample(range(D.num_vertices), rng.randint(1, 3)):
                x[i] = D.corner_radii[i] * F(rng.randint(-1, 6), 4)
            if contains(system, x):
                realize(D, x)
            else:
                refused += 1
                with pytest.raises(ValueError, match="^not a packing$"):
                    realize(D, x)
        assert 0 < refused < 200

    def test_volume_law(self, pentagon):
        for i, r in enumerate(pentagon.corner_radii):
            s = admissible_simplex(pentagon, i, r)
            assert reference_volume(s.hull) == r**2 / 2

    def test_affine_map_hits_edges(self, square, pentagon, prism):
        # The frame maps the model corner onto the hull: its corners are the
        # center and the points at the radius along each frame column.
        s = admissible_simplex(square, 0, F(3, 4))
        assert set(enumerate_vertices(s.hull).vertices) == {
            (F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4))
        }
        for D in (square, pentagon, prism):
            for i, r in enumerate(D.corner_radii):
                s = admissible_simplex(D, i, r)
                corners = [s.center] + [
                    tuple(c + r * x for c, x in zip(s.center, d)) for d in s.frame_columns
                ]
                assert enumerate_vertices(s.hull).vertices == tuple(sorted(corners))


class TestDisjointness:
    def test_square_diagonal_touch(self, square):
        assert disjointness_oracle(square, (1, 0, 0, 1))

    def test_square_overlapping_adjacent(self, square):
        assert not disjointness_oracle(square, (1, 1, 0, 0))

    def test_square_single_point_touch(self, square):
        assert disjointness_oracle(square, (F(3, 4), F(1, 4), 0, 0))

    def test_inadmissible_radius(self, square):
        with pytest.raises(ValueError, match="not admissible"):
            disjointness_oracle(square, (2, 0, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pairs_match_intersect_route(self, data):
        # The verdict read off the tight sets of one enumeration of the
        # stacked hulls is that of evaluating the outer facets at the
        # vertices of their intersection.
        D = BASES[data.draw(st.sampled_from(sorted(BASES)))]
        pair = data.draw(st.lists(st.integers(0, D.num_vertices - 1), min_size=2, max_size=2, unique=True))
        si, sj = (
            admissible_simplex(D, v, D.corner_radii[v] * data.draw(st.integers(1, 8)) / 8) for v in pair
        )
        assert _half_open_disjoint(si, sj) == reference_half_open_disjoint(si, sj)

    def test_equivalence_on_half_grid(self, square, simplex2):
        for D in (square, simplex2):
            PP = build_packing_polytope(D)
            steps = [F(0), F(1, 2), F(1)]
            for pt in itertools.product(steps, repeat=D.num_vertices):
                assert contains(PP, pt) == disjointness_oracle(D, pt)


class TestSkewFrames:
    def test_chopped_square_corner(self):
        # Chopped square [0,2]^2 with the (2,2) corner cut along x+y = 3:
        # the cut corners have skew frames with direction (-1, 1) or (1, -1).
        from toricpack.delzant import validate_delzant
        from toricpack.polytope import hpolytope

        D = validate_delzant(
            hpolytope(
                2,
                [
                    ((1, 0), 0),
                    ((0, 1), 0),
                    ((-1, 0), -2),
                    ((0, -1), -2),
                    ((-1, -1), -3),
                ],
            )
        )
        # Vertex (1, 2) sits on the chop, edge directions (-1,0) and (1,-1);
        # its radius-1 admissible simplex is conv{(1,2), (0,2), (2,1)}.
        idx = D.vertices.index((F(1), F(2)))
        s = admissible_simplex(D, idx, 1)
        assert reference_volume(s.hull) == F(1, 2)
        hull = set(vertex_set(s.hull))
        assert (F(1), F(2)) in hull and len(hull) == 3
        best, packs = maximize(D)
        for p in packs:
            assert disjointness_oracle(D, p.radii)


class TestCubes:
    def test_3cube_not_full(self):
        best, _ = maximize(make_cube(3))
        assert best == F(2, 3)

    def test_half_integral_prism_vertex(self, prism):
        # The triangle faces allow the half-integral corner assignment.
        v = (F(1, 2),) * 3 + (F(0),) * 3
        assert v in packing_polytope_vertices(prism)


# Bases with offsets of mixed denominators among them: the product's scale
# is lcm(7, 11) = 77.
INTEGER_CONE_BASES = {
    **{f"cube{n}": make_cube(n) for n in range(2, 6)},
    "chopped3": BASES["chopped3"],
    "chopped5": make_chopped_simplex(F(1, 10), F(1, 5), 5),
    "simplex2x3_7xcube2x5_11": make_product(make_simplex(2, F(3, 7)), make_cube(2, F(5, 11))),
}


def assert_integer_cones_match(D):
    """The volume, the frames' edge lengths and the maximum read off the
    integer vertex cones equal their Fraction routes."""
    assert D.euclidean_volume == reference_volume_brion(D)
    for i, f in enumerate(D.frames):
        assert f.lengths == reference_edge_lengths(D.vertices, i, f.directions, f.neighbor_indices)
    assert maximize(D) == reference_maximize(D)


class TestIntegerCones:
    """The vertex cones in integers at the scale of the offsets give what
    the Fraction vertices give, on the bases and on members moved by
    offsets with coprime denominators."""

    @pytest.mark.parametrize("name", sorted(INTEGER_CONE_BASES))
    def test_bases(self, name):
        assert_integer_cones_match(INTEGER_CONE_BASES[name])

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_members(self, data):
        name = data.draw(st.sampled_from(sorted(INTEGER_CONE_BASES)))
        base = INTEGER_CONE_BASES[name]
        rho = safe_radius_estimate(base)
        primes = data.draw(st.permutations((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))
        s = [rho * F(data.draw(st.integers(-p + 1, p - 1)), p) for p in primes[:base.hrep.num_facets]]
        assert_integer_cones_match(perturb(base, s))
