import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from reference import (
    brute_force_edges,
    mat_det,
    rational_length,
    reference_validate_reduced,
    reference_volume,
    same_fan,
)
from test_packing import BASES as OFFSET_BASES
from test_packing import admissible_offsets

from toricpack.delzant import (
    NotDelzantError,
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    scale,
    translate,
    validate_delzant,
)
from toricpack.jsonio import info_report
from toricpack.linalg import vec_add, vec_scale
from toricpack.perturb import is_admissible, perturb, safe_radius_estimate
from toricpack.polytope import _reduce, hpolytope

F = Fraction

PENTAGON = make_chopped_simplex(F(1, 10), F(1, 10))

# The square pyramid z >= 0, +-x + z <= 1, +-y + z <= 1, its apex in the
# middle of the lexicographic vertex order; and the same pyramid with
# normals (+-2, 0, -1), (0, +-2, -1) and offsets -2, apex (0, 0, 2).
SQUARE_PYRAMID = [
    ((0, 0, 1), 0),
    ((-1, 0, -1), -1),
    ((1, 0, -1), -1),
    ((0, -1, -1), -1),
    ((0, 1, -1), -1),
]
SQUARE_PYRAMID_DET_2 = [
    ((0, 0, 1), 0),
    ((-2, 0, -1), -2),
    ((2, 0, -1), -2),
    ((0, -2, -1), -2),
    ((0, 2, -1), -2),
]


class TestValidation:
    def test_standard_simplex_frame_at_origin(self, simplex2):
        origin_frame = simplex2.frames[0]
        assert simplex2.vertices[0] == (F(0), F(0))
        assert set(origin_frame.directions) == {(1, 0), (0, 1)}
        assert origin_frame.lengths == (F(1), F(1))

    def test_non_unimodular_triangle(self):
        # Triangle (0,0), (2,0), (0,1): the corner at (0,1) has edge
        # directions (0,-1) and (2,-1).
        tri = hpolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)])
        with pytest.raises(NotDelzantError, match=r"not unimodular at vertex 1 \(det = -2\)"):
            validate_delzant(tri)

    def test_not_simple_pyramid(self):
        # Inverted square pyramid: four facets meet at the apex (0,0,0),
        # which is also the lexicographically first vertex.
        pyr = hpolytope(
            3,
            [
                ((1, 0, 0), 0),
                ((0, 1, 0), 0),
                ((-1, 0, 1), 0),
                ((0, -1, 1), 0),
                ((0, 0, -1), -1),
            ],
        )
        with pytest.raises(NotDelzantError, match="not simple at vertex 0"):
            validate_delzant(pyr)

    def test_square_all_radii_one(self, square):
        assert square.corner_radii == (F(1),) * 4

    def test_frames_reach_neighbors(self, square, simplex3, pentagon, prism):
        for D in (square, simplex3, pentagon, prism):
            for v, f in zip(D.vertices, D.frames):
                for u, t, j in zip(f.directions, f.lengths, f.neighbor_indices):
                    assert t > 0
                    assert vec_add(v, vec_scale(t, u)) == D.vertices[j]

    def test_frames_unimodular(self, square, simplex3, pentagon, prism):
        for D in (square, simplex3, pentagon, prism):
            for f in D.frames:
                assert abs(mat_det(f.directions)) == 1

    def test_active_normals_invert_the_frame(self, square, pentagon, prism):
        # N_I F = I at every vertex: row k of N_I is the normal of the k-th
        # active facet, column k of F the edge leaving it.
        for D in (
            square,
            pentagon,
            prism,
            make_cube(3),
            make_chopped_simplex(F(1, 10), F(1, 5), 3),
            make_product(pentagon, make_simplex(1)),
        ):
            n = D.dim
            for inc, frame in zip(D.incidence, D.frames):
                normals = [D.hrep.halfspaces[f].normal for f in inc]
                product = [
                    [sum(u[c] * d[c] for c in range(n)) for d in frame.directions]
                    for u in normals
                ]
                assert product == [[int(r == c) for c in range(n)] for r in range(n)]

    def test_non_unimodular_vertex_named_with_edge_determinant(self):
        # Vertex 0 = (0, 0) has active normals (1, 0), (1, 2) of determinant
        # 2; its primitive edge directions (0, 1), (2, -1) have determinant -2.
        quad = hpolytope(2, [((1, 0), 0), ((1, 2), 0), ((-1, 0), -1), ((0, -1), -1)])
        with pytest.raises(NotDelzantError, match=r"^not unimodular at vertex 0 \(det = 2\)$"):
            validate_delzant(quad)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # Vertices (-1, -1, 0), (-1, 1, 0), apex (0, 0, 1), ...: two
            # simple vertices come before the apex on four facets.
            (SQUARE_PYRAMID, "not simple at vertex 2"),
            # Vertex 0 fails first; its edge to the apex (0, 0, 2) has the
            # primitive direction (1, 1, 2).
            (SQUARE_PYRAMID_DET_2, "not unimodular at vertex 0 (det = 2)"),
        ],
        ids=["apex pyramid", "apex pyramid det 2"],
    )
    def test_apex_pyramid(self, rows, message):
        with pytest.raises(NotDelzantError, match=f"^{re.escape(message)}$"):
            validate_delzant(hpolytope(3, rows))

    def test_validation_idempotent_on_reduced(self, pentagon):
        again = validate_delzant(pentagon.hrep)
        assert again.hrep == pentagon.hrep
        assert again.vertices == pentagon.vertices


def assert_frames_match_reference(D):
    """Frames from the inverse of the active normals, with neighbours read
    off the incidence, equal the frames from primitive vertex differences
    along the edges of the rank test; and the edge list derived from the
    frames is the rank test's."""
    again = validate_delzant(D.hrep)
    expected = reference_validate_reduced(*_reduce(D.hrep))
    assert again.frames == expected.frames == D.frames
    assert D.edges == brute_force_edges(D.hrep, D.vertices, D.incidence)
    assert (
        (again.vertices, again.incidence, again.edges)
        == (expected.vertices, expected.incidence, expected.edges)
        == (D.vertices, D.incidence, D.edges)
    )
    assert again.corner_radii == expected.corner_radii


class TestFramesMatchReference:
    FIXTURES = {
        **OFFSET_BASES,
        "interval": make_cube(1),
        "cube4": make_cube(4),
        "chopped5": make_chopped_simplex(F(1, 10), F(1, 5), 5),
        "pentagon x pentagon": make_product(PENTAGON, PENTAGON),
        "translated pentagon": translate(PENTAGON, (F(1, 3), -2)),
    }

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures(self, name):
        assert_frames_match_reference(self.FIXTURES[name])

    @given(admissible_offsets())
    @settings(max_examples=40, deadline=None)
    def test_admissible_offsets(self, case):
        name, offsets = case
        assert_frames_match_reference(perturb(OFFSET_BASES[name], offsets))

    @pytest.mark.parametrize(
        "rows",
        [
            [((1, 0), 0), ((1, 2), 0), ((-1, 0), -1), ((0, -1), -1)],
            [((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)],
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -2), -2)],
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, 0, 1), 0), ((0, -1, 1), 0), ((0, 0, -1), -1)],
            [(signs, -1) for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                                       (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1))],
            SQUARE_PYRAMID,
            SQUARE_PYRAMID_DET_2,
        ],
        ids=["quad", "triangle", "simplex3", "pyramid", "octahedron", "apex pyramid",
             "apex pyramid det 2"],
    )
    def test_same_failure(self, rows):
        P = hpolytope(len(rows[0][0]), rows)
        with pytest.raises(NotDelzantError) as expected:
            reference_validate_reduced(*_reduce(P))
        with pytest.raises(NotDelzantError, match=f"^{re.escape(str(expected.value))}$"):
            validate_delzant(P)


class TestRationalLength:
    def test_axis(self):
        assert rational_length((0, 0), (2, 0)) == 2

    def test_diagonal(self):
        assert rational_length((0, 0), (3, 3)) == 3

    def test_fractional(self):
        assert rational_length((0, 0), (F(1, 2), F(1, 2))) == F(1, 2)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            rational_length((1, 1), (1, 1))


class TestCornerRadius:
    def test_square(self, square):
        assert square.corner_radii == (1, 1, 1, 1)

    def test_rectangle(self, rectangle):
        assert rectangle.corner_radii == (1, 1, 1, 1)

    def test_simplex_vertex(self, simplex3):
        # Every corner of the standard simplex has all edges of length 1.
        assert simplex3.corner_radii == (1, 1, 1, 1)

    def test_pentagon(self, pentagon):
        assert sorted(pentagon.corner_radii) == [
            F(1, 10),
            F(1, 10),
            F(1, 10),
            F(1, 10),
            F(9, 10),
        ]


class TestPairBounds:
    def test_symmetric_and_edge_exact(self, square, pentagon, prism):
        for D in (square, pentagon, prism):
            edges = {frozenset(e) for e in D.edges}
            V = D.num_vertices
            for i in range(V):
                for j in range(V):
                    if i == j:
                        continue
                    assert D.pair_bounds[i][j] == D.pair_bounds[j][i]
                    if frozenset((i, j)) in edges:
                        assert D.pair_bounds[i][j] == rational_length(
                            D.vertices[i], D.vertices[j]
                        )
                    else:
                        assert (
                            D.pair_bounds[i][j]
                            == D.corner_radii[i] + D.corner_radii[j]
                        )


class TestFan:
    def test_square_fan(self, square):
        rays = info_report(square)["fan_rays"]
        assert len(rays) == 4
        assert {tuple(u) for u in rays} == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_simplex_fan(self, simplex2):
        assert len(info_report(simplex2)["fan_rays"]) == 3

    def test_pentagon_rays(self, pentagon):
        assert len(info_report(pentagon)["fan_rays"]) == 5

    def test_same_fan_square_rectangle(self, square, rectangle):
        # The rectangle is a cube-fan polytope: identical normals in the
        # product facet order need realignment, so rebuild via cube scaling.
        stretched = validate_delzant(
            hpolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -1)])
        )
        assert same_fan(square, stretched)

    def test_same_fan_counterexamples(self, square, simplex2):
        assert not same_fan(square, simplex2)

    def test_fan_translation_invariant(self, pentagon):
        moved = translate(pentagon, (3, 5))
        assert same_fan(pentagon, moved)
        assert info_report(moved)["fan_rays"] == info_report(pentagon)["fan_rays"]


class TestGenerators:
    def test_prism_counts(self, prism):
        assert prism.num_vertices == 6
        assert prism.hrep.num_facets == 5

    def test_pentagon_has_n_plus_3_facets(self, pentagon):
        assert pentagon.hrep.num_facets == 5
        assert pentagon.euclidean_volume == F(49, 100)

    def test_zero_chop_reduces(self):
        D = make_chopped_simplex(0, F(1, 10))
        assert D.hrep.num_facets == 4

    def test_scale_volume(self, square):
        assert scale(square, 3).euclidean_volume == 9

    def test_scale_radii(self, simplex2):
        assert scale(simplex2, F(5, 2)).corner_radii == (F(5, 2),) * 3

    def test_chop_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_chopped_simplex(F(3, 4), F(1, 2))
        with pytest.raises(ValueError):
            make_chopped_simplex(F(-1, 10), F(1, 10))
        with pytest.raises(ValueError, match="^chop depth must be less than 1$"):
            make_chopped_simplex(1, 0)
        # In three dimensions, chops of depth 1/2 at e_1 and e_2 meet on the
        # edge between them, at (1/2, 1/2, 0) on four facets.
        with pytest.raises(
            ValueError, match="^chop parameters give an invalid polytope: not simple at vertex 6$"
        ):
            make_chopped_simplex(F(1, 2), F(1, 2), 3)

    def test_full_depth_chops_merge(self):
        # eps1 + eps2 = 1 merges the two cut corners into one vertex.
        D = make_chopped_simplex(F(1, 2), F(1, 2))
        assert D.num_vertices == 4

    def test_chopped_simplex_3d(self):
        D = make_chopped_simplex(F(1, 10), F(1, 10), n=3)
        assert D.hrep.num_facets == 6  # n + 3
        assert D.num_vertices == 8

    def test_product_dimensions(self, prism):
        c4 = make_product(make_cube(2), make_cube(2))
        assert c4.dim == 4
        assert c4.num_vertices == 16

    def test_interval_degenerate_case(self):
        D = make_simplex(1, F(5, 2))
        assert D.num_vertices == 2
        assert D.corner_radii == (F(5, 2), F(5, 2))
        assert D.pair_bounds[0][1] == F(5, 2)

    def test_cube_radii(self):
        c3 = make_cube(3, 2)
        assert c3.corner_radii == (F(2),) * 8
        assert c3.euclidean_volume == 8


class TestBrionVolume:
    """Brion's sum over the vertex cones equals the recursive facet
    triangulation, on the fixtures and on members of their offset families
    strictly inside the safe radius."""

    BASES = {
        "interval": make_cube(1),
        "square": make_cube(2),
        "pentagon": PENTAGON,
        "prism": make_product(make_simplex(1), make_simplex(2)),
        "cube3": make_cube(3),
        "cube4": make_cube(4),
        "chopped3": make_chopped_simplex(F(1, 10), F(1, 5), 3),
        "chopped4": make_chopped_simplex(F(1, 10), F(1, 5), 4),
        "chopped5": make_chopped_simplex(F(1, 10), F(1, 5), 5),
        "pentagon x interval": make_product(PENTAGON, make_simplex(1)),
        "pentagon x pentagon": make_product(PENTAGON, PENTAGON),
        "simplex2 x simplex2": make_product(make_simplex(2), make_simplex(2)),
        "square x simplex2": make_product(make_cube(2), make_simplex(2)),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_triangulation(self, name):
        base = self.BASES[name]
        rho = safe_radius_estimate(base)
        rng = random.Random(name)
        members = [base] + [
            perturb(base, [rho * F(rng.randint(-9, 9), 10) for _ in base.hrep.halfspaces])
            for _ in range(4)
        ]
        for D in members:
            assert D.euclidean_volume == reference_volume(D.hrep)


class TestFramesOnDemand:
    """Validation is the per-cone test: the frames, and the adjacency tests
    that find their neighbours, are built only when read."""

    @pytest.fixture()
    def adjacency_tests(self, monkeypatch):
        module = importlib.import_module("toricpack.delzant")
        calls = []
        original = module._third_positions

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_third_positions", counted)
        return calls

    def test_validation_and_offsets_build_no_frames(self, adjacency_tests):
        cube5 = validate_delzant(make_cube(5).hrep)
        assert cube5.euclidean_volume == 1
        rho = safe_radius_estimate(cube5)
        s = [rho / 2] * cube5.hrep.num_facets
        assert is_admissible(cube5, s)
        member = perturb(cube5, s)
        assert member.euclidean_volume == (1 - rho) ** 5
        assert adjacency_tests == []
        for D in (cube5, member):
            assert "frames" not in D.__dict__

    def test_frames_derived_once(self, adjacency_tests):
        cube3 = make_cube(3)
        first = cube3.frames
        # One adjacency test per vertex and active facet: V n = 8 * 3.
        assert len(adjacency_tests) == 24
        assert cube3.frames is first
        assert len(adjacency_tests) == 24
