import decimal
import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    is_homothetic,
    reference_compare_root_midpoint,
    reference_moved,
    reference_perturb,
    reference_scan_segment,
    reference_volume,
    same_fan,
    vertex_affinity_holds,
)
from test_packing import BASES as SCAN_BASES

from toricpack.delzant import (
    _moved,
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    scale,
    translate,
    validate_delzant,
)
from toricpack.jsonio import info_report
from toricpack.linalg import _floor_root_scaled
from toricpack.packing import maximize
from toricpack.perturb import (
    PerturbationError,
    ScanError,
    compare_root_midpoint,
    is_admissible,
    perturb,
    safe_radius_estimate,
    scan_segment,
)
from toricpack.polytope import hpolytope

F = Fraction

# make_cube(2) facet order: x >= 0, y >= 0, -x >= -1, -y >= -1; a negative
# offset shift on facet 2 moves the wall x = 1 outward.
RECT_DIR = (0, 0, -1, 0)

# [0,1]^3 with the edges at the origin chopped by x + y >= 1/4 (facet 6)
# and x + z >= 1/8 (facet 7).  Moving the two chops toward each other makes
# them meet at a vertex on four facets, then swaps their order: the fan
# changes without losing a facet.
CHOPPED_CUBE = validate_delzant(
    hpolytope(
        3,
        [(h.normal, h.offset) for h in make_cube(3).hrep.halfspaces]
        + [((1, 1, 0), F(1, 4)), ((1, 0, 1), F(1, 8))],
    )
)


# [0,2]^2 with the corners (0,0) and (2,2) chopped by x + y >= 1 and
# x + y <= 3.  The vertices (1,0) and (1,2) share no facet, so offsets
# that move the chops reorder them.
HEXAGON = validate_delzant(
    hpolytope(
        2,
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2), ((1, 1), 1), ((-1, -1), -3)],
    )
)


def chop_shift(k):
    return (0,) * 6 + (-k, k)


def outcome(fn, base, s):
    """The polytope, or the message of the PerturbationError raised."""
    try:
        return fn(base, s)
    except PerturbationError as exc:
        return str(exc)


class TestPerturb:
    def test_zero_is_identity(self, square):
        D = perturb(square, (0, 0, 0, 0))
        assert D.hrep == square.hrep
        assert D.vertices == square.vertices

    def test_outward_push_gives_rectangle(self, square):
        D = perturb(square, RECT_DIR)
        assert (F(2), F(1)) in D.vertices
        assert same_fan(D, square)

    def test_inward_collapse(self, square):
        with pytest.raises(PerturbationError, match="empty"):
            perturb(square, (1, 0, 0, 0))
        with pytest.raises(PerturbationError, match="empty"):
            perturb(square, (2, 0, 0, 0))

    def test_lost_facet(self, pentagon):
        # Pushing the chop at e_1 outward past the original corner makes it
        # redundant.
        s = [0] * 5
        s[3] = F(-1, 5)
        with pytest.raises(PerturbationError, match="lost facet"):
            perturb(pentagon, s)

    def test_vertex_merge_loses_facet(self, pentagon):
        # Deepening both chops until the cut corners collide pushes the
        # diagonal facet out of the polytope.
        s = [0, 0, 0, F(2, 5), F(2, 5)]
        for fn in (perturb, reference_perturb):
            with pytest.raises(PerturbationError) as info:
                fn(pentagon, s)
            assert info.value.code == "lost facet"

    def test_dimension_check(self, square):
        with pytest.raises(
            ValueError, match=r"^offset vector has 2 entries, the polytope has 4 facets$"
        ):
            perturb(square, (0, 0))


class TestCodes:
    """Each failure code, from the library and from the enumeration route."""

    CASES = [
        (make_cube(2), (1, 0, 0, 0), "empty", "empty: no interior"),
        (
            make_chopped_simplex(F(1, 10), F(1, 10)),
            (0, 0, 0, F(-1, 5), 0),
            "lost facet",
            "lost facet: 1 facet(s) became redundant",
        ),
        (CHOPPED_CUBE, chop_shift(F(1, 16)), "not Delzant", "not Delzant: not simple at vertex 4"),
        (CHOPPED_CUBE, chop_shift(F(1, 8)), "fan changed", "fan changed"),
    ]

    @pytest.mark.parametrize("fn", [perturb, reference_perturb])
    @pytest.mark.parametrize("base, s, code, message", CASES)
    def test_code(self, fn, base, s, code, message):
        with pytest.raises(PerturbationError) as info:
            fn(base, s)
        assert info.value.code == code
        assert str(info.value) == message

    def test_vertices_reordered(self):
        s = (0, 0, 0, 0, F(-1, 20), F(1, 10))
        D = perturb(HEXAGON, s)
        assert HEXAGON.vertices.index((1, 0)) < HEXAGON.vertices.index((1, 2))
        assert D.vertices.index((F(19, 20), 0)) > D.vertices.index((F(9, 10), 2))
        want = reference_perturb(HEXAGON, s)
        assert D == want
        assert D.frames == want.frames

    def test_just_before_the_chops_meet(self):
        D = perturb(CHOPPED_CUBE, chop_shift(F(1, 17)))
        want = reference_perturb(CHOPPED_CUBE, chop_shift(F(1, 17)))
        assert D == want
        assert D.frames == want.frames
        assert same_fan(D, CHOPPED_CUBE)


class TestMatchesReference:
    """The fan-based construction equals reduction, validation and fan
    comparison of the shifted H-representation: the same polytope, or the
    same error message."""

    BASES = {
        "square": make_cube(2),
        "pentagon": make_chopped_simplex(F(1, 10), F(1, 10)),
        "cube3": make_cube(3),
        "chopped3": make_chopped_simplex(F(1, 10), F(1, 5), 3),
        "pentagon x interval": make_product(
            make_chopped_simplex(F(1, 10), F(1, 10)), make_simplex(1)
        ),
        "cube4": make_cube(4),
        "chopped cube": CHOPPED_CUBE,
        "hexagon": HEXAGON,
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_seeded_offsets(self, name):
        base = self.BASES[name]
        rho = safe_radius_estimate(base)
        rng = random.Random(name)
        accepted = rejected = 0
        for factor in (F(1, 2), 1, 2, 4):
            for _ in range(6):
                s = tuple(
                    factor * rho * F(rng.randint(-4, 4), 4)
                    for _ in range(base.hrep.num_facets)
                )
                got = outcome(perturb, base, s)
                want = outcome(reference_perturb, base, s)
                assert got == want, s
                if isinstance(got, str):
                    rejected += 1
                else:
                    # Not dataclass fields, so == above does not compare them.
                    assert got.frames == want.frames, s
                    assert got.euclidean_volume == reference_volume(want.hrep), s
                    assert got.corner_radii == want.corner_radii, s
                    assert got.pair_bounds == want.pair_bounds, s
                    accepted += 1
        assert accepted and rejected


class TestFramesReused:
    """An admissible member takes its directions from the base; only a
    rejected offset is validated, to name the failure."""

    @pytest.fixture()
    def validated(self, monkeypatch):
        # toricpack.perturb is the function; the module has to be imported.
        module = importlib.import_module("toricpack.perturb")
        seen = []
        original = module._validate_reduced

        def counted(reduced, verts, incidence):
            seen.append(reduced)
            return original(reduced, verts, incidence)

        monkeypatch.setattr(module, "_validate_reduced", counted)
        return seen

    def test_admissible_is_not_validated(self, validated):
        base = make_cube(4)
        rho = safe_radius_estimate(base)
        rng = random.Random(4)
        for _ in range(10):
            perturb(base, [rho * F(rng.randint(-9, 9), 10) for _ in range(8)])
        assert len(validated) == 0
        with pytest.raises(PerturbationError, match="fan changed"):
            perturb(CHOPPED_CUBE, chop_shift(F(1, 8)))
        assert len(validated) == 1


class TestPairBoundsOnDemand:
    """Scans and maximization read the edge lengths from the frames; the
    V x V pair bounds are built only when asked for, as by the info report."""

    def test_scan_and_maximize_leave_them_unbuilt(self, monkeypatch):
        module = importlib.import_module("toricpack.perturb")
        members = []
        original = module.perturb

        def recorded(base, s):
            members.append(original(base, s))
            return members[-1]

        monkeypatch.setattr(module, "perturb", recorded)
        square = make_cube(2)
        scan_segment(square, (0,) * 4, RECT_DIR, 4)
        # No member is built: the ends are tested by their slacks and every
        # sample is interpolated.
        assert len(members) == 0
        rectangle = original(square, RECT_DIR)
        members.append(rectangle)
        cube3 = make_cube(3)
        rho = safe_radius_estimate(cube3)
        for k in range(3):
            D = original(cube3, [rho * F(k - j, 8) for j in range(6)])
            maximize(D)
            members.append(D)
        for D in [square, cube3, *members]:
            assert "pair_bounds" not in D.__dict__
        assert info_report(rectangle)["pair_bounds"] == [
            ["0", "1", "2", "2"],
            ["1", "0", "2", "2"],
            ["2", "2", "0", "1"],
            ["2", "2", "1", "0"],
        ]
        assert "pair_bounds" in rectangle.__dict__


class TestAdmissibility:
    @pytest.fixture
    def reductions(self, monkeypatch):
        module = importlib.import_module("toricpack.perturb")
        seen = []
        original = module._reduce

        def counted(P):
            seen.append(P)
            return original(P)

        monkeypatch.setattr(module, "_reduce", counted)
        return seen

    def test_matches_perturb_without_reduction(self, reductions):
        """is_admissible is perturb's verdict, rejections included, from the
        slacks alone: it never reduces the shifted H-representation."""
        cases = [(base, s) for base, s, _, _ in TestCodes.CASES]
        for name in sorted(TestMatchesReference.BASES):
            base = TestMatchesReference.BASES[name]
            rho = safe_radius_estimate(base)
            rng = random.Random(name)
            for factor in (F(1, 2), 2, 4):
                cases += [
                    (base, tuple(factor * rho * F(rng.randint(-4, 4), 4) for _ in base.hrep.halfspaces))
                    for _ in range(4)
                ]
        verdicts = [is_admissible(base, s) for base, s in cases]
        assert reductions == []
        assert verdicts == [not isinstance(outcome(perturb, base, s), str) for base, s in cases]
        assert True in verdicts and False in verdicts

    def test_zero(self, square, pentagon):
        assert is_admissible(square, (0,) * 4)
        assert is_admissible(pentagon, (0,) * 5)

    def test_square_cases(self, square):
        assert is_admissible(square, (F(1, 4), 0, 0, 0))
        assert is_admissible(square, (-1, 0, 0, 0))
        assert not is_admissible(square, (1, 0, 0, 0))

    def test_star_shaped_along_rays(self, square):
        # Scaling an admissible offset toward zero stays admissible.
        s = (F(1, 4), F(-1, 4), F(1, 8), 0)
        assert is_admissible(square, s)
        for k in (F(1, 2), F(1, 4), F(1, 8)):
            assert is_admissible(square, tuple(k * c for c in s))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def coprime_offsets(draw):
    """A base of ``TestMatchesReference`` and an offset vector whose entries
    m / p have distinct prime denominators p, so mutually coprime ones, up
    to twice the safe radius; one time in four, instead, plus or minus the
    safe radius on one axis, on the boundary of the safe box."""
    name = draw(st.sampled_from(sorted(TestMatchesReference.BASES)))
    base = TestMatchesReference.BASES[name]
    rho = safe_radius_estimate(base)
    k = base.hrep.num_facets
    if draw(st.integers(0, 3)) == 0:
        s = [F(0)] * k
        s[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-rho, rho]))
        return name, tuple(s)
    primes = draw(st.permutations(PRIMES))[:k]
    bounds = [int(2 * rho * p) for p in primes]
    return name, tuple(F(draw(st.integers(-b, b)), p) for b, p in zip(bounds, primes))


class TestIntegerMoves:
    """Offsets moved in integers at one scale give what moving the Fraction
    vertices and evaluating the Fraction slacks gives: the same vertices,
    the same slacks (so the same signs), the same verdict of is_admissible
    and the same member from perturb."""

    @settings(max_examples=80, deadline=None)
    @given(coprime_offsets())
    @example(("square", (F(1, 3), F(-1, 7), F(2, 5), F(-1, 11))))
    @example(("pentagon", (F(1, 30), 0, 0, 0, 0)))
    @example(("pentagon", (0, 0, 0, F(-1, 30), 0)))
    def test_matches_fractions(self, case):
        name, s = case
        base = TestMatchesReference.BASES[name]
        moved, slacks, q = _moved(base, s)
        want_moved, want_slacks = reference_moved(base, s)
        assert [tuple(F(c, q) for c in v) for v in moved] == want_moved
        assert [F(x, q) for x in slacks] == want_slacks
        admissible = all(x > 0 for x in want_slacks)
        assert is_admissible(base, s) == admissible
        got = outcome(perturb, base, s)
        assert got == outcome(reference_perturb, base, s)
        if admissible:
            assert got.vertices == tuple(sorted(want_moved))
        else:
            assert isinstance(got, str)


class TestSafeRadius:
    def test_square_at_least_quarter(self, square):
        rho = safe_radius_estimate(square)
        assert rho >= F(1, 4)
        assert is_admissible(square, (rho, 0, 0, 0))

    def test_thin_rectangle_capped_by_short_side(self, square):
        thin = perturb(make_cube(2), (0, 0, 0, F(9, 10)))  # [0,1] x [0,1/10]
        rho = safe_radius_estimate(thin)
        assert 0 < rho <= F(1, 20)

    def test_simplex_positive(self, simplex2):
        assert safe_radius_estimate(simplex2) > 0

    def test_exact_values(self, square, prism, pentagon):
        assert safe_radius_estimate(square) == F(1, 2)
        assert safe_radius_estimate(prism) == F(1, 3)
        assert safe_radius_estimate(make_cube(3)) == F(1, 2)
        assert safe_radius_estimate(pentagon) == F(1, 30)
        chopped3 = make_chopped_simplex(F(1, 10), F(1, 5), 3)
        assert safe_radius_estimate(chopped3) == F(1, 40)
        pentagon20 = make_chopped_simplex(F(1, 20), F(1, 20))
        assert safe_radius_estimate(pentagon20) == F(1, 60)

    def test_open_bound(self, square, prism, pentagon):
        # Every sign vector just inside the radius is admissible; some sign
        # vector on it is not.
        for D in (square, prism, pentagon):
            rho = safe_radius_estimate(D)
            signs = list(itertools.product((1, -1), repeat=D.hrep.num_facets))
            inside = [tuple(F(99, 100) * rho * c for c in sv) for sv in signs]
            assert all(is_admissible(D, s) for s in inside)
            on = [tuple(rho * c for c in sv) for sv in signs]
            assert not all(is_admissible(D, s) for s in on)

    def test_pentagon_regression(self, pentagon):
        # The radius was once estimated at 23831/327680 > 1/25 by sampling
        # directions; this offset of max-norm 1/25 loses a facet.
        rho = F(1, 30)
        signs = itertools.product((1, -1), repeat=5)
        rejected = [sv for sv in signs if not is_admissible(pentagon, [rho * c for c in sv])]
        assert len(rejected) == 7
        with pytest.raises(PerturbationError, match="lost facet"):
            perturb(pentagon, (F(1, 25), 0, F(1, 25), 0, F(-1, 25)))


class TestHomothety:
    def test_scaled_square(self, square):
        assert is_homothetic(square, scale(square, 3))

    def test_square_vs_rectangle(self, square):
        assert not is_homothetic(square, perturb(square, RECT_DIR))

    def test_translated_simplex(self, simplex2):
        assert is_homothetic(simplex2, translate(simplex2, (5, 7)))

    def test_scaled_and_translated(self, pentagon):
        other = translate(scale(pentagon, F(7, 3)), (1, 2))
        assert is_homothetic(pentagon, other)

    def test_dimension_mismatch(self, square, simplex3):
        with pytest.raises(ValueError):
            is_homothetic(square, simplex3)


POSITIVE = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000).filter(bool)


@st.composite
def root_triples(draw):
    """Three positive rationals and a root degree from 1 to 4."""
    return draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(st.integers(1, 4))


@st.composite
def root_near_ties(draw):
    """(mid, left, right, n) with mid^(1/n) the mean of left^(1/n) and
    right^(1/n), rounded to 0 to 120 digits and moved by at most one unit
    in the last: 2 mid^(1/n) - left^(1/n) - right^(1/n) is near 0."""
    n = draw(st.integers(2, 4))
    left, right = draw(POSITIVE), draw(POSITIVE)
    places = draw(st.integers(0, 120))
    k = places + 10
    mean = F(_floor_root_scaled(left, n, k) + _floor_root_scaled(right, n, k), 2 * 10**k)
    mid = F(round(mean**n * 10**places) + draw(st.integers(-1, 1)), 10**places)
    assume(mid > 0)
    return mid, left, right, n


class TestRootComparison:
    def test_rational_cases(self):
        assert compare_root_midpoint(F(4), F(1), F(9), 2) == 0
        assert compare_root_midpoint(F(4), F(1), F(4), 2) == 1
        assert compare_root_midpoint(F(1), F(1), F(9), 2) == -1

    def test_irrational_cases(self):
        # 2 sqrt(2) = 2.828... vs 1 + sqrt(3) = 2.732...
        assert compare_root_midpoint(F(2), F(1), F(3), 2) == 1
        # 2 vs 2 sqrt(2)
        assert compare_root_midpoint(F(1), F(2), F(2), 2) == -1

    def test_cube_roots(self):
        assert compare_root_midpoint(F(8), F(1), F(27), 3) == 0
        assert compare_root_midpoint(F(8), F(1), F(8), 3) == 1
        assert compare_root_midpoint(F(8, 27), F(8, 27), F(8, 27), 3) == 0
        # 2 * 2^(1/3) = 2.5198... vs 1 + 3^(1/3) = 2.4422...
        assert compare_root_midpoint(F(2), F(1), F(3), 3) == 1

    def test_mixed_commensurability(self):
        # left/mid is a perfect square but right/mid is not: strict.
        assert compare_root_midpoint(F(1), F(4), F(2), 2) == -1

    def test_n_one(self):
        assert compare_root_midpoint(F(3), F(2), F(4), 1) == 0

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            compare_root_midpoint(F(0), F(1), F(1), 2)

    @pytest.mark.parametrize(
        "places, precisions",
        [(50, [30, 60]), (2500, [30, 60, 120, 240, 480, 960, 1920, 3840])],
    )
    def test_precision_doubles(self, monkeypatch, places, precisions):
        # sqrt(m) is the midpoint of sqrt 2 and sqrt 3 for m = (5 + 2 sqrt 6) / 4;
        # rounded (upward) to `places` digits, 2 sqrt(m) - sqrt 2 - sqrt 3 is about
        # 10^-places, so the comparison doubles its digits until they pass that.
        ctx = decimal.Context(prec=places + 10)
        m = ctx.divide(ctx.add(5, ctx.multiply(2, ctx.sqrt(6))), 4)
        m = F(m.quantize(decimal.Decimal(10) ** -places, context=ctx))
        perturb_module = importlib.import_module("toricpack.perturb")
        floor_root, tried = perturb_module._floor_root_scaled, []
        monkeypatch.setattr(
            perturb_module, "_floor_root_scaled", lambda q, n, k: tried.append(k) or floor_root(q, n, k)
        )
        assert compare_root_midpoint(m, F(2), F(3), 2) == 1
        assert list(dict.fromkeys(tried)) == precisions

    def test_gives_up_past_4000_digits(self, monkeypatch):
        # Floors that never separate: every scaled root reads 0, so
        # |2a - b - c| never exceeds 2 and each precision up to 3840 is tried.
        perturb_module = importlib.import_module("toricpack.perturb")
        tried = []
        monkeypatch.setattr(perturb_module, "_floor_root_scaled", lambda q, n, k: tried.append(k) or 0)
        with pytest.raises(ArithmeticError, match="^root comparison did not separate$"):
            compare_root_midpoint(F(2), F(1), F(3), 2)
        assert list(dict.fromkeys(tried)) == [30, 60, 120, 240, 480, 960, 1920, 3840]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(root_triples(), root_near_ties()))
    def test_matches_enclosures(self, case):
        assert compare_root_midpoint(*case) == reference_compare_root_midpoint(*case)


class TestScan:
    def test_rectangle_family_closed_form(self, square):
        res = scan_segment(square, (0,) * 4, RECT_DIR, 16)
        assert len(res.ts) == 17
        for t, om, vol in zip(res.ts, res.omegas, res.volumes):
            assert vol == 1 + t
            assert om == 1 / (1 + t)
        assert res.vol_root_midpoint_concave
        assert res.vol_root_strictly_concave_somewhere
        assert not res.vol_root_all_midpoints_equal
        assert res.omega_root_midpoint_convex_near_zero
        assert not res.endpoints_homothetic
        # Omega is strictly decreasing along this family.
        assert all(a > b for a, b in zip(res.omegas, res.omegas[1:]))

    def test_simplex_scaling_equality_case(self, simplex2):
        res = scan_segment(simplex2, (0, 0, 0), (0, 0, -1), 8)
        assert set(res.omegas) == {F(1)}
        assert res.vol_root_all_midpoints_equal
        assert res.vol_root_midpoint_concave
        assert not res.vol_root_strictly_concave_somewhere
        assert res.endpoints_homothetic

    def test_constant_segment(self, square):
        s = (F(1, 8), 0, 0, 0)
        res = scan_segment(square, s, s, 4)
        assert len(set(res.omegas)) == 1
        assert len(set(res.volumes)) == 1
        assert res.vol_root_all_midpoints_equal

    def test_needs_a_subdivision(self, square):
        with pytest.raises(ValueError, match="^need at least one subdivision$"):
            scan_segment(square, (0,) * 4, RECT_DIR, 0)

    def test_inadmissible_sample_named(self, square):
        with pytest.raises(ScanError, match=r"t = 1/2"):
            scan_segment(square, (0,) * 4, (2, 0, 0, 0), 4)

    def test_start_refused(self, square):
        # The last two start in thirds and end in sevenths, so the two ends'
        # slacks have coprime scales: x >= 4/3 leaves nothing, and
        # x >= 2/3 with x <= 2/3 leaves no interior.
        for s1, s2 in [
            ((2, 0, 0, 0), (0,) * 4),
            ((F(4, 3), F(1, 3), 0, 0), (F(1, 7), 0, F(-2, 7), 0)),
            ((F(2, 3), 0, F(1, 3), 0), (F(-1, 7), 0, 0, F(1, 7))),
        ]:
            with pytest.raises(ScanError) as info:
                scan_segment(square, s1, s2, 4)
            assert str(info.value).startswith("inadmissible sample at t = 0: ")
            assert str(info.value) == scan_outcome(reference_scan_segment, square, s1, s2, 4)

    @pytest.mark.parametrize(
        "s1, s2, samples, t",
        [
            # Only the end is refused: x >= t meets x <= 1 at t = 1.
            pytest.param((0,) * 4, (1, 0, 0, 0), 4, "1", id="s20-4-1"),
            # The end and the samples from t = 3/7 on: x >= 7t/3 meets x <= 1.
            pytest.param((0,) * 4, (F(7, 3), 0, 0, 0), 7, "3/7", id="s21-7-3/7"),
            # Ends in thirds and sevenths, so their slacks have coprime
            # scales: x >= 1/3 + 20t/21 meets x <= 1 at t = 7/10.
            pytest.param(
                (F(1, 3), 0, 0, F(-1, 3)), (F(9, 7), 0, 0, F(2, 7)), 10, "7/10", id="thirds-sevenths-10"
            ),
            pytest.param(
                (F(1, 3), 0, 0, F(-1, 3)), (F(9, 7), 0, 0, F(2, 7)), 7, "5/7", id="thirds-sevenths-7"
            ),
            # y >= 2/3 + 10t/21 meets y <= 1 at t = 7/10, between samples.
            pytest.param(
                (F(-1, 3), F(2, 3), 0, 0), (0, F(8, 7), F(3, 7), 0), 6, "5/6", id="thirds-sevenths-6"
            ),
        ],
    )
    def test_end_refused_names_first_t(self, square, s1, s2, samples, t):
        with pytest.raises(ScanError) as info:
            scan_segment(square, s1, s2, samples)
        assert str(info.value).startswith(f"inadmissible sample at t = {t}: ")
        assert str(info.value) == scan_outcome(reference_scan_segment, square, s1, s2, samples)

    def test_gap_refinement_halves(self, square):
        coarse = scan_segment(square, (0,) * 4, RECT_DIR, 8)
        fine = scan_segment(square, (0,) * 4, RECT_DIR, 32)

        def max_gap(res):
            return max(
                abs(a - b) for a, b in zip(res.omegas, res.omegas[1:])
            )

        assert max_gap(fine) <= max_gap(coarse) / 2

    def test_decimal_column_matches_roots(self, square):
        res = scan_segment(square, (0,) * 4, RECT_DIR, 4)
        assert res.omega_root_decimals[0].startswith("1.0000")
        # omega(1) = 1/2, sqrt = 0.7071...
        assert res.omega_root_decimals[-1].startswith("0.70710678118654752440")

    def test_pentagon_chop_family(self, pentagon):
        # Deepen both chops from 1/10 toward 3/20: stays admissible, and the
        # volume root certificate holds along the whole segment.
        res = scan_segment(pentagon, (0,) * 5, (0, 0, 0, F(1, 20), F(1, 20)), 8)
        assert res.vol_root_midpoint_concave
        assert all(0 < om < 1 for om in res.omegas)
        assert res.volumes[0] == F(49, 100)
        assert all(a > b for a, b in zip(res.volumes, res.volumes[1:]))


def scan_outcome(fn, base, s1, s2, samples):
    """The scan result, or the message of the ScanError raised."""
    try:
        return fn(base, s1, s2, samples)
    except ScanError as exc:
        return str(exc)


@st.composite
def segments(draw):
    """A base, two offset vectors of up to 3/2 of its safe radius (so some
    samples leave the admissible region), equal one time in five, and a
    sample count from 1 to 10."""
    name = draw(st.sampled_from(sorted(SCAN_BASES)))
    base = SCAN_BASES[name]
    rho = safe_radius_estimate(base)
    k = base.hrep.num_facets

    def offsets():
        steps = draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
        return tuple(rho * c / 4 for c in steps)

    s1 = offsets()
    s2 = s1 if draw(st.integers(0, 4)) == 0 else offsets()
    return name, s1, s2, draw(st.integers(1, 10))


@st.composite
def homothetic_segments(draw):
    """A base, an offset s1 inside its safe radius and s2 the offsets of
    lam D(s1) + v, lam from 1/4 to 4 and v of small rationals; one time in
    three one entry of s2 then moves by an eighth of the safe radius,
    which breaks the homothety or the admissibility.  A sample count from
    1 to 3."""
    name = draw(st.sampled_from(sorted(SCAN_BASES)))
    base = SCAN_BASES[name]
    rho = safe_radius_estimate(base)
    k = base.hrep.num_facets
    s1 = [rho * c / 4 for c in draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))]
    lam = draw(st.fractions(F(1, 4), 4, max_denominator=6))
    v = draw(st.lists(st.fractions(-2, 2, max_denominator=4), min_size=base.dim, max_size=base.dim))
    s2 = [
        lam * (h.offset + a) + sum(c * x for c, x in zip(h.normal, v)) - h.offset
        for h, a in zip(base.hrep.halfspaces, s1)
    ]
    if draw(st.integers(0, 2)) == 0:
        s2[draw(st.integers(0, k - 1))] += rho * draw(st.sampled_from([-1, 1])) / 8
    return name, tuple(s1), tuple(s2), draw(st.integers(1, 3))


class TestScanMatchesReference:
    """The scan from its two ends and one double description per chamber
    gives what building and maximizing every sample gives: every ScanResult
    field, or the same ScanError message."""

    @settings(max_examples=60, deadline=None)
    @given(segments())
    @example(("square", (0,) * 4, RECT_DIR, 16))
    @example(("square", (0,) * 4, (4, 0, 0, 0), 8))
    # The pentagon's homothety to 3/2 of its size.
    @example(("pentagon", (0,) * 5, (0, 0, F(-1, 2), F(-9, 20), F(-9, 20)), 8))
    # A translation of the square by (1/4, -1/3).
    @example(("square", (0,) * 4, (F(1, 4), F(-1, 3), F(-1, 4), F(1, 3)), 4))
    # The 2 x 1/2 rectangle: the square's volume, and not homothetic to it.
    @example(("square", (0,) * 4, (0, 0, -1, F(1, 2)), 6))
    @example(("cube3", (F(1, 8),) + (0,) * 5, (F(1, 8),) + (0,) * 5, 3))
    # Two samples with as many vertices, whose tight sets agree on the rows
    # x_i <= l_ij and differ on the pair rows x_i + x_j <= l_ij.
    @example(
        (
            "prism",
            (F(1, 6), F(5, 48), 0, F(-1, 6), F(-1, 6)),
            (F(-1, 12), F(7, 48), F(-1, 12), F(1, 16), F(-1, 8)),
            10,
        )
    )
    def test_random_segments(self, segment):
        name, s1, s2, samples = segment
        base = SCAN_BASES[name]
        want = scan_outcome(reference_scan_segment, base, s1, s2, samples)
        assert scan_outcome(scan_segment, base, s1, s2, samples) == want

    @settings(max_examples=60, deadline=None)
    @given(homothetic_segments())
    def test_homothety_flag(self, segment):
        # The flag read off the edge lengths is the vertex-set test of
        # reference.is_homothetic on the two ends.
        name, s1, s2, samples = segment
        base = SCAN_BASES[name]
        assume(is_admissible(base, s2))
        got = scan_segment(base, s1, s2, samples).endpoints_homothetic
        assert got == is_homothetic(perturb(base, s1), perturb(base, s2))

    def test_seeded_admissible_segments(self):
        rng = random.Random(1313)
        for name in sorted(SCAN_BASES):
            base = SCAN_BASES[name]
            rho = safe_radius_estimate(base) / 2
            k = base.hrep.num_facets
            for _ in range(2):
                s1, s2 = (tuple(rho * F(rng.randint(-8, 8), 8) for _ in range(k)) for _ in "ab")
                samples = rng.randint(1, 10)
                want = reference_scan_segment(base, s1, s2, samples)
                assert scan_segment(base, s1, s2, samples) == want, (name, s1, s2)


class TestScanWork:
    """A scan builds no member and calls perturb only to name a refused
    sample.  Where the edge-block bound certifies every sample it runs no
    double description; otherwise it runs it once per chamber of the
    packing down-closure: one ``_cone_rays`` call from the down-closure
    builder."""

    @pytest.fixture
    def counts(self, monkeypatch):
        perturb_module = importlib.import_module("toricpack.perturb")
        packing_module = importlib.import_module("toricpack.packing")
        seen = {"perturb": 0, "dd": 0}

        def counted(name, fn):
            def wrapper(*args):
                seen[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(perturb_module, "perturb", counted("perturb", perturb_module.perturb))
        monkeypatch.setattr(packing_module, "_cone_rays", counted("dd", packing_module._cone_rays))
        return seen

    @pytest.mark.parametrize(
        "name, s2, samples, dds",
        [
            # Every sample of the square's rectangle family and of the
            # pentagon's homothety certifies.
            ("square", RECT_DIR, 16, 0),
            ("pentagon", (0, 0, F(-1, 2), F(-9, 20), F(-9, 20)), 8, 0),
            # No sample of the chopped 3-simplex does: the chamber route.
            ("chopped3", (F(1, 50), F(-1, 50), F(1, 100), 0, F(-1, 60), F(1, 70)), 8, 5),
        ],
    )
    def test_dd_per_scan(self, counts, name, s2, samples, dds):
        base = SCAN_BASES[name]
        scan_segment(base, (0,) * len(s2), s2, samples)
        assert counts == {"perturb": 0, "dd": dds}

    @pytest.mark.parametrize(
        "name, s2, samples, dds",
        [
            # The square's rectangle family: chambers {0}, 1-15 and {16}.
            ("square", RECT_DIR, 16, 9),
            # The pentagon's homothety to 3/2 of its size: one chamber.
            ("pentagon", (0, 0, F(-1, 2), F(-9, 20), F(-9, 20)), 8, 2),
            ("chopped3", (F(1, 50), F(-1, 50), F(1, 100), 0, F(-1, 60), F(1, 70)), 8, 5),
        ],
    )
    def test_dd_per_chamber(self, counts, monkeypatch, name, s2, samples, dds):
        # With no sample certified, the chamber route gives the same result.
        base = SCAN_BASES[name]
        want = scan_segment(base, (0,) * len(s2), s2, samples)
        monkeypatch.setattr(importlib.import_module("toricpack.packing"), "_certified", lambda *args: None)
        counts.update(perturb=0, dd=0)
        assert scan_segment(base, (0,) * len(s2), s2, samples) == want
        assert counts == {"perturb": 0, "dd": dds}
        assert dds < samples + 1

    def test_uncertified_sample_sends_the_segment_to_chambers(self, counts, monkeypatch):
        # Sample 0 of this simplex 2 x square segment certifies and sample 1
        # does not, so samples 1 to 4 take the chamber route and sample 0
        # keeps its certified maximum: 4 DDs, where rerunning the whole
        # segment took 5.
        packing_module = importlib.import_module("toricpack.packing")
        certified, seen = packing_module._certified, []
        monkeypatch.setattr(
            packing_module, "_certified", lambda *args: seen.append(certified(*args)) or seen[-1]
        )
        base = make_product(make_simplex(2), make_cube(2))
        s1 = (F(-1, 4), 0, F(-1, 6), F(-1, 12), F(1, 4), F(1, 4), F(1, 6))
        got = scan_segment(base, s1, (0,) * 7, 4)
        assert [c is not None for c in seen] == [True, False]
        assert counts == {"perturb": 0, "dd": 4}
        assert got == reference_scan_segment(base, s1, (0,) * 7, 4)

    def test_homothety_offsets(self):
        pentagon = SCAN_BASES["pentagon"]
        s2 = [h.offset / 2 for h in pentagon.hrep.halfspaces]
        assert s2 == [0, 0, F(-1, 2), F(-9, 20), F(-9, 20)]
        assert is_homothetic(pentagon, perturb(pentagon, s2))

    def test_refused_end_perturbs_once(self, counts, square):
        # x >= 4t meets x <= 1 at t = 1/4, the third sample, where the slack
        # is exactly 0; perturb runs there only, to name the failure.
        with pytest.raises(ScanError, match=r"^inadmissible sample at t = 1/4: "):
            scan_segment(square, (0,) * 4, (4, 0, 0, 0), 8)
        assert counts == {"perturb": 1, "dd": 0}


class TestVertexAffinity:
    """Vertices of the enumerated shifted H-representations are affine in
    the offsets, the structure that :func:`perturb` builds on."""

    def test_t_zero(self, square):
        assert vertex_affinity_holds(square, (0,) * 4, RECT_DIR, 0)

    def test_square_family_half(self, square):
        assert vertex_affinity_holds(
            square, (F(1, 8), F(-1, 8), F(1, 16), 0), RECT_DIR, F(1, 2)
        )

    def test_seeded_random_samples(self, square, pentagon):
        rng = random.Random(424242)
        for D in (square, pentagon):
            rho = safe_radius_estimate(D) / 2
            Fct = D.hrep.num_facets
            done = 0
            while done < 10:
                s1 = tuple(rho * F(rng.randint(-8, 8), 8) for _ in range(Fct))
                s2 = tuple(rho * F(rng.randint(-8, 8), 8) for _ in range(Fct))
                t = F(rng.randint(0, 16), 16)
                if not (is_admissible(D, s1) and is_admissible(D, s2)):
                    continue
                mid = tuple((1 - t) * a + t * b for a, b in zip(s1, s2))
                if not is_admissible(D, mid):
                    continue
                assert vertex_affinity_holds(D, s1, s2, t)
                done += 1

    def test_fan_constant_along_family(self, square):
        for k in range(5):
            D = perturb(square, tuple(F(k, 16) * c for c in RECT_DIR))
            assert same_fan(D, square)
