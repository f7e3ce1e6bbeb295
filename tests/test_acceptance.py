"""Acceptance suite.

One test per acceptance criterion, asserted at the stated tolerance (exact
rational comparison unless noted) and printing one line per criterion.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from fractions import Fraction

from reference import (
    build_packing_polytope,
    contains,
    packing_polytope_vertices,
    simplices_disjoint,
    vertex_affinity_holds,
)

from toricpack.delzant import (
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
)
from toricpack.packing import density, disjointness_oracle, maximize
from toricpack.perturb import (
    is_admissible,
    safe_radius_estimate,
    scan_segment,
)

F = Fraction

RECT_DIR = (0, 0, -1, 0)  # pushes the x = 1 wall of the unit square outward


def test_c01_full_packing_cases():
    """Exact density 1 for the standard simplex (n = 1..4) and the square."""
    cases = [("simplex n=%d" % n, make_simplex(n)) for n in (1, 2, 3, 4)]
    cases.append(("unit square", make_cube(2)))
    for label, D in cases:
        t0 = time.perf_counter()
        best, _ = maximize(D)
        elapsed = time.perf_counter() - t0
        assert best == 1, f"{label}: expected exact density 1, got {best}"
        assert elapsed < 1.0, f"{label}: took {elapsed:.2f}s (budget 1s)"
    print("[criterion 1] PASS - density exactly 1 for simplices n=1..4 and the square")


def test_c02_only_simplex_rigidity():
    """Exact density < 1 for the prism, the 3-cube, and the 4-cube."""
    t0 = time.perf_counter()
    results = {}
    for label, D in (
        ("prism", make_product(make_simplex(1), make_simplex(2))),
        ("3-cube", make_cube(3)),
        ("4-cube", make_cube(4)),
    ):
        best, _ = maximize(D)
        results[label] = best
        assert best < 1, f"{label}: expected density < 1, got {best}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"rigidity cases took {elapsed:.2f}s (budget 10s)"
    assert results == {"prism": F(2, 3), "3-cube": F(2, 3), "4-cube": F(1, 3)}
    print(
        "[criterion 2] PASS - prism 2/3, 3-cube 2/3, 4-cube 1/3, "
        f"all < 1 in {elapsed:.2f}s"
    )


def test_c03_maximizer_sets():
    """Square: exactly the two diagonal packings; simplex n=2,3: the n+1
    coordinate vectors (deterministic lexicographic vertex order)."""
    _, packs = maximize(make_cube(2))
    assert [p.radii for p in packs] == [
        (F(0), F(1), F(1), F(0)),
        (F(1), F(0), F(0), F(1)),
    ]
    for n in (2, 3):
        _, packs = maximize(make_simplex(n))
        expect = sorted(
            tuple(F(int(i == k)) for i in range(n + 1)) for k in range(n + 1)
        )
        assert [p.radii for p in packs] == expect
    print(
        "[criterion 3] PASS - square has exactly the two diagonal maximizers; "
        "simplex n=2,3 exactly the coordinate vectors"
    )


def test_c04_rectangle_family_closed_form():
    """Omega([0,1+t] x [0,1]) = 1/(1+t) at 17 exact samples."""
    res = scan_segment(make_cube(2), (0,) * 4, RECT_DIR, 16)
    assert len(res.ts) == 17
    for t, om in zip(res.ts, res.omegas):
        assert om == 1 / (1 + t), f"t={t}: maximize gave {om}, closed form {1/(1+t)}"
    print("[criterion 4] PASS - rectangle family matches 1/(1+t) at all 17 samples")


def _grid_values(radius: Fraction) -> list[Fraction]:
    out = []
    k = 0
    while F(k, 4) <= radius:
        out.append(F(k, 4))
        k += 1
    return out


def test_c05_oracle_equivalence_on_grids():
    """Constraint feasibility == geometric disjointness on every step-1/4
    grid point of the per-vertex boxes; zero mismatches."""
    t0 = time.perf_counter()
    polytopes = [
        ("square", make_cube(2)),
        ("simplex", make_simplex(2)),
        ("rectangle", make_product(make_simplex(1, 2), make_simplex(1, 1))),
        ("pentagon", make_chopped_simplex(F(1, 10), F(1, 10))),
        ("prism", make_product(make_simplex(1), make_simplex(2))),
    ]
    total = 0
    for label, D in polytopes:
        PP = build_packing_polytope(D)
        V = D.num_vertices
        axes = [_grid_values(r) for r in D.corner_radii]
        pair_cache: dict[tuple, bool] = {}

        def pair_ok(i, xi, j, xj):
            key = (i, xi, j, xj)
            if key not in pair_cache:
                pair_cache[key] = simplices_disjoint(D, i, xi, j, xj)
            return pair_cache[key]

        for pt in itertools.product(*axes):
            support = [i for i in range(V) if pt[i] > 0]
            oracle = all(
                pair_ok(i, pt[i], j, pt[j])
                for a, i in enumerate(support)
                for j in support[a + 1 :]
            )
            feasible = contains(PP, pt)
            assert feasible == oracle, f"{label}: mismatch at {pt}"
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"grid check took {elapsed:.2f}s (budget 60s)"
    print(
        f"[criterion 5] PASS - feasibility == disjointness on {total} grid "
        f"points across 5 polytopes in {elapsed:.2f}s"
    )


def test_c06_implied_box_property():
    """Every enumerated packing-polytope vertex satisfies x_i <= r_i."""
    checked = 0
    for D in (
        make_cube(2),
        make_simplex(2),
        make_simplex(3),
        make_product(make_simplex(1, 2), make_simplex(1, 1)),
        make_chopped_simplex(F(1, 10), F(1, 10)),
        make_product(make_simplex(1), make_simplex(2)),
        make_cube(3),
    ):
        for v in packing_polytope_vertices(D):
            assert all(c <= r for c, r in zip(v, D.corner_radii))
            checked += 1
    print(f"[criterion 6] PASS - implied box holds on {checked} vertices")


def test_c07_regularity_certificates():
    """Brunn-Minkowski style certificates along two families, exact."""
    square = make_cube(2)
    res = scan_segment(square, (0,) * 4, RECT_DIR, 16)
    assert res.vol_root_midpoint_concave
    assert res.vol_root_strictly_concave_somewhere
    assert not res.endpoints_homothetic
    assert res.omega_root_midpoint_convex_near_zero

    simplex = make_simplex(2)
    scaling = scan_segment(simplex, (0, 0, 0), (0, 0, -1), 16)
    assert scaling.vol_root_all_midpoints_equal
    assert scaling.endpoints_homothetic
    print(
        "[criterion 7] PASS - vol^(1/2) midpoint-concave (strict somewhere, "
        "endpoints non-homothetic) and omega^(1/2) midpoint-convex near 0 on "
        "the rectangle family; all midpoint equalities on the scaling family"
    )


def test_c08_vertex_affinity_random():
    """100 seeded random admissible (s1, s2, t): exact vertex affinity of
    the enumerated shifted H-representations."""
    import random

    rng = random.Random(20260809)
    bases = [make_cube(2), make_chopped_simplex(F(1, 10), F(1, 10))]
    rhos = [safe_radius_estimate(b) / 2 for b in bases]
    done = 0
    failures = 0
    while done < 100:
        D, rho = bases[done % 2], rhos[done % 2]
        nf = D.hrep.num_facets
        s1 = tuple(rho * F(rng.randint(-8, 8), 8) for _ in range(nf))
        s2 = tuple(rho * F(rng.randint(-8, 8), 8) for _ in range(nf))
        t = F(rng.randint(0, 16), 16)
        mid = tuple((1 - t) * a + t * b for a, b in zip(s1, s2))
        if not (
            is_admissible(D, s1) and is_admissible(D, s2) and is_admissible(D, mid)
        ):
            continue
        if not vertex_affinity_holds(D, s1, s2, t):
            failures += 1
        done += 1
    assert failures == 0
    print("[criterion 8] PASS - vertex affinity exact on 100 random samples")


def test_c09_density_range_surrogate():
    """Density range on the chopped-simplex family Delta(eps1, eps2): some
    member packs below 3/10 and some member packs above 9/10.

    Hand derivation (n = 2, density = sum x_i^2 / (2 vol)):

    - Delta(1/20, 1/20): volume 1/2 - 2 * (1/20)^2 / 2 = 199/400; radii
      19/20 at the origin corner and 1/20 at the two far cut corners give
      (361 + 1 + 1)/400 * 200/199 = 363/398 > 9/10.
    - Delta(1/10, 1/10): volume 49/100, corner radii (9/10, 1/10, 1/10,
      1/10, 1/10).  The implied box x_i <= r_i bounds every packing by
      (81 + 4)/100 * 50/49 = 85/98 < 9/10, and the packing (9/10, 1/10,
      1/10) on the origin corner and the two far cut corners reaches
      (81 + 1 + 1)/100 * 50/49 = 83/98.  This polytope cannot witness the
      upper end of the range.

    Every returned maximizer is checked against the geometric disjointness
    oracle and its density recomputed, so the exact values do not rest on
    the packing-polytope enumerator alone.
    """
    cases = {
        "sliver": make_chopped_simplex(F(9, 10), F(1, 20)),
        "pentagon": make_chopped_simplex(F(1, 10), F(1, 10)),
        "near-simplex": make_chopped_simplex(F(1, 20), F(1, 20)),
    }
    t0 = time.perf_counter()
    results = {label: maximize(D) for label, D in cases.items()}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"three maximizations took {elapsed:.2f}s (budget 5s)"

    for label, D in cases.items():
        best, packs = results[label]
        for p in packs:
            assert density(D, p.radii) == best, f"{label}: density of {p.radii}"
            assert disjointness_oracle(D, p.radii), f"{label}: {p.radii} overlaps"

    sliver = results["sliver"][0]
    near = results["near-simplex"][0]
    pentagon = results["pentagon"][0]
    assert sliver < F(3, 10), f"sliver density {sliver} not below 3/10"
    assert near > F(9, 10), f"near-simplex density {near} not above 9/10"
    assert near == F(363, 398)
    assert pentagon == F(83, 98)
    # The implied box x_i <= r_i alone bounds every packing of the pentagon.
    D = cases["pentagon"]
    pentagon_bound = sum(r**2 for r in D.corner_radii) / (2 * D.euclidean_volume)
    assert pentagon_bound == F(85, 98)
    assert pentagon <= pentagon_bound < F(9, 10)
    print(
        f"[criterion 9] PASS - Omega(Delta(9/10,1/20)) = {sliver} < 3/10, "
        f"Omega(Delta(1/20,1/20)) = {near} > 9/10; Omega(Delta(1/10,1/10)) = "
        f"{pentagon} under its box bound {pentagon_bound} < 9/10"
    )


def test_c10_volume_oracle():
    """Exact volumes match hand triangulation values."""
    import math

    for n in (1, 2, 3, 4):
        assert make_simplex(n).euclidean_volume == F(1, math.factorial(n))
    assert make_cube(3).euclidean_volume == 1
    assert make_chopped_simplex(F(1, 10), F(1, 10)).euclidean_volume == F(49, 100)
    print("[criterion 10] PASS - simplex 1/n!, cube 1, chopped simplex 49/100")


def test_c11_product_counts():
    """Prism = segment x triangle: 6 vertices, 5 facets (n = 3)."""
    prism = make_product(make_simplex(1), make_simplex(2))
    assert prism.num_vertices == 6
    assert prism.hrep.num_facets == 5
    print("[criterion 11] PASS - prism has 6 vertices and 5 facets")
