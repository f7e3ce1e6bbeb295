"""Seeded stress comparisons of double description with the brute force.

The library's double description enumeration must agree with the
exhaustive search of :mod:`reference` everywhere the latter works,
including degenerate vertices, duplicated constraints, redundant rows and
empty inputs.
"""

import random
from fractions import Fraction

from reference import brute_force_vertex_set, build_packing_polytope, contains, vertex_set
from toricpack.delzant import make_simplex
from toricpack.packing import disjointness_oracle
from toricpack.polytope import (
    EmptyPolytopeError,
    HPolytope,
    hpolytope,
)

F = Fraction


def random_bounded_polytope(rng: random.Random) -> HPolytope:
    """A box with random cuts; may be degenerate or have redundant rows."""
    n = rng.choice([2, 2, 3, 3, 4])
    side = rng.choice([1, 2, F(3, 2)])
    rows = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rows.append((e, F(0)))
        rows.append((tuple(-c for c in e), -side))
    for _ in range(rng.randint(0, 3)):
        normal = tuple(rng.randint(-2, 2) for _ in range(n))
        if all(c == 0 for c in normal):
            continue
        offset = F(rng.randint(-4, 1), rng.choice([1, 1, 2]))
        rows.append((normal, offset))
    if rng.random() < 0.3:
        rows.append(rows[rng.randrange(len(rows))])  # duplicate row
    return hpolytope(n, rows)


def test_dd_matches_brute_force_on_random_polytopes():
    rng = random.Random(987654321)
    agreements = 0
    empties = 0
    for _ in range(150):
        P = random_bounded_polytope(rng)
        try:
            brute = brute_force_vertex_set(P)
        except EmptyPolytopeError:
            try:
                vertex_set(P)
                raise AssertionError(f"DD found vertices in empty {P}")
            except EmptyPolytopeError:
                empties += 1
                continue
        assert vertex_set(P) == brute
        agreements += 1
    assert agreements >= 80  # the generator should mostly produce nonempty sets
    assert empties > 0


def test_vertex_set_invariant_under_constraint_order(prism):
    rng = random.Random(31337)
    PP = build_packing_polytope(prism)
    base = set(vertex_set(PP))
    rows = list(PP.halfspaces)
    for _ in range(5):
        rng.shuffle(rows)
        shuffled = HPolytope(PP.dim, tuple(rows))
        assert set(vertex_set(shuffled)) == base


def test_oracle_equivalence_on_random_rationals(pentagon, prism):
    rng = random.Random(55555)
    for D in (pentagon, prism):
        PP = build_packing_polytope(D)
        for _ in range(120):
            pt = tuple(
                F(rng.randint(0, 8), 8) * r for r in D.corner_radii
            )
            assert contains(PP, pt) == disjointness_oracle(D, pt)


def test_scaled_simplex_packings_scale_with_it():
    # Homogeneity: radii of a maximal packing scale linearly with the body.
    from toricpack.packing import maximize

    base, packs = maximize(make_simplex(2))
    big, big_packs = maximize(make_simplex(2, 5))
    assert base == big == 1
    assert {tuple(5 * c for c in p.radii) for p in packs} == {
        p.radii for p in big_packs
    }
