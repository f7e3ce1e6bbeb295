"""The package's public names."""

import importlib

import toricpack


def test_star_import():
    names = {}
    exec("from toricpack import *", names)
    assert set(toricpack.__all__) <= set(names)


def test_every_public_name_resolves():
    assert len(set(toricpack.__all__)) == len(toricpack.__all__)
    for name in toricpack.__all__:
        assert getattr(toricpack, name) is not None, name


def test_retired_names_are_gone():
    # No command reaches these, or they were folded into their one caller;
    # the tests' reference module keeps copies.  Rational was an alias of
    # Fraction.  A scan's maxima come from packing._maxima alone, so perturb
    # holds none of the parts behind it.
    retired = {"Rational", "VertexData", "build_packing_polytope", "contains",
               "enumerate_vertices", "intersect", "is_homothetic", "mat_det",
               "rational_length", "remove_redundant", "simplices_disjoint", "vertex_set"}
    assert not retired & set(toricpack.__all__)
    assert [name for name in sorted(retired) if hasattr(toricpack, name)] == []
    modules = {
        "linalg": {"Rational", "common_denominator", "mat_det", "nthroot_bounds"},
        "perturb": {"_certified", "_homothetic", "_maximal_rays", "_ranked"},
        "polytope": {"intersect", "vertex_set"},
    }
    left = [
        f"{module}.{name}"
        for module, names in modules.items()
        for name in sorted(names)
        if hasattr(importlib.import_module(f"toricpack.{module}"), name)
    ]
    assert left == []
