"""The package's public names."""

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
    # No command reaches these; the tests' reference module keeps copies.
    retired = {"VertexData", "build_packing_polytope", "contains", "enumerate_vertices",
               "is_homothetic", "rational_length", "remove_redundant", "simplices_disjoint"}
    assert not retired & set(toricpack.__all__)
    assert [name for name in sorted(retired) if hasattr(toricpack, name)] == []
