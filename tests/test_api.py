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
