"""The package's public names."""

import polarscan


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from polarscan import *", namespace)   # raises AttributeError on a stale name
    assert set(polarscan.__all__) <= namespace.keys()
