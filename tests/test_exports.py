"""The package's public names."""

import dynct


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dynct import *", namespace)  # AttributeError on a stale name
    assert [n for n in dynct.__all__ if n not in namespace] == []
    assert len(set(dynct.__all__)) == len(dynct.__all__)
