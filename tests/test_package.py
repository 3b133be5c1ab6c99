"""The package's public surface: what `diffswitch.__all__` promises resolves."""

import diffswitch


def test_all_names_resolve_once():
    names = diffswitch.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(diffswitch, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from diffswitch import *", namespace)
    assert set(diffswitch.__all__) <= set(namespace)

