"""The package's public names: every export in ``davn.__all__`` resolves."""

import davn


def test_star_import_resolves_every_exported_name():
    # A name left in __all__ after its definition moved or went away
    # makes ``from davn import *`` raise AttributeError.
    namespace = {}
    exec("from davn import *", namespace)
    assert set(davn.__all__) <= namespace.keys()
    assert len(set(davn.__all__)) == len(davn.__all__)
