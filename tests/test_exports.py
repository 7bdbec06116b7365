"""The package's public names: every export in ``davn.__all__`` resolves,
on first access, to the object its home module defines."""

import importlib

import pytest

import davn
from davn import cli


def test_star_import_resolves_every_exported_name():
    # A name left in __all__ after its definition moved or went away
    # makes ``from davn import *`` raise AttributeError.
    namespace = {}
    exec("from davn import *", namespace)
    assert set(davn.__all__) <= namespace.keys()
    assert len(set(davn.__all__)) == len(davn.__all__)


def test_each_exported_name_is_its_home_modules_object():
    # Names resolve lazily, on first access, from the module that
    # defines them; the package hands out that object, not a copy.
    for name in set(davn.__all__) - {"__version__"}:
        value = getattr(davn, name)
        assert value.__module__.startswith("davn.")
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_cli_resolves_each_lazily_imported_name_from_its_home():
    # Tracers look these names up on davn.cli and replace them there.
    for name, home in cli._LAZY.items():
        module = importlib.import_module(f"davn.{home}")
        expected = module if name == home else getattr(module, name)
        assert getattr(cli, name) is expected


@pytest.mark.parametrize("module", [davn, cli])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
