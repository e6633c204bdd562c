"""Package surface: every exported name is bound where it is declared."""

import importlib
import pkgutil

import pytest

import multifreq

MODULES = sorted(m.name for m in pkgutil.iter_modules(multifreq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_bound(name):
    # a stale __all__ entry makes ``from multifreq.<name> import *`` fail
    module = importlib.import_module(f"multifreq.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
