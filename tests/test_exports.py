import importlib
import pkgutil

import pytest

import gil

MODULES = sorted(m.name for m in pkgutil.iter_modules(gil.__path__))


def test_import_gil():
    assert gil.__version__
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale export would otherwise show only as `from gil.<module> import *` failing
    mod = importlib.import_module(f"gil.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)
