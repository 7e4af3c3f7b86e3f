import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    # numpy is gil's only runtime dependency
    code = "import sys, gil, gil.cli; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    src = str(Path(gil.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
