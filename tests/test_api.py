"""Every exported name resolves, and each has one import path: its module's."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import declat

MODULES = sorted(m.name for m in pkgutil.iter_modules(declat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"declat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_no_module_name():
    # ``declat.<name>`` is not a second path to ``declat.<module>.<name>``.
    reexported = {
        module: [name for name in getattr(importlib.import_module(f"declat.{module}"), "__all__", ())
                 if hasattr(declat, name)]
        for module in MODULES
    }
    assert reexported == {module: [] for module in MODULES}


def test_mesh_import_loads_only_the_metric_free_layer():
    # Incidence needs no metric: ``import declat.mesh`` in a fresh
    # interpreter loads no Hodge, Maxwell, PML or PIC module.
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, declat.mesh; print(*sorted(m for m in sys.modules if m.startswith('declat')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(declat.__file__).parents[1])},
    ).stdout.split()
    assert loaded == ["declat", "declat.exact", "declat.mesh"]
