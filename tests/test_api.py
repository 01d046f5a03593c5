"""Every exported name resolves, and the package re-exports only declared names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import declat

MODULES = sorted(m.name for m in pkgutil.iter_modules(declat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"declat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_are_declared():
    # Each name ``declat/__init__.py`` imports from a module is in that
    # module's ``__all__`` (a stale import already fails ``import declat``).
    tree = ast.parse(Path(declat.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert imports
    for node in imports:
        declared = importlib.import_module(f"declat.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in declared] == [], node.module
