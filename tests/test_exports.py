import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hartreelab

_MODULES = sorted(m.name for m in pkgutil.iter_modules(hartreelab.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    # a stale entry fails here, not only on a star import
    module = importlib.import_module(f"hartreelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(hartreelab.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert imports
    missing = [f"{mod}.{n}" for mod, n in imports
               if not hasattr(importlib.import_module(f"hartreelab.{mod}"), n)
               or not hasattr(hartreelab, n)]
    assert missing == []
