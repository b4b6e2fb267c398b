"""Package surface: every exported name exists, and none is exported twice."""

import importlib
import pkgutil

import robustlab


def test_exports_resolve_and_are_unique():
    modules = [robustlab] + [
        importlib.import_module(f"robustlab.{info.name}") for info in pkgutil.iter_modules(robustlab.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
