"""Every exported name resolves, so a removal cannot leave a stale export."""
import importlib
import pkgutil
from pathlib import Path

import pytest

import lrwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(lrwave.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lrwave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_names_are_declared():
    """Each public name the package re-exports is in its module's __all__."""
    undeclared = []
    for name, obj in vars(lrwave).items():
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("lrwave."):
            continue
        declared = getattr(importlib.import_module(home), "__all__", None)
        if declared is not None and name not in declared:
            undeclared.append(name)
    assert not undeclared


def test_perfbench_hooks_resolve(monkeypatch):
    """Every layer function the benchmark tracer patches exists under its
    name, so a rename fails here rather than in ``Tracer.install``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.HOOKS if attr not in vars(owner)]
    assert not missing
