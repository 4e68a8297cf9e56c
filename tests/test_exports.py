"""Every exported name resolves, so a removal cannot leave a stale export."""
import importlib
import pkgutil
from pathlib import Path

import numpy as np
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


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    return importlib.import_module("tracer")


def test_perfbench_hooks_resolve(monkeypatch):
    """Every layer function the benchmark tracer patches exists under its
    name, so a rename fails here rather than in ``Tracer.install``."""
    tracer = _tracer(monkeypatch)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.HOOKS if attr not in vars(owner)]
    assert not missing


def test_perfbench_counters_read_results(monkeypatch):
    """The tracer's counters read attributes of real layer results, so a
    trimmed attribute fails here rather than in a traced benchmark run."""
    tracer = _tracer(monkeypatch)
    spec = lrwave.MediumSpec(epsilon=0.2,
                             gamma_profile=lrwave.constant_profile(0.8))
    real = lrwave.build_medium(spec)
    assert tracer._slabs(real, (spec,), {}) == {"slabs": 25}
    grid = lrwave.FrequencyGrid.for_window(16, 0.5)
    # no mask: omega index 0..7 and the unpaired Nyquist entry are computed
    for active, freqs in ((None, 9), (np.abs(grid.omegas) < 2.0, 3)):
        tspec = lrwave.spectrum(real, grid, active=active)
        counts = tracer._spectrum_counts(tspec, (real, grid),
                                         {"active": active})
        assert counts["frequencies"] == freqs
        assert counts["steps"] >= real.n_slabs
