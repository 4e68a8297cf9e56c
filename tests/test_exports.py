"""Every exported name resolves, so a removal cannot leave a stale export."""
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_quadrature_import_is_deferred():
    """Importing the package and its CLI leaves scipy.integrate out, and the
    normalization cross-check runs on quadrature.py's panels without it."""
    code = ("import sys, lrwave, lrwave.cli\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "from lrwave import renorm_constant_sq_quadrature\n"
            "print(renorm_constant_sq_quadrature(0.7))\n")
    src = str(Path(lrwave.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(
        float(lrwave.renorm_constant_sq(0.7)), rel=1e-9)


def test_run_modes_import_no_scipy(tmp_path):
    """A fresh interpreter imports the package and its CLI and runs tiny
    synth, sweep, propagate and limits configs, and the verify checks,
    without loading scipy."""
    medium = {"epsilon": 0.1, "truncation": {"name": "square_center"},
              "h": {"kind": "linear", "start": 0.6, "end": 0.8}}
    source = {"kind": "gaussian", "width": 1.0, "window_lengths": 16.0,
              "n": 256}
    configs = [
        {"mode": "synth", "medium": medium},
        {"mode": "sweep", "medium": medium, "source": source,
         "sweep": {"epsilons": [0.1]}},
        {"mode": "propagate", "medium": medium, "source": source},
        {"mode": "limits", "limits": {"kind": "multifrac", "n": 256}},
        {"mode": "verify"},
    ]
    for i, cfg in enumerate(configs):
        cfg.update(output_dir=str(tmp_path / str(i)),
                   ensemble={"n_realizations": 1})
    code = ("import sys, lrwave, lrwave.cli\n"
            f"for cfg in {configs!r}:\n"
            "    assert lrwave.cli.run(cfg) == 0, cfg['mode']\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(lrwave.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


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


def test_perfbench_direct_calls(tmp_path):
    """The calls the benchmark's workloads make outside the CLI, with their
    argument shapes, on tiny inputs: a trimmed parameter fails here rather
    than in a benchmark run."""
    from lrwave.limits import sh_covariance, simulate_hermite, simulate_sh
    from lrwave.medium import profile_from_config
    from lrwave.serialize import read_csv, write_trajectory
    from lrwave.stats import local_hurst

    prof = profile_from_config({"kind": "linear", "start": 0.55, "end": 0.85})
    tr = simulate_sh(prof, 512, seed=(1, 2, 0, 3))
    assert tr.values.size == 513
    assert np.isfinite(simulate_hermite(0.7, 2, 64, seed=(1, 2, 99, 0))
                       .values[-1])
    est = local_hurst(tr, 0.5, window=256, n_boot=0)
    assert est.ci_low == est.value == est.ci_high
    assert sh_covariance(0.7, 0.25, 0.75) == pytest.approx(
        0.5 * (0.25 ** 1.4 + 0.75 ** 1.4 - 0.5 ** 1.4), abs=1e-4)
    header, data = read_csv(write_trajectory(tmp_path / "t.csv", tr))
    assert header == ["t", "value"] and data.shape == (513, 2)
