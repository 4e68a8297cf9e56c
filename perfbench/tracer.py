"""Layer spans recorded from outside the program.

The tracer replaces public layer functions with timing wrappers for the
length of one pass.  Each name is patched in the module that calls it: ``cli``
imports layer functions at call time (so patching the defining module is
enough), while ``medium``, ``limits``, ``cli`` and ``config`` bind some names
at import, so those bindings are patched where they live.

A span is (layer, name, parent, start, end).  Spans stay in memory until the
pass is summarized.  A layer's self time is the sum over its spans of the
span minus its direct child spans; its ``calls`` count entries into the layer
from outside it.  Counters (slabs, files, ...) are added by each wrapped call.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

import lrwave.cli
import lrwave.config
import lrwave.limits
import lrwave.medium
import lrwave.propagator
import lrwave.pulse
import lrwave.serialize
import lrwave.stats


def _levels(result, args, kwargs):
    return {"levels": len(result[1]["levels"])}


def _slabs(result, args, kwargs):
    return {"slabs": result.n_slabs}


def _one_level(result, args, kwargs):
    return {"levels": 1}


def _spectrum_counts(result, args, kwargs):
    """Frequencies propagated and the trip count of the slab x sub-step loop,
    computed from the medium and the grid by the program's sub-step rule:
    each sub-step bin advances all its frequencies together, one loop trip
    per slab x sub-step, and the unpaired Nyquist entry runs a loop of its
    own."""
    real = args[0]
    w = result.grid.omegas
    n = w.size
    need = np.ones(n, dtype=bool) if result.active is None else result.active
    eps_tau = real.epsilon ** real.tau

    def n_sub(x):
        return lrwave.propagator._substeps(float(x), real.dz, eps_tau)

    pos = w[need & (w >= 0.0)]
    freqs = pos.size
    steps = real.n_slabs * sum({n_sub(x) for x in pos})
    if n % 2 == 0 and need[n // 2]:
        freqs += 1
        steps += real.n_slabs * n_sub(abs(w[n // 2]))
    return {"frequencies": int(freqs), "steps": int(steps)}


def _file(result, args, kwargs):
    return {"files": 1, "bytes": result.stat().st_size}


def _path(result, args, kwargs):
    return {"paths": 1}


def _nodes(result, args, kwargs):
    return {"nodes": len(result[0])}


def _oracle(result, args, kwargs):
    return {"oracle_calls": 1}


# (owner, attribute, layer, counter); the owner is a module or a class
HOOKS = (
    (lrwave.cli, "run", "cli", None),
    (lrwave.config.ExperimentConfig, "from_dict", "config", None),
    (lrwave.config.ExperimentConfig, "resolved", "config", None),
    (lrwave.config.MediumBlock, "to_spec", "medium", None),
    (lrwave.medium, "build_medium", "medium", _slabs),
    (lrwave.medium, "v_triple", "medium", None),
    (lrwave.medium, "profile_from_config", "medium", None),
    (lrwave.medium, "sample_field_diagonal", "gaussian_field", _levels),
    (lrwave.limits, "sample_field_diagonal", "gaussian_field", _levels),
    (lrwave.limits, "synthesize_fgn", "gaussian_field", _one_level),
    (lrwave.propagator, "spectrum", "propagator", _spectrum_counts),
    (lrwave.config, "gaussian_source", "pulse", None),
    (lrwave.pulse, "transmitted_pulse", "pulse", None),
    (lrwave.pulse, "reflected_pulse", "pulse", None),
    (lrwave.pulse, "pulse_distance", "pulse", None),
    (lrwave.pulse, "pulse_width", "pulse", None),
    (lrwave.cli, "write_json", "serialize", _file),
    (lrwave.cli, "write_pulse", "serialize", None),
    (lrwave.cli, "write_spectrum", "serialize", None),
    (lrwave.cli, "write_trajectory", "serialize", None),
    (lrwave.cli, "artifact_entry", "serialize", None),
    (lrwave.serialize, "write_csv", "serialize", _file),
    (lrwave.limits, "simulate", "limits", None),
    (lrwave.limits, "simulate_sh", "limits", _path),
    (lrwave.limits, "simulate_hermite", "limits", _path),
    (lrwave.limits, "sh_covariance", "limits", _oracle),
    (lrwave.limits, "panel_nodes", "quadrature", _nodes),
    (lrwave.limits, "geometric_edges", "quadrature", None),
    (lrwave.stats, "local_hurst", "stats", None),
)

LAYERS = ("cli", "config", "gaussian_field", "medium", "propagator", "pulse",
          "serialize", "limits", "quadrature", "stats")


class Tracer:
    """Install the wrappers for one pass, then summarize its spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, layer, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (layer, name, parent, t0, t1)
            if counter is not None:
                counts.update({f"{layer}.{k}": v
                               for k, v in counter(result, args, kwargs).items()})
            return result
        return wrapper

    def install(self):
        for owner, attr, layer, counter in HOOKS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(layer, attr, raw.__func__, counter))
            else:
                patched = self._wrap(layer, attr, raw, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def summary(self):
        """Per-layer self time, entry calls and counters of the spans so far;
        then forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out["limits.oracle_s"] = 0.0
        for i, (layer, name, parent, t0, t1) in enumerate(spans):
            out[f"{layer}.self_s"] += (t1 - t0) - child[i]
            if parent < 0 or spans[parent][0] != layer:
                out[f"{layer}.calls"] += 1
            if name == "sh_covariance":
                out["limits.oracle_s"] += t1 - t0
        out.update(self.counts)
        spans.clear()
        self.counts.clear()
        return out
