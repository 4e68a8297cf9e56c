"""Reproducible experiment front-end.

Modes
-----
synth      sample media, write CSV + manifest
propagate  media -> spectra -> window-frame pulses + per-realization records
sweep      ensembles across epsilon: a pulse-law summary line per cell
limits     trajectory CSVs of the limiting processes for external plotting
verify     run the invariant table of `lrwave.verify`; exit 2 on failure

Seeds derive from (base_seed, realization_index), so ensembles are
reproducible under any parallel schedule; artifacts are written by a single
process in index order.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import MODES, ExperimentConfig
from .errors import ConfigurationError, DomainError
from .serialize import (artifact_entry, medium_manifest, write_json,
                        write_medium, write_pulse, write_spectrum,
                        write_trajectory)
from .verify import run_verify_suites

__all__ = ["run", "main"]


# --------------------------------------------------------------------------
# per-realization work (top-level functions so process pools can pickle them)
# --------------------------------------------------------------------------

def _source_band(source, tol=1e-16):
    power = np.abs(source.fhat) ** 2
    return power > tol * power.max()


def _realizations(cfg, epsilon, indices, source):
    """Media -> spectra over the source band -> transmitted pulses for the
    realizations ``indices`` at one epsilon; yields (spectra, traces,
    records) per block of realizations, in index order, the traces of shape
    (block, n) on the source's grid.  The media come from one spec,
    realization i drawing from the seed (cfg.seed, i), and share one slab
    grid, so their spectra come from one batched ``spectra`` call; a
    block's traces and distances take one 2-D FFT each.  A block holds
    2^13 trace samples (2 traces of 4,096), which bounds its complex stacks
    to 128 KiB each whatever the ensemble size; larger blocks ran little
    faster and raised the peak RSS (README, Performance)."""
    from .medium import build_media
    from .propagator import spectra
    from .pulse import PulseTrace, _distances, _ensemble_traces, pulse_width

    # the spec's own seed is not drawn: each realization has its own
    spec = cfg.medium.to_spec(seed=cfg.seed, epsilon=epsilon)
    reals = build_media(spec, [(cfg.seed, i) for i in indices])
    tspecs = spectra(reals, source.grid, active=_source_band(source))
    ref = PulseTrace(s_grid=source.s_grid, values=source.values)
    ref_width = pulse_width(ref, lobe_floor=0.02)
    rows = max(1, (1 << 13) // source.grid.n)
    for lo in range(0, len(reals), rows):
        block = list(itertools.islice(tspecs, rows))
        traces = _ensemble_traces(block, source)
        l2, sup, shifts = _distances(ref, traces)
        records = []
        for j, (real, tspec) in enumerate(zip(reals[lo:], block)):
            trace = PulseTrace(s_grid=source.s_grid, values=traces[j])
            records.append({
                "epsilon": float(epsilon),
                "index": int(indices[lo + j]),
                "l2": l2[j],
                "sup": float(sup[j]),
                "best_shift": float(shifts[j]),
                # half of v1(Z), the travel-time integral, as v_triple sums it
                "v1_half": float(0.5 * np.cumsum(real.nu_eps * real.dz)[-1]),
                # main-lobe width: the window moment is dominated by the coda
                "width_ratio": pulse_width(trace, lobe_floor=0.02) / ref_width,
                "conservation_defect": tspec.conservation_defect(),
            })
        yield block, traces, records


def _sweep_records(args):
    """Records of one contiguous chunk of an epsilon's realizations."""
    return [record for _, _, records in _realizations(*args)
            for record in records]


def _map_indexed(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: it loads multiprocessing, which the serial path skips
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------

def _run_synth(cfg: ExperimentConfig, out, artifacts):
    from .medium import build_media

    spec = cfg.medium.to_spec(seed=(cfg.seed, 0))
    reals = build_media(spec, [(cfg.seed, i)
                               for i in range(cfg.ensemble.n_realizations)])
    for i, real in enumerate(reals):
        artifacts.append(write_medium(out / f"medium_{i:04d}.csv", real))
    artifacts.append(write_json(out / "medium_spec.json",
                                medium_manifest(spec)))
    return {"realizations": cfg.ensemble.n_realizations}


def _run_propagate(cfg: ExperimentConfig, out, artifacts):
    from .pulse import PulseTrace, _ensemble_traces

    source = cfg.source.build()
    all_records = []
    for block, traces, records in _realizations(
            cfg, cfg.medium.epsilon, range(cfg.ensemble.n_realizations),
            source):
        reflected = _ensemble_traces(block, source, reflected=True)
        for j, tspec in enumerate(block):
            i = len(all_records) + j
            artifacts.append(write_spectrum(out / f"spectrum_{i:04d}.csv",
                                            tspec))
            for kind, values in (("transmitted", traces[j]),
                                 ("reflected", reflected[j])):
                artifacts.append(write_pulse(
                    out / f"{kind}_{i:04d}.csv",
                    PulseTrace(s_grid=source.s_grid, values=values)))
        all_records.extend(records)
    artifacts.append(write_json(out / "records.json", all_records))
    return {"realizations": cfg.ensemble.n_realizations}


def _run_sweep(cfg: ExperimentConfig, out, artifacts):
    source = cfg.source.build()
    cells = []
    all_records = []
    for eps in cfg.sweep.epsilons:
        # one contiguous chunk of realizations per worker, in index order
        n_real = cfg.ensemble.n_realizations
        chunks = np.array_split(np.arange(n_real), min(cfg.jobs, n_real))
        records = [record for part in _map_indexed(
            _sweep_records, [(cfg, eps, c.tolist(), source) for c in chunks],
            cfg.jobs) for record in part]
        all_records.extend(records)
        l2 = np.array([r["l2"] for r in records])
        widths = np.array([r["width_ratio"] for r in records])
        shifts = np.array([r["best_shift"] for r in records])
        v1h = np.array([r["v1_half"] for r in records])
        # undefined (null) for one realization or a column without spread
        defined = len(records) > 1 and np.ptp(shifts) > 0 and np.ptp(v1h) > 0
        corr = float(np.corrcoef(shifts, v1h)[0, 1]) if defined else None
        cells.append({
            "epsilon": float(eps),
            "n_realizations": len(records),
            "median_l2": float(np.median(l2)),
            "median_width_ratio": float(np.median(widths)),
            "shift_vs_v1_corr": corr,
        })
        print("[sweep] epsilon {epsilon:g} median_l2 {median_l2:.6g} "
              "median_width_ratio {median_width_ratio:.6g} "
              "shift_vs_v1_corr {corr:.6g}".format(
                  **cells[-1], corr=np.nan if corr is None else corr))
    artifacts.append(write_json(out / "records.json", all_records))
    artifacts.append(write_json(out / "sweep.json", cells))
    return {"cells": len(cells),
            "realizations": len(cfg.sweep.epsilons) * cfg.ensemble.n_realizations}


# the (z1, z2) grid of a covariance CSV, row-major
_COV_ZS = (0.25, 0.5, 0.75, 1.0)
_COV_Z1 = tuple(a for a in _COV_ZS for _ in _COV_ZS)
_COV_Z2 = _COV_ZS * len(_COV_ZS)


# four: configs/figures.json and the limits workload have two profiles each
@functools.lru_cache(maxsize=4)
def _covariance_grid(profile_json):
    """sh_covariance on the row-major (z1, z2) grid of the index profile
    whose config, as canonical JSON, is ``profile_json``.  Cached: the
    covariance does not depend on the seed, so every limits run of one
    profile in a process shares it.  The oracle is looked up through
    ``lrwave.limits`` at call time, so a patched oracle sees every miss."""
    from . import limits
    from .medium import profile_from_config

    index = profile_from_config(json.loads(profile_json))
    # the covariance is symmetric: evaluate z1 <= z2, mirror the rest
    upper = {(a, b): limits.sh_covariance(index, a, b)
             for a, b in zip(_COV_Z1, _COV_Z2) if a <= b}
    return tuple(upper[min(a, b), max(a, b)] for a, b in zip(_COV_Z1, _COV_Z2))


def _run_limits(cfg: ExperimentConfig, out, artifacts):
    """Trajectory CSVs of the configured limiting process, one per constant
    index or index profile, plus a covariance-oracle grid per rank-1 profile
    as a regression fixture (external plotting; no rendering here).

    A process computes each profile's grid once (:func:`_covariance_grid`),
    and a rank-K path's normalization once per index (``limits.simulate``):
    repeated runs pay only the paths, while a one-shot run pays all of it."""
    from .limits import simulate
    from .medium import profile_from_config
    from .serialize import write_csv

    lim = cfg.limits
    if lim.kind in ("fbm", "hermite"):
        paths = [(f"{lim.kind}_h{lim.h}", lim.h, None)]
    else:
        profiles = [(profile_from_config(p), p) for p in lim.profiles]
        paths = [(f"sh_{prof.name}_{j}", prof, p)
                 for j, (prof, p) in enumerate(profiles)]
    for j, (stem, index, prof_cfg) in enumerate(paths):
        artifacts.append(write_trajectory(
            out / f"{stem}.csv", simulate(index, lim.k, lim.n, (cfg.seed, j))))
        if prof_cfg is not None and lim.k == 1:
            cov = _covariance_grid(json.dumps(prof_cfg, sort_keys=True))
            artifacts.append(write_csv(out / f"{stem}_covariance.csv",
                                       ["z1", "z2", "cov"],
                                       [_COV_Z1, _COV_Z2, cov]))
    return {"trajectories": len(paths)}


def _run_verify(cfg: ExperimentConfig, out, artifacts):
    report, ok = run_verify_suites(cfg.tolerances)
    artifacts.append(write_json(out / "verify_report.json",
                                {"passed": ok, "suites": report}))
    n = sum(len(v) for v in report.values())
    for name, checks in report.items():
        for c in checks:
            status = "ok" if c["passed"] else "FAIL"
            print(f"[{status}] {name}.{c['check']} {c['detail']}".rstrip())
    return {"checks": n, "passed": ok}


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

def run(config, *, overrides=None) -> int:
    """Execute a config (path, dict, or ExperimentConfig).  Returns the exit
    status: 0 success, 1 configuration error, 2 verify-tolerance failure."""
    from pathlib import Path

    t0 = time.time()
    try:
        if isinstance(config, ExperimentConfig):
            cfg = (ExperimentConfig.from_dict(config.resolved(), overrides)
                   if overrides else config)
        elif isinstance(config, dict):
            cfg = ExperimentConfig.from_dict(config, overrides)
        else:
            cfg = ExperimentConfig.from_file(config, overrides)

        out = Path(cfg.output_dir)
        artifacts = []
        runner = {"synth": _run_synth, "propagate": _run_propagate,
                  "sweep": _run_sweep, "limits": _run_limits,
                  "verify": _run_verify}[cfg.mode]
        counters = runner(cfg, out, artifacts)
        manifest = {
            "config": cfg.resolved(),
            "artifacts": sorted((artifact_entry(p, out) for p in artifacts),
                                key=lambda e: e["path"]),
            "tool": {"name": "lrwave", "version": __version__},
            "wall_seconds": round(time.time() - t0, 3),
            "counters": counters,
        }
        write_json(out / "run_manifest.json", manifest)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    if cfg.mode == "verify" and not counters["passed"]:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lrwave",
        description="Layered random media with long-range correlations: "
                    "synthesis, propagation, and limit-law verification.")
    parser.add_argument("--config", help="JSON config path (defaults apply "
                                         "when omitted)")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--jobs", type=int,
                        help="parallel workers (default: env LRWAVE_JOBS, "
                             "else the config's jobs)")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["output_dir"] = args.out
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    elif "LRWAVE_JOBS" in os.environ:
        try:
            overrides["jobs"] = int(os.environ["LRWAVE_JOBS"])
        except ValueError:
            print("configuration error: LRWAVE_JOBS must be an integer, got "
                  f"{os.environ['LRWAVE_JOBS']!r}", file=sys.stderr)
            return 1
    return run(args.config if args.config else {}, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
