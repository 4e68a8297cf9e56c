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
    realizations ``indices`` at one epsilon; yields (spectrum, pulse, record)
    per index, in order.  The media come from one spec, realization i
    drawing from the seed (cfg.seed, i), and share one slab grid, so their
    spectra come from one batched ``spectra`` call."""
    from .medium import build_media
    from .propagator import spectra
    from .pulse import (PulseTrace, pulse_distance, pulse_width,
                        transmitted_pulse)

    # the spec's own seed is not drawn: each realization has its own
    spec = cfg.medium.to_spec(seed=cfg.seed, epsilon=epsilon)
    reals = build_media(spec, [(cfg.seed, i) for i in indices])
    ref = PulseTrace(s_grid=source.s_grid, values=source.values)
    ref_width = pulse_width(ref, lobe_floor=0.02)
    for index, real, tspec in zip(indices, reals, spectra(
            reals, source.grid, active=_source_band(source))):
        trace = transmitted_pulse(tspec, source)
        dist = pulse_distance(ref, trace)
        record = {
            "epsilon": float(epsilon),
            "index": int(index),
            "l2": dist.l2,
            "sup": dist.sup,
            "best_shift": dist.best_shift,
            # half the travel-time integral v1(Z), summed as v_triple sums it
            "v1_half": float(0.5 * np.cumsum(real.nu_eps * real.dz)[-1]),
            # main-lobe width: the raw window moment is dominated by the coda
            "width_ratio": pulse_width(trace, lobe_floor=0.02) / ref_width,
            "conservation_defect": tspec.conservation_defect(),
        }
        yield tspec, trace, record


def _sweep_records(args):
    """Records of one contiguous chunk of an epsilon's realizations."""
    return [record for _, _, record in _realizations(*args)]


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
    from .pulse import reflected_pulse

    source = cfg.source.build()
    records = []
    for i, (tspec, trace, record) in enumerate(_realizations(
            cfg, cfg.medium.epsilon, range(cfg.ensemble.n_realizations),
            source)):
        artifacts.append(write_spectrum(out / f"spectrum_{i:04d}.csv", tspec))
        artifacts.append(write_pulse(out / f"transmitted_{i:04d}.csv", trace))
        artifacts.append(write_pulse(out / f"reflected_{i:04d}.csv",
                                     reflected_pulse(tspec, source)))
        records.append(record)
    artifacts.append(write_json(out / "records.json", records))
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


def _run_limits(cfg: ExperimentConfig, out, artifacts):
    """Trajectory CSVs of the configured limiting process, one per constant
    index or index profile, plus a covariance-oracle grid per rank-1 profile
    as a regression fixture (external plotting; no rendering here)."""
    from .limits import sh_covariance, simulate
    from .medium import profile_from_config
    from .serialize import write_csv

    lim = cfg.limits
    if lim.kind in ("fbm", "hermite"):
        paths = [(f"{lim.kind}_h{lim.h}", lim.h)]
    else:
        profiles = [profile_from_config(p) for p in lim.profiles]
        paths = [(f"sh_{prof.name}_{j}", prof) for j, prof in enumerate(profiles)]
    zs = (0.25, 0.5, 0.75, 1.0)
    z1 = [a for a in zs for _ in zs]
    z2 = list(zs) * len(zs)
    for j, (stem, index) in enumerate(paths):
        artifacts.append(write_trajectory(
            out / f"{stem}.csv", simulate(index, lim.k, lim.n, (cfg.seed, j))))
        if callable(index) and lim.k == 1:
            # the covariance is symmetric: evaluate z1 <= z2, mirror the rest
            upper = {(a, b): sh_covariance(index, a, b)
                     for a, b in zip(z1, z2) if a <= b}
            cov = [upper[min(a, b), max(a, b)] for a, b in zip(z1, z2)]
            artifacts.append(write_csv(out / f"{stem}_covariance.csv",
                                       ["z1", "z2", "cov"], [z1, z2, cov]))
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
