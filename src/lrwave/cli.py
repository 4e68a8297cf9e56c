"""Reproducible experiment front-end.

Modes
-----
synth      sample media, write CSV + manifest
propagate  media -> spectra -> window-frame pulses + per-realization records
sweep      ensembles across epsilon: pulse-law summaries per cell
limits     trajectory CSVs of the limiting processes for external plotting
verify     run every module's fast invariant suite; nonzero exit on failure

Seeds derive from (base_seed, realization_index), so ensembles are
reproducible under any parallel schedule; artifacts are written by a single
process in index order.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigurationError, DomainError
from .serialize import (artifact_entry, medium_manifest, write_json,
                        write_medium, write_pulse, write_spectrum,
                        write_trajectory)

__all__ = ["run", "emit_figure_data", "run_verify_suites", "main"]


# --------------------------------------------------------------------------
# per-realization work (top-level functions so process pools can pickle them)
# --------------------------------------------------------------------------

def _source_band(source, tol=1e-16):
    power = np.abs(source.fhat) ** 2
    return power > tol * power.max()


def _realization(cfg, epsilon, index, source):
    """Medium -> spectrum over the source band -> transmitted pulse for one
    realization; returns (spectrum, pulse, record)."""
    from .medium import build_medium, v_triple
    from .propagator import spectrum
    from .pulse import (PulseTrace, pulse_distance, pulse_width,
                        transmitted_pulse)

    real = build_medium(cfg.medium.to_spec(seed=(cfg.seed, index),
                                           epsilon=epsilon))
    tspec = spectrum(real, source.grid, active=_source_band(source))
    trace = transmitted_pulse(tspec, source)
    ref = PulseTrace(s_grid=source.s_grid, values=source.values)
    dist = pulse_distance(ref, trace)
    v1 = v_triple(real, 0.0).v1
    record = {
        "epsilon": float(epsilon),
        "index": int(index),
        "l2": dist.l2,
        "sup": dist.sup,
        "best_shift": dist.best_shift,
        "v1_half": float(0.5 * v1.values[-1]),
        # main-lobe width: the raw window moment is dominated by the coda
        "width_ratio": (pulse_width(trace, lobe_floor=0.02)
                        / pulse_width(ref, lobe_floor=0.02)),
        "conservation_defect": tspec.conservation_defect(),
    }
    return tspec, trace, record


def _propagate_one(args):
    cfg, epsilon, index = args
    return _realization(cfg, epsilon, index, cfg.source.build())[2]


def _map_indexed(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------

def _run_synth(cfg: ExperimentConfig, out, artifacts):
    from .medium import build_medium

    for i in range(cfg.ensemble.n_realizations):
        spec = cfg.medium.to_spec(seed=(cfg.seed, i))
        real = build_medium(spec)
        artifacts.append(write_medium(out / f"medium_{i:04d}.csv", real))
    artifacts.append(write_json(
        out / "medium_spec.json",
        medium_manifest(cfg.medium.to_spec(seed=(cfg.seed, 0)))))
    return {"realizations": cfg.ensemble.n_realizations}


def _run_propagate(cfg: ExperimentConfig, out, artifacts):
    from .pulse import reflected_pulse

    source = cfg.source.build()
    records = []
    for i in range(cfg.ensemble.n_realizations):
        tspec, trace, record = _realization(cfg, cfg.medium.epsilon, i, source)
        artifacts.append(write_spectrum(out / f"spectrum_{i:04d}.csv", tspec))
        artifacts.append(write_pulse(out / f"transmitted_{i:04d}.csv", trace))
        artifacts.append(write_pulse(out / f"reflected_{i:04d}.csv",
                                     reflected_pulse(tspec, source)))
        records.append(record)
    artifacts.append(write_json(out / "records.json", records))
    return {"realizations": cfg.ensemble.n_realizations}


def _run_sweep(cfg: ExperimentConfig, out, artifacts):
    cells = []
    all_records = []
    for eps in cfg.sweep.epsilons:
        items = [(cfg, eps, i) for i in range(cfg.ensemble.n_realizations)]
        records = _map_indexed(_propagate_one, items, cfg.jobs)
        all_records.extend(records)
        l2 = np.array([r["l2"] for r in records])
        widths = np.array([r["width_ratio"] for r in records])
        shifts = np.array([r["best_shift"] for r in records])
        v1h = np.array([r["v1_half"] for r in records])
        corr = float(np.corrcoef(shifts, v1h)[0, 1]) if len(records) > 1 else 1.0
        cells.append({
            "epsilon": float(eps),
            "n_realizations": len(records),
            "median_l2": float(np.median(l2)),
            "median_width_ratio": float(np.median(widths)),
            "shift_vs_v1_corr": corr,
        })
    artifacts.append(write_json(out / "records.json", all_records))
    artifacts.append(write_json(out / "sweep.json", cells))
    return {"cells": len(cells),
            "realizations": len(cfg.sweep.epsilons) * cfg.ensemble.n_realizations}


def emit_figure_data(cfg: ExperimentConfig, out, artifacts):
    """Trajectory CSVs of the limiting processes for the configured index
    profiles, plus a covariance-oracle grid per profile as a regression
    fixture (external plotting; no rendering here)."""
    from .limits import LimitSpec, sh_covariance, simulate
    from .medium import profile_from_config
    from .serialize import write_csv

    if not cfg.limits.profiles and cfg.limits.h is None:
        raise ConfigurationError("limits mode needs profiles or a constant h")
    count = 0
    if cfg.limits.kind in ("fbm", "hermite"):
        spec = LimitSpec(kind=cfg.limits.kind, n=cfg.limits.n, h=cfg.limits.h,
                         k=cfg.limits.k, seed=(cfg.seed, 0))
        artifacts.append(write_trajectory(
            out / f"{cfg.limits.kind}_h{cfg.limits.h}.csv", simulate(spec)))
        count += 1
    else:
        zs = (0.25, 0.5, 0.75, 1.0)
        for j, prof_cfg in enumerate(cfg.limits.profiles):
            prof = profile_from_config(prof_cfg)
            spec = LimitSpec(kind=cfg.limits.kind, n=cfg.limits.n,
                             h_profile=prof, k=cfg.limits.k, seed=(cfg.seed, j))
            artifacts.append(write_trajectory(
                out / f"sh_{prof.name}_{j}.csv", simulate(spec)))
            if cfg.limits.k == 1:
                z1 = [a for a in zs for _ in zs]
                z2 = list(zs) * len(zs)
                # the covariance is symmetric: evaluate z1 <= z2, mirror the rest
                upper = {(a, b): sh_covariance(prof, a, b)
                         for a, b in zip(z1, z2) if a <= b}
                cov = [upper[min(a, b), max(a, b)] for a, b in zip(z1, z2)]
                artifacts.append(write_csv(
                    out / f"sh_{prof.name}_{j}_covariance.csv",
                    ["z1", "z2", "cov"], [z1, z2, cov]))
            count += 1
    return {"trajectories": count}


# --------------------------------------------------------------------------
# verify mode: fast invariant suites for every module
# --------------------------------------------------------------------------

def _suite_gaussian_field(tol):
    import math

    from . import gaussian_field as gf
    checks = []
    hs = np.linspace(0.51, 0.99, 7)
    err = max(abs(gf.renorm_constant_sq_quadrature(h) - gf.renorm_constant_sq(h))
              / gf.renorm_constant_sq(h) for h in hs)
    checks.append(("renorm_closed_vs_quadrature", err < tol.get("renorm", 1e-6),
                   f"max rel err {err:.2e}"))
    a = gf.synthesize_fgn(0.75, 1024, seed=7)
    b = gf.synthesize_fgn(0.75, 1024, seed=7)
    checks.append(("fgn_determinism", bool(np.array_equal(a.values, b.values)), ""))
    m, nn = 60, 1 << 12
    ests = np.array([[float(np.dot(y[k:], y[:nn - k]) / (nn - k)) for k in (0, 1, 2)]
                     for y in (gf.synthesize_fgn(0.75, nn, seed=(11, i)).values
                               for i in range(m))])
    targ = np.array([gf.fgn_covariance(0.75, k) for k in (0, 1, 2)])
    z = np.abs(ests.mean(0) - targ) / (ests.std(0, ddof=1) / math.sqrt(m))
    checks.append(("fgn_covariance_mc", bool(np.all(z < 4.0)),
                   f"max z {z.max():.2f}"))
    fg = gf.synthesize_field_grid([0.6, 0.9], np.arange(256.0), seed=3)
    dev = float(np.abs(fg.column_variance - 1).max())
    checks.append(("field_column_variance", dev < 0.02, f"max dev {dev:.3f}"))
    scaled = gf.increment_field_covariance(100.0, 0.0, 0.75, 0.75) * 100.0 ** 0.5
    rel = abs(scaled / gf.asymptotic_covariance_scale(0.75, 0.75) - 1.0)
    checks.append(("asymptotic_scale_lag100", rel < 0.02, f"rel {rel:.2e}"))
    return checks


def _suite_hermite(tol):
    import math

    from scipy.special import roots_hermitenorm

    from . import hermite as hm
    checks = []
    nodes, w = roots_hermitenorm(128)
    w = w / np.sqrt(2 * np.pi)
    err = 0.0
    for j in range(9):
        pj = hm.hermite_poly(j, nodes)
        for k in range(9):
            v = float(np.dot(w, pj * hm.hermite_poly(k, nodes)))
            err = max(err, abs(v - (math.factorial(k) if j == k else 0.0)))
    checks.append(("orthogonality", err < 1e-8, f"max err {err:.1e}"))
    s3 = hm.hermite_coeffs(hm.truncation("cubic"))
    ok = (abs(s3.coeff(1) - 3) < 1e-9 and abs(s3.coeff(3) - 6) < 1e-9
          and s3.rank == 1)
    checks.append(("cubic_coefficients", ok,
                   f"J1={s3.coeff(1):.3e} J3={s3.coeff(3):.3e}"))
    comp = [abs(hm.composed_covariance(s3, r) - (9 * r + 6 * r ** 3))
            for r in (0.1, 0.5, 0.9)]
    checks.append(("cubic_composition", max(comp) < 1e-9, f"max {max(comp):.1e}"))
    st = hm.hermite_coeffs(hm.truncation("tanh", a=1.5))
    var_t = float(np.dot(w, np.tanh(1.5 * nodes) ** 2))
    rel = abs(hm.composed_covariance(st, 1.0) - var_t) / var_t
    checks.append(("parseval_tanh", rel < 3 * st.tail_fraction + 1e-9,
                   f"rel {rel:.1e} tail {st.tail_fraction:.1e}"))
    return checks


def _suite_medium(tol):
    from dataclasses import replace as drep

    from . import hermite as hm
    from . import medium as md
    checks = []
    spec = md.MediumSpec(epsilon=0.1, gamma_profile=md.constant_profile(0.8),
                         seed=5)
    r1, r2 = md.build_medium(spec), md.build_medium(spec)
    checks.append(("determinism", bool(np.array_equal(r1.nu_eps, r2.nu_eps)), ""))
    rs = md.build_medium(md.MediumSpec(
        epsilon=0.1, gamma_profile=md.constant_profile(0.8),
        truncation=hm.truncation("identity", scale=2.5), seed=5))
    rel = float(np.max(np.abs(rs.nu_eps - 2.5 * r1.nu_eps))
                / np.max(np.abs(r1.nu_eps)))
    checks.append(("scaling_bilinearity", rel < 1e-13, f"rel {rel:.1e}"))
    r0 = md.build_medium(drep(spec, truncation=hm.truncation("zero"),
                              hermite=None))
    checks.append(("zero_truncation", bool(np.all(r0.nu_eps == 0.0)), ""))
    const = drep(r1, nu_eps=np.full(r1.n_slabs, 3.0))
    vt = md.v_triple(const, 2.0)
    closed = 3.0 * 0.1 * np.sin(2 * 2.0 * 1.0 / 0.1) / (2 * 2.0)
    rel = abs(vt.v2.values[-1] - closed) / abs(closed)
    checks.append(("v2_closed_form", rel < 0.01, f"rel {rel:.1e}"))
    return checks


def _suite_propagator(tol):
    from dataclasses import replace as drep

    from . import medium as md
    from . import propagator as pp
    checks = []
    spec = md.MediumSpec(epsilon=0.1, gamma_profile=md.constant_profile(0.8),
                         seed=2)
    real = md.build_medium(spec)
    one = drep(real, z_grid=np.array([0.0, 0.004]), nu_eps=np.array([2.0]))
    st = pp.propagate(one, 1.0)
    phi = 2 * 1.0 * 0.002 / 0.1
    a_err = abs(st.alpha - (1 + 1j * 1.0 * 2.0 * 0.004 / 2))
    b_err = abs(st.beta - 1j * 1.0 * 2.0 * 0.004 / 2 * np.exp(1j * phi))
    checks.append(("frozen_slab_closed_form", max(a_err, b_err) < 1e-10,
                   f"max err {max(a_err, b_err):.1e}"))
    grid = pp.FrequencyGrid.for_window(128, 1 / 8)
    sp = pp.spectrum(real, grid)
    defect = sp.conservation_defect()
    checks.append(("energy_conservation", defect < tol.get("conservation", 1e-8),
                   f"defect {defect:.1e}"))
    tp, rp = pp.transmission(pp.propagate(real, 3.0))
    tm, rm = pp.transmission(pp.propagate(real, -3.0))
    err = max(abs(tm - np.conj(tp)), abs(rm - np.conj(rp)))
    checks.append(("frequency_mirror", err < 1e-10, f"err {err:.1e}"))
    zero = drep(real, nu_eps=np.zeros(real.n_slabs))
    spz = pp.spectrum(zero, grid)
    checks.append(("transparent_zero_medium",
                   bool(np.allclose(spz.T, 1.0) and np.allclose(spz.R, 0.0)), ""))
    checks.append(("tm_modulus_bound", bool(np.max(np.abs(sp.T)) <= 1 + 1e-12),
                   f"max |T| {np.max(np.abs(sp.T)):.6f}"))
    return checks


def _suite_pulse(tol):
    from dataclasses import replace as drep

    from . import medium as md
    from . import propagator as pp
    from . import pulse as pl
    checks = []
    f = pl.gaussian_source(n=1024)
    ident = pp.TransmissionSpectrum(grid=f.grid,
                                    T=np.ones(f.grid.n, complex),
                                    R=np.zeros(f.grid.n, complex), det_drift=0.0)
    a = pl.transmitted_pulse(ident, f)
    checks.append(("identity_inversion",
                   float(np.max(np.abs(a.values - f.values))) < 1e-12, ""))
    shift = drep(ident, T=np.exp(1j * f.grid.omegas * 0.5))
    a2 = pl.transmitted_pulse(shift, f)
    err = float(np.max(np.abs(a2.values - np.exp(-0.5 * (f.s_grid - 0.5) ** 2))))
    checks.append(("shift_theorem", err < 1e-9, f"err {err:.1e}"))
    disp = drep(ident, T=np.exp(-0.2 * f.grid.omegas ** 2 / 4))
    a3 = pl.transmitted_pulse(disp, f)
    var = 1.0 + 0.1
    exact = np.sqrt(1 / var) * np.exp(-0.5 * f.s_grid ** 2 / var)
    checks.append(("gaussian_convolution",
                   float(np.max(np.abs(a3.values - exact))) < 1e-9, ""))
    spec = md.MediumSpec(epsilon=0.1, gamma_profile=md.constant_profile(0.8),
                         seed=9)
    real = md.build_medium(spec)
    sp = pp.spectrum(real, f.grid)
    at = pl.transmitted_pulse(sp, f)
    bt = pl.reflected_pulse(sp, f)
    ds = f.ds
    defect = abs(np.sum(at.values ** 2) * ds + np.sum(bt.values ** 2) * ds
                 - np.sum(f.values ** 2) * ds)
    checks.append(("energy_audit", defect < 1e-8, f"defect {defect:.1e}"))
    d = pl.pulse_distance(pl.PulseTrace(f.s_grid, f.values),
                          pl.theory_longrange(f, 1.0))
    checks.append(("shift_recovery", abs(d.best_shift - 0.5) < 1e-3,
                   f"shift {d.best_shift:.5f}"))
    return checks


def _suite_limits(tol):
    from . import limits as lm
    checks = []
    rel = max(abs(lm.sh_covariance(h, 1.0, 1.0) - 1.0) for h in (0.55, 0.75, 0.9))
    checks.append(("constant_index_identity", rel < tol.get("sh_quad", 1e-4),
                   f"max rel {rel:.1e}"))
    ok = (abs(lm.hermite_covariance(0.75, 1, 1) - 1) < 1e-12
          and lm.hermite_covariance(0.75, 1, 0) == 0.0
          and abs(lm.hermite_covariance(0.75, 2, 1) - 2 ** 0.5) < 1e-12)
    checks.append(("hermite_covariance_values", ok, ""))
    t1 = lm.simulate_hermite(0.7, 2, 512, seed=4)
    t2 = lm.simulate_hermite(0.7, 2, 512, seed=4)
    checks.append(("determinism", bool(np.array_equal(t1.values, t2.values)), ""))
    checks.append(("starts_at_zero", t1.values[0] == 0.0, ""))
    return checks


def _suite_stats(tol):
    from . import gaussian_field as gf
    from . import stats as st
    checks = []
    rng = np.random.default_rng(0)
    path = np.cumsum(rng.standard_normal(1 << 12))
    tr = gf.Trajectory(np.arange(1 << 12) / float(1 << 12), path)
    e1 = st.hurst_estimate(tr, n_boot=0).value
    tr2 = gf.Trajectory(tr.t_grid, 5.0 * tr.values + 7.0)
    checks.append(("affine_invariance",
                   abs(e1 - st.hurst_estimate(tr2, n_boot=0).value) < 1e-12, ""))
    ramp = gf.Trajectory(np.arange(2048) / 2048.0, np.linspace(0, 1, 2048))
    e = st.hurst_estimate(ramp, n_boot=0)
    checks.append(("ramp_boundary", e.boundary and abs(e.value - 1.0) < 1e-9, ""))
    lin = gf.Trajectory(np.linspace(0, 1, (1 << 10) + 1),
                        np.linspace(0, 1, (1 << 10) + 1))
    rep = st.dyadic_p_variation(lin, 2.0, 8)
    expect = 2.0 ** -np.arange(1, 9)
    checks.append(("pvariation_linear_path",
                   bool(np.allclose(rep.dyadic_sums, expect, rtol=1e-10)), ""))
    agg = st.mc_aggregate(np.full(32, 2.5), "mean")
    checks.append(("zero_width_ci", agg.ci_high - agg.ci_low == 0.0, ""))
    return checks


_SUITES = (
    ("gaussian_field", _suite_gaussian_field),
    ("hermite", _suite_hermite),
    ("medium", _suite_medium),
    ("propagator", _suite_propagator),
    ("pulse", _suite_pulse),
    ("limits", _suite_limits),
    ("stats", _suite_stats),
)


def run_verify_suites(tolerances=None):
    """Run every module's fast invariant suite; returns (report, all_passed)."""
    tol = dict(tolerances or {})
    report = {}
    all_ok = True
    for name, suite in _SUITES:
        checks = suite(tol)
        report[name] = [{"check": c, "passed": bool(ok), "detail": detail}
                        for c, ok, detail in checks]
        all_ok &= all(ok for _, ok, _ in checks)
    return report, all_ok


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
            cfg = config
        elif isinstance(config, dict):
            cfg = ExperimentConfig.from_dict(config)
        else:
            cfg = ExperimentConfig.from_file(config)
        if overrides:
            data = cfg.resolved()
            data.update(overrides)
            cfg = ExperimentConfig.from_dict(data)

        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        artifacts = []
        runner = {"synth": _run_synth, "propagate": _run_propagate,
                  "sweep": _run_sweep,
                  "limits": lambda c, o, a: emit_figure_data(c, o, a),
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
    parser.add_argument("--mode", choices=("synth", "propagate", "sweep",
                                           "limits", "verify"))
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("LRWAVE_JOBS", "1")),
                        help="parallel workers (env LRWAVE_JOBS)")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["output_dir"] = args.out
    overrides["jobs"] = args.jobs
    return run(args.config if args.config else {}, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
