"""The benchmark's workloads, ``propagate`` and ``limits``.

Each workload turns the benchmark seed into program inputs, runs one pass of
work through lrwave's public entry points, and checks what the pass wrote.
A pass is one CLI run (plus, for ``limits``, an ensemble of limit-process
paths); every pass of a run has the same size, so every run attempts whole
rounds of the same operations.  Pass ``b`` uses its own seed, like a further
ensemble batch, so no pass can reuse another's output.

Layer functions are always called through their module attribute
(``lrwave.limits.simulate_sh``), so the tracer's patches take effect.

Per-pass checks read what a pass wrote; ``check_run`` checks a process
after its passes; ``check_pooled`` checks the samples of every process of a
run together (``samples`` gives one process's share as JSON-ready data).
Checks compare outputs with a separate computation or with a property the
method must have, never with stored output.  Monte Carlo tolerances are
meant to hold on any seed: exact laws get a two-sided tail of about 6e-5
(|z| < 4), empirical estimators a bias allowance plus four standard errors.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import lrwave.cli
import lrwave.limits
import lrwave.medium
import lrwave.stats
from lrwave.serialize import read_csv

CONSERVATION_TOL = 1e-8
PARSEVAL_TOL = 1e-8
Z_MAX = 4.0

# the two index profiles of configs/figures.json, kept here so the benchmark
# does not move when that file does
FIGURE_PROFILES = (
    {"kind": "linear", "start": 0.55, "end": 0.85},
    {"kind": "periodic", "mean": 0.7, "amplitude": 0.15, "cycles": 2.0},
)
# local-regularity test points per profile (those of acceptance test c10)
HURST_POINTS = ((0.25, 0.5, 0.75), (0.125, 0.375, 0.625))
HURST_N = 1 << 14
HURST_WINDOW = 1 << 11
# local_hurst on these paths reads low, never high: by up to HURST_BIAS
# below the profile before sampling error.  HURST_PATH_SD bounds one path's
# standard deviation at every test point.  Both from 60 paths per profile
# (largest bias 0.040, largest sd 0.061), recorded in the README.
HURST_BIAS = 0.06
HURST_PATH_SD = 0.07
# the endpoint law needs many paths, not long ones: at 2^9 steps the endpoint
# variance reads 3-4% below the oracle's (3,000 paths per profile), a third
# of the chi-square check's standard error at the 200 paths of a run
ENDPOINT_N = 1 << 9
COV_GRID = (0.25, 0.5, 0.75, 1.0)
HERMITE_H = 0.7
# A rank-2 Hermite endpoint lies in the second Wiener chaos,
# X = sum_k l_k (xi_k^2 - 1) with 2 sum_k l_k^2 = Var X = 1, so
# E X^4 = 3 + 48 sum_k l_k^4 <= 15 and sd(X^2) <= sqrt(14).  The sample sd
# of X^2 is no guide: its kurtosis is about 230.
HERMITE_SQ_SD = math.sqrt(14.0)
# constant-index oracle cases (h, z1, z2) against the fBm closed form
ORACLE_CASES = ((0.6, 0.5, 1.0), (0.8, 1.0, 1.0), (0.7, 0.25, 0.75))


def batch_seed(seed, batch):
    """CLI base seed of pass ``batch``; distinct for every (seed, batch)."""
    return int(seed) * 100_000 + int(batch)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_json(path):
    with Path(path).open("r", encoding="utf-8") as f:
        return json.load(f)


def check_manifest(out):
    """Every artifact listed in run_manifest.json exists with its digest."""
    out = Path(out)
    fails = []
    try:
        manifest = load_json(out / "run_manifest.json")
    except (OSError, ValueError) as exc:
        return [f"manifest: unreadable ({exc})"], []
    entries = manifest.get("artifacts", [])
    if not entries:
        fails.append("manifest: no artifacts listed")
    for e in entries:
        p = out / e["path"]
        if not p.is_file():
            fails.append(f"manifest: {e['path']} missing")
        elif sha256_file(p) != e["sha256"] or p.stat().st_size != e["bytes"]:
            fails.append(f"manifest: digest of {e['path']} does not match")
    return fails, entries


def z_exact_chi2(sum_sq_over_var, dof):
    """Normal quantile of a chi-square statistic: exactly N(0, 1) when the
    samples are Gaussian with the assumed variance."""
    from scipy import stats as sps     # check time only: keeps it out of setup

    p = sps.chi2.cdf(sum_sq_over_var, dof)
    p = min(max(p, 1e-300), 1.0 - 1e-16)
    return float(sps.norm.ppf(p))


def skewness(x):
    c = np.asarray(x, dtype=float) - np.mean(x)
    return float(np.mean(c ** 3) / np.mean(c ** 2) ** 1.5)


def _corr(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def check_conservation(records):
    bad = [r["index"] for r in records
           if not r["conservation_defect"] < CONSERVATION_TOL]
    if bad:
        return [f"conservation: defect >= {CONSERVATION_TOL} in realizations {bad}"]
    return []


def check_shift_law(pairs, corr_min):
    """The measured travel time tracks v1/2 across realizations."""
    shifts, v1h = (np.asarray(a) for a in zip(*pairs))
    corr = _corr(shifts, v1h)
    if not corr > corr_min:
        return [f"shift-law: corr(best_shift, v1_half) = {corr:.4f}, "
                f"needs > {corr_min}"]
    return []


# --------------------------------------------------------------------------
# propagate: the general medium, with artifacts
# --------------------------------------------------------------------------

PROPAGATE_CORR_MIN = 0.95


def check_parseval(out, n_real, source_width):
    """Energy audit read back from the CSVs: the transmitted and reflected
    traces together carry the source energy.  The source is recomputed here
    from its closed form on the traces' own grid."""
    fails = []
    for i in range(n_real):
        _, t = read_csv(Path(out) / f"transmitted_{i:04d}.csv")
        _, r = read_csv(Path(out) / f"reflected_{i:04d}.csv")
        s = t[:, 0]
        if not np.array_equal(s, r[:, 0]):
            fails.append(f"parseval: realization {i} traces on different grids")
            continue
        f = np.exp(-0.5 * (s / source_width) ** 2)
        e_src = float(np.sum(f ** 2))
        rel = abs(float(np.sum(t[:, 1] ** 2) + np.sum(r[:, 1] ** 2)) - e_src) / e_src
        if not rel < PARSEVAL_TOL:
            fails.append(f"parseval: realization {i} relative energy defect "
                         f"{rel:.2e} >= {PARSEVAL_TOL}")
    return fails


def check_replay(first_entries, replay_entries):
    """Two passes with the same inputs write byte-identical artifacts."""
    a = {e["path"]: (e["sha256"], e["bytes"]) for e in first_entries}
    b = {e["path"]: (e["sha256"], e["bytes"]) for e in replay_entries}
    if a == b and a:
        return []
    differ = sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))
    return [f"replay: artifacts differ between identical passes: {differ[:5]}"]


class Propagate:
    name = "propagate"

    def __init__(self, seed, out_root, tiny=False):
        self.seed = int(seed)
        self.root = Path(out_root)
        self.out = self.root / "propagate"
        self.n_real = 3 if tiny else 16
        self.width = 0.25
        self.ops_per_pass = self.n_real
        self.pairs = []
        self.first = None            # (batch, artifact entries) of the first pass

    def config(self, batch, out=None):
        return {
            "mode": "propagate", "seed": batch_seed(self.seed, batch),
            "output_dir": str(out or self.out), "jobs": 1,
            "medium": {"epsilon": 0.05,
                       "h": {"kind": "linear", "start": 0.6, "end": 0.85},
                       "truncation": {"name": "square_center"}},
            # a 16-unit window, as for the unit-width source, keeps the
            # travel-time shifts (sd ~ 0.5) far from circular wrap-around
            "source": {"kind": "gaussian", "width": self.width,
                       "window_lengths": 64.0, "n": 4096},
            "ensemble": {"n_realizations": self.n_real},
        }

    def run_pass(self, batch):
        return lrwave.cli.run(self.config(batch))

    def check_pass(self, batch, status):
        if status != 0:
            return [f"cli: exit status {status}"]
        fails, entries = check_manifest(self.out)
        if self.first is None:
            self.first = (batch, entries)
        records = load_json(self.out / "records.json")
        if len(records) != self.n_real:
            fails.append(f"records: {len(records)} records, expected {self.n_real}")
        fails += check_conservation(records)
        fails += check_parseval(self.out, self.n_real, self.width)
        self.pairs += [(r["best_shift"], r["v1_half"]) for r in records]
        return fails

    def check_run(self):
        """Replays the first pass (untimed) and compares its artifacts byte
        for byte."""
        batch, first_entries = self.first
        replay = self.root / "propagate_replay"
        status = lrwave.cli.run(self.config(batch, replay))
        if status != 0:
            return [f"replay: exit status {status}"]
        fails, entries = check_manifest(replay)
        return fails + check_replay(first_entries, entries)

    def samples(self):
        return {"pairs": self.pairs}

    @staticmethod
    def check_pooled(samples):
        return check_shift_law([p for s in samples for p in s["pairs"]],
                               PROPAGATE_CORR_MIN)


# --------------------------------------------------------------------------
# limits: the limit-process side, no medium and no propagator
# --------------------------------------------------------------------------

def check_trajectory(path, n):
    _, d = read_csv(path)
    fails = []
    if d.shape[0] != n + 1:
        fails.append(f"trajectory: {Path(path).name} has {d.shape[0]} samples, "
                     f"expected {n + 1}")
    if d[0, 1] != 0.0 or d[0, 0] != 0.0 or d[-1, 0] != 1.0:
        fails.append(f"trajectory: {Path(path).name} does not start at "
                     "(0, 0) or end at t = 1")
    return fails


def check_cov_grid(path):
    """Symmetric to the oracle's accuracy and positive semidefinite."""
    _, d = read_csv(path)
    name = Path(path).name
    zs = np.array(COV_GRID)
    if d.shape != (16, 3) or not (np.array_equal(d[:, 0], np.repeat(zs, 4))
                                  and np.array_equal(d[:, 1], np.tile(zs, 4))):
        return [f"covariance: {name} is not the 4x4 (z1, z2) grid"], None
    c = d[:, 2].reshape(4, 4)
    scale = float(np.abs(c).max())
    fails = []
    asym = float(np.abs(c - c.T).max())
    if not asym <= 1e-6 * scale:
        fails.append(f"covariance: {name} asymmetry {asym:.2e} exceeds "
                     f"1e-6 of its scale")
    eig = float(np.linalg.eigvalsh(0.5 * (c + c.T)).min())
    if not eig >= -1e-6 * scale:
        fails.append(f"covariance: {name} not positive semidefinite "
                     f"(min eigenvalue {eig:.2e})")
    return fails, c


def check_oracle_identity(oracle):
    """Constant index: the multifractional oracle is the fBm covariance."""
    fails = []
    for h, a, b in ORACLE_CASES:
        val = oracle(h, a, b)
        exact = 0.5 * (a ** (2 * h) + b ** (2 * h) - abs(a - b) ** (2 * h))
        if not abs(val - exact) < 1e-4:
            fails.append(f"oracle: sh_covariance({h}, {a}, {b}) = {val:.8f}, "
                         f"closed form {exact:.8f}")
    return fails


def check_limits_pooled(ends, hursts, endpoint_var, herm_ends):
    """ends[j]: endpoints of profile j's paths; hursts[j][k]: local_hurst
    estimates at HURST_POINTS[j][k]; endpoint_var[j]: the oracle's Var at
    z = 1; herm_ends: rank-2 Hermite endpoints."""
    fails = []
    for j, prof_cfg in enumerate(FIGURE_PROFILES):
        prof = lrwave.medium.profile_from_config(prof_cfg)
        e = np.asarray(ends[j])
        z = z_exact_chi2(float(np.sum(e ** 2)) / endpoint_var[j], e.size)
        if not abs(z) < Z_MAX:
            fails.append(f"endpoint: profile {j} mean square "
                         f"{np.mean(e ** 2):.4f} against oracle "
                         f"{endpoint_var[j]:.4f} (m={e.size}, z={z:.2f})")
        for t0, est in zip(HURST_POINTS[j], hursts[j]):
            m = len(est)
            noise = Z_MAX * HURST_PATH_SD / math.sqrt(m)
            target = float(prof(np.asarray(t0)))
            dev = float(np.mean(est)) - target
            if not -HURST_BIAS - noise < dev < noise:
                fails.append(f"local_hurst: profile {j} at t={t0} mean "
                             f"{np.mean(est):.3f} against {target:.3f}, "
                             f"needs within [-{HURST_BIAS + noise:.3f}, "
                             f"+{noise:.3f}] (m={m})")
    h = np.asarray(herm_ends)
    msq = float(np.mean(h ** 2))
    tol = Z_MAX * HERMITE_SQ_SD / math.sqrt(h.size)
    if not abs(msq - 1.0) < tol:
        fails.append(f"hermite: endpoint mean square {msq:.4f} against 1 "
                     f"(m={h.size}, tolerance {tol:.3f})")
    sk = skewness(h)
    if not sk > 0.0:
        fails.append(f"hermite: rank-2 endpoint skewness {sk:.3f} is not > 0")
    return fails


class Limits:
    name = "limits"

    def __init__(self, seed, out_root, tiny=False):
        self.seed = int(seed)
        self.out = Path(out_root) / "limits"
        # tiny shrinks the CLI run only: the pooled checks' power is set for
        # the ensembles of a run's four passes
        self.n_cli = 1 << (10 if tiny else 14)
        self.end_paths = 50
        self.hurst_paths = 4
        self.n_herm = 1 << 11
        self.herm_paths = 250
        self.profiles = [lrwave.medium.profile_from_config(p)
                         for p in FIGURE_PROFILES]
        # CLI: two trajectories and two covariance grids; then the paths
        self.ops_per_pass = (
            2 * len(FIGURE_PROFILES) + self.herm_paths
            + (self.end_paths + self.hurst_paths) * len(FIGURE_PROFILES))
        self.ends = [[] for _ in FIGURE_PROFILES]
        self.hursts = [[[] for _ in pts] for pts in HURST_POINTS]
        self.herm_ends = []
        self.endpoint_var = None
        self.grid_digests = None

    def config(self, batch):
        return {
            "mode": "limits", "seed": batch_seed(self.seed, batch),
            "output_dir": str(self.out), "jobs": 1,
            "limits": {"kind": "multifrac", "n": self.n_cli,
                       "profiles": [dict(p) for p in FIGURE_PROFILES]},
        }

    def run_pass(self, batch):
        return (lrwave.cli.run(self.config(batch)),) + self.run_ensemble(batch)

    def run_ensemble(self, batch):
        """Short simulate_sh paths for the endpoint law, longer ones scored
        by local_hurst, and rank-2 Hermite paths."""
        ends, hursts = [], []
        for j, prof in enumerate(self.profiles):
            for i in range(self.end_paths):
                tr = lrwave.limits.simulate_sh(prof, ENDPOINT_N,
                                               seed=(self.seed, batch, j, i))
                ends.append((j, float(tr.values[-1])))
            for i in range(self.hurst_paths):
                tr = lrwave.limits.simulate_sh(
                    prof, HURST_N, seed=(self.seed, batch, j, 1000 + i))
                for k, t0 in enumerate(HURST_POINTS[j]):
                    est = lrwave.stats.local_hurst(tr, t0, window=HURST_WINDOW,
                                                   n_boot=0)
                    hursts.append((j, k, est.value))
        herm = [float(lrwave.limits.simulate_hermite(
                    HERMITE_H, 2, self.n_herm,
                    seed=(self.seed, batch, 99, i)).values[-1])
                for i in range(self.herm_paths)]
        return ends, hursts, herm

    def pool(self, ends, hursts, herm):
        for j, v in ends:
            self.ends[j].append(v)
        for j, k, h in hursts:
            self.hursts[j][k].append(h)
        self.herm_ends += herm

    def check_pass(self, batch, result):
        status, ends, hursts, herm = result
        if status != 0:
            return [f"cli: exit status {status}"]
        fails, entries = check_manifest(self.out)
        grids = []
        for j, prof in enumerate(self.profiles):
            stem = f"sh_{prof.name}_{j}"
            fails += check_trajectory(self.out / f"{stem}.csv", self.n_cli)
            grid_fails, c = check_cov_grid(self.out / f"{stem}_covariance.csv")
            fails += grid_fails
            if c is not None:
                grids.append(float(c[3, 3]))
        # the oracle grid does not depend on the seed: every pass agrees
        digests = sorted((e["path"], e["sha256"]) for e in entries
                         if e["path"].endswith("_covariance.csv"))
        if self.grid_digests is None:
            self.grid_digests = digests
            self.endpoint_var = grids
        elif digests != self.grid_digests:
            fails.append("covariance: oracle grid changed between passes")
        self.pool(ends, hursts, herm)
        return fails

    def check_run(self):
        return check_oracle_identity(lrwave.limits.sh_covariance)

    def samples(self):
        return {"ends": self.ends, "hursts": self.hursts,
                "herm_ends": self.herm_ends, "endpoint_var": self.endpoint_var}

    @staticmethod
    def check_pooled(samples):
        """The oracle's variances must agree between processes (the grid
        does not depend on the seed); the ensembles are pooled."""
        var = samples[0]["endpoint_var"]
        if not var or len(var) != len(FIGURE_PROFILES):
            return ["endpoint: no oracle variance from the CLI grid"]
        if any(s["endpoint_var"] != var for s in samples):
            return ["covariance: oracle grid differs between processes"]
        ends = [sum((s["ends"][j] for s in samples), [])
                for j in range(len(FIGURE_PROFILES))]
        hursts = [[sum((s["hursts"][j][k] for s in samples), [])
                   for k in range(len(pts))]
                  for j, pts in enumerate(HURST_POINTS)]
        herm = sum((s["herm_ends"] for s in samples), [])
        return check_limits_pooled(ends, hursts, var, herm)


WORKLOADS = {w.name: w for w in (Propagate, Limits)}
