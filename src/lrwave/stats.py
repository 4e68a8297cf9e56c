"""Estimators and Monte Carlo aggregation: global and local regularity
indices, dyadic p-variation sums, bootstrap intervals."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .gaussian_field import Trajectory, _integer

__all__ = [
    "EstimateWithCI",
    "PVariationReport",
    "hurst_estimate",
    "local_hurst",
    "dyadic_p_variation",
    "mc_aggregate",
]

# block-bootstrap stream and interval level of the regularity estimators
_BOOT_SEED, _CI_LEVEL = 0, 0.95


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    ci_low: float
    ci_high: float
    boundary: bool = False

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ConfigurationError("confidence interval does not bracket value")


@dataclass(frozen=True)
class PVariationReport:
    dyadic_sums: np.ndarray     # S_n(p) for n = 1..depth
    bounded: bool               # no growth of S_n over the deepest levels
    trend: float                # fitted slope of log S_n per level


def _aggregated_variance(values, min_scale_exp=1, trim=4):
    """Mean-square increments at dyadic scales and the fitted slope.

    Returns (scales, msq, half_slope); the regularity index is half the
    log-log slope.  Mean squares (not centered variances) keep deterministic
    trends visible: a linear ramp reads as slope 2, index 1.
    """
    n = values.size
    j_max = int(math.floor(math.log2(n))) - trim
    if j_max < min_scale_exp + 1:
        raise DomainError("trajectory too short for scale regression")
    scales = 2 ** np.arange(min_scale_exp, j_max + 1)
    msq = np.array([np.mean((values[s:] - values[:-s]) ** 2) for s in scales])
    if np.any(msq <= 0):
        scales_f = scales[msq > 0]
        if scales_f.size < 2:
            return scales, msq, 1.0    # constant path: treat as smooth limit
        msq = msq[msq > 0]
        scales = scales_f
    slope = np.polyfit(np.log(scales), np.log(msq), 1)[0]
    return scales, msq, 0.5 * slope


def _bootstrap_ci(value, m, statistic, *, n_boot, seed, level):
    """Percentile interval of ``statistic`` over ``n_boot`` resamples of m
    records, widened to contain ``value``.  ``statistic`` takes one row of
    record indices drawn with replacement."""
    idx = np.random.default_rng(seed).integers(0, m, size=(int(n_boot), m))
    boots = np.array([statistic(row) for row in idx])
    lo, hi = np.quantile(boots, [(1 - level) / 2, 1 - (1 - level) / 2])
    return min(float(lo), value), max(float(hi), value)


def _block_means(values, scales, n_blocks=64):
    """Mean-square increments per scale (row) and coarse time block
    (column): the same blocks at every scale, so that resampling blocks
    keeps the cross-scale coupling."""
    n = values.size
    edges = np.linspace(0, n - int(scales[-1]), n_blocks + 1).astype(int)
    block_means = np.empty((scales.size, n_blocks))
    for i, s in enumerate(scales):
        sq = (values[s:] - values[:-s]) ** 2
        for b in range(n_blocks):
            seg = sq[edges[b]:max(edges[b + 1], edges[b] + 1)]
            block_means[i, b] = seg.mean() if seg.size else sq.mean()
    return block_means


def _hurst_core(values, *, n_boot, min_len, trim=4):
    if values.size < min_len:
        raise DomainError(f"need at least {min_len} samples")
    scales, msq, h_raw = _aggregated_variance(values, trim=trim)
    boundary = not (0.02 < h_raw < 0.98)
    h = lo = hi = float(np.clip(h_raw, 0.0, 1.0))
    if n_boot and not boundary:
        # the scale regression on resampled time blocks
        means = _block_means(values, scales)
        log_s = np.log(scales)
        dev = log_s - log_s.mean()

        def half_slope(blocks):
            lm = np.log(np.maximum(means[:, blocks].mean(axis=1), 1e-300))
            return 0.5 * (np.sum(dev * (lm - lm.mean())) / np.sum(dev ** 2))

        lo, hi = _bootstrap_ci(h, means.shape[1], half_slope, n_boot=n_boot,
                               seed=_BOOT_SEED, level=_CI_LEVEL)
    return EstimateWithCI(value=h, ci_low=lo, ci_high=hi, boundary=boundary)


def hurst_estimate(traj: Trajectory, *, n_boot=1000) -> EstimateWithCI:
    """Global regularity index by aggregated-variance log-log regression.

    Regresses log mean-square increments at dyadic scales on log scale; half
    the slope estimates the index.  Invariant under affine transforms of the
    path.  Estimates hitting the [0, 1] boundary are flagged (deterministic
    trends, e.g. a linear ramp, read as 1).
    """
    return _hurst_core(traj.values, n_boot=n_boot, min_len=1 << 10)


def local_hurst(traj: Trajectory, t0, window=None, *,
                n_boot=200) -> EstimateWithCI:
    """Regularity index from a window centered at time t0.

    ``window`` is the number of samples (defaults to 1/16 of the path,
    floored at 2^8); the estimator is the global one restricted to the
    window, with fewer trimmed scales so short windows keep enough points.
    t0 must lie on the path's time span.
    """
    n = traj.values.size
    if window is None:
        window = max(n // 16, 1 << 8)
    window = _integer(window, "window")
    if window < 1 << 8:
        raise DomainError("window must cover at least 2^8 samples")
    if window > n:
        raise DomainError("window exceeds the trajectory")
    t0 = float(t0)
    # NaN fails both comparisons
    if not traj.t_grid[0] <= t0 <= traj.t_grid[-1]:
        raise DomainError(f"t0 = {t0!r} lies outside the path's time span "
                          f"[{traj.t_grid[0]:g}, {traj.t_grid[-1]:g}]")
    center = int(np.searchsorted(traj.t_grid, t0))
    lo = np.clip(center - window // 2, 0, n - window)
    return _hurst_core(traj.values[lo:lo + window], n_boot=n_boot,
                       min_len=1 << 8, trim=3)


def dyadic_p_variation(traj: Trajectory, p, max_depth=None) -> PVariationReport:
    """Dyadic-level p-th power increment sums S_n(p).

    S_n bounded in n indicates finite p-variation (expected for p above the
    reciprocal of the path's regularity index); the reported trend is the
    fitted slope of log S_n over the deepest half of the levels.
    """
    p = float(p)
    if p < 1.0:
        raise DomainError("p must be at least 1")
    n_pts = traj.values.size
    max_possible = int(math.floor(math.log2(n_pts - 1)))
    if max_depth is None:
        max_depth = max_possible
    max_depth = int(max_depth)
    if max_depth < 2 or max_depth > max_possible:
        raise DomainError(
            f"depth must lie in [2, {max_possible}] for {n_pts} samples")
    sums = np.empty(max_depth)
    w = traj.values
    for lvl in range(1, max_depth + 1):
        idx = np.round(np.linspace(0, n_pts - 1, (1 << lvl) + 1)).astype(int)
        sums[lvl - 1] = np.sum(np.abs(np.diff(w[idx])) ** p)
    levels = np.arange(1, max_depth + 1)
    half = max_depth // 2
    tail_levels = levels[half:]
    tail = np.maximum(sums[half:], 1e-300)
    trend = float(np.polyfit(tail_levels, np.log(tail), 1)[0]) if tail.size > 1 else 0.0
    return PVariationReport(dyadic_sums=sums, bounded=trend <= 0.0,
                            trend=trend)


_STATISTICS = {
    "mean": np.mean,
    "median": np.median,
    "std": lambda x: np.std(x, ddof=1),
}


def mc_aggregate(records, statistic="mean", *, level=0.95, n_boot=1000,
                 seed=0) -> EstimateWithCI:
    """Bootstrap percentile interval of a statistic over per-realization
    records."""
    x = np.asarray(records, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("no records to aggregate")
    fn = _STATISTICS.get(statistic, statistic)
    if not callable(fn):
        raise ConfigurationError(f"unknown statistic {statistic!r}")
    value = float(fn(x))
    lo, hi = _bootstrap_ci(value, x.size, lambda row: fn(x[row]),
                           n_boot=n_boot, seed=seed, level=level)
    return EstimateWithCI(value=value, ci_low=lo, ci_high=hi)
