"""Simulation of the limiting travel-time processes and their covariances.

Four families, all normalized to start at 0 on t in [0, 1]:

* fractional Brownian motion (Gaussian, constant index),
* Hermite processes of rank K (non-Gaussian for K >= 2; partial sums of the
  K-th Hermite polynomial of long-memory Gaussian noise, the discrete
  non-central-limit construction),
* the multifractional Gaussian process driven by a depth-varying index
  (partial sums of coupled fractional white noises, weighted N^(-h(j/N)),
  blended from an index ladder sampled jointly by circulant embedding),
* its rank-K generalization combining both.

Every path has unit variance at t = 1 exactly: rank K divides by the sd of
sum_j w_j P_K(Y_j), sqrt(K! sum_{j,l} w_j w_l r_jl^K) since E[P_K(X) P_K(Y)]
= K! cov(X, Y)^K, an O(n) lag sum for a constant index, O(n^2) otherwise.

Covariance oracles: the fBm/Hermite closed form and the double integral of
the asymptotic field covariance for the multifractional case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian_field import (Trajectory, _blend_levels, _increment_covariance,
                             asymptotic_covariance_scale, fgn_covariance,
                             increment_field_covariance, renorm_constant,
                             synthesize_coupled_fgn, synthesize_fgn,
                             validate_hurst)
from .hermite import hermite_poly
from .quadrature import geometric_edges, panel_count, panel_nodes

__all__ = [
    "LimitSpec",
    "simulate",
    "simulate_hermite",
    "simulate_sh",
    "simulate_sh_hermite",
    "hermite_covariance",
    "sh_covariance",
]

# entries per row block of the rank-K normalization sum
_PAIR_BLOCK = 1 << 15
# index-ladder spacing of the coupled noise along a varying profile; the
# levels sit on multiples of it, so profiles with one range share a factor
_SH_LEVEL_SPACING = 0.02
# covariance oracle: half-width of the analytic diagonal band relative to
# max(z1, z2), and the Gauss-Legendre order of the outer panels
_SH_BAND, _SH_NPTS = 1e-3, 16


def _as_profile(h_profile):
    if callable(h_profile):
        return h_profile
    value = float(h_profile)
    return lambda u: np.full_like(np.asarray(u, dtype=float), value)


def _profile_values(h_profile, n):
    prof = _as_profile(h_profile)
    h = np.asarray(prof(np.arange(1, n + 1) / n), dtype=float)
    if np.any(h <= 0.5) or np.any(h >= 1.0):
        raise DomainError(
            f"index profile leaves (1/2, 1): range [{h.min():.3f}, {h.max():.3f}]")
    return h


def hermite_covariance(h, t1, t2):
    """(|t1|^2H + |t2|^2H - |t1 - t2|^2H) / 2 - the same for every rank
    once the process is variance-normalized."""
    h = validate_hurst(h)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if np.any(t1 < 0) or np.any(t2 < 0):
        raise DomainError("times must be nonnegative")
    val = 0.5 * (np.abs(t1) ** (2 * h) + np.abs(t2) ** (2 * h)
                 - np.abs(t1 - t2) ** (2 * h))
    return float(val) if val.ndim == 0 else val


def _hermite_sum_std(h_tilde, k, n):
    """Exact standard deviation of sum_{j<=n} P_K(Y_j) for fGn(h_tilde):
    Var = K! * sum_l (n - |l|) rho(l)^K."""
    lags = np.arange(1, n)
    rho_k = fgn_covariance(h_tilde, lags) ** k
    var = math.factorial(k) * (n + 2.0 * np.dot(n - lags, rho_k))
    return math.sqrt(var)


def _weighted_hermite_sum_std(h_field, weights, k):
    """Exact standard deviation of sum_j w_j P_K(Y_j) for the coupled noise
    Y_j = m(j, h_field[j]): Var = K! * sum_{j,l} w_j w_l r_jl^K with r_jl =
    increment_field_covariance(j, l, h_field[j], h_field[l]), evaluated in
    blocks of rows j against l >= min(j): O(n^2) time, O(n) memory."""
    n = h_field.size
    c = renorm_constant(h_field)
    step = max(1, _PAIR_BLOCK // n)
    var = 0.0
    for a in range(0, n, step):
        j = np.arange(a, min(a + step, n))[:, None]
        l = np.arange(a, n)
        r = _increment_covariance(np.abs(j - l).astype(float), h_field[j],
                                  h_field[l], c[j], c[l])
        # weight 2 for l > j (the pair and its mirror), 1 for l = j, 0 for
        # l < j (counted by an earlier block)
        var += float(weights[j[:, 0]] @ ((np.sign(l - j) + 1.0) * r ** k)
                     @ weights[l])
    return math.sqrt(math.factorial(k) * var)


def simulate_hermite(h, k, n, seed) -> Trajectory:
    """Rank-K Hermite process by partial sums of P_K of exact fGn.

    The driving noise has index (H - 1)/K + 1 so the K-th Hermite power
    decays with exponent 2 - 2H; the variance at t = 1 is normalized to 1
    exactly (finite-sample lag sum), making the covariance the fBm form for
    every K.
    """
    h = float(h)
    if not 0.5 < h < 1.0:
        raise DomainError("limit index must lie in (1/2, 1)")
    k = int(k)
    if k < 1:
        raise DomainError("rank must be a positive integer")
    h_tilde = (h - 1.0) / k + 1.0
    n = int(n)
    if n < 2:
        raise DomainError("need at least two increments")
    y = synthesize_fgn(h_tilde, n, seed)
    p = hermite_poly(k, y.values)
    scale = _hermite_sum_std(h_tilde, k, n)
    values = np.concatenate([[0.0], np.cumsum(p)]) / scale
    return Trajectory(np.arange(n + 1) / n, values,
                      meta={"kind": "hermite", "h": h, "k": k, "n": n,
                            "seed": y.meta.get("seed")})


def sample_field_diagonal(h_field, n, seed):
    """Coupled noise m(j, h_field[j - 1]), j = 1..n, blended from the levels
    on multiples of _SH_LEVEL_SPACING that bracket h_field (a level at 1
    becomes max h_field; a constant index is one level)."""
    lo, hi = float(h_field.min()), float(h_field.max())
    if hi - lo < 1e-12:
        levels = np.array([lo])
    else:
        k = np.arange(math.floor(lo / _SH_LEVEL_SPACING),
                      math.ceil(hi / _SH_LEVEL_SPACING) + 1)
        levels = _SH_LEVEL_SPACING * k
        levels[levels >= 1.0] = hi
    y = synthesize_coupled_fgn(levels, n, seed)
    cross = increment_field_covariance(0.0, 0.0, levels[:-1], levels[1:])
    values = _blend_levels(h_field, levels, y, np.ones(levels.size), cross)
    return values, {"levels": levels}


def simulate_sh(h_profile, n, seed) -> Trajectory:
    """Multifractional limit process on [0, 1]: partial sums
    sum_{j <= N t} N^(-h(j/N)) Y_j(h(j/N)) of coupled fractional white
    noises Y(.); :func:`simulate_sh_hermite` at K = 1."""
    return simulate_sh_hermite(h_profile, 1, n, seed)


def simulate_sh_hermite(h_profile, k, n, seed) -> Trajectory:
    """Rank-K multifractional process: partial sums of P_K of the coupled
    noise at field indices (h(.) - 1)/K + 1, weighted N^(-h(.)).

    Reduces to :func:`simulate_sh` at K = 1 and matches
    :func:`simulate_hermite` in law for constant profiles.  For K >= 2 the
    path is divided by the exact sd of its end point, sqrt(K! * sum_{j,l}
    w_j w_l r_jl^K) with w = N^(-h): O(N) for a constant profile, O(N^2)
    for a varying one (about 0.05 s at N = 2^10, 0.8 s at 2^12).
    """
    k = int(k)
    if k < 1:
        raise DomainError("rank must be a positive integer")
    n = int(n)
    if n < 2 ** 8:
        raise DomainError("need at least 2^8 increments")
    h = _profile_values(h_profile, n)
    h_field = (h - 1.0) / k + 1.0
    y, _ = sample_field_diagonal(h_field, n, seed)
    p = hermite_poly(k, y)
    weights = float(n) ** (-h)
    if k == 1:
        scale = 1.0
    elif np.ptp(h) < 1e-12:
        scale = _hermite_sum_std(float(h_field[0]), k, n) / float(n) ** float(h[0])
    else:
        scale = _weighted_hermite_sum_std(h_field, weights, k)
    values = np.concatenate([[0.0], np.cumsum(weights * p)]) / scale
    return Trajectory(np.arange(n + 1) / n, values,
                      meta={"kind": "sh" if k == 1 else "sh_hermite", "k": k,
                            "n": n, "seed": repr(seed)})


# --------------------------------------------------------------------------
# multifractional covariance oracle (weakly singular double integral)
# --------------------------------------------------------------------------

def _checked_index(h, shape):
    """Profile values broadcast to ``shape``; DomainError outside (1/2, 1)."""
    h = np.broadcast_to(np.asarray(h, dtype=float), shape)
    if not np.all((h > 0.5) & (h < 1.0)):
        raise DomainError("index profile leaves (1/2, 1): "
                          f"range [{h.min():.3f}, {h.max():.3f}]")
    return h


def sh_covariance(h_profile, z1, z2, *, j1=1.0) -> float:
    """Covariance of the multifractional limit at (z1, z2):

        j1^2 * int_0^z1 int_0^z2 R(h(u1), h(u2)) |u1-u2|^(h(u1)+h(u2)-2)

    with R the long-lag covariance constant of the coupled field.  The
    weakly singular diagonal is handled by an analytic band plus panels
    graded geometrically toward the singular lines and the domain corners.
    Exact for constant profiles (where the identity
    int int H(2H-1)|u-v|^(2H-2) = z^(2H) applies); frozen-coefficient band
    error O(h' * _SH_BAND * log^2 _SH_BAND) otherwise.

    Rule: _SH_NPTS-point Gauss-Legendre in u1 on panels graded toward 0,
    z1 and, when z2 < z1, z2.  At each outer node u1 the u2 integral over
    [0, z2] is the band |u1 - u2| < delta = _SH_BAND * max(z1, z2) integrated
    analytically with h frozen at h(u1), plus 12-point Gauss-Legendre on
    each flank outside it, graded toward u1 (toward z2 for u1 >= z2) down
    to clip(delta / (2 * length), 1e-7, 0.25) of the flank's length.

    Evaluation: the flanks of all outer nodes form one segment table.  Rows
    with the same panel count and grading direction become one 2-d node
    array, so the profile and R are evaluated once per group (up to about
    twenty per call), and the row sums are added back onto their outer
    nodes.  Only the summation order differs from a node-by-node loop.
    """
    z1 = float(z1)
    z2 = float(z2)
    if z1 < 0 or z2 < 0:
        raise DomainError("depths must be nonnegative")
    if z1 == 0.0 or z2 == 0.0:
        return 0.0
    prof = _as_profile(h_profile)
    check = np.linspace(0.0, max(z1, z2), 65)
    _checked_index(prof(check), check.shape)
    j1_sq = float(j1) ** 2
    delta = _SH_BAND * max(z1, z2)

    breakpoints = [0.0, z1] if z2 >= z1 else [0.0, z2, z1]
    outer_edges = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        seg = geometric_edges(a, b, toward="both", min_frac=1e-9)
        outer_edges.append(seg if not outer_edges else seg[1:])
    u, w = panel_nodes(np.concatenate(outer_edges), _SH_NPTS)
    h1 = _checked_index(prof(u), u.shape)

    # analytic diagonal band at the nodes inside [0, z2)
    inside = u < z2
    d_left = np.minimum(delta, u)
    d_right = np.minimum(delta, z2 - u)
    h_in, dl, dr = h1[inside], d_left[inside], d_right[inside]
    inner = np.zeros_like(u)
    inner[inside] = (j1_sq * asymptotic_covariance_scale(h_in, h_in)
                     * (dl ** (2 * h_in - 1) + dr ** (2 * h_in - 1))
                     / (2 * h_in - 1))

    # flank segments (owner node, a, b): left of the band, or all of [0, z2]
    # for nodes beyond z2, graded toward b; right of the band, toward a
    left_b = np.where(inside, u - d_left, z2)
    right_a = u + d_right
    has_left = left_b > 0
    has_right = inside & (right_a < z2)
    n_left, n_right = int(has_left.sum()), int(has_right.sum())
    owner = np.concatenate([np.flatnonzero(has_left), np.flatnonzero(has_right)])
    seg_a = np.concatenate([np.zeros(n_left), right_a[has_right]])
    seg_b = np.concatenate([left_b[has_left], np.full(n_right, z2)])
    toward_b = np.arange(owner.size) < n_left
    frac = np.clip(0.5 * delta / (seg_b - seg_a), 1e-7, 0.25)
    group = 2 * panel_count(frac) + toward_b
    for key in np.unique(group):
        rows = np.flatnonzero(group == key)
        edges = geometric_edges(seg_a[rows], seg_b[rows], min_frac=frac[rows],
                                toward="right" if key % 2 else "left")
        nodes, weights = panel_nodes(edges, 12)
        nodes = nodes.reshape(rows.size, -1)
        weights = weights.reshape(rows.size, -1)
        o = owner[rows]
        h2 = _checked_index(prof(nodes), nodes.shape)
        hu = h1[o, None]
        vals = (j1_sq * asymptotic_covariance_scale(hu, h2)
                * np.abs(u[o, None] - nodes) ** (hu + h2 - 2.0))
        inner += np.bincount(o, weights=np.sum(weights * vals, axis=1),
                             minlength=u.size)
    return float(np.dot(w, inner))


# --------------------------------------------------------------------------
# one entry point for all limit families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitSpec:
    """Which limiting process to simulate, at what resolution."""

    kind: str                      # fbm | hermite | multifrac | multifrac_hermite
    n: int
    seed: int | tuple = 0
    h: float | None = None         # constant index (fbm / hermite)
    k: int = 1
    h_profile: object = None       # callable on [0, 1] (multifrac kinds)

    def __post_init__(self):
        kinds = ("fbm", "hermite", "multifrac", "multifrac_hermite")
        if self.kind not in kinds:
            raise DomainError(f"kind must be one of {kinds}")
        if self.kind in ("fbm", "hermite") and self.h is None:
            raise DomainError(f"{self.kind} needs a constant index h")
        if self.kind in ("multifrac", "multifrac_hermite") and self.h_profile is None:
            raise DomainError(f"{self.kind} needs an index profile")


def simulate(spec: LimitSpec) -> Trajectory:
    if spec.kind == "fbm":
        return simulate_hermite(spec.h, 1, spec.n, spec.seed)
    if spec.kind == "hermite":
        return simulate_hermite(spec.h, spec.k, spec.n, spec.seed)
    if spec.kind == "multifrac":
        return simulate_sh(spec.h_profile, spec.n, spec.seed)
    return simulate_sh_hermite(spec.h_profile, spec.k, spec.n, spec.seed)
