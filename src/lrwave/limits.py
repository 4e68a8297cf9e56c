"""Simulation of the limiting travel-time processes and their covariances.

One construction covers the four families, all starting at 0 on t in
[0, 1]: partial sums of the K-th Hermite polynomial of a long-range Gaussian
noise whose index follows a profile h on [0, 1].

* a constant index: the Hermite process of rank K (partial sums of P_K of
  fGn, the discrete non-central-limit construction), fractional Brownian
  motion at K = 1;
* a varying index: the multifractional process (partial sums of coupled
  fractional white noises weighted N^(-h(j/N)), interpolated in the index
  from a nine-level Chebyshev ladder sampled jointly by circulant
  embedding) and, for K >= 2, its rank-K generalization.

A constant index (any K) and a varying one at K >= 2 have unit variance at
t = 1 exactly: the path is divided by the sd of sum_j w_j P_K(Y_j),
sqrt(K! sum_{j,l} w_j w_l r_jl^K) since E[P_K(X) P_K(Y)] = K! cov(X, Y)^K,
an O(n) lag sum for a constant index, O(n^2) otherwise.  A rank-1 varying
profile is not rescaled: its variance at t = 1 is the weighted sum's
(sh_covariance(h, 1, 1) in the limit: 0.9975 and 0.9963 for the default
profiles).

Covariance oracles: the fBm/Hermite closed form and the double integral of
the asymptotic field covariance for the multifractional case.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .gaussian_field import (Trajectory, _asymptotic_scale,
                             _increment_covariance, _index_ladder,
                             _integer, _lagrange_weights, fgn_covariance,
                             renorm_constant, synthesize_coupled_fgn,
                             validate_hurst)
# unused here; kept as a module attribute that perfbench/tracer.py patches
from .gaussian_field import synthesize_fgn  # noqa: F401
from .hermite import hermite_poly
from .quadrature import geometric_edges, panel_nodes

__all__ = [
    "simulate",
    "simulate_hermite",
    "simulate_sh",
    "hermite_covariance",
    "sh_covariance",
]

# entries per row block of the rank-K normalization sum
_PAIR_BLOCK = 1 << 15
# the index ladder of a varying profile spans its range widened outward to
# multiples of this, so profiles with one range share a factor
_SH_LEVEL_SPACING = 0.02
# covariance oracle: half-width of the analytic diagonal band relative to
# max(z1, z2) and the Gauss-Legendre order of the outer panels; the outer
# mesh's geometric ratio and its smallest panel relative to a half-segment
# (error budget in sh_covariance)
_SH_BAND, _SH_NPTS = 1e-3, 16
_SH_OUTER_RATIO, _SH_OUTER_MIN_FRAC = 8.0, 1e-7


def _as_profile(h_profile):
    if callable(h_profile):
        return h_profile
    value = float(h_profile)
    return lambda u: np.full_like(np.asarray(u, dtype=float), value)


def _checked_index(h, shape):
    """Profile values broadcast to ``shape``; DomainError outside (1/2, 1)."""
    h = np.broadcast_to(np.asarray(h, dtype=float), shape)
    if not np.all((h > 0.5) & (h < 1.0)):
        raise DomainError("index profile leaves (1/2, 1): "
                          f"range [{h.min():.3f}, {h.max():.3f}]")
    return h


def hermite_covariance(h, t1, t2):
    """(|t1|^2H + |t2|^2H - |t1 - t2|^2H) / 2 - the same for every rank
    once the process is variance-normalized."""
    h = validate_hurst(h)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    # NaN fails every comparison
    if not np.all((t1 >= 0) & (t1 < np.inf) & (t2 >= 0) & (t2 < np.inf)):
        raise DomainError("times must be finite and nonnegative")
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


# eight: a few (index, rank, length) keys per process; the limits workload
# has one, its rank-2 Hermite paths
@lru_cache(maxsize=8)
def _path_scale(index, k, n):
    """The sd that divides a rank-k path of length n: for the constant
    index ``index`` (a float) the lag sum of :func:`_hermite_sum_std`, for
    a varying one (the float64 bytes of h(j/n), j = 1..n) the pair sum of
    :func:`_weighted_hermite_sum_std` with weights n^(-h).  Cached: every
    path of one (index, rank, length) shares it."""
    if isinstance(index, float):
        return _hermite_sum_std((index - 1.0) / k + 1.0, k, n)
    h = np.frombuffer(index)
    return _weighted_hermite_sum_std((h - 1.0) / k + 1.0, float(n) ** (-h), k)


# four: the limits workload's two profiles at two lengths each
@lru_cache(maxsize=4)
def _ladder(key):
    """Read-only Chebyshev ladder of the varying index h_field whose float64
    bytes are ``key``, on its range widened outward to multiples of
    _SH_LEVEL_SPACING (a top at 1 or above becomes max h_field), and its
    Lagrange weights, shape (n, L).  Cached: every path of one profile and
    length shares them."""
    h_field = np.frombuffer(key)
    hi = float(h_field.max())
    lo = _SH_LEVEL_SPACING * math.floor(h_field.min() / _SH_LEVEL_SPACING)
    top = _SH_LEVEL_SPACING * math.ceil(hi / _SH_LEVEL_SPACING)
    levels = _index_ladder(lo, top if top < 1.0 else hi)
    weights = _lagrange_weights(h_field, levels)
    levels.flags.writeable = weights.flags.writeable = False
    return levels, weights


def sample_field_diagonal(h_field, n, seed):
    """Coupled noise m(j, h_field[j - 1]), j = 1..n: for a constant (scalar)
    index the one fGn column, else interpolated in the index from the
    ladder of :func:`_ladder`.  Returns the values and {"levels": ladder}."""
    if np.ndim(h_field) == 0:
        return (synthesize_coupled_fgn((h_field,), n, seed)[:, 0],
                {"levels": np.array([h_field])})
    levels, weights = _ladder(np.asarray(h_field, dtype=float).tobytes())
    # y is this call's own: weight it in place
    y = synthesize_coupled_fgn(levels, n, seed)
    y *= weights
    return y.sum(axis=1), {"levels": levels}


def simulate(h_profile, k, n, seed) -> Trajectory:
    """Rank-K limit process at n + 1 points of [0, 1]: partial sums of P_K of
    the coupled noise at field indices (h - 1)/K + 1, where h is the
    constant index ``h_profile`` or the callable profile at j/n.

    A constant index (also a profile constant to 1e-12) gives the Hermite
    process, fBm at K = 1: the sums of P_K of fGn divided by their exact sd,
    sqrt(K! sum_l (n - |l|) rho(l)^K), so the covariance is the fBm form for
    every K.  A varying index weights the increments N^(-h(j/N)); K = 1 is
    not rescaled, K >= 2 is divided by the exact sd of its end point,
    sqrt(K! sum_{j,l} w_j w_l r_jl^K), an O(n^2) sum (about 0.05 s at
    n = 2^10, 0.8 s at 2^12) paid once per (index, rank, length) in a
    process (:func:`_path_scale`).
    """
    k, n = _integer(k, "rank k"), _integer(n, "length n")
    if k < 1:
        raise DomainError("rank must be a positive integer")
    if n < 2:
        raise DomainError("need at least two increments")
    t = np.arange(n + 1) / n
    h = _checked_index(h_profile(t[1:]) if callable(h_profile) else h_profile,
                       (n,))
    constant = np.ptp(h) < 1e-12
    if constant:
        h = h[0]
    h_field = (h - 1.0) / k + 1.0
    p = hermite_poly(k, sample_field_diagonal(h_field, n, seed)[0])
    if constant:
        sums, scale = np.cumsum(p), _path_scale(float(h), k, n)
    else:
        sums = np.cumsum(float(n) ** (-h) * p)
        scale = 1.0 if k == 1 else _path_scale(h.tobytes(), k, n)
    values = np.concatenate([[0.0], sums])
    if scale != 1.0:
        values /= scale
    return Trajectory(t, values)


def simulate_hermite(h, k, n, seed) -> Trajectory:
    """Rank-K Hermite process (fBm at K = 1): :func:`simulate` at the
    constant index h."""
    return simulate(h, k, n, seed)


def simulate_sh(h_profile, n, seed) -> Trajectory:
    """Multifractional limit process: :func:`simulate` at K = 1."""
    return simulate(h_profile, 1, n, seed)


# --------------------------------------------------------------------------
# multifractional covariance oracle (weakly singular double integral)
# --------------------------------------------------------------------------

def sh_covariance(h_profile, z1, z2, *, j1=1.0) -> float:
    """Covariance of the multifractional limit at (z1, z2):

        j1^2 * int_0^z1 int_0^z2 R(h(u1), h(u2)) |u1-u2|^(h(u1)+h(u2)-2)

    with R the long-lag covariance constant of the coupled field.  The
    weakly singular diagonal is handled by an analytic band plus panels
    graded geometrically toward the singular lines and the domain corners.
    Exact for constant profiles (where the identity
    int int H(2H-1)|u-v|^(2H-2) = z^(2H) applies); frozen-coefficient band
    error O(h' * _SH_BAND * log^2 _SH_BAND) otherwise.

    Rule: the integrand is symmetric in (u1, u2), so (z1, z2) is sorted to
    z1 <= z2 and C(z1, z2) == C(z2, z1) exactly.  _SH_NPTS-point
    Gauss-Legendre in u1 on [0, z1], graded toward both ends at ratio
    _SH_OUTER_RATIO down to _SH_OUTER_MIN_FRAC of each half (8 panels per
    end).  At each outer node u1 the u2 integral over [0, z2] is the band
    |u1 - u2| < delta = _SH_BAND * z2 integrated analytically with h frozen
    at h(u1), plus 12-point Gauss-Legendre on each flank outside it, graded
    at ratio 2 toward u1.  Every flank ends delta from u1 and has length
    L <= z2, so 0.5 * delta / L >= _SH_BAND / 2: one unit edge vector per
    direction, graded down to _SH_BAND / 2 and scaled to each flank, puts
    a first panel of at most delta / 2 next to the singular point, the
    grading a flank of length z2 needs and finer than a shorter one
    needs.  Error budget: on both configs/figures.json profiles the values
    stay within 2e-9 relative of the outer mesh at ratio 2 down to 1e-9,
    well under the band's own error of about 8e-8 (the move from
    _SH_BAND = 1e-3 to 1e-4); the constant-index identity holds to about
    5e-12 in either order of (z1, z2).

    Evaluation: the flanks of all outer nodes form one 2-d node array, so
    the profile and R are evaluated in one pass and the row sums are added
    back onto their outer nodes.
    """
    z1, z2 = sorted((float(z1), float(z2)))
    if not (z1 >= 0 and z2 < math.inf):
        raise DomainError("depths must be finite and nonnegative")
    prof = _as_profile(h_profile)
    check = np.linspace(0.0, z2, 65)
    _checked_index(prof(check), check.shape)
    if z1 == 0.0:
        return 0.0
    j1_sq = float(j1) ** 2
    delta = _SH_BAND * z2

    u, w = panel_nodes(geometric_edges(0.0, z1, toward="both",
                                       min_frac=_SH_OUTER_MIN_FRAC,
                                       ratio=_SH_OUTER_RATIO), _SH_NPTS)
    # the profile is checked here and at the flank nodes, so R is
    # evaluated by the unchecked kernel
    h1 = _checked_index(prof(u), u.shape)

    # analytic diagonal band; every outer node lies inside (0, z2)
    d_left = np.minimum(delta, u)
    d_right = np.minimum(delta, z2 - u)
    inner = (j1_sq * _asymptotic_scale(h1, h1)
             * (d_left ** (2 * h1 - 1) + d_right ** (2 * h1 - 1))
             / (2 * h1 - 1))

    # flanks (owner node, start, length): [0, u1 - delta] graded toward its
    # end, [u1 + delta, z2] toward its start
    left_b = u - d_left
    right_a = u + d_right
    has_left = left_b > 0
    has_right = right_a < z2
    n_left, n_right = int(has_left.sum()), int(has_right.sum())
    owner = np.concatenate([np.flatnonzero(has_left), np.flatnonzero(has_right)])
    start = np.concatenate([np.zeros(n_left), right_a[has_right]])
    length = np.concatenate([left_b[has_left], z2 - right_a[has_right]])
    unit = [geometric_edges(0.0, 1.0, toward=toward, min_frac=0.5 * _SH_BAND)
            for toward in ("right", "left")]
    unit = np.repeat(unit, [n_left, n_right], axis=0)
    nodes, weights = panel_nodes(start[:, None] + length[:, None] * unit, 12)
    nodes = nodes.reshape(owner.size, -1)
    weights = weights.reshape(owner.size, -1)
    h2 = _checked_index(prof(nodes), nodes.shape)
    hu = h1[owner, None]
    # j1^2 R(hu, h2) |u - node|^(hu + h2 - 2), each product in place
    vals = _asymptotic_scale(hu, h2)
    vals *= j1_sq
    dist = np.subtract(u[owner, None], nodes)
    vals *= np.power(np.abs(dist, out=dist), hu + h2 - 2.0, out=dist)
    vals *= weights
    inner += np.bincount(owner, weights=np.sum(vals, axis=1),
                         minlength=u.size)
    return float(np.dot(w, inner))
