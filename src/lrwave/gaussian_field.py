"""Gaussian building blocks for long-range layered media.

This module synthesizes the stationary fractional-noise sequences and the
two-parameter Gaussian field m(z, H) that drive every medium in the package,
together with their exact and asymptotic covariance oracles.

Conventions
-----------
* Hurst-type indices are plain floats, validated at the API boundary.
* The two-parameter field is defined spectrally,

      m(z, H) = (1 / c(H)) * sum_x  exp(-i z x) psi(x) |x|^(1/2 - H) dB(x),

  over a symmetric frequency grid excluding 0, with ONE Hermitian complex
  Gaussian noise dB shared by all indices H.  c(H) is the normalization
  constant that makes the field unit-variance.
* The weight psi(x) = (1 - exp(-ix)) / (ix) makes m(z, H) the unit-lag
  increment field of the harmonizable fractional Brownian motion, for which
  closed-form covariances exist and are used as oracles.
* The frequency spacing is commensurate with the depth spacing, so the sum
  over the uniform nodes is one FFT of the noise folded onto the depth
  period.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma as _gamma_fn

from .errors import ConfigurationError, DomainError, QuadratureError, SynthesisError

__all__ = [
    "Trajectory",
    "FrequencyGridSpec",
    "FieldGrid",
    "FieldCovariance",
    "validate_hurst",
    "renorm_constant",
    "renorm_constant_sq",
    "renorm_constant_sq_quadrature",
    "fgn_covariance",
    "synthesize_fgn",
    "synthesize_field_grid",
    "increment_field_covariance",
    "field_covariance",
    "asymptotic_covariance_scale",
    "sample_field_diagonal",
]

# depth span (in z units) the increment weight couples into the field
_KERNEL_REACH = 1.0
# geometric refinement of the first frequency cell (0, dx)
_REFINE_OCTAVES = 30
_REFINE_PER_OCTAVE = 6
# largest accepted deviation of a discretized column variance from 1
_VAR_TOL = 0.02
# absolute tolerances of the normalization and field-covariance quadratures,
# and the frequency splitting the latter into head and tail
_RENORM_EPSABS, _COV_EPSABS, _COV_X_BREAK = 1e-11, 1e-10, 1.0
# most negative circulant eigenvalue accepted, relative to the largest
_FGN_NEG_TOL = 1e-9


# --------------------------------------------------------------------------
# basic types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Samples of a scalar process on a uniform, strictly increasing grid."""

    t_grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ConfigurationError("trajectory grid/value shapes differ")
        if t.size < 2:
            raise ConfigurationError("trajectory needs at least two samples")
        dt = np.diff(t)
        if dt.min() <= 0:
            raise ConfigurationError("trajectory grid must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12 * max(1.0, abs(t[-1]))):
            raise ConfigurationError("trajectory grid must be uniform")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("trajectory contains non-finite values")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def __len__(self) -> int:
        return self.t_grid.size


def _increment_weight(x):
    """psi(x) = (1 - exp(-ix)) / (ix), psi(0) = 1."""
    out = np.ones_like(x, dtype=complex)
    nz = x != 0
    out[nz] = (1.0 - np.exp(-1j * x[nz])) / (1j * x[nz])
    return out


@dataclass(frozen=True)
class FrequencyGridSpec:
    """Symmetric frequency grid excluding 0: uniform spacing ``dx`` up to
    ``x_max``, with the first cell (0, dx) refined geometrically.

    Positive nodes are x_k = (k + 1/2) dx for k >= 1; the negative half is
    implied by Hermitian symmetry of the noise, so sampled fields are real.
    The spectral density |x|^(1-2H) is scale-free near 0, so a uniform grid
    alone loses an O(dx^(2-2H)) share of the variance; log-spaced sub-nodes
    over ``_REFINE_OCTAVES`` octaves below dx recover it.
    """

    x_max: float
    dx: float

    def __post_init__(self):
        if not (self.x_max > 0 and self.dx > 0 and self.x_max > self.dx):
            raise ConfigurationError("frequency grid needs 0 < dx < x_max")

    @property
    def n_uniform(self) -> int:
        return int(math.ceil(self.x_max / self.dx)) - 1

    @property
    def n_fine(self) -> int:
        return _REFINE_OCTAVES * _REFINE_PER_OCTAVE

    def positive_nodes(self):
        """Ascending positive nodes and their cell widths."""
        bounds = self.dx * 2.0 ** (-np.arange(self.n_fine + 1, dtype=float)
                                   / _REFINE_PER_OCTAVE)
        bounds = bounds[::-1]
        fine = 0.5 * (bounds[:-1] + bounds[1:])
        fine_w = np.diff(bounds)
        uni = (np.arange(1, self.n_uniform + 1) + 0.5) * self.dx
        uni_w = np.full(uni.size, self.dx)
        return np.concatenate([fine, uni]), np.concatenate([fine_w, uni_w])

    @classmethod
    def for_grid(cls, z_grid) -> "FrequencyGridSpec":
        """Default spec for a depth grid: cutoff 64*pi/dz, spacing from span.

        The spacing keeps the synthesized field's period at four times the
        sampled span (plus the weight's reach); together with the refined
        first cell this bounds the variance discretization error below 1%
        for indices up to 0.9.  Where that spacing is not commensurate with
        dz (dz * dx = 2*pi/N for an integer N), it is lowered to the next
        commensurate one, so every default grid is synthesized by one FFT
        fold and the period only grows.
        """
        z = np.asarray(z_grid, dtype=float)
        dz = float(z[1] - z[0]) if z.size > 1 else 1.0
        span = float(z[-1] - z[0]) if z.size > 1 else 0.0
        eff = max(span + _KERNEL_REACH, 8.0)
        x_max = 64.0 * np.pi / dz
        dx = 2.0 * np.pi / (4.0 * eff)
        if _fold_size(dz, dx, span, x_max) is None:
            dx = 2.0 * np.pi / (math.ceil(2.0 * np.pi / (dz * dx)) * dz)
        return cls(x_max=x_max, dx=dx)


@dataclass(frozen=True)
class FieldGrid:
    """Two-parameter field samples m(z_j, H_i) from one shared noise draw.

    ``samples`` has shape (len(z_grid), len(h_values)).  ``column_variance``
    is the exact variance of each column under the discretized spectrum.
    """

    z_grid: np.ndarray
    h_values: np.ndarray
    samples: np.ndarray
    grid_spec: FrequencyGridSpec
    column_variance: np.ndarray
    meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# scalars
# --------------------------------------------------------------------------

def validate_hurst(h):
    arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"hurst index must lie in (0, 1), got {h}")
    return float(arr) if arr.ndim == 0 else arr


def renorm_constant_sq(h):
    """Closed form of the spectral normalization constant squared,
    pi / (H Gamma(2H) sin(pi H)).  Accepts arrays."""
    h = validate_hurst(h)
    return np.pi / (h * _gamma_fn(2.0 * h) * np.sin(np.pi * h))


def renorm_constant(h):
    return np.sqrt(renorm_constant_sq(h))


def renorm_constant_sq_quadrature(h) -> float:
    """Integral form: int over R of |exp(-ix) - 1|^2 / |x|^(2H+1) dx.

    Independent cross-check of :func:`renorm_constant_sq`.  The head is
    integrated directly; on [1, inf) the constant part is analytic and the
    cosine part uses a Fourier-weighted quadrature.
    """
    h = validate_hurst(h)
    a = 2.0 * h + 1.0
    # near 0 the integrand behaves like x^(1-2H); substituting x = t^beta with
    # beta = 1/(2-2H) makes it smooth
    beta = 1.0 / (2.0 - 2.0 * h)

    def head_integrand(t):
        x = t ** beta
        if x < 1e-4:
            g = 1.0 - x * x / 12.0
        else:
            g = (2.0 - 2.0 * np.cos(x)) / (x * x)
        return beta * g

    head, head_err = quad(head_integrand, 0.0, 1.0,
                          epsabs=_RENORM_EPSABS, epsrel=1e-10, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        osc, osc_err = quad(lambda x: -2.0 * x ** (-a), 1.0, np.inf,
                            weight="cos", wvar=1.0, epsabs=_RENORM_EPSABS,
                            limit=200)
    total = 2.0 * (head + 1.0 / h + osc)
    err = 2.0 * (head_err + osc_err)
    if err > max(1e-8, 1e-7 * abs(total)):
        raise QuadratureError("normalization-constant quadrature did not converge",
                              residual=err)
    return float(total)


def fgn_covariance(h, lag):
    """Covariance of unit-variance fractional Gaussian noise at integer lag,
    rho_H(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2."""
    h = validate_hurst(h)
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    r = 0.5 * (np.abs(k + 1.0) ** (2 * h) - 2.0 * np.abs(k) ** (2 * h)
               + np.abs(k - 1.0) ** (2 * h))
    return float(r) if np.isscalar(lag) or np.ndim(lag) == 0 else r


def asymptotic_covariance_scale(h1, h2):
    """Long-lag constant of the increment field:
    cov(m(z1,H1), m(z2,H2)) ~ R(H1,H2) |z1-z2|^(H1+H2-2) with

        R(H1,H2) = (H1+H2)(H1+H2-1)/2 * c((H1+H2)/2)^2 / (c(H1) c(H2)).

    Symmetric in its arguments; accepts arrays.
    """
    h1 = validate_hurst(h1)
    h2 = validate_hurst(h2)
    s = h1 + h2
    val = (0.5 * s * (s - 1.0) * renorm_constant_sq(0.5 * s)
           / (renorm_constant(h1) * renorm_constant(h2)))
    return float(val) if np.ndim(val) == 0 else val


def increment_field_covariance(z1, z2, h1, h2):
    """Exact covariance of the default (unit-lag increment) field.

    Equals rho_H(|z1-z2|) when h1 == h2 == H and the lag is an integer.
    """
    h1 = validate_hurst(h1)
    h2 = validate_hurst(h2)
    s = h1 + h2
    d = np.abs(np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float))
    pref = 0.5 * renorm_constant_sq(0.5 * s) / (renorm_constant(h1) * renorm_constant(h2))
    val = pref * ((d + 1.0) ** s + np.abs(d - 1.0) ** s - 2.0 * d ** s)
    return float(val) if np.ndim(val) == 0 else val


# --------------------------------------------------------------------------
# fGn synthesis (circulant embedding)
# --------------------------------------------------------------------------

def _circulant_eigenvalues(h, n):
    rho = fgn_covariance(h, np.arange(n + 1))
    return np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real


def synthesize_fgn(h, n, seed) -> Trajectory:
    """Exact synthesis of n samples of fGn(H) by circulant embedding.

    The minimal embedding (size 2n) is nonnegative definite for every H
    (Craigmile 2003, J. Time Series Anal. 24:5); a spectrum negative beyond
    _FGN_NEG_TOL fails loudly rather than being clipped.
    """
    h = validate_hurst(h)
    n = int(n)
    if n < 2:
        raise DomainError("need at least two samples")
    lam = _circulant_eigenvalues(h, n)
    if lam.min() < -_FGN_NEG_TOL * lam.max():
        raise SynthesisError(
            f"circulant spectrum negative beyond tolerance (min {lam.min():.3e}) "
            f"for H = {h} and n = {n}")
    lam = np.clip(lam, 0.0, None)
    g = np.random.default_rng(seed).standard_normal(2 * n)
    z = np.empty(2 * n, dtype=complex)
    z[0] = g[0]
    z[n] = g[1]
    half = (g[2:n + 1] + 1j * g[n + 1:]) / math.sqrt(2.0)
    z[1:n] = half
    z[n + 1:] = np.conj(half[::-1])
    y = np.fft.fft(np.sqrt(lam / (2 * n)) * z)
    return Trajectory(np.arange(n, dtype=float), y.real[:n],
                      meta={"generator": "fgn-circulant", "h": h,
                            "embedding": n, "seed": _seed_repr(seed)})


def _seed_repr(seed):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return repr(seed)


# --------------------------------------------------------------------------
# shared-noise spectral field
# --------------------------------------------------------------------------

def _fold_size(dz, dx, span, x_max):
    """FFT length N with dz*dx ~= 2*pi/N, or None when the resulting worst-case
    phase error over the whole grid would exceed 1e-3 rad."""
    ratio = 2.0 * np.pi / (dz * dx)
    n = int(round(ratio))
    if n < 2:
        return None
    phase_err = abs(ratio - n) / ratio * span * x_max
    return n if phase_err < 1e-3 else None


def _fold_length(z, grid_spec):
    """FFT length of the fold for depth grid ``z``; one depth is a trivial
    fold of length 1.  Raises when the grid would alias or is not
    commensurate with the frequency spacing."""
    span = float(z[-1] - z[0])
    phase = grid_spec.dx * (span + _KERNEL_REACH)
    if phase > 0.5 * np.pi * (1.0 + 1e-9):
        raise ConfigurationError(
            "frequency spacing too coarse for the depth span: "
            f"dx * span = {phase:.3f} exceeds pi/2, the sampled field would alias "
            "(wrap within its synthesis period)")
    if z.size == 1:
        return 1
    dz = float(z[1] - z[0])
    nfold = _fold_size(dz, grid_spec.dx, span, grid_spec.x_max)
    if nfold is None or nfold < z.size:
        raise ConfigurationError(
            f"frequency spacing dx = {grid_spec.dx:.6g} is not commensurate "
            f"with the depth spacing dz = {dz:.6g}: dz * dx must be 2*pi/N for "
            f"an integer N >= {z.size}")
    return nfold


class _SpectralContext:
    """Noise-independent node data for one frequency grid.

    Building the nodes and evaluating psi on two million of them dominates
    the cost of a single synthesis call, so ensemble generation reuses the
    context across paths.
    """

    def __init__(self, grid_spec):
        self.grid_spec = grid_spec
        self.x, self.widths = grid_spec.positive_nodes()
        self.logx = np.log(self.x)
        self.psix = _increment_weight(self.x)
        self.sqrt_half_widths = np.sqrt(0.5 * self.widths)
        self.a2w = self.widths * np.abs(self.psix) ** 2
        self._stats = {}
        self._fine_phases = None

    def kernel_power(self, h):
        return np.exp((0.5 - h) * self.logx)

    def fine_phases(self, z):
        """exp(-i z_j x_k) over the refined low-frequency nodes, cached per
        depth grid (complex64: these nodes carry a small additive share)."""
        key = (z[0], z[-1], z.size)
        if self._fine_phases is None or self._fine_phases[0] != key:
            xf = self.x[:self.grid_spec.n_fine]
            mat = np.empty((z.size, xf.size), dtype=np.complex64)
            for lo in range(0, z.size, 4096):
                hi = min(lo + 4096, z.size)
                mat[lo:hi] = np.exp(-1j * np.outer(z[lo:hi], xf))
            self._fine_phases = (key, mat)
        return self._fine_phases[1]

    def column_stats(self, h_values):
        """Exact variances / adjacent covariances of the discretized field."""
        key = tuple(round(float(h), 12) for h in h_values)
        if key not in self._stats:
            hs = np.asarray(h_values, dtype=float)
            c = np.array([renorm_constant(h) for h in hs])
            var = np.array([2.0 * np.dot(self.a2w, np.exp((1.0 - 2.0 * h) * self.logx))
                            for h in hs]) / c ** 2
            if hs.size > 1:
                cross = np.array([
                    2.0 * np.dot(self.a2w,
                                 np.exp((1.0 - hs[i] - hs[i + 1]) * self.logx))
                    / (c[i] * c[i + 1])
                    for i in range(hs.size - 1)])
            else:
                cross = np.empty(0)
            self._stats[key] = (var, cross)
        return self._stats[key]


_CTX_CACHE: dict = {}


def _spectral_context(grid_spec) -> _SpectralContext:
    ctx = _CTX_CACHE.get(grid_spec)
    if ctx is None:
        ctx = _SpectralContext(grid_spec)
        if len(_CTX_CACHE) >= 2:
            _CTX_CACHE.pop(next(iter(_CTX_CACHE)))
        _CTX_CACHE[grid_spec] = ctx
    return ctx


def _field_columns(h_values, z, ctx, noise, nfold):
    """Evaluate m(z_j, H_i) = 2 Re sum_k g_k(H_i) dB_k exp(-i z_j x_k): the
    uniform nodes by one FFT of length ``nfold``, the refined ones by a
    direct product."""
    x = ctx.x
    nf = ctx.grid_spec.n_fine
    out = np.empty((z.size, len(h_values)))
    base = noise * ctx.psix
    if z[0] != 0.0:
        base = base * np.exp(-1j * z[0] * x)
    j = np.arange(z.size)
    twiddle = np.exp(-1j * np.pi * j / nfold)
    fine = ctx.fine_phases(z)
    n_uni = x.size - nf
    buf = np.zeros((n_uni + nfold) // nfold * nfold + nfold, dtype=complex)
    for i, h in enumerate(h_values):
        c = base * (ctx.kernel_power(h) / renorm_constant(h))
        # uniform nodes sit at x = (k + 1/2) dx, k >= 1: slot k = 0 is empty
        buf[:] = 0.0
        buf[1:1 + n_uni] = c[nf:]
        folded = buf.reshape(-1, nfold).sum(axis=0)
        s = np.fft.fft(folded)[:z.size] * twiddle
        s += fine @ c[:nf].astype(np.complex64)
        out[:, i] = 2.0 * s.real
    return out


def synthesize_field_grid(h_values, z_grid, *, grid_spec=None,
                          seed=0) -> FieldGrid:
    """Sample the coupled field m(z_j, H_i) for several indices at once.

    All columns are driven by one Hermitian complex Gaussian noise on the
    frequency grid, so they are perfectly coupled: requesting the same index
    twice returns identical samples.  Each column's discretized variance is
    checked against 1 within 2%.  ``grid_spec`` defaults to
    :meth:`FrequencyGridSpec.for_grid`; an explicit one must be commensurate
    with the depth spacing.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ConfigurationError("need a one-dimensional depth grid")
    if z.size > 1:
        dzs = np.diff(z)
        if dzs.min() <= 0 or not np.allclose(dzs, dzs[0], rtol=1e-9):
            raise ConfigurationError("depth grid must be uniform and increasing")
    hs = [validate_hurst(h) for h in np.atleast_1d(h_values)]
    if grid_spec is None:
        grid_spec = FrequencyGridSpec.for_grid(z)
    nfold = _fold_length(z, grid_spec)

    ctx = _spectral_context(grid_spec)
    rng = np.random.default_rng(seed)
    k = ctx.widths.size
    g = rng.standard_normal(2 * k)
    noise = (g[:k] + 1j * g[k:]) * ctx.sqrt_half_widths

    samples = _field_columns(hs, z, ctx, noise, nfold)
    var, cross = ctx.column_stats(hs)
    if np.any(np.abs(var - 1.0) > _VAR_TOL):
        worst = float(np.abs(var - 1.0).max())
        raise ConfigurationError(
            f"discretized column variance off by {worst:.3%} (> {_VAR_TOL:.1%}); "
            "refine the frequency grid")
    return FieldGrid(z_grid=z, h_values=np.asarray(hs), samples=samples,
                     grid_spec=grid_spec, column_variance=var,
                     meta={"seed": _seed_repr(seed), "adjacent_covariance": cross})


def sample_field_diagonal(h_of_z, z_grid, *, grid_spec=None, seed=0,
                          level_spacing=0.01) -> tuple[np.ndarray, dict]:
    """Samples m(z_j, h(z_j)) along a depth-varying index profile.

    Exact for constant profiles.  Varying profiles are evaluated on a ladder
    of anchor indices (shared noise) and blended linearly between bracketing
    levels; the blend is rescaled with the exact discrete level covariances so
    the marginal variance matches the single-level construction.
    """
    h = np.asarray(h_of_z, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    if h.shape != z.shape:
        raise ConfigurationError("index profile and depth grid shapes differ")
    hmin, hmax = float(h.min()), float(h.max())
    if hmax - hmin < 1e-12:
        fg = synthesize_field_grid([hmin], z, grid_spec=grid_spec, seed=seed)
        return fg.samples[:, 0].copy(), {"levels": fg.h_values}
    n_lev = max(2, int(math.ceil((hmax - hmin) / level_spacing)) + 1)
    levels = np.linspace(hmin, hmax, n_lev)
    fg = synthesize_field_grid(levels, z, grid_spec=grid_spec, seed=seed)
    var = fg.column_variance
    cross = fg.meta["adjacent_covariance"]

    idx = np.clip(np.searchsorted(levels, h, side="right") - 1, 0, n_lev - 2)
    w = (h - levels[idx]) / (levels[idx + 1] - levels[idx])
    rows = np.arange(z.size)
    blend = (1.0 - w) * fg.samples[rows, idx] + w * fg.samples[rows, idx + 1]
    blend_var = ((1.0 - w) ** 2 * var[idx] + w ** 2 * var[idx + 1]
                 + 2.0 * w * (1.0 - w) * cross[idx])
    target_var = (1.0 - w) * var[idx] + w * var[idx + 1]
    values = blend * np.sqrt(target_var / blend_var)
    return values, {"levels": levels}


# --------------------------------------------------------------------------
# field covariance quadrature
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCovariance:
    """Quadrature value of the spectral covariance integral, with the
    closed form it was checked against."""

    value: float
    error_estimate: float
    closed_form: float

    def __float__(self):
        return self.value


def _cos_tail(w, q, b, epsabs):
    """int_b^inf cos(w x) x^q dx for q < -1."""
    if w == 0.0:
        return -(b ** (q + 1.0)) / (q + 1.0), 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda x: x ** q, b, np.inf, weight="cos", wvar=abs(w),
                        epsabs=epsabs, limit=300)
    return val, err


def _quadrature_head(d, s, b, epsabs):
    """int_0^b 2 cos(d x) |psi(x)|^2 x^(1-s) dx with the power-law endpoint
    removed by the substitution x = t^(1/(2-s))."""
    beta = 1.0 / (2.0 - s)

    def integrand(t):
        x = t ** beta
        return 2.0 * np.cos(d * x) * np.abs(_increment_weight(np.atleast_1d(x))[0]) ** 2

    val, err = quad(integrand, 0.0, b ** (1.0 / beta), epsabs=epsabs,
                    epsrel=1e-10, limit=400)
    return beta * val, beta * err


def _quadrature_tail(d, s, b, epsabs):
    """int_b^inf 2 cos(d x) |psi(x)|^2 x^(1-s) dx, expanding
    |psi(x)|^2 = (2 - 2 cos x) / x^2 into Fourier-weighted power tails."""
    q = 1.0 - s - 2.0
    total, err = 0.0, 0.0
    for amp, freq in ((2.0, 0.0), (-2.0, 1.0)):
        for w in (d + freq, d - freq):
            v, e = _cos_tail(w, q, b, epsabs)
            total += amp * v
            err += abs(amp) * e
    return total, err


def field_covariance(z1, z2, h1, h2) -> FieldCovariance:
    """Covariance of the spectral field between (z1, H1) and (z2, H2).

    Evaluates the frequency integral

        int exp(i (z2 - z1) x) |psi(x)|^2 / (c(H1) c(H2) |x|^(H1+H2-1)) dx

    by quadrature, independently of the closed-form increment-field
    covariance, which is evaluated alongside and returned for
    cross-checking.
    """
    h1 = validate_hurst(h1)
    h2 = validate_hurst(h2)
    s = h1 + h2
    if not 1.0 < s < 2.0:
        raise DomainError("index sum must lie in (1, 2) for an integrable spectrum")
    d = abs(float(z2) - float(z1))
    norm = renorm_constant(h1) * renorm_constant(h2)

    head, head_err = _quadrature_head(d, s, _COV_X_BREAK, _COV_EPSABS)
    tail, tail_err = _quadrature_tail(d, s, _COV_X_BREAK, _COV_EPSABS)
    value = (head + tail) / norm
    err = (head_err + tail_err) / norm
    closed = float(increment_field_covariance(z1, z2, h1, h2))
    if abs(value - closed) > max(100.0 * (err + _COV_EPSABS),
                                 1e-3 * abs(closed)):
        raise QuadratureError(
            f"field covariance quadrature ({value:.6e}) disagrees with the "
            f"closed form ({closed:.6e})", residual=abs(value - closed))
    return FieldCovariance(value=float(value), error_estimate=float(err),
                           closed_form=closed)
