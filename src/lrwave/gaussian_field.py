"""Gaussian building blocks for long-range layered media.

This module synthesizes the coupled fractional-noise sequences that drive
the limit processes, the two-parameter Gaussian field m(z, H) that drives
every medium in the package, and their exact and asymptotic covariance
oracles.

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
* On the integer lattice the same field at L indices is a stationary vector
  process with closed-form lag covariances; it is sampled exactly by
  circulant embedding (Wood & Chan 1994, JCGS 3:4), fGn being its one-level
  case.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma_fn

from .errors import ConfigurationError, DomainError, QuadratureError, SynthesisError

__all__ = [
    "Trajectory",
    "FieldCovariance",
    "validate_hurst",
    "renorm_constant",
    "renorm_constant_sq",
    "renorm_constant_sq_quadrature",
    "fgn_covariance",
    "synthesize_coupled_fgn",
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
# largest share of the circulant eigenvalue mass that may be clipped
_CLIP_TOL = 1e-3
# frequencies per batched eigh call of the circulant factor
_EIGH_BLOCK = 1024


# --------------------------------------------------------------------------
# basic types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Samples of a scalar process on a uniform, strictly increasing grid."""

    t_grid: np.ndarray
    values: np.ndarray

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
        # keep dx when the fold's worst-case phase error is below 1e-3 rad
        ratio = 2.0 * np.pi / (dz * dx)
        n = int(round(ratio))
        if n < 2 or not abs(ratio - n) / ratio * span * x_max < 1e-3:
            dx = 2.0 * np.pi / (math.ceil(ratio) * dz)
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
    return _renorm_sq(validate_hurst(h))


def _renorm_sq(h):
    """:func:`renorm_constant_sq` of indices already checked to lie in (0, 1)."""
    return np.pi / (h * _gamma_fn(2.0 * h) * np.sin(np.pi * h))


def renorm_constant(h):
    return np.sqrt(renorm_constant_sq(h))


def renorm_constant_sq_quadrature(h) -> float:
    """Integral form: int over R of |exp(-ix) - 1|^2 / |x|^(2H+1) dx.

    Independent cross-check of :func:`renorm_constant_sq`.  The head is
    integrated directly; on [1, inf) the constant part is analytic and the
    cosine part uses a Fourier-weighted quadrature.
    """
    from scipy.integrate import IntegrationWarning, quad

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
    val = _asymptotic_scale(validate_hurst(h1), validate_hurst(h2))
    return float(val) if np.ndim(val) == 0 else val


def _asymptotic_scale(h1, h2):
    """:func:`asymptotic_covariance_scale` of indices already checked to lie
    in (0, 1), not converted to float."""
    s = h1 + h2
    return (0.5 * s * (s - 1.0) * _renorm_sq(0.5 * s)
            / (np.sqrt(_renorm_sq(h1)) * np.sqrt(_renorm_sq(h2))))


def increment_field_covariance(z1, z2, h1, h2):
    """Exact covariance of the default (unit-lag increment) field.

    Equals rho_H(|z1-z2|) when h1 == h2 == H and the lag is an integer.
    """
    h1 = validate_hurst(h1)
    h2 = validate_hurst(h2)
    d = np.abs(np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float))
    val = _increment_covariance(d, h1, h2, renorm_constant(h1),
                                renorm_constant(h2))
    return float(val) if np.ndim(val) == 0 else val


def _increment_covariance(d, h1, h2, c1, c2):
    """:func:`increment_field_covariance` at lag ``d`` >= 0 from the
    normalization constants c1 = c(h1), c2 = c(h2), precomputed per index."""
    s = h1 + h2
    pref = 0.5 * _renorm_sq(0.5 * s) / (c1 * c2)
    return pref * ((d + 1.0) ** s + np.abs(d - 1.0) ** s - 2.0 * d ** s)


# --------------------------------------------------------------------------
# coupled fGn synthesis (multivariate circulant embedding)
# --------------------------------------------------------------------------

def _embedding_spectrum(levels, n):
    """Spectra, shape (n+1, L, L), of the size-2n circulant embedding of the
    lag covariances of Y_a(j) = m(j, levels[a]) (fGn form on the diagonal).
    They are real and even, so each spectrum is real symmetric and frequency
    2n - m repeats m."""
    h = np.asarray(levels, dtype=float)
    c = renorm_constant(h)
    lags = np.arange(n + 1, dtype=float)
    spec = np.empty((n + 1, h.size, h.size))
    for a in range(h.size):
        for b in range(a, h.size):
            cov = (fgn_covariance(h[a], lags) if a == b else
                   _increment_covariance(lags, h[a], h[b], c[a], c[b]))
            spec[:, a, b] = spec[:, b, a] = np.fft.fft(
                np.concatenate([cov, cov[-2:0:-1]]))[:n + 1].real
    return spec


@functools.lru_cache(maxsize=2)
def _embedding_factor(levels, n):
    """F with 2n F F^T the embedding spectrum at each frequency, its
    negative eigenvalues clipped; SynthesisError when more than _CLIP_TOL of
    the eigenvalue mass is clipped.

    The eigenvectors overwrite the spectrum block by block, so the build
    holds one (n+1, L, L) array, not two: valid because
    _embedding_spectrum returns a fresh array that nothing else holds."""
    v = _embedding_spectrum(levels, n)
    w = np.empty(v.shape[:2])
    for lo in range(0, v.shape[0], _EIGH_BLOCK):
        hi = lo + _EIGH_BLOCK
        w[lo:hi], v[lo:hi] = np.linalg.eigh(v[lo:hi])
    share = -float(w[w < 0.0].sum()) / float(np.abs(w).sum())
    if share > _CLIP_TOL:
        raise SynthesisError(f"circulant embedding negative beyond tolerance: "
                             f"{share:.2e} of its mass clipped (n = {n}, "
                             f"levels {levels})")
    v *= np.sqrt(np.clip(w, 0.0, None) / (2 * n))[:, None, :]
    v.flags.writeable = False           # shared by every caller of the cache
    return v


def synthesize_coupled_fgn(levels, n, seed) -> np.ndarray:
    """n samples, shape (n, L), of the coupled noises Y_a(j) = m(j, levels[a])
    by circulant embedding: exact up to the clipped eigenvalue mass (none
    for one level, fGn: Craigmile 2003, J. Time Series Anal. 24:5)."""
    levels = tuple(float(validate_hurst(h)) for h in levels)
    n = int(n)
    if n < 2:
        raise DomainError("need at least two samples")
    f = _embedding_factor(levels, n)
    g = np.random.default_rng(seed).standard_normal((2 * n, len(levels)))
    # conjugate Hermitian noise at m = 0..n as (real, imaginary) pairs
    z = np.zeros((n + 1, len(levels), 2))
    z[[0, n], :, 0] = g[:2]
    z[1:n] = np.stack([g[2:n + 1], -g[n + 1:]], axis=-1) / math.sqrt(2.0)
    x = np.matmul(f, z).view(complex)[..., 0]
    return np.fft.irfft(x, 2 * n, axis=0, norm="forward")[:n]


def synthesize_fgn(h, n, seed) -> Trajectory:
    """Exact synthesis of n samples of fGn(H): the one-level case of
    :func:`synthesize_coupled_fgn`."""
    h = validate_hurst(h)
    y = synthesize_coupled_fgn((h,), n, seed)[:, 0]
    return Trajectory(np.arange(y.size, dtype=float), y)


def _seed_repr(seed):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return repr(seed)


# --------------------------------------------------------------------------
# shared-noise spectral field
# --------------------------------------------------------------------------

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
        self._origin_shift = None

    def kernel_power(self, h):
        return np.exp((0.5 - h) * self.logx)

    def origin_shift(self, z0):
        """exp(-i z0 x_k) over all nodes, cached per grid origin z0 (one
        entry, as for fine_phases).  fine_phases uses absolute depths, so the
        refined nodes carry z0 twice: the open `fine_phases` FOUND in
        CHANGES.md.  The offset is kept as it is, since removing it changes
        every medium stream."""
        if self._origin_shift is None or self._origin_shift[0] != z0:
            shift = np.exp(-1j * z0 * self.x)
            shift.flags.writeable = False
            self._origin_shift = (z0, shift)
        return self._origin_shift[1]

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


_spectral_context = functools.lru_cache(maxsize=2)(_SpectralContext)


def _field_columns(h_values, z, ctx, noise, nfold):
    """Evaluate m(z_j, H_i) = 2 Re sum_k g_k(H_i) dB_k exp(-i z_j x_k): the
    uniform nodes by one FFT of length ``nfold``, the refined ones by a
    direct product."""
    nf = ctx.grid_spec.n_fine
    out = np.empty((z.size, len(h_values)))
    base = noise * ctx.psix
    if z[0] != 0.0:
        base = ctx.origin_shift(z[0]) * base
    j = np.arange(z.size)
    twiddle = np.exp(-1j * np.pi * j / nfold)
    fine = ctx.fine_phases(z)
    n_uni = ctx.x.size - nf
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


def synthesize_field_grid(h_values, z_grid, *, seed=0) -> FieldGrid:
    """Sample the coupled field m(z_j, H_i) for several indices at once.

    All columns are driven by one Hermitian complex Gaussian noise on the
    frequency grid :meth:`FrequencyGridSpec.for_grid`, so they are perfectly
    coupled: requesting the same index twice returns identical samples.
    Each column's discretized variance is checked against 1 within 2%.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ConfigurationError("need a one-dimensional depth grid")
    if z.size > 1:
        dzs = np.diff(z)
        if dzs.min() <= 0 or not np.allclose(dzs, dzs[0], rtol=1e-9):
            raise ConfigurationError("depth grid must be uniform and increasing")
    hs = [validate_hurst(h) for h in np.atleast_1d(h_values)]
    grid_spec = FrequencyGridSpec.for_grid(z)
    # for_grid makes dz * dx = 2*pi/nfold and dx * (span + 1) <= pi/2, so the
    # fold does not alias; one depth is a trivial fold of length 1
    nfold = (1 if z.size == 1 else
             int(round(2.0 * np.pi / (float(z[1] - z[0]) * grid_spec.dx))))

    ctx = _spectral_context(grid_spec)
    rng = np.random.default_rng(seed)
    k = ctx.widths.size
    g = rng.standard_normal(2 * k)
    noise = (g[:k] + 1j * g[k:]) * ctx.sqrt_half_widths

    samples = _field_columns(hs, z, ctx, noise, nfold)
    var, cross = ctx.column_stats(hs)
    dev = np.abs(var - 1.0)
    if np.any(dev > _VAR_TOL):
        i = int(np.argmax(dev))
        raise ConfigurationError(
            f"discretized column variance off by {dev[i]:.3%} "
            f"(> {_VAR_TOL:.1%}) at field index {hs[i]:.4g}: the spectral "
            "grid cannot resolve indices this close to 1")
    return FieldGrid(z_grid=z, h_values=np.asarray(hs), samples=samples,
                     grid_spec=grid_spec, column_variance=var,
                     meta={"seed": _seed_repr(seed), "adjacent_covariance": cross})


def _blend_levels(h, levels, columns, var, cross):
    """Values at the indices ``h`` from the columns of an index ladder: the
    linear blend of the bracketing levels, rescaled by their variances and
    adjacent covariances to the interpolated variance."""
    if levels.size == 1:
        return columns[:, 0].copy()
    idx = np.clip(np.searchsorted(levels, h, side="right") - 1, 0,
                  levels.size - 2)
    w = (h - levels[idx]) / (levels[idx + 1] - levels[idx])
    rows = np.arange(h.size)
    blend = (1.0 - w) * columns[rows, idx] + w * columns[rows, idx + 1]
    blend_var = ((1.0 - w) ** 2 * var[idx] + w ** 2 * var[idx + 1]
                 + 2.0 * w * (1.0 - w) * cross[idx])
    target_var = (1.0 - w) * var[idx] + w * var[idx + 1]
    return blend * np.sqrt(target_var / blend_var)


def sample_field_diagonal(h_of_z, z_grid, *, seed=0,
                          level_spacing=0.01) -> tuple[np.ndarray, dict]:
    """Samples m(z_j, h(z_j)) along an index profile: exact for a constant
    one, else blended by :func:`_blend_levels` from a ladder of anchor
    indices (shared noise) with their discrete variances and covariances."""
    h = np.asarray(h_of_z, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    if h.shape != z.shape:
        raise ConfigurationError("index profile and depth grid shapes differ")
    hmin, hmax = float(h.min()), float(h.max())
    if hmax - hmin < 1e-12:
        levels = np.array([hmin])
    else:
        n_lev = max(2, int(math.ceil((hmax - hmin) / level_spacing)) + 1)
        levels = np.linspace(hmin, hmax, n_lev)
    fg = synthesize_field_grid(levels, z, seed=seed)
    values = _blend_levels(h, levels, fg.samples, fg.column_variance,
                          fg.meta["adjacent_covariance"])
    return values, {"levels": fg.h_values}


# --------------------------------------------------------------------------
# field covariance quadrature
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCovariance:
    """Quadrature value of the spectral covariance integral, with the
    closed form it was checked against."""

    value: float
    closed_form: float


def _cos_tail(w, q, b, epsabs):
    """int_b^inf cos(w x) x^q dx for q < -1."""
    from scipy.integrate import IntegrationWarning, quad

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
    from scipy.integrate import quad

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
    return FieldCovariance(value=float(value), closed_form=closed)
