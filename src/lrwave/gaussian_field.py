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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, QuadratureError, SynthesisError
from .quadrature import cos_power_tail, geometric_edges, panel_integral

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
# largest error estimate of a field-covariance quadrature relative to the
# closed form, met to lags of about 1e4 at H = 0.75
_COV_RTOL = 1e-6
# largest share of the circulant eigenvalue mass that may be clipped
_CLIP_TOL = 1e-3
# frequencies per batched eigh call of the circulant factor
_EIGH_BLOCK = 1024
# levels of the index ladder that carries a field along a varying profile
_LADDER_LEVELS = 9
# padded nodes of the seeds whose noise one synthesis pass holds while it
# runs through the levels: bounds those work arrays whatever the ensemble
# size (two seeds at eps = 0.05, one from eps = 0.04 down)
_FOLD_NODES = 1 << 17
# the rational approximation of Gamma on [2, 3] in Cephes (Moshier 1989):
# numerator and denominator, highest power first
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


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
        # allclose's rule |dt - dt0| <= atol + rtol |dt0|, which NaN fails
        dt0 = dt[0]
        dt -= dt0
        if not (np.abs(dt, out=dt).max()
                <= 1e-12 * max(1.0, abs(t[-1])) + 1e-9 * abs(dt0)):
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


# --------------------------------------------------------------------------
# scalars
# --------------------------------------------------------------------------

def validate_hurst(h):
    arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"hurst index must lie in (0, 1), got {h}")
    return float(arr) if arr.ndim == 0 else arr


def _integer(value, name):
    """``value`` as an int; DomainError naming ``name`` for anything that
    is not an integer (a fractional, NaN or infinite float included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _polevl(t, coef, out=None):
    """Cephes' Horner evaluation, highest power first, into ``out`` if
    given."""
    out = np.multiply(t, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= t
    out += coef[-1]
    return out


def _gamma_fn(x):
    """Gamma on 0 < x <= 2 in Cephes' order of operations, so equal bit for
    bit to Cephes' Gamma, which SciPy's gamma wraps.  Gamma(x) =
    Gamma(x + 1) / x raises x by 1, and by 1 again where the raised value
    is still below 2 (Cephes' loop tests the raised value); the rational
    form in t = x - 2 then applies.  Below 1e-9 the value is
    1 / ((1 + euler_gamma x) x).  A scalar gives a float."""
    x0 = np.asarray(x, dtype=float)
    x = x0.reshape(-1)
    z = 1.0 / x
    t = x + 1.0
    low = t < 2.0
    if low.any():
        # divide by the raised x where it is below 2, by 1 elsewhere
        d = low * t
        d += ~low
        z /= d
        t += low
    t -= 2.0
    out = _polevl(t, _GAMMA_P)
    out *= z
    # z is spent: it takes the denominator
    out /= _polevl(t, _GAMMA_Q, out=z)
    tiny = x < 1e-9
    if tiny.any():
        xt = x[tiny]
        out[tiny] = 1.0 / ((1.0 + 0.5772156649015329 * xt) * xt)
    return float(out[0]) if x0.ndim == 0 else out.reshape(x0.shape)


def renorm_constant_sq(h):
    """Closed form of the spectral normalization constant squared,
    pi / (H Gamma(2H) sin(pi H)).  Accepts arrays."""
    return _renorm_sq(validate_hurst(h))


def _renorm_sq(h):
    """:func:`renorm_constant_sq` of indices already checked to lie in (0, 1).
    The products build in place (bitwise commutative), so an array takes
    no temporary beyond its factors; a scalar gives a numpy float."""
    g = _gamma_fn(2.0 * h)
    g *= h
    g *= np.sin(np.pi * h)
    return np.pi / g


def renorm_constant(h):
    return np.sqrt(renorm_constant_sq(h))


def renorm_constant_sq_quadrature(h) -> float:
    """Integral form: int over R of |exp(-ix) - 1|^2 / |x|^(2H+1) dx.

    Independent cross-check of :func:`renorm_constant_sq`: the spectral
    integral of :func:`field_covariance` at lag 0 and index sum 2H.
    """
    total, err = _spectral_integral(0.0, 2.0 * validate_hurst(h))
    if not err <= max(1e-8, 1e-7 * abs(total)):
        raise QuadratureError("normalization-constant quadrature did not converge",
                              residual=err)
    return float(total)


def fgn_covariance(h, lag):
    """Covariance of unit-variance fractional Gaussian noise at integer lag,
    rho_H(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2."""
    h = validate_hurst(h)
    k = np.asarray(lag, dtype=float)
    if not np.all((k >= 0) & (k < np.inf)):
        raise DomainError("lag must be finite and nonnegative")
    r = 0.5 * _lag_kernel(k, 2.0 * h)
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
    # 0.5 s (s - 1) R(s / 2) / (sqrt R(h1) sqrt R(h2)), built in place
    val = 0.5 * s
    val *= s - 1.0
    val *= _renorm_sq(0.5 * s)
    val /= np.sqrt(_renorm_sq(h1)) * np.sqrt(_renorm_sq(h2))
    return val


def increment_field_covariance(z1, z2, h1, h2):
    """Exact covariance of the default (unit-lag increment) field.

    Equals rho_H(|z1-z2|) when h1 == h2 == H and the lag is an integer.
    """
    h1 = validate_hurst(h1)
    h2 = validate_hurst(h2)
    d = np.abs(np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float))
    if not np.all(np.isfinite(d)):
        raise DomainError("depths must be finite")
    val = _increment_covariance(d, h1, h2, renorm_constant(h1),
                                renorm_constant(h2))
    return float(val) if np.ndim(val) == 0 else val


def _increment_covariance(d, h1, h2, c1, c2):
    """:func:`increment_field_covariance` at lag ``d`` >= 0 from the
    normalization constants c1 = c(h1), c2 = c(h2), precomputed per index."""
    s = h1 + h2
    return 0.5 * _renorm_sq(0.5 * s) / (c1 * c2) * _lag_kernel(d, s)


def _lag_kernel(d, s):
    """(d+1)^s + |d-1|^s - 2 d^s at lags d >= 0.  Beyond d = 1 the three
    terms cancel to O(d^(s-2)), so there it is evaluated as
    d^s (expm1(s log1p(1/d)) + expm1(s log1p(-1/d))), which keeps the
    relative error near 1e-10 up to d = 2^16 (direct: up to 1e-5)."""
    d, s = np.broadcast_arrays(np.asarray(d, dtype=float),
                               np.asarray(s, dtype=float))
    out = np.empty(d.shape)
    far = d > 1.0
    df, sf = d[far], s[far]
    out[far] = df ** sf * (np.expm1(sf * np.log1p(1.0 / df))
                           + np.expm1(sf * np.log1p(-1.0 / df)))
    dn, sn = d[~far], s[~far]
    out[~far] = (dn + 1.0) ** sn + (1.0 - dn) ** sn - 2.0 * dn ** sn
    return out


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


# three: the limits workload cycles through a ladder at n = 2^14, the same
# ladder at n = 512 and one level at n = 2,048, which two slots would evict
# and rebuild on every pass
@functools.lru_cache(maxsize=3)
def _embedding_factor(levels, n):
    """(F, noise, product): F with 2n F F^T the embedding spectrum at each
    frequency, its negative eigenvalues clipped; SynthesisError when more
    than _CLIP_TOL of the eigenvalue mass is clipped.  noise and product are
    the (n + 1, L, 2) work arrays of synthesize_coupled_fgn, overwritten by
    each call on this key (one call at a time; parallel runs use
    processes): the Hermitian noise, and its product with F, which first
    holds the normals.  The returned samples are the inverse FFT's own
    array, never a work array.

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
    work = (n + 1, len(levels), 2)
    return v, np.empty(work), np.empty(work)


def synthesize_coupled_fgn(levels, n, seed) -> np.ndarray:
    """n samples, shape (n, L), of the coupled noises Y_a(j) = m(j, levels[a])
    by circulant embedding: exact up to the clipped eigenvalue mass (none
    for one level, fGn: Craigmile 2003, J. Time Series Anal. 24:5)."""
    levels = tuple(validate_hurst(np.asarray(levels, dtype=float)).tolist())
    n = _integer(n, "length n")
    if n < 2:
        raise DomainError("need at least two samples")
    f, z, x = _embedding_factor(levels, n)
    width = len(levels)
    # the normals sit in the product's array until the noise is built
    g = x.reshape(-1)[:2 * n * width].reshape(2 * n, width)
    np.random.default_rng(seed).standard_normal(out=g)
    # conjugate Hermitian noise at m = 0..n as (real, imaginary) pairs
    z[[0, n], :, 0] = g[:2]
    z[[0, n], :, 1] = 0.0
    np.divide(g[2:n + 1], math.sqrt(2.0), out=z[1:n, :, 0])
    np.divide(g[n + 1:], -math.sqrt(2.0), out=z[1:n, :, 1])
    np.matmul(f, z, out=x)
    return np.fft.irfft(x.view(complex)[..., 0], 2 * n, axis=0,
                        norm="forward")[:n]


def synthesize_fgn(h, n, seed) -> Trajectory:
    """Exact synthesis of n samples of fGn(H): the one-level case of
    :func:`synthesize_coupled_fgn`."""
    h = validate_hurst(h)
    y = synthesize_coupled_fgn((h,), n, seed)[:, 0]
    return Trajectory(np.arange(y.size, dtype=float), y)


# --------------------------------------------------------------------------
# shared-noise spectral field
# --------------------------------------------------------------------------

class _SpectralContext:
    """Everything one depth grid determines for the synthesis, built once
    from the grid's float64 bytes, and the work arrays that each synthesis
    on the grid overwrites (one call at a time; parallel runs use
    processes; no result aliases a work array).  Building the nodes and
    psi on them (51k at eps = 0.05) dominates a single synthesis call.

    for_grid makes dz * dx = 2*pi/nfold and dx * (span + 1) <= pi/2, so
    the fold does not alias; one depth is a trivial fold of length 1.
    ``shift`` is exp(-i z0 x), None at z0 = 0.  ``fine`` is exp(-i z_j x_k)
    over the refined nodes (complex64: they carry a small additive share)
    at absolute depths, so those nodes carry z0 twice: the open
    `fine_phases` FOUND in CHANGES.md, kept since mending it changes every
    medium stream.  A row of the padded layout holds the refined nodes,
    then the fold's rows: slot 0 empty, the uniform nodes, zeros up to a
    whole extra row.  ``layout_logx`` is log x there (0 in the empty
    slots).  ``planes[s]`` holds the real and the imaginary plane of seed
    s's noise times psi (and the origin phase), for as many seeds as fit
    _FOLD_NODES padded nodes: the bytes of that many complex rows, zero
    outside the node slots (never written), and a seed's normals in its
    node slots before its plane is built.  ``power`` is a level's
    |x|^(1/2 - H) / c(H); before the levels, its bytes build a seed's
    planes as complex numbers, half a row at a time.
    """

    def __init__(self, z_bytes):
        z = np.frombuffer(z_bytes)
        self.grid_spec = spec = FrequencyGridSpec.for_grid(z)
        self.nfold = nfold = (1 if z.size == 1 else
                              int(round(2.0 * np.pi / (float(z[1] - z[0])
                                                       * spec.dx))))
        x, widths = spec.positive_nodes()
        self.logx = np.log(x)
        self.psix = _increment_weight(x)
        self.sqrt_half_widths = np.sqrt(0.5 * widths)
        self.a2w = widths * np.abs(self.psix) ** 2
        self.shift = np.exp(-1j * z[0] * x) if z[0] != 0.0 else None
        nf = spec.n_fine
        self.fine = np.empty((z.size, nf), dtype=np.complex64)
        for lo in range(0, z.size, 4096):
            hi = min(lo + 4096, z.size)
            self.fine[lo:hi] = np.exp(-1j * np.outer(z[lo:hi], x[:nf]))
        self.twiddle = np.exp(-1j * np.pi * np.arange(z.size) / nfold)
        n_uni = x.size - nf
        width = nf + ((n_uni + nfold) // nfold + 1) * nfold
        self.layout_logx = np.zeros(width)
        self.layout_logx[:nf] = self.logx[:nf]
        self.layout_logx[nf + 1:nf + 1 + n_uni] = self.logx[nf:]
        seeds = max(1, _FOLD_NODES // width)
        self.planes = np.zeros((seeds, 2, width))
        self.power = np.empty(width)


_spectral_context = functools.lru_cache(maxsize=2)(_SpectralContext)


def _field_columns(h_values, ctx, seeds):
    """Evaluate m(z_j, H_i) = 2 Re sum_k g_k(H_i) dB_k exp(-i z_j x_k) on
    the context's depth grid, with dB drawn from each seed's own stream:
    shape (len(seeds), depths, len(h_values)).  The uniform nodes are summed
    by one FFT of length ``ctx.nfold``, the refined ones by a direct
    complex64 product per seed and level.

    The seeds run in chunks of the context's ``planes`` (two seeds at
    eps = 0.05, one from eps = 0.04 down, since _FOLD_NODES bounds the
    chunk's padded nodes).  Within a chunk each level's power is computed
    once; one einsum folds the uniform nodes of both planes of every seed,
    adding the fold's rows in order, and one row-wise FFT transforms the
    chunk.
    """
    nf = ctx.grid_spec.n_fine
    k = ctx.psix.size
    # (layout slots, nodes) of the refined and of the uniform nodes
    parts = ((slice(0, nf), slice(0, nf)),
             (slice(nf + 1, k + 1), slice(nf, k)))
    planes, power = ctx.planes, ctx.power
    shw, psix, shift = ctx.sqrt_half_widths, ctx.psix, ctx.shift
    twiddle, fine, nfold = ctx.twiddle, ctx.fine, ctx.nfold
    depths = twiddle.size
    norms = renorm_constant(np.asarray(h_values))
    out = np.empty((len(seeds), depths, len(h_values)))
    power_fold = power[nf:].reshape(-1, nfold)
    # the power's bytes, as complex numbers, are free until a level takes
    # them: they build a seed's row in (layout slots, nodes) blocks
    scratch = power[:power.size - power.size % 2].view(complex)
    blocks = []
    for slots, nodes in parts:
        off = slots.start - nodes.start
        for a in range(nodes.start, nodes.stop, scratch.size):
            b = min(a + scratch.size, nodes.stop)
            blocks.append((slice(a + off, b + off), slice(a, b)))
    # a seed's refined nodes times the power
    fine_prod = np.empty(nf, dtype=np.complex64)
    for lo in range(0, len(seeds), len(planes)):
        chunk = seeds[lo:lo + len(planes)]
        n = len(chunk)
        for plane, seed in zip(planes, chunk):
            # the seed's normals g, drawn into the node slots in stream
            # order: the k real parts, then the k imaginary parts
            rng = np.random.default_rng(seed)
            for part in plane:
                for slots, _ in parts:
                    rng.standard_normal(out=part[slots])
            # dB = (g_re + i g_im) sqrt(widths / 2), times psi, times the
            # origin phase, a block of nodes at a time in the scratch
            for slots, nodes in blocks:
                dst = scratch[:slots.stop - slots.start]
                np.multiply(plane[0, slots], shw[nodes], out=dst.real)
                np.multiply(plane[1, slots], shw[nodes], out=dst.imag)
                np.multiply(dst, psix[nodes], out=dst)
                if shift is not None:
                    np.multiply(shift[nodes], dst, out=dst)
                plane[0, slots] = dst.real
                plane[1, slots] = dst.imag
        # (seed, plane, fold row, fold column) views of the uniform nodes
        fold = planes[:n, :, nf:].reshape(n, 2, -1, nfold)
        # the fold's sums of each seed, and their real and imaginary planes
        # as the einsum's (seed, plane, fold column) view
        folded = np.empty((n, nfold), dtype=complex)
        folded_planes = folded.view(float).reshape(n, nfold, 2).transpose(
            0, 2, 1)
        for i, h in enumerate(h_values):
            # |x|^(1/2 - h) / c(h), shared by the chunk's seeds
            np.multiply(ctx.layout_logx, 0.5 - h, out=power)
            np.exp(power, out=power)
            power /= norms[i]
            if nfold > 1:
                np.einsum("sprj,rj->spj", fold, power_fold,
                          out=folded_planes)
            else:
                # numpy sums a one-column fold pairwise, as complex
                # numbers: each seed's products go into one complex row
                prod = np.empty(power.size - nf, dtype=complex)
                for s, plane in enumerate(planes[:n]):
                    np.multiply(plane[:, nf:], power[nf:],
                                out=prod.view(float).reshape(-1, 2).T)
                    folded[s, 0] = prod.sum()
            cols = np.fft.fft(folded, axis=1)[:, :depths] * twiddle
            for col, plane in zip(cols, planes):
                # the real power scales each plane: no complex cast
                np.multiply(plane[0, :nf], power[:nf], out=fine_prod.real)
                np.multiply(plane[1, :nf], power[:nf], out=fine_prod.imag)
                col += fine @ fine_prod
            out[lo:lo + n, :, i] = 2.0 * cols.real
    return out


def _field_samples(h_values, z_grid, seeds):
    """(z, indices, grid spec, column variances, samples) of the coupled
    field for each seed; ``samples[s]`` is what :func:`synthesize_field_grid`
    returns for seeds[s]."""
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ConfigurationError("need a one-dimensional depth grid")
    if z.size > 1:
        dzs = np.diff(z)
        if dzs.min() <= 0 or not np.allclose(dzs, dzs[0], rtol=1e-9):
            raise ConfigurationError("depth grid must be uniform and increasing")
    hs = np.array([validate_hurst(h) for h in np.atleast_1d(h_values)])
    ctx = _spectral_context(z.tobytes())
    # the exact variances of the discretized field's columns
    var = np.array([2.0 * np.dot(ctx.a2w, np.exp((1.0 - 2.0 * h) * ctx.logx))
                    for h in hs]) / renorm_constant(hs) ** 2
    dev = np.abs(var - 1.0)
    if np.any(dev > _VAR_TOL):
        i = int(np.argmax(dev))
        raise ConfigurationError(
            f"discretized column variance off by {dev[i]:.3%} "
            f"(> {_VAR_TOL:.1%}) at field index {hs[i]:.4g}: the spectral "
            "grid cannot resolve indices this close to 1")
    samples = _field_columns(hs, ctx, list(seeds))
    return z, hs, ctx.grid_spec, var, samples


def synthesize_field_grid(h_values, z_grid, *, seed=0) -> FieldGrid:
    """Sample the coupled field m(z_j, H_i) for several indices at once.

    All columns are driven by one Hermitian complex Gaussian noise on the
    frequency grid :meth:`FrequencyGridSpec.for_grid`, so they are perfectly
    coupled: requesting the same index twice returns identical samples.
    Each column's discretized variance is checked against 1 within 2%.
    """
    z, hs, grid_spec, var, samples = _field_samples(h_values, z_grid, [seed])
    return FieldGrid(z_grid=z, h_values=hs, samples=samples[0],
                     grid_spec=grid_spec, column_variance=var)


def _index_ladder(lo, hi):
    """The _LADDER_LEVELS Chebyshev points of the first kind on [lo, hi],
    ascending: all strictly inside the range, so the top one stays below
    hi."""
    k = np.arange(_LADDER_LEVELS)
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
        (2 * k + 1) * np.pi / (2 * _LADDER_LEVELS))


def _lagrange_weights(h, levels):
    """Weights, shape (h.size, L), of the Lagrange interpolation in the
    index from columns at ``levels`` to each row's index h: all ones for
    one level.  Built as one contiguous row per level and returned as its
    transpose."""
    w = np.ones((levels.size, h.size))
    for a, la in enumerate(levels):
        for lb in np.delete(levels, a):
            w[a] *= (h - lb) / (la - lb)
    return w.T


def sample_field_diagonal(h_of_z, z_grid, *,
                          seed=0) -> tuple[np.ndarray, dict]:
    """Samples m(z_j, h(z_j)) along an index profile: exact for a constant
    one; else the field at the Chebyshev ladder of the profile's own
    [min, max] (shared noise), interpolated in the index with
    :func:`_lagrange_weights`.  Returns the values and {"levels": ladder}."""
    values, levels = _diagonal_samples(h_of_z, z_grid, [seed])
    return values[0], {"levels": levels}


def _diagonal_samples(h_of_z, z_grid, seeds):
    """:func:`sample_field_diagonal` for each of ``seeds``: values of shape
    (len(seeds), z.size), and the ladder they share."""
    h = np.asarray(h_of_z, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    if h.shape != z.shape:
        raise ConfigurationError("index profile and depth grid shapes differ")
    hmin, hmax = float(h.min()), float(h.max())
    levels = (np.array([hmin]) if hmax - hmin < 1e-12
              else _index_ladder(hmin, hmax))
    _, hs, _, _, samples = _field_samples(levels, z, seeds)
    # the samples are this call's own: weight them in place
    samples *= _lagrange_weights(h, levels)
    return samples.sum(axis=2), hs


# --------------------------------------------------------------------------
# field covariance quadrature
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCovariance:
    """Quadrature value of the spectral covariance integral, with the
    closed form it was checked against."""

    value: float
    closed_form: float


def _spectral_integral(d, s):
    """(int_0^inf 2 cos(d x) |psi(x)|^2 x^(1-s) dx, error estimate) for
    lag d >= 0 and 0 < s < 2.  Below b = min(1, pi/d), at most half a period
    of cos(d x), x = t^(1/(2-s)) removes the power-law endpoint on t panels
    graded toward both ends (the exponent reaches 50 at s = 1.98); beyond
    b, |psi(x)|^2 = (2 - 2 cos x) / x^2 splits it into cosine power tails.
    """
    b = 1.0 if d <= math.pi else math.pi / d
    beta = 1.0 / (2.0 - s)

    def head(t):
        x = t ** beta
        # |psi(x)|^2 = sinc(x / 2 pi)^2, with no cancellation near 0
        return 2.0 * beta * np.cos(d * x) * np.sinc(x / (2.0 * np.pi)) ** 2

    value, err = panel_integral(head, geometric_edges(
        0.0, b ** (2.0 - s), toward="both"))
    for amp, w in ((4.0, d), (-2.0, d + 1.0), (-2.0, d - 1.0)):
        v, e = cos_power_tail(w, -1.0 - s, b)
        value += amp * v
        err += abs(amp) * e
    return value, err


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
    closed = float(increment_field_covariance(z1, z2, h1, h2))
    norm = renorm_constant(h1) * renorm_constant(h2)
    value, err = np.divide(_spectral_integral(abs(float(z2) - float(z1)), s), norm)
    if not (err <= _COV_RTOL * abs(closed)
            and abs(value - closed) <= 100.0 * err + 1e-14 * abs(closed)):
        raise QuadratureError(
            f"field covariance quadrature ({value:.6e} +- {err:.1e}) did not "
            f"converge to the closed form ({closed:.6e})", residual=abs(value - closed))
    return FieldCovariance(value=float(value), closed_form=closed)
