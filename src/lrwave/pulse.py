"""Pulse synthesis from transmission spectra and the limiting pulse shapes.

Fourier conventions match the propagation setup: fhat(w) = int e^{iws} f(s) ds
and f(s) = (1/2pi) int e^{-isw} fhat(w) dw, discretized on the window's FFT
grid.  A real source has a Hermitian spectrum, so synthesized traces are real
to roundoff (asserted, never silently truncated).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, WindowError
from .propagator import FrequencyGrid, TransmissionSpectrum

__all__ = [
    "SourcePulse",
    "PulseTrace",
    "PulseDistance",
    "gaussian_source",
    "ricker_source",
    "transmitted_pulse",
    "reflected_pulse",
    "theory_longrange",
    "theory_shortrange",
    "pulse_distance",
    "pulse_width",
]


@dataclass(frozen=True)
class SourcePulse:
    """Time samples of the source on a uniform window with its spectrum."""

    s_grid: np.ndarray
    values: np.ndarray
    fhat: np.ndarray
    grid: FrequencyGrid

    @property
    def ds(self) -> float:
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def window(self) -> float:
        return float(self.s_grid.size * self.ds)


@dataclass(frozen=True)
class PulseTrace:
    """Real amplitude trace in the moving window frame."""

    s_grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class PulseDistance:
    l2: float
    sup: float
    best_shift: float


def _forward(s_grid, values):
    n = values.size
    ds = float(s_grid[1] - s_grid[0])
    grid = FrequencyGrid.for_window(n, ds)
    fhat = ds * n * np.fft.ifft(values) * np.exp(1j * grid.omegas * s_grid[0])
    return fhat, grid


def _inverse(s_grid, spectrum_values, omegas):
    """Samples of the spectra ``spectrum_values`` (one per row), a fresh
    array that is overwritten and returned: phase, transform and scale in
    place take the bits of fft(values * phase) / (n ds)."""
    n = s_grid.size
    ds = float(s_grid[1] - s_grid[0])
    x = spectrum_values
    x *= np.exp(-1j * omegas * s_grid[0])
    np.fft.fft(x, out=x)
    x /= n * ds
    return x


def _check_band_limited(fhat, tol=1e-6):
    power = np.abs(fhat) ** 2
    n = power.size
    # top octave of |w| as proxy for content at and beyond the grid Nyquist
    hi = np.zeros(n, dtype=bool)
    hi[n // 4: -(n // 4) or None] = True
    leak = power[hi].sum() / max(power.sum(), 1e-300)
    if leak > tol:
        raise ConfigurationError(
            f"source is not band-limited on this window: {leak:.2e} of the "
            f"spectral energy sits in the top octave (> {tol:.0e})")


def _make_source(s_grid, values):
    fhat, grid = _forward(s_grid, values)
    _check_band_limited(fhat)
    return SourcePulse(s_grid=s_grid, values=values, fhat=fhat, grid=grid)


def _window(width, window_lengths, n):
    """``n`` samples of a window ``window_lengths`` widths long centred on 0;
    the parameters are named by their config keys."""
    if not width > 0:
        raise ConfigurationError(
            f"source.width must be positive, got {width!r}")
    if not window_lengths > 0:
        raise ConfigurationError("source.window_lengths must be positive, got "
                                 f"{window_lengths!r}")
    if int(n) < 2:
        raise ConfigurationError(f"source.n must be at least 2, got {n!r}")
    half = 0.5 * window_lengths * width
    return np.linspace(-half, half, int(n), endpoint=False)


def gaussian_source(width=1.0, window_lengths=16.0, n=4096) -> SourcePulse:
    """f(s) = exp(-s^2 / 2 width^2) on a window of ``window_lengths`` widths."""
    s = _window(width, window_lengths, n)
    return _make_source(s, np.exp(-0.5 * (s / width) ** 2))


def ricker_source(width=1.0, window_lengths=16.0, n=4096) -> SourcePulse:
    """Second-derivative-of-Gaussian wavelet, normalized to unit peak."""
    s = _window(width, window_lengths, n)
    q = (s / width) ** 2
    return _make_source(s, (1.0 - q) * np.exp(-0.5 * q))


def _ensemble_traces(tspecs, f: SourcePulse, reflected=False):
    """Window-frame transmitted (or reflected) traces, shape (R, n), of the
    spectra ``tspecs`` times the source spectrum, by one 2-D FFT.  The
    spectra share one grid and one active mask, as those of one
    :func:`~lrwave.propagator.spectra` call do, so the grid and band-leak
    checks run once."""
    tspec = tspecs[0]
    if any(t.grid is not tspec.grid or t.active is not tspec.active
           for t in tspecs):
        raise ConfigurationError(
            "an ensemble's spectra must share one grid and active mask")
    g = tspec.grid
    if g is not f.grid and (g.n != f.grid.n or not np.allclose(
            g.omegas, f.grid.omegas, rtol=1e-12, atol=1e-12)):
        raise ConfigurationError(
            "transmission spectrum and source are on different frequency grids")
    if tspec.active is not None:
        outside = ~tspec.active
        leak = (np.abs(f.fhat[outside]) ** 2).sum() / max(
            (np.abs(f.fhat) ** 2).sum(), 1e-300)
        if leak > 1e-12:
            raise ConfigurationError(
                f"source has {leak:.2e} of its energy outside the propagated "
                "band; widen the active mask")
    coeffs = np.stack([t.R if reflected else t.T for t in tspecs],
                      dtype=complex)
    coeffs *= f.fhat
    values = _inverse(f.s_grid, coeffs, f.grid.omegas)
    peak = np.max(np.abs(values.real), axis=1)
    resid = np.max(np.abs(values.imag), axis=1)
    bad = resid > 1e-9 * np.maximum(peak, 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigurationError(
            f"synthesized trace is not real: imaginary residual {resid[i]:.2e} "
            f"against peak {peak[i]:.2e}")
    # a real copy, so the complex stack is freed
    return values.real.copy()


def transmitted_pulse(tspec: TransmissionSpectrum, f: SourcePulse) -> PulseTrace:
    """Window-frame transmitted trace: inverse transform of T(w) fhat(w)."""
    return PulseTrace(s_grid=f.s_grid, values=_ensemble_traces([tspec], f)[0])


def reflected_pulse(tspec: TransmissionSpectrum, f: SourcePulse) -> PulseTrace:
    """Window-frame reflected trace (diagnostic; no limit law is claimed)."""
    return PulseTrace(s_grid=f.s_grid,
                      values=_ensemble_traces([tspec], f, reflected=True)[0])


def theory_longrange(f: SourcePulse, v_of_z: float) -> PulseTrace:
    """Limiting long-range pulse: the source shifted by v(Z)/2, shape intact
    (:func:`theory_shortrange` with no spreading)."""
    return theory_shortrange(f, 0.0, 0.0, 0.5 * float(v_of_z))


def theory_shortrange(f: SourcePulse, sigma, depth, b_shift=0.0) -> PulseTrace:
    """Limiting mixing-case pulse: source convolved with a centered Gaussian
    density of variance sigma^2 * depth / 2, then shifted by ``b_shift``.

    Band-limited (spectral) interpolation; the shift must stay well inside
    the window (a quarter length) to avoid wrap-around.
    """
    b = float(b_shift)
    if abs(b) > 0.25 * f.window:
        raise WindowError(
            f"time shift {b:.3f} leaves the window (quarter length "
            f"{0.25 * f.window:.3f})")
    kernel = np.exp(-0.25 * sigma ** 2 * depth * f.grid.omegas ** 2
                    + 1j * f.grid.omegas * b)
    values = _inverse(f.s_grid, f.fhat * kernel, f.grid.omegas).real
    return PulseTrace(s_grid=f.s_grid, values=values)


def pulse_distance(a: PulseTrace, b: PulseTrace) -> PulseDistance:
    """L2 and sup distances after optimal sub-sample alignment.

    ``best_shift`` is the time shift of ``b`` relative to ``a`` (positive
    when b lags a); it is located by quadratic interpolation of the circular
    cross-correlation peak and is the empirical travel-time estimator.
    """
    if a.s_grid.shape != b.s_grid.shape or not np.allclose(
            a.s_grid, b.s_grid, rtol=1e-12, atol=1e-12):
        raise ConfigurationError("pulse traces live on different grids")
    l2, sup, best_shift = _distances(a, b.values[None])
    return PulseDistance(l2=l2[0], sup=float(sup[0]),
                         best_shift=float(best_shift[0]))


def _distances(a: PulseTrace, values):
    """:func:`pulse_distance` of ``a`` against each row of ``values`` (R, n)
    on a's grid: the l2 distances (a list), the sup distances and the best
    shifts.  One transform of ``a``, one 2-D FFT of the rows and one aligned
    inverse FFT; each l2 is its row's own 1-D sum."""
    ds = float(a.s_grid[1] - a.s_grid[0])
    n = a.s_grid.size
    fb = np.fft.fft(values)
    best_shift = _best_shifts(np.fft.fft(a.values), fb, ds)

    # raw-DFT convention: advancing the sequence by tau multiplies its
    # transform by exp(+i w tau)
    omegas = FrequencyGrid.for_window(n, ds).omegas
    # in place, so that the product keeps the order fb * exp(...): numpy
    # writes a product with a large temporary operand into that temporary,
    # as exp(...) * fb, and a complex product is not bitwise commutative
    phase = 1j * omegas * best_shift[:, None]
    fb *= np.exp(phase, out=phase)
    diff = a.values - np.fft.ifft(fb, out=fb).real
    sup = np.max(np.abs(diff), axis=1)
    sq = np.square(diff, out=diff)
    return [math.sqrt(np.sum(row) * ds) for row in sq], sup, best_shift


def _best_shifts(fa, fb, ds):
    """Time shift of each row of ``fb`` relative to ``fa`` (transforms of
    traces with sample step ds): the peak of their circular
    cross-correlation, located by quadratic interpolation (no sub-sample
    part where the correlation is flat about its peak)."""
    corr = np.conj(fa) * fb
    corr = np.fft.ifft(corr, out=corr).real
    n = corr.shape[1]
    m = np.argmax(corr, axis=1)
    rows = np.arange(m.size)
    c_minus, c_0, c_plus = (corr[rows, (m - 1) % n], corr[rows, m],
                            corr[rows, (m + 1) % n])
    denom = c_minus - 2.0 * c_0 + c_plus
    flat = denom == 0.0
    frac = 0.5 * (c_minus - c_plus) / np.where(flat, 1.0, denom)
    frac[flat] = 0.0
    return (np.where(m <= n // 2, m, m - n) + frac) * ds


def pulse_width(trace: PulseTrace, *, lobe_floor=0.0) -> float:
    """Root second central moment of the positive part of the trace.

    With ``lobe_floor`` > 0 the moment is restricted to the contiguous main
    lobe around the peak where the trace exceeds ``lobe_floor * peak``;
    this isolates the coherent pulse from the low-level scattered coda,
    whose quadratically weighted mass would otherwise dominate the moment.
    """
    pos = np.clip(trace.values, 0.0, None)
    if lobe_floor > 0.0:
        peak = int(np.argmax(pos))
        # the lobe ends at the nearest samples on either side of the peak
        # that do not exceed the floor
        below = np.flatnonzero(~(pos > lobe_floor * pos[peak]))
        left, right = np.searchsorted(below, [peak, peak + 1])
        lo = below[left - 1] + 1 if left else 0
        hi = below[right] if right < below.size else pos.size
        lobe = np.zeros_like(pos)
        lobe[lo:hi] = pos[lo:hi]
        pos = lobe
    mass = pos.sum()
    if mass <= 0:
        raise ConfigurationError("trace has no positive mass")
    s = trace.s_grid
    mean = float(np.dot(s, pos) / mass)
    return float(math.sqrt(np.dot((s - mean) ** 2, pos) / mass))
