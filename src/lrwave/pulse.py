"""Pulse synthesis from transmission spectra and the limiting pulse shapes.

Fourier conventions match the propagation setup: fhat(w) = int e^{iws} f(s) ds
and f(s) = (1/2pi) int e^{-isw} fhat(w) dw, discretized on the window's FFT
grid.  A real source has a Hermitian spectrum, so synthesized traces are real
to roundoff (asserted, never silently truncated).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    descriptor: str = "custom"

    @property
    def ds(self) -> float:
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def n(self) -> int:
        return self.s_grid.size

    @property
    def window(self) -> float:
        return float(self.n * self.ds)


@dataclass(frozen=True)
class PulseTrace:
    """Real amplitude trace in the moving window frame."""

    s_grid: np.ndarray
    values: np.ndarray
    side: str = "transmitted"
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PulseDistance:
    l2: float
    sup: float
    best_shift: float


def _forward(s_grid, values):
    n = values.size
    ds = float(s_grid[1] - s_grid[0])
    omegas = 2.0 * np.pi * np.fft.fftfreq(n, ds)
    fhat = ds * n * np.fft.ifft(values) * np.exp(1j * omegas * s_grid[0])
    return fhat, FrequencyGrid(omegas)


def _inverse(s_grid, spectrum_values, omegas):
    n = s_grid.size
    ds = float(s_grid[1] - s_grid[0])
    x = spectrum_values * np.exp(-1j * omegas * s_grid[0])
    return np.fft.fft(x) / (n * ds)


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


def _make_source(s_grid, values, descriptor):
    fhat, grid = _forward(s_grid, values)
    _check_band_limited(fhat)
    return SourcePulse(s_grid=s_grid, values=values, fhat=fhat, grid=grid,
                       descriptor=descriptor)


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
    return _make_source(s, np.exp(-0.5 * (s / width) ** 2),
                        f"gaussian(width={width})")


def ricker_source(width=1.0, window_lengths=16.0, n=4096) -> SourcePulse:
    """Second-derivative-of-Gaussian wavelet, normalized to unit peak."""
    s = _window(width, window_lengths, n)
    q = (s / width) ** 2
    return _make_source(s, (1.0 - q) * np.exp(-0.5 * q),
                        f"ricker(width={width})")


def _synthesize(tspec: TransmissionSpectrum, f: SourcePulse, coeffs, side) -> PulseTrace:
    if tspec.grid.n != f.grid.n or not np.allclose(
            tspec.grid.omegas, f.grid.omegas, rtol=1e-12, atol=1e-12):
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
    values = _inverse(f.s_grid, coeffs * f.fhat, f.grid.omegas)
    peak = float(np.max(np.abs(values.real)))
    resid = float(np.max(np.abs(values.imag)))
    if resid > 1e-9 * max(peak, 1e-300):
        raise ConfigurationError(
            f"synthesized trace is not real: imaginary residual {resid:.2e} "
            f"against peak {peak:.2e}")
    return PulseTrace(s_grid=f.s_grid, values=values.real, side=side,
                      meta=dict(tspec.meta))


def transmitted_pulse(tspec: TransmissionSpectrum, f: SourcePulse) -> PulseTrace:
    """Window-frame transmitted trace: inverse transform of T(w) fhat(w)."""
    return _synthesize(tspec, f, tspec.T, "transmitted")


def reflected_pulse(tspec: TransmissionSpectrum, f: SourcePulse) -> PulseTrace:
    """Window-frame reflected trace (diagnostic; no limit law is claimed)."""
    return _synthesize(tspec, f, tspec.R, "reflected")


def _spectral_shift(f: SourcePulse, shift) -> np.ndarray:
    return _inverse(f.s_grid, f.fhat * np.exp(1j * f.grid.omegas * shift),
                    f.grid.omegas).real


def theory_longrange(f: SourcePulse, v_of_z: float) -> PulseTrace:
    """Limiting long-range pulse: the source shifted by v(Z)/2, shape intact.

    Band-limited (spectral) interpolation; the shift must stay well inside
    the window (a quarter length) to avoid wrap-around.
    """
    b = 0.5 * float(v_of_z)
    if abs(b) > 0.25 * f.window:
        raise WindowError(
            f"time shift {b:.3f} leaves the window (quarter length "
            f"{0.25 * f.window:.3f})")
    return PulseTrace(s_grid=f.s_grid, values=_spectral_shift(f, b),
                      side="transmitted", meta={"kind": "longrange", "shift": b})


def theory_shortrange(f: SourcePulse, sigma, depth, b_shift=0.0) -> PulseTrace:
    """Limiting mixing-case pulse: source convolved with a centered Gaussian
    density of variance sigma^2 * depth / 2, then shifted by ``b_shift``."""
    b = float(b_shift)
    if abs(b) > 0.25 * f.window:
        raise WindowError("time shift leaves the window")
    kernel = np.exp(-0.25 * sigma ** 2 * depth * f.grid.omegas ** 2
                    + 1j * f.grid.omegas * b)
    values = _inverse(f.s_grid, f.fhat * kernel, f.grid.omegas).real
    return PulseTrace(s_grid=f.s_grid, values=values, side="transmitted",
                      meta={"kind": "shortrange", "sigma": float(sigma),
                            "depth": float(depth), "shift": b})


def pulse_distance(a: PulseTrace, b: PulseTrace) -> PulseDistance:
    """L2 and sup distances after optimal sub-sample alignment.

    ``best_shift`` is the time shift of ``b`` relative to ``a`` (positive
    when b lags a); it is located by quadratic interpolation of the circular
    cross-correlation peak and is the empirical travel-time estimator.
    """
    if a.s_grid.shape != b.s_grid.shape or not np.allclose(
            a.s_grid, b.s_grid, rtol=1e-12, atol=1e-12):
        raise ConfigurationError("pulse traces live on different grids")
    ds = float(a.s_grid[1] - a.s_grid[0])
    n = a.s_grid.size
    fa = np.fft.fft(a.values)
    fb = np.fft.fft(b.values)
    corr = np.fft.ifft(np.conj(fa) * fb).real
    m = int(np.argmax(corr))
    c_minus, c_0, c_plus = corr[(m - 1) % n], corr[m], corr[(m + 1) % n]
    denom = c_minus - 2.0 * c_0 + c_plus
    frac = 0.0 if denom == 0.0 else 0.5 * (c_minus - c_plus) / denom
    signed = m if m <= n // 2 else m - n
    best_shift = (signed + frac) * ds

    # raw-DFT convention: advancing the sequence by tau multiplies its
    # transform by exp(+i w tau)
    omegas = 2.0 * np.pi * np.fft.fftfreq(n, ds)
    aligned = np.fft.ifft(fb * np.exp(1j * omegas * best_shift)).real
    diff = a.values - aligned
    return PulseDistance(l2=float(math.sqrt(np.sum(diff ** 2) * ds)),
                         sup=float(np.max(np.abs(diff))),
                         best_shift=float(best_shift))


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
        above = pos > lobe_floor * pos[peak]
        lo = peak
        while lo > 0 and above[lo - 1]:
            lo -= 1
        hi = peak
        while hi < pos.size - 1 and above[hi + 1]:
            hi += 1
        mask = np.zeros_like(above)
        mask[lo:hi + 1] = True
        pos = np.where(mask, pos, 0.0)
    mass = pos.sum()
    if mass <= 0:
        raise ConfigurationError("trace has no positive mass")
    s = trace.s_grid
    mean = float(np.dot(s, pos) / mass)
    return float(math.sqrt(np.dot((s - mean) ** 2, pos) / mass))
