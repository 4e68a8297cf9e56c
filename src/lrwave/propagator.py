"""Frequency-domain propagation through a slab medium.

The up/down-going amplitudes evolve under a trace-free generator whose slab
exponential is exact: with constant fluctuation nu over a sub-step of width
dz and frozen midpoint phase phi = 2 w z_mid / eps^tau,

    P_step = I + (i w nu dz / 2) * M(phi),      M(phi) = [[1, -e^{-i phi}],
                                                          [e^{i phi}, -1]],

and M(phi)^2 = 0, so P_step is the exact exponential of its generator and
det P_step = 1 identically.  Each step has the SU(1,1) form [[a, conj(b)],
[b, conj(a)]], a = 1 + c, b = c e^{i phi}, c = i w nu dz / 2, and so does
every product, so only its first column (alpha, beta) is tracked.

The product is associative: one kernel, shared by ``propagate``,
``spectrum`` and ``spectra``, reduces fixed-size blocks of steps as pairwise
trees over a steps x realizations x frequencies array and applies the blocks
in depth order.  The sub-step bins and the phase factors e^{i phi} depend on
the frequency, the slab grid and eps^tau, not on the medium, so an ensemble
at one eps shares them: ``spectra`` computes each block's phases once for all
its realizations.  Negative frequencies in a spectrum mirror by conjugation
(the medium is real).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StateError
from .medium import MediumRealization

__all__ = [
    "PropagatorState",
    "FrequencyGrid",
    "TransmissionSpectrum",
    "propagate",
    "transmission",
    "spectrum",
    "spectra",
]

# largest phase increment omega * dz / eps^tau of a sub-step
MAX_PHASE_STEP = np.pi / 8.0
# steps per tree-reduced block; fixed, so that a frequency's result does not
# depend on which other frequencies share its sub-step bin
_BLOCK = 256
# (realization, frequency) lanes of one block tree, at least one
# realization: bounds the tree's temporaries to _BLOCK x max(_LANES,
# frequencies in the bin) complex entries whatever the ensemble size
_LANES = 64


@dataclass(frozen=True)
class PropagatorState:
    """Propagator entries at the bottom of a medium for one frequency;
    |alpha|^2 - |beta|^2 stays 1 up to float accumulation.

    Drift is measured relative to |alpha|^2 (for strongly scattered
    frequencies the absolute defect is amplified by the entry magnitudes);
    the relative defect equals the |T|^2 + |R|^2 conservation defect.
    """

    alpha: complex
    beta: complex

    @property
    def det_drift(self) -> float:
        return float(_drift(self.alpha, self.beta))


@dataclass(frozen=True)
class FrequencyGrid:
    """Hermitian-symmetric frequency grid in FFT order."""

    omegas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        n = w.size
        if n < 2:
            raise ConfigurationError("need at least two frequencies")
        # FFT order: w[n-k] == -w[k] for 0 < k < n/2
        k = np.arange(1, (n + 1) // 2)
        if not np.allclose(w[n - k], -w[k], rtol=1e-12, atol=1e-12 * max(1.0, w.max())):
            raise ConfigurationError("frequency grid is not Hermitian-symmetric")
        object.__setattr__(self, "omegas", w)

    @classmethod
    def for_window(cls, n: int, ds: float) -> "FrequencyGrid":
        return cls(2.0 * np.pi * np.fft.fftfreq(int(n), float(ds)))

    @property
    def n(self) -> int:
        return self.omegas.size


@dataclass(frozen=True)
class TransmissionSpectrum:
    """Transmission/reflection coefficients over a frequency grid for one
    realization.  ``active`` masks the frequencies actually propagated (the
    rest default to the transparent values and must not be trusted where the
    source has energy)."""

    grid: FrequencyGrid
    T: np.ndarray
    R: np.ndarray
    det_drift: float
    active: np.ndarray | None = None

    def conservation_defect(self) -> float:
        mask = slice(None) if self.active is None else self.active
        return float(np.max(np.abs(np.abs(self.T[mask]) ** 2
                                   + np.abs(self.R[mask]) ** 2 - 1.0)))


def _substeps(omega, dz, eps_tau):
    return max(1, int(math.ceil(abs(omega) * dz / (eps_tau * MAX_PHASE_STEP))))


def _drift(alpha, beta):
    """Relative determinant defect, as defined on ``PropagatorState``."""
    a2 = np.abs(alpha) ** 2
    return np.abs(a2 - np.abs(beta) ** 2 - 1.0) / np.maximum(1.0, a2)


def _slab_product(omegas, nu, z_left, dz, eps_tau, n_sub):
    """(alpha, beta, drift) of the product of every sub-step matrix, all
    frequencies in one n_sub bin at once; raises ``StateError`` on a
    corrupted product.  ``nu`` of shape (slabs, R) holds R realizations on
    the same slabs: the results then gain a leading realization axis, and the
    error names the first corrupted realization.

    A block of ``_BLOCK`` steps is reduced as a pairwise tree, the later
    step on the left; the blocks then act on the state in depth order.  A
    block's phase factors depend on depth and frequency only, so they are
    computed once for every realization; its trees run over chunks of
    realizations of at most ``_LANES`` (realization, frequency) lanes.
    """
    lanes = nu.reshape(nu.shape[0], -1)
    n_real, n_freq = lanes.shape[1], omegas.size
    sub = dz / n_sub
    offs = (np.arange(n_sub) + 0.5) * sub
    scaled = 2.0 * (z_left[:, None] + offs[None, :]).ravel() / eps_tau
    nu_rep = np.repeat(lanes, n_sub, axis=0)
    half_c = 0.5j * sub * omegas
    chunk = max(1, _LANES // n_freq)
    alpha = np.ones((n_real, n_freq), complex)
    beta = np.zeros((n_real, n_freq), complex)
    for lo in range(0, scaled.size, _BLOCK):
        phase = np.exp(1j * np.outer(scaled[lo:lo + _BLOCK], omegas))[:, None]
        for r in range(0, n_real, chunk):
            c = nu_rep[lo:lo + _BLOCK, r:r + chunk, None] * half_c
            a = 1.0 + c
            b = c * phase
            while a.shape[0] > 1:
                if a.shape[0] % 2:  # pad with the identity step
                    a = np.concatenate([a, np.ones_like(a[:1])])
                    b = np.concatenate([b, np.zeros_like(b[:1])])
                a, b = (a[1::2] * a[::2] + np.conj(b[1::2]) * b[::2],
                        b[1::2] * a[::2] + np.conj(a[1::2]) * b[::2])
            al, be = alpha[r:r + chunk], beta[r:r + chunk]
            alpha[r:r + chunk], beta[r:r + chunk] = (
                a[0] * al + np.conj(b[0]) * be, b[0] * al + np.conj(a[0]) * be)
    drift = np.max(_drift(alpha, beta), axis=1)
    bad = ~(np.all(np.abs(alpha) >= 1.0 - 1e-9, axis=1) & (drift <= 1e-6))
    if bad.any():
        i = int(np.argmax(bad))
        raise StateError(f"corrupted propagator product in realization {i}: "
                         f"|alpha| < 1 or determinant drift {drift[i]:.2e} "
                         "exceeds 1e-6")
    if nu.ndim == 1:
        return alpha[0], beta[0], float(drift[0])
    return alpha, beta, drift


def propagate(real: MediumRealization, omega) -> PropagatorState:
    """Propagate one frequency from the surface to the bottom of the medium.

    Sub-steps keep the phase increment per step at or below
    ``MAX_PHASE_STEP``; each step is the exact exponential of its
    frozen-phase generator, so the determinant is conserved identically and
    drift is pure float roundoff.
    """
    omega = float(omega)
    eps_tau = real.epsilon ** real.tau
    alpha, beta, _ = _slab_product(
        np.array([omega]), real.nu_eps, real.z_grid[:-1], real.dz, eps_tau,
        _substeps(omega, real.dz, eps_tau))
    return PropagatorState(alpha=complex(alpha[0]), beta=complex(beta[0]))


def transmission(state: PropagatorState):
    """(T, R) = (1/conj(alpha), beta/conj(alpha)); |T|^2 + |R|^2 = 1."""
    if abs(state.alpha) < 1.0 - 1e-9:
        raise StateError(
            "corrupted propagator state: |alpha| < 1 violates conservation")
    conj_alpha = np.conj(np.complex128(state.alpha))
    return complex(1.0 / conj_alpha), complex(state.beta / conj_alpha)


def spectra(reals, grid: FrequencyGrid, *, active: np.ndarray | None = None):
    """Transmission/reflection over a Hermitian grid for an ensemble of media
    that share ``z_grid``, ``epsilon`` and ``tau``: yields one
    ``TransmissionSpectrum`` per medium, in order.

    Only nonnegative frequencies are integrated; negative ones mirror by
    conjugation.  ``active`` (boolean, FFT order) restricts propagation to
    frequencies that matter for a given source; inactive entries stay at the
    transparent values (T, R) = (1, 0).  The sub-step bins depend on the
    grid and eps^tau, not on the medium, so each bin is one slab product
    over the whole ensemble; only the propagated band is held for all media,
    and each spectrum is expanded to the full grid as it is consumed.
    """
    reals = list(reals)
    if not reals:
        return
    first = reals[0]
    for real in reals[1:]:
        if not (real.epsilon == first.epsilon and real.tau == first.tau
                and np.array_equal(real.z_grid, first.z_grid)):
            raise ConfigurationError(
                "an ensemble's media must share z_grid, epsilon and tau")
    w = grid.omegas
    n = w.size
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape != w.shape:
            raise ConfigurationError("active mask does not match the grid")
        # a frequency is computed if itself or its mirror is requested
        need = active.copy()
        k = np.arange(1, (n + 1) // 2)
        need[k] |= active[n - k]
        need[n - k] |= active[k]
    else:
        need = np.ones(n, dtype=bool)

    eps_tau = first.epsilon ** first.tau
    # nonnegative frequencies, plus the unpaired Nyquist entry of an even
    # grid (it has no mirror partner), all integrated at |w|
    idx = np.nonzero(need & (w >= 0.0))[0]
    if n % 2 == 0 and need[n // 2]:
        idx = np.append(idx, n // 2)
    t_band = np.empty((len(reals), idx.size), dtype=complex)
    r_band = np.empty_like(t_band)
    drift = np.zeros(len(reals))
    if idx.size:
        nu = np.stack([real.nu_eps for real in reals], axis=1)
        n_subs = np.array([_substeps(w[i], first.dz, eps_tau) for i in idx])
        for ns in np.unique(n_subs):
            sel = n_subs == ns
            alpha, beta, bin_drift = _slab_product(
                np.abs(w[idx[sel]]), nu, first.z_grid[:-1], first.dz,
                eps_tau, int(ns))
            drift = np.maximum(drift, bin_drift)
            t_band[:, sel] = 1.0 / np.conj(alpha)
            r_band[:, sel] = beta / np.conj(alpha)

    # mirror to negative frequencies: real medium => conjugate symmetry
    k = np.arange(1, (n + 1) // 2)
    neg = n - k
    for j in range(len(reals)):
        t_arr = np.ones(n, dtype=complex)
        r_arr = np.zeros(n, dtype=complex)
        t_arr[idx] = t_band[j]
        r_arr[idx] = r_band[j]
        t_arr[neg] = np.conj(t_arr[k])
        r_arr[neg] = np.conj(r_arr[k])
        yield TransmissionSpectrum(grid=grid, T=t_arr, R=r_arr,
                                   det_drift=float(drift[j]),
                                   active=None if active is None else need)


def spectrum(real: MediumRealization, grid: FrequencyGrid, *,
             active: np.ndarray | None = None) -> TransmissionSpectrum:
    """Transmission/reflection over a Hermitian grid for one realization:
    :func:`spectra` of a one-medium ensemble."""
    return next(spectra([real], grid, active=active))
