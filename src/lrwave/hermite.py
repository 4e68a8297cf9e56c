"""Hermite polynomials, coefficients of truncation maps, and the covariance
composition rule for pointwise transforms of Gaussian paths.

Probabilists' convention throughout: P_0 = 1, P_1 = x, and
E[P_j(X) P_k(X)] = k! delta_jk for standard normal X.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, SynthesisError

__all__ = [
    "Truncation",
    "HermiteSpec",
    "hermite_poly",
    "truncation",
    "TRUNCATION_CATALOG",
    "hermite_coeffs",
    "composed_covariance",
]

# hermite_coeffs: J(1.._K_MAX) by _QUAD_ORDER-point Gauss-Hermite quadrature,
# the rank from |J(k)| > _RANK_TOL, and the largest accepted variance-series
# tail for polynomial maps (which terminate exactly) and for smooth ones
_K_MAX, _QUAD_ORDER, _RANK_TOL = 12, 192, 1e-9
_TAIL_TOL_POLYNOMIAL, _TAIL_TOL_SMOOTH = 1e-10, 2e-2


@functools.lru_cache(maxsize=1)
def _gauss_hermite_rule():
    """_QUAD_ORDER-point rule with E[g(X)] = sum w_i g(x_i), numpy's
    eigenvalue-based one (Golub & Welsch 1969): built on first use (about
    6 ms) and shared read-only by every later call."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(_QUAD_ORDER)
    weights = weights / math.sqrt(2.0 * np.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def hermite_poly(k, x):
    """P_k(x) by the recurrence P_{k+1} = x P_k - k P_{k-1} (vectorized)."""
    k = int(k)
    if k < 0:
        raise DomainError("polynomial order must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class Truncation:
    """A pointwise map applied to the Gaussian field, with metadata.

    ``degree`` is a hint for polynomial maps (coefficients above it vanish).
    ``params`` carries the catalog parameters for manifests.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    degree: int | None = None
    params: tuple = ()

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


TRUNCATION_CATALOG = {
    "identity": lambda scale=1.0: Truncation(
        lambda x, s=scale: s * x, "identity", degree=1,
        params=(("scale", scale),)),
    "cubic": lambda scale=1.0: Truncation(
        lambda x, s=scale: s * x ** 3, "cubic", degree=3,
        params=(("scale", scale),)),
    "square_center": lambda scale=1.0: Truncation(
        lambda x, s=scale: s * (x ** 2 - 1.0), "square_center", degree=2,
        params=(("scale", scale),)),
    "tanh": lambda a=1.0, scale=1.0: Truncation(
        lambda x, a=a, s=scale: s * np.tanh(a * x), "tanh",
        params=(("a", a), ("scale", scale))),
    "clipped_linear": lambda c=1.0, scale=1.0: Truncation(
        lambda x, c=c, s=scale: s * np.clip(x, -c, c), "clipped_linear",
        params=(("c", c), ("scale", scale))),
    "zero": lambda: Truncation(lambda x: np.zeros_like(x), "zero", degree=0),
}


def truncation(name, **params) -> Truncation:
    """Build a truncation from the catalog; custom maps do not enter here."""
    try:
        factory = TRUNCATION_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(TRUNCATION_CATALOG))
        raise ConfigurationError(f"unknown truncation {name!r}; catalog: {known}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for truncation {name!r}: {exc}")


@dataclass(frozen=True)
class HermiteSpec:
    """Hermite coefficients J(1.._K_MAX) of T and the detected rank.

    ``tail_fraction`` is the share of the variance series sum J(k)^2/k! sitting
    in the last two computed terms; it bounds the relative truncation error of
    :func:`composed_covariance` (which shrinks further like r^k).
    """

    coeffs: np.ndarray          # coeffs[k-1] = J(k)
    rank: int
    tail_fraction: float

    def coeff(self, k: int) -> float:
        if not 1 <= k <= _K_MAX:
            raise DomainError(f"coefficient index {k} outside 1..{_K_MAX}")
        return float(self.coeffs[k - 1])


def hermite_coeffs(t: Truncation) -> HermiteSpec:
    """Coefficients J(k) = E[T(X) P_k(X)], k = 1.._K_MAX, by Gauss-Hermite
    quadrature.

    The rank is the smallest k with |J(k)| > _RANK_TOL.  Maps with nonzero
    mean are rejected (media must be centered).  Polynomial maps must have a
    vanishing series tail at _K_MAX (they terminate exactly); smooth
    non-polynomial maps such as tanh carry a slowly decaying tail, which is
    measured, stored on the result, and rejected only beyond 2%.
    """
    nodes, weights = _gauss_hermite_rule()
    ty = t(nodes)
    if not np.all(np.isfinite(ty)):
        raise SynthesisError("truncation not finite on the quadrature range")

    j0 = float(np.dot(weights, ty))
    scale = max(1.0, float(np.max(np.abs(ty))))
    if abs(j0) > max(_RANK_TOL, 1e-9 * scale):
        raise ConfigurationError(
            f"truncation {t.name!r} is not centered: E[T(X)] = {j0:.3e}")

    coeffs = np.array([np.dot(weights, ty * hermite_poly(k, nodes))
                       for k in range(1, _K_MAX + 1)])

    above = np.nonzero(np.abs(coeffs) > _RANK_TOL)[0]
    if above.size == 0:
        raise ConfigurationError(
            f"truncation {t.name!r} has zero Hermite rank up to k_max={_K_MAX}")
    rank = int(above[0]) + 1

    series = coeffs ** 2 / np.array([math.factorial(k) for k in range(1, _K_MAX + 1)])
    # parity makes alternate terms vanish and individual coefficients can sit
    # near zeros, so the tail is continued from the largest of the last four
    last = series[-4:]
    tail_fraction = float(4.0 * last.max() / max(series.sum(), 1e-300))
    polynomial = t.degree is not None and t.degree <= _K_MAX
    tail_tol = _TAIL_TOL_POLYNOMIAL if polynomial else _TAIL_TOL_SMOOTH
    if tail_fraction > tail_tol:
        raise ConfigurationError(
            f"Hermite series of {t.name!r} has tail fraction "
            f"{tail_fraction:.2e} > {tail_tol:.0e} at k_max={_K_MAX}")
    return HermiteSpec(coeffs=coeffs, rank=rank, tail_fraction=tail_fraction)


def composed_covariance(spec: HermiteSpec, r_m):
    """Covariance of T(m(0)), T(m(z)) from the covariance r_m = cov(m(0), m(z))
    of a unit-variance field:

        sum_{k >= rank}  J(k)^2 / k! * r_m^k.
    """
    r = np.asarray(r_m, dtype=float)
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise DomainError("|r_m| cannot exceed the unit field variance")
    out = np.zeros_like(r)
    for k in range(spec.rank, _K_MAX + 1):
        jk = spec.coeffs[k - 1]
        if jk == 0.0:
            continue
        out = out + (jk ** 2 / math.factorial(k)) * r ** k
    return float(out) if np.ndim(r_m) == 0 else out
