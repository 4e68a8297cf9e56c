"""Assembly of the scaled random medium on a depth grid.

A medium is the slab-wise fluctuation

    nu_eps(z) = eps^(2 h(z) - 2) * T( m(z / eps^2, h_field(z)) ),

where T is a truncation of Hermite rank K, m the shared-noise spectral field,
h(z) the target regularity of the travel-time limit, and h_field(z) the field
index (h(z) - 1)/K + 1.  The decay exponent of the underlying Gaussian
correlations is gamma(z) = (2 - 2 h(z)) / K; the medium covariance itself
decays with exponent gamma(z) * K = 2 - 2 h(z).

Both parametrizations (gamma profile or h profile) are accepted and cross
checked.  Slabs are piecewise constant at their midpoint values, with the
micro step equal to one micro unit, so a realization with n slabs covers
n micro correlation lengths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, PhaseResolutionError
from .gaussian_field import (Trajectory, asymptotic_covariance_scale,
                             sample_field_diagonal)
from .hermite import HermiteSpec, Truncation, hermite_coeffs, truncation

__all__ = [
    "Profile",
    "constant_profile",
    "linear_profile",
    "periodic_profile",
    "profile_from_config",
    "MediumSpec",
    "MediumRealization",
    "VTriple",
    "build_medium",
    "white_medium",
    "v_triple",
    "check_a2",
    "check_a3",
    "A2Report",
    "A3Report",
]

MAX_SLABS = 1 << 22

# assumption checks: pair lags are measured against eps^_LAM; A2 keeps lags
# beyond _A2_Z_DELTA of it, in windows of _A2_WINDOW_FRACTION of the depth
# for varying profiles, and needs _A2_MIN_ENSEMBLE media; both checks need
# _MIN_PAIR_SAMPLES products; A3 flags points above _A3_SLACK x its fit
_LAM, _A2_Z_DELTA, _A2_WINDOW_FRACTION, _A2_MIN_ENSEMBLE = 2.0, 4.0, 0.1, 100
_MIN_PAIR_SAMPLES, _A3_SLACK = 1000, 3.0


# --------------------------------------------------------------------------
# depth profiles (functions of normalized depth u = z / Z in [0, 1])
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    params: tuple = ()

    def __call__(self, u):
        return np.asarray(self.fn(np.asarray(u, dtype=float)), dtype=float)


def constant_profile(value) -> Profile:
    v = float(value)
    return Profile(lambda u: np.full_like(u, v), "constant", (("value", v),))


def linear_profile(start, end) -> Profile:
    a, b = float(start), float(end)
    return Profile(lambda u: a + (b - a) * u, "linear",
                   (("start", a), ("end", b)))


def periodic_profile(mean, amplitude, cycles=1.0) -> Profile:
    m, a, c = float(mean), float(amplitude), float(cycles)
    return Profile(lambda u: m + a * np.sin(2.0 * np.pi * c * u), "periodic",
                   (("mean", m), ("amplitude", a), ("cycles", c)))


_PROFILE_KINDS = {
    "constant": constant_profile,
    "linear": linear_profile,
    "periodic": periodic_profile,
}


def profile_from_config(cfg: dict) -> Profile:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind not in _PROFILE_KINDS:
        known = ", ".join(sorted(_PROFILE_KINDS))
        raise ConfigurationError(f"unknown profile kind {kind!r}; catalog: {known}")
    try:
        return _PROFILE_KINDS[kind](**cfg)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for {kind!r} profile: {exc}")


# --------------------------------------------------------------------------
# medium parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumSpec:
    """Parameters of one random medium; validated on construction.

    Exactly one of ``gamma_profile`` (Gaussian-level decay) and ``h_profile``
    (limit regularity) is required; they are linked by
    gamma(u) * K = 2 - 2 h(u).
    """

    epsilon: float
    tau: float = 1.0
    depth: float = 1.0
    gamma_profile: Profile | None = None
    h_profile: Profile | None = None
    truncation: Truncation = field(default_factory=lambda: truncation("identity"))
    hermite: HermiteSpec | None = field(init=False, default=None)
    n_slabs: int | None = None
    seed: int | tuple = 0
    level_spacing: float = 0.01
    kind: str = "long_range"

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if self.tau <= 0 or self.depth <= 0:
            raise ConfigurationError("tau and depth must be positive")
        if not (math.isfinite(self.level_spacing) and self.level_spacing > 0):
            raise ConfigurationError("level_spacing must be finite and "
                                     f"positive, got {self.level_spacing!r}")
        if self.kind == "mixing":
            return
        if (self.gamma_profile is None) == (self.h_profile is None):
            raise ConfigurationError(
                "give exactly one of gamma_profile and h_profile")
        if self.truncation.name != "zero":
            object.__setattr__(self, "hermite", hermite_coeffs(self.truncation))
        k = self.rank
        u = np.linspace(0.0, 1.0, 257)
        g = self.gamma(u)
        if np.any(g <= 0.0) or np.any(g >= 1.0):
            raise ConfigurationError(
                "violated constraint: gamma(z) must lie in (0, 1) "
                f"(range found [{g.min():.3f}, {g.max():.3f}])")
        if np.any(g * k >= 1.0):
            raise ConfigurationError(
                f"violated constraint: gamma(z) * K < 1 needed for rank K={k} "
                f"(max gamma*K = {float(np.max(g * k)):.3f})")
        h = self.h(u)
        if np.any(h <= 0.5) or np.any(h >= 1.0):
            raise ConfigurationError(
                "violated constraint: h(z) = (2 - gamma(z) K)/2 must lie in "
                f"(1/2, 1) (range found [{h.min():.3f}, {h.max():.3f}])")

    @property
    def rank(self) -> int:
        return 1 if self.hermite is None else self.hermite.rank

    def gamma(self, u):
        """Gaussian-level decay exponent profile."""
        if self.gamma_profile is not None:
            return self.gamma_profile(u)
        return (2.0 - 2.0 * self.h_profile(u)) / self.rank

    def h(self, u):
        """Limit-regularity profile h(z) = (2 - gamma(z) K) / 2."""
        if self.h_profile is not None:
            return self.h_profile(u)
        return (2.0 - self.gamma_profile(u) * self.rank) / 2.0

    def field_index(self, u):
        """Index of the Gaussian field feeding the truncation,
        (h - 1)/K + 1 = (2 - gamma)/2."""
        return (2.0 - self.gamma(u)) / 2.0

    def resolved_slabs(self) -> int:
        if self.n_slabs is not None:
            n = int(self.n_slabs)
        else:
            n = int(math.ceil(self.depth / self.epsilon ** 2))
        if n < 1:
            raise ConfigurationError("need at least one slab")
        if n > MAX_SLABS:
            raise ConfigurationError(
                f"slab budget exceeded: {n} > {MAX_SLABS}; increase epsilon or "
                "lower the depth")
        dz = self.depth / n
        if dz > self.epsilon ** 2 * (1.0 + 1e-9):
            raise ConfigurationError(
                "slab width does not resolve the micro scale: "
                f"dz = {dz:.3e} > eps^2 = {self.epsilon ** 2:.3e}")
        return n


@dataclass(frozen=True)
class MediumRealization:
    """One sampled medium: slab values of nu_eps on [0, depth]."""

    z_grid: np.ndarray          # n + 1 nodes
    nu_eps: np.ndarray          # n slab (midpoint) values
    epsilon: float
    tau: float
    spec: MediumSpec | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_slabs(self) -> int:
        return self.nu_eps.size

    @property
    def dz(self) -> float:
        return float(self.z_grid[1] - self.z_grid[0])

    @property
    def z_mid(self) -> np.ndarray:
        return 0.5 * (self.z_grid[:-1] + self.z_grid[1:])

    @property
    def depth(self) -> float:
        return float(self.z_grid[-1])


def build_medium(spec: MediumSpec) -> MediumRealization:
    """Sample one realization of the medium described by ``spec``.

    The field is sampled at slab-midpoint micro depths (spacing of one micro
    unit), transformed pointwise, and scaled by eps^(2 h(z) - 2).
    Deterministic for a given seed.
    """
    n = spec.resolved_slabs()
    dz = spec.depth / n
    z_grid = dz * np.arange(n + 1)
    z_mid = dz * (np.arange(n) + 0.5)
    u = z_mid / spec.depth
    eps = spec.epsilon

    if spec.truncation.name == "zero":
        micro = np.zeros(n)
    else:
        zeta = z_mid / eps ** 2
        m, _ = sample_field_diagonal(spec.field_index(u), zeta, seed=spec.seed,
                                     level_spacing=spec.level_spacing)
        micro = spec.truncation(m)
    amplitude = eps ** (2.0 * spec.h(u) - 2.0)
    nu_eps = amplitude * micro
    if not np.all(np.isfinite(nu_eps)):
        raise ConfigurationError("medium contains non-finite fluctuations")
    return MediumRealization(z_grid=z_grid, nu_eps=nu_eps, epsilon=eps,
                             tau=spec.tau, spec=spec,
                             meta={"seed": spec.seed})


def white_medium(epsilon, seed=0, *, variance=1.0) -> MediumRealization:
    """Mixing (short-range) fixture on [0, 1]: i.i.d. slab noise scaled by
    1/eps (the MediumSpec defaults depth = tau = 1).

    The effective correlation parameter is sigma^2 = variance * micro_width/2
    (triangle covariance of piecewise-constant unit cells), stored in meta;
    the limiting transmitted pulse spreads by a Gaussian of variance
    sigma^2 * depth / 2.
    """
    spec = MediumSpec(epsilon=epsilon, seed=seed, kind="mixing")
    n = spec.resolved_slabs()
    dz = spec.depth / n
    rng = np.random.default_rng(seed)
    micro = math.sqrt(variance) * rng.standard_normal(n)
    nu_eps = micro / epsilon ** spec.tau
    z_grid = dz * np.arange(n + 1)
    micro_width = dz / epsilon ** 2
    return MediumRealization(z_grid=z_grid, nu_eps=nu_eps, epsilon=epsilon,
                             tau=spec.tau, spec=spec,
                             meta={"seed": seed, "kind": "mixing",
                                   "sigma_sq": variance * micro_width / 2.0})


# --------------------------------------------------------------------------
# the three driving processes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VTriple:
    """Cumulative integrals of nu_eps against {1, cos(2 w z/eps^tau),
    sin(2 w z/eps^tau)}; the first drives the limiting travel time."""

    v1: Trajectory
    v2: Trajectory
    v3: Trajectory


def v_triple(real: MediumRealization, omega) -> VTriple:
    """Midpoint (frozen-phase) cumulative quadrature of the three integrals.

    The phase increment per slab must satisfy omega * dz / eps^tau <= pi/8;
    beyond that the oscillation is under-resolved and a finer grid is needed.
    """
    omega = float(omega)
    dz = real.dz
    eps_tau = real.epsilon ** real.tau
    phase_step = abs(omega) * dz / eps_tau
    if phase_step > np.pi / 8.0 + 1e-12:
        raise PhaseResolutionError(
            f"omega * dz / eps^tau = {phase_step:.3f} exceeds pi/8; "
            "use a finer slab grid for this frequency")
    phases = 2.0 * omega * real.z_mid / eps_tau
    contributions = {
        "v1": real.nu_eps * dz,
        "v2": real.nu_eps * np.cos(phases) * dz,
        "v3": real.nu_eps * np.sin(phases) * dz,
    }
    out = {}
    for name, contrib in contributions.items():
        values = np.concatenate([[0.0], np.cumsum(contrib)])
        out[name] = Trajectory(real.z_grid, values)
    return VTriple(v1=out["v1"], v2=out["v2"], v3=out["v3"])


# --------------------------------------------------------------------------
# empirical checks of the covariance assumptions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class A2Report:
    status: str                  # pass | fail | inconclusive
    max_rel_dev: float | None
    rows: tuple                  # (anchor_u, lag, emp, se, target, rel_dev)
    delta: float
    lam: float
    n_samples: int


@dataclass(frozen=True)
class A3Report:
    status: str
    c_rho: float | None
    gamma_rho: float | None
    violations: int
    rows: tuple                  # (lag, |emp|, se)
    lam: float
    rho: float
    n_samples: int


def _ensemble_cov(reals, i_idx, j_idx):
    """Ensemble covariance estimates at paired slab indices.

    Returns per-realization means (the within-realization window samples are
    strongly correlated, so errors are clustered by realization).
    """
    per_real = np.array([
        np.mean(r.nu_eps[i_idx] * r.nu_eps[j_idx]) for r in reals])
    return float(per_real.mean()), float(per_real.std(ddof=1) / math.sqrt(len(reals)))


def _default_r_estimate(spec: MediumSpec):
    """Long-lag covariance scale of the medium at macro depths (z1, z2):
    (J(K)^2 / K!) * R(hf(z1), hf(z2))^K, with hf the field index.

    The K-th Hermite power applies to the whole field covariance, including
    its asymptotic constant.
    """
    if spec.hermite is None:
        return None
    k = spec.rank
    jk = spec.hermite.coeff(k)
    pref = jk ** 2 / math.factorial(k)

    def estimate(u1, u2):
        h1 = float(spec.field_index(np.asarray(u1)))
        h2 = float(spec.field_index(np.asarray(u2)))
        return pref * asymptotic_covariance_scale(h1, h2) ** k
    return estimate


def check_a2(reals, *, delta=0.3) -> A2Report:
    """Compare ensemble covariances against the power-law form
    R(z1, z2) |z1 - z2|^(-gamma(z1, z2)) at moderate lags.

    Pairs are restricted to |z1 - z2| > eps^_LAM * _A2_Z_DELTA, at up to six
    doubling lags up to an eighth of the depth.  Constant-profile media are
    pooled over all depths; varying profiles restrict pairs to windows
    around u = 0.25, 0.5 and 0.75.  Passes when every admissible pair
    deviates from its target by at most delta (relative) beyond Monte Carlo
    error bars; products of long-memory fields are extremely noisy, so large
    ensembles are needed for a conclusive verdict.
    """
    if len(reals) < 2:
        raise DomainError("need an ensemble of realizations")
    ref = reals[0]
    spec = ref.spec
    n = ref.n_slabs
    dz = ref.dz
    eps = ref.epsilon
    long_range = spec is not None and spec.kind == "long_range"
    r_estimate = _default_r_estimate(spec) if long_range else None
    if r_estimate is None or len(reals) < _A2_MIN_ENSEMBLE:
        return A2Report("inconclusive", None, (), delta, _LAM, 0)

    min_lag = max(1, int(math.ceil(eps ** _LAM * _A2_Z_DELTA / dz)))
    lags = []
    lag = max(min_lag, 2)
    while lag <= n // 8 and len(lags) < 6:
        lags.append(lag)
        lag *= 2
    if not lags:
        return A2Report("inconclusive", None, (), delta, _LAM, 0)

    varying = np.ptp(spec.h(np.linspace(0.0, 1.0, 33))) > 1e-9
    anchors = (0.25, 0.5, 0.75) if varying else ("all",)

    rows = []
    n_samples = 0
    for a in anchors:
        for lag in lags:
            if a == "all":
                i_idx = np.arange(0, n - lag)
            else:
                half = max(2, int(_A2_WINDOW_FRACTION * n / 2))
                center = int(float(a) * n)
                i0 = max(0, center - half)
                i1 = min(n - lag - 1, center + half)
                if i1 <= i0:
                    continue
                i_idx = np.arange(i0, i1)
            j_idx = i_idx + lag
            emp, se = _ensemble_cov(reals, i_idx, j_idx)
            u1 = (i_idx.mean() + 0.5) * dz / ref.depth
            u2 = (j_idx.mean() + 0.5) * dz / ref.depth
            target = r_estimate(u1, u2) * (lag * dz) ** -(
                2.0 - float(spec.h(np.asarray(u1))) - float(spec.h(np.asarray(u2))))
            rel = abs(emp - target) / abs(target) if target else np.inf
            rows.append((a if a == "all" else float(a), lag, emp, se,
                         float(target), float(rel)))
            n_samples += i_idx.size * len(reals)
    if not rows or n_samples < _MIN_PAIR_SAMPLES:
        return A2Report("inconclusive", None, tuple(rows), delta, _LAM,
                        n_samples)

    targets = np.array([r[4] for r in rows])
    emps = np.array([r[2] for r in rows])
    ses = np.array([r[3] for r in rows])
    if np.all(np.abs(targets) < 1e-30):
        return A2Report("inconclusive", None, tuple(rows), delta, _LAM,
                        n_samples)
    # error bars too wide to discriminate the law from a flat covariance
    if np.any(3.0 * ses > 0.7 * np.abs(targets)):
        return A2Report("inconclusive", None, tuple(rows), delta, _LAM,
                        n_samples)
    max_rel = float(np.max(np.abs(emps - targets) / np.abs(targets)))
    ok = np.all(np.abs(emps - targets) <= delta * np.abs(targets) + 3.0 * ses)
    return A2Report("pass" if ok else "fail", max_rel, tuple(rows), delta, _LAM,
                    n_samples)


def check_a3(reals, *, rho=8.0) -> A3Report:
    """Fit |cov| <= C * |z1 - z2|^(-gamma) on micro-scale pairs
    (|z1 - z2| < eps^_LAM * rho) and flag non-integrable short-lag growth.

    A fitted exponent >= 1 fails (the covariance spike would not be
    integrable); otherwise violations of the fitted bound are counted.
    """
    if len(reals) < 2:
        raise DomainError("need an ensemble of realizations")
    ref = reals[0]
    n = ref.n_slabs
    dz = ref.dz
    eps = ref.epsilon
    max_lag = int(math.floor(eps ** _LAM * rho / dz))
    lags = [l for l in range(1, max_lag + 1) if l < n]
    if len(lags) < 2:
        return A3Report("inconclusive", None, None, 0, (), _LAM, rho, 0)

    rows = []
    n_samples = 0
    for lag in lags:
        i_idx = np.arange(0, n - lag)
        emp, se = _ensemble_cov(reals, i_idx, i_idx + lag)
        rows.append((lag, abs(emp), se))
        n_samples += i_idx.size * len(reals)
    if n_samples < _MIN_PAIR_SAMPLES:
        return A3Report("inconclusive", None, None, 0, tuple(rows), _LAM, rho,
                        n_samples)

    emp = np.array([r[1] for r in rows])
    ses = np.array([r[2] for r in rows])
    mask = emp > np.maximum(5.0 * ses, 1e-300)
    if mask.sum() < 2:
        return A3Report("inconclusive", None, None, 0, tuple(rows), _LAM, rho,
                        n_samples)
    dist = np.array([r[0] * dz for r in rows])
    slope, intercept = np.polyfit(np.log(dist[mask]), np.log(emp[mask]), 1)
    gamma_rho = -float(slope)
    c_rho = float(np.exp(intercept))
    # count only gross departures from the fitted law: least-squares scatter
    # always places points above the central line
    bound = c_rho * dist ** (-gamma_rho)
    violations = int(np.sum(emp > _A3_SLACK * bound + _A3_SLACK * ses))
    status = "fail" if gamma_rho >= 1.0 or violations else "pass"
    return A3Report(status, c_rho, gamma_rho, violations, tuple(rows), _LAM,
                    rho, n_samples)
