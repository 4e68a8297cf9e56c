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
n micro correlation lengths.  The model slab covariance of a spec is in
closed form (`slab_covariance`); the paper's assumptions A2 (power law at
moderate lags) and A3 (integrable short lags) are checked on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .gaussian_field import (Trajectory, asymptotic_covariance_scale,
                             increment_field_covariance, sample_field_diagonal)
from .hermite import (HermiteSpec, Truncation, composed_covariance,
                      hermite_coeffs, truncation)

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
    "slab_covariance",
    "check_a2",
    "check_a3",
    "A2Report",
    "A3Report",
]

MAX_SLABS = 1 << 22

# assumption checks: pair lags are measured against eps^_LAM; A2 keeps lags
# beyond _A2_Z_DELTA of it and A3 those up to _A3_RHO of it; A3 flags points
# above _A3_SLACK x its fit
_LAM, _A2_Z_DELTA, _A3_RHO, _A3_SLACK = 2.0, 4.0, 8.0, 3.0


# --------------------------------------------------------------------------
# depth profiles (functions of normalized depth u = z / Z in [0, 1])
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    fn: Callable[[np.ndarray], np.ndarray]
    name: str

    def __call__(self, u):
        return np.asarray(self.fn(np.asarray(u, dtype=float)), dtype=float)


def constant_profile(value) -> Profile:
    v = float(value)
    return Profile(lambda u: np.full_like(u, v), "constant")


def linear_profile(start, end) -> Profile:
    a, b = float(start), float(end)
    return Profile(lambda u: a + (b - a) * u, "linear")


def periodic_profile(mean, amplitude, cycles=1.0) -> Profile:
    m, a, c = float(mean), float(amplitude), float(cycles)
    return Profile(lambda u: m + a * np.sin(2.0 * np.pi * c * u), "periodic")


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

    def __post_init__(self):
        if self.tau <= 0 or self.depth <= 0:
            raise ConfigurationError("tau and depth must be positive")
        self.resolved_slabs()       # epsilon, slab budget and micro scale
        if (self.gamma_profile is None) == (self.h_profile is None):
            raise ConfigurationError(
                "give exactly one of gamma_profile and h_profile")
        if self.truncation.name != "zero":
            object.__setattr__(self, "hermite", hermite_coeffs(self.truncation))
        # gamma = (2 - 2h)/K with K >= 1: h in (1/2, 1) is gamma * K in
        # (0, 1), which implies gamma in (0, 1)
        h = self.h(np.linspace(0.0, 1.0, 257))
        if not np.all((h > 0.5) & (h < 1.0)):
            raise ConfigurationError(
                "violated constraint: gamma(z) * K must lie in (0, 1) for rank "
                f"K={self.rank}, i.e. h(z) in (1/2, 1) (h range found "
                f"[{h.min():.3f}, {h.max():.3f}])")

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
        return _slab_count(self.epsilon, self.depth, self.n_slabs)


def _check_epsilon(epsilon):
    if not (0 < epsilon < 1):
        raise ConfigurationError("epsilon must lie in (0, 1)")


def _slab_count(epsilon, depth, n_slabs=None) -> int:
    """Slabs of a medium on [0, depth]: ``n_slabs``, or by default the
    fewest whose width resolves the micro scale eps^2."""
    _check_epsilon(epsilon)
    if n_slabs is not None:
        n = int(n_slabs)
    else:
        n = int(math.ceil(depth / epsilon ** 2))
    if n < 1:
        raise ConfigurationError("need at least one slab")
    if n > MAX_SLABS:
        raise ConfigurationError(
            f"slab budget exceeded: {n} > {MAX_SLABS}; increase epsilon or "
            "lower the depth")
    dz = depth / n
    if dz > epsilon ** 2 * (1.0 + 1e-9):
        raise ConfigurationError(
            "slab width does not resolve the micro scale: "
            f"dz = {dz:.3e} > eps^2 = {epsilon ** 2:.3e}")
    return n


@dataclass(frozen=True)
class MediumRealization:
    """One sampled medium: slab values of nu_eps on [0, depth]."""

    z_grid: np.ndarray          # n + 1 nodes
    nu_eps: np.ndarray          # n slab (midpoint) values
    epsilon: float
    tau: float
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
        m, _ = sample_field_diagonal(spec.field_index(u), zeta, seed=spec.seed)
        micro = spec.truncation(m)
    amplitude = eps ** (2.0 * spec.h(u) - 2.0)
    nu_eps = amplitude * micro
    if not np.all(np.isfinite(nu_eps)):
        raise ConfigurationError("medium contains non-finite fluctuations")
    return MediumRealization(z_grid=z_grid, nu_eps=nu_eps, epsilon=eps,
                             tau=spec.tau)


def white_medium(epsilon, seed=0, *, variance=1.0) -> MediumRealization:
    """Mixing (short-range) fixture on [0, 1] with tau = 1: i.i.d. slab
    noise scaled by 1/eps, on the slabs a MediumSpec of that epsilon gets.

    The effective correlation parameter is sigma^2 = variance * micro_width/2
    (triangle covariance of piecewise-constant unit cells), stored in meta;
    the limiting transmitted pulse spreads by a Gaussian of variance
    sigma^2 * depth / 2.
    """
    n = _slab_count(epsilon, 1.0)
    dz = 1.0 / n
    rng = np.random.default_rng(seed)
    micro = math.sqrt(variance) * rng.standard_normal(n)
    nu_eps = micro / epsilon
    z_grid = dz * np.arange(n + 1)
    micro_width = dz / epsilon ** 2
    return MediumRealization(z_grid=z_grid, nu_eps=nu_eps, epsilon=epsilon,
                             tau=1.0,
                             meta={"sigma_sq": variance * micro_width / 2.0})


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
    """Cumulative integrals, exact per slab at every frequency.

    nu_eps is constant on a slab, so the slab integral of nu cos(phi) with
    phi = 2 omega z / eps^tau is nu dz cos(phi_mid) sinc(omega dz / eps^tau)
    (sin likewise), sinc(x) = sin(x)/x.
    """
    omega = float(omega)
    dz = real.dz
    eps_tau = real.epsilon ** real.tau
    phases = 2.0 * omega * real.z_mid / eps_tau
    weight = dz * np.sinc(omega * dz / (np.pi * eps_tau))
    contributions = {
        "v1": real.nu_eps * dz,
        "v2": real.nu_eps * np.cos(phases) * weight,
        "v3": real.nu_eps * np.sin(phases) * weight,
    }
    out = {}
    for name, contrib in contributions.items():
        values = np.concatenate([[0.0], np.cumsum(contrib)])
        out[name] = Trajectory(real.z_grid, values)
    return VTriple(v1=out["v1"], v2=out["v2"], v3=out["v3"])


# --------------------------------------------------------------------------
# the covariance assumptions on the model slab covariance
# --------------------------------------------------------------------------

def slab_covariance(spec: MediumSpec, i, j):
    """Model (closed-form) Cov(nu_eps[i], nu_eps[j]) of the slabs of ``spec``:

        eps^(2 h_i + 2 h_j - 4) * composed_covariance(hermite, r_ij),

    with r_ij = increment_field_covariance(zeta_i, zeta_j, hf_i, hf_j) the
    field covariance at the micro depths zeta = z_mid / eps^2 of the slab
    midpoints, and hf the field index.  Broadcasts over slab indices; the
    zero truncation gives zeros.  Not the covariance of `build_medium`'s
    samples, which go through a discretized spectral grid.
    """
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    if spec.hermite is None:
        return np.zeros(i.shape)
    dz = spec.depth / spec.resolved_slabs()
    z_i, z_j = dz * (i + 0.5), dz * (j + 0.5)
    u_i, u_j = z_i / spec.depth, z_j / spec.depth
    eps = spec.epsilon
    hf_i, hf_j = spec.field_index(u_i), spec.field_index(u_j)
    r = increment_field_covariance(z_i / eps ** 2, z_j / eps ** 2, hf_i, hf_j)
    amplitude = eps ** (2.0 * spec.h(u_i) + 2.0 * spec.h(u_j) - 4.0)
    return amplitude * composed_covariance(spec.hermite, r)


@dataclass(frozen=True)
class A2Report:
    status: str                  # pass | fail
    max_rel_dev: float
    rows: tuple                  # (anchor_u, lag, exact, target, rel_dev)


@dataclass(frozen=True)
class A3Report:
    status: str
    c_rho: float
    gamma_rho: float
    violations: int
    rows: tuple                  # (lag, |exact|)


def _checked_grid(spec: MediumSpec):
    """(n, dz) of a spec whose slab covariance the checks can read."""
    if spec.hermite is None:
        raise DomainError("no long-range covariance to check: zero "
                          "truncation")
    n = spec.resolved_slabs()
    return n, spec.depth / n


def check_a2(spec: MediumSpec, *, delta=0.3) -> A2Report:
    """Compare the model slab covariance with the power-law form
    (J(K)^2 / K!) R(hf1, hf2)^K |z1 - z2|^(-(2 - h1 - h2)) at moderate lags.

    Lags start beyond eps^_LAM * _A2_Z_DELTA and double up to an eighth of
    the slabs, at most six of them.  A constant profile has one "all" row
    per lag (its covariance depends on the lag only); a varying profile has
    rows at u = 0.25, 0.5 and 0.75, each from the slab pair centred there.
    Passes when every row deviates from its target by at most delta
    (relative).
    """
    n, dz = _checked_grid(spec)
    first = max(2, int(math.ceil(spec.epsilon ** _LAM * _A2_Z_DELTA / dz)))
    lags = [first << m for m in range(6) if first << m <= n // 8]
    if not lags:
        raise DomainError(f"no A2 lag on {n} slabs: the first lag {first} "
                          f"exceeds n/8 = {n // 8}")
    varying = np.ptp(spec.h(np.linspace(0.0, 1.0, 33))) > 1e-9
    u, lag = (g.ravel() for g in np.meshgrid(
        [0.25, 0.5, 0.75] if varying else [0.5], lags, indexing="ij"))
    i = (u * n - lag / 2).astype(int)        # the pair centred on u
    j = i + lag
    exact = slab_covariance(spec, i, j)
    u1, u2 = (i + 0.5) * dz / spec.depth, (j + 0.5) * dz / spec.depth
    k = spec.rank
    r_scale = asymptotic_covariance_scale(spec.field_index(u1),
                                          spec.field_index(u2))
    target = (spec.hermite.coeff(k) ** 2 / math.factorial(k) * r_scale ** k
              * (lag * dz) ** -(2.0 - spec.h(u1) - spec.h(u2)))
    rel = np.abs(exact - target) / np.abs(target)
    anchors = u.tolist() if varying else ["all"] * u.size
    rows = tuple(zip(anchors, lag.tolist(), exact.tolist(), target.tolist(),
                     rel.tolist()))
    max_rel = float(rel.max())
    return A2Report("pass" if max_rel <= delta else "fail", max_rel, rows)


def check_a3(spec: MediumSpec) -> A3Report:
    """Fit |cov| <= C * |z1 - z2|^(-gamma) to the model slab covariance at
    micro-scale lags (|z1 - z2| <= eps^_LAM * _A3_RHO), on pairs centred on
    mid-depth, and flag non-integrable short-lag growth.

    A fitted exponent >= 1 fails, and so does a point above _A3_SLACK times
    the fit.  The fit reads the pre-asymptotic decay, steeper than gamma*K:
    valid specs fail from gamma*K = 0.895 on (K = 1; gamma_rho 1.002 there).
    """
    n, dz = _checked_grid(spec)
    max_lag = min(int(math.floor(spec.epsilon ** _LAM * _A3_RHO / dz)),
                  n - 1)
    if max_lag < 2:
        raise DomainError(f"fewer than two A3 lags on {n} slabs")
    lags = np.arange(1, max_lag + 1)
    i = (n - lags) // 2                      # pairs centred on mid-depth
    exact = np.abs(slab_covariance(spec, i, i + lags))
    dist = lags * dz
    slope, intercept = np.polyfit(np.log(dist), np.log(exact), 1)
    gamma_rho = -float(slope)
    c_rho = float(np.exp(intercept))
    # count only gross departures from the fitted law: least-squares scatter
    # always places points above the central line
    violations = int(np.sum(exact > _A3_SLACK * c_rho * dist ** (-gamma_rho)))
    status = "fail" if gamma_rho >= 1.0 or violations else "pass"
    rows = tuple(zip(lags.tolist(), exact.tolist()))
    return A3Report(status, c_rho, gamma_rho, violations, rows)
