import math

import numpy as np
import pytest
from dataclasses import replace
from scipy.stats import kstest

from lrwave import (ConfigurationError, DomainError, MediumSpec,
                    build_media, build_medium, check_a2, check_a3,
                    constant_profile, fgn_covariance, linear_profile,
                    periodic_profile, profile_from_config, truncation,
                    v_triple, white_medium)
from lrwave.medium import MAX_SLABS, slab_covariance


def lr_spec(eps=0.1, gamma=0.8, seed=0, **kw):
    return MediumSpec(epsilon=eps, gamma_profile=constant_profile(gamma),
                      seed=seed, **kw)


@pytest.fixture(scope="session")
def gaussian_lr_ensemble():
    """Shared constant-decay Gaussian medium ensemble (gamma=0.8, K=1).

    Large because covariance products of long-memory fields need thousands
    of realizations for conclusive assumption checks.
    """
    return build_media(MediumSpec(epsilon=0.1,
                                  gamma_profile=constant_profile(0.8)),
                       [(1700, i) for i in range(3000)])


def _realized_cov(reals, lag):
    """Ensemble covariance of slab pairs at ``lag``, pooled over depth, with
    its standard error: the within-realization products are strongly
    correlated, so errors are clustered by realization."""
    per_real = np.array([np.mean(r.nu_eps[:-lag] * r.nu_eps[lag:])
                         for r in reals])
    return per_real.mean(), per_real.std(ddof=1) / math.sqrt(len(reals))


class TestProfiles:
    def test_catalog(self):
        u = np.linspace(0, 1, 5)
        assert np.allclose(constant_profile(0.7)(u), 0.7)
        assert np.allclose(linear_profile(0.5, 1.0)(u), 0.5 + 0.5 * u)
        p = periodic_profile(0.7, 0.15, cycles=2.0)
        assert p(np.array(0.125)) == pytest.approx(0.85)

    def test_from_config(self):
        p = profile_from_config({"kind": "linear", "start": 0.55, "end": 0.85})
        assert p(np.array(1.0)) == pytest.approx(0.85)
        with pytest.raises(ConfigurationError, match="unknown profile"):
            profile_from_config({"kind": "spline"})
        with pytest.raises(ConfigurationError, match="bad parameters"):
            profile_from_config({"kind": "linear", "slope": 1.0})


class TestMediumSpec:
    def test_consistency_derivations(self):
        spec = lr_spec(gamma=0.8)
        assert spec.h(np.array(0.3)) == pytest.approx(0.6)
        assert spec.field_index(np.array(0.3)) == pytest.approx(0.6)
        spec2 = MediumSpec(epsilon=0.05, gamma_profile=constant_profile(0.3),
                           truncation=truncation("square_center"))
        assert spec2.rank == 2
        assert spec2.h(np.array(0.5)) == pytest.approx(0.7)     # (2 - 0.6)/2
        assert spec2.field_index(np.array(0.5)) == pytest.approx(0.85)

    def test_hermite_follows_replaced_truncation(self):
        spec = replace(lr_spec(gamma=0.3),
                       truncation=truncation("square_center"))
        assert spec.rank == 2
        assert spec.h(np.array(0.0)) == pytest.approx(0.7)

    def test_h_profile_roundtrip(self):
        spec = MediumSpec(epsilon=0.1, h_profile=constant_profile(0.6))
        assert spec.gamma(np.array(0.5)) == pytest.approx(0.8)

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            build_medium(lr_spec(gamma=1.2))

    def test_rank_constraint(self):
        with pytest.raises(ConfigurationError, match="K"):
            MediumSpec(epsilon=0.1, gamma_profile=constant_profile(0.8),
                       truncation=truncation("square_center"))

    def test_both_profiles_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            MediumSpec(epsilon=0.1, gamma_profile=constant_profile(0.8),
                       h_profile=constant_profile(0.6))

    def test_slab_budget(self):
        with pytest.raises(ConfigurationError, match="budget"):
            lr_spec(eps=1e-4).resolved_slabs()
        assert lr_spec(eps=0.1).resolved_slabs() == 100
        assert MAX_SLABS == 1 << 22

    def test_underresolved_slabs(self):
        with pytest.raises(ConfigurationError, match="micro"):
            lr_spec(n_slabs=10).resolved_slabs()


class TestBuildMedium:
    def test_gaussian_reduction_covariance(self, gaussian_lr_ensemble):
        """K=1, T=identity: the realized covariance approaches the A2 target
        J(1)^2 R(H,H) |dz|^(2H-2) at moderate lags, and the model slab
        covariance at the short A3 lags.  The only comparison of realized
        media with `slab_covariance`, for a constant profile."""
        spec = lr_spec(gamma=0.8)
        for anchor, lag, _, target, _ in check_a2(spec).rows:
            assert anchor == "all"
            emp, se = _realized_cov(gaussian_lr_ensemble, lag)
            assert abs(emp - target) < 0.3 * abs(target)
            assert 3.0 * se <= 0.7 * abs(target)
        rows = check_a3(spec).rows
        assert [lag for lag, _ in rows] == list(range(1, 9))
        for lag, exact in rows:
            emp, se = _realized_cov(gaussian_lr_ensemble[:1500], lag)
            assert abs(emp - exact) <= 0.3 * abs(exact) + 3.0 * se


class TestBuildMedia:
    """One spec, several seeds: each medium is the one-seed build's, bit
    for bit."""

    SPECS = {
        "constant": dict(h_profile=constant_profile(0.7)),
        "linear": dict(h_profile=linear_profile(0.6, 0.85),
                       truncation=truncation("square_center")),
        "zero": dict(h_profile=constant_profile(0.7),
                     truncation=truncation("zero")),
    }

    @pytest.mark.parametrize("eps", [0.05, 0.04, 0.03, 0.025])
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_matches_per_seed_builds(self, eps, kind):
        from lrwave import gaussian_field as gf

        spec = MediumSpec(epsilon=eps, seed=99, **self.SPECS[kind])
        seeds = [(31, i) for i in range(3)] + [7]
        media = build_media(spec, seeds)
        assert len(media) == len(seeds)
        for seed, real in zip(seeds, media):
            one = build_medium(replace(spec, seed=seed))
            assert real.nu_eps.tobytes() == one.nu_eps.tobytes()
            assert real.z_grid.tobytes() == one.z_grid.tobytes()
            assert (real.epsilon, real.tau) == (one.epsilon, one.tau)
        if kind != "zero":
            # more seeds than one chunk of the fold's work arrays holds
            n = spec.resolved_slabs()
            dz = spec.depth / n
            grid = gf.FrequencyGridSpec.for_grid(
                dz * (np.arange(n) + 0.5) / eps ** 2)
            nodes = grid.n_fine + grid.n_uniform
            assert gf._FOLD_NODES // nodes < len(seeds)

    def test_empty_and_repeated_seeds(self):
        spec = lr_spec(eps=0.1)
        assert build_media(spec, []) == []
        a, b = build_media(spec, [3, 3])
        assert a.nu_eps.tobytes() == b.nu_eps.tobytes()
        assert not np.shares_memory(a.nu_eps, b.nu_eps)


class TestVTriple:
    def test_constant_medium_v1(self):
        r = build_medium(lr_spec(seed=1))
        const = replace(r, nu_eps=np.full(r.n_slabs, 2.0))
        vt = v_triple(const, 0.0)
        assert vt.v1.values[0] == 0.0
        assert vt.v1.values[-1] == pytest.approx(2.0 * r.z_grid[-1],
                                                 rel=1e-12)
        assert np.allclose(vt.v2.values, vt.v1.values)
        assert np.all(vt.v3.values == 0.0)

    @pytest.mark.parametrize("omega", [-3.0, 2.0, 50.0, 400.0])
    def test_slab_integrals_exact(self, omega):
        """v2 and v3 are the exact slab sums of nu against cos and sin of
        phi = 2 omega z / eps^tau, far beyond pi/8 of phase per slab."""
        r = build_medium(lr_spec(seed=1))
        scale = r.epsilon ** r.tau / (2.0 * omega)
        phi = 2.0 * omega * r.z_grid / r.epsilon ** r.tau
        v2 = np.cumsum(r.nu_eps * scale * (np.sin(phi[1:]) - np.sin(phi[:-1])))
        v3 = np.cumsum(r.nu_eps * scale * (np.cos(phi[:-1]) - np.cos(phi[1:])))
        vt = v_triple(r, omega)
        tol = 1e-12 * np.sum(np.abs(r.nu_eps)) * r.dz
        assert vt.v2.values[0] == 0.0 and vt.v3.values[0] == 0.0
        assert np.max(np.abs(vt.v2.values[1:] - v2)) < tol
        assert np.max(np.abs(vt.v3.values[1:] - v3)) < tol

    def test_oscillatory_parts_vanish(self):
        """Var v2(Z), Var v3(Z) decrease as eps does (fixed frequency)."""
        variances = []
        for eps in (0.1, 0.05, 0.025):
            v2s, v3s = [], []
            for i in range(60):
                r = build_medium(lr_spec(eps=eps, seed=(800, i)))
                vt = v_triple(r, 2.0)
                v2s.append(vt.v2.values[-1])
                v3s.append(vt.v3.values[-1])
            variances.append((np.var(v2s), np.var(v3s)))
        v2_vars = [v[0] for v in variances]
        v3_vars = [v[1] for v in variances]
        assert v2_vars[0] > v2_vars[2]
        assert v3_vars[0] > v3_vars[2]


class TestAssumptionChecks:
    def test_slab_covariance_rank_one_is_fgn(self):
        """K=1, constant gamma, 1/eps^2 an integer: eps^(4h-4) rho_H(lag)."""
        lags = np.arange(100)
        exact = slab_covariance(lr_spec(gamma=0.8), 0, lags)
        closed = 0.1 ** (4 * 0.6 - 4) * fgn_covariance(0.6, lags)
        assert np.max(np.abs(exact / closed - 1.0)) < 1e-10

    def test_slab_covariance_square_center(self):
        """J(2)^2 / 2! = 2: the rank-2 covariance is eps^(4h-4) 2 r^2."""
        spec = lr_spec(eps=0.05, gamma=0.3,
                       truncation=truncation("square_center"))
        j = np.arange(100)
        exact = slab_covariance(spec, 7, j)
        r = fgn_covariance(0.85, abs(j - 7))
        closed = 0.05 ** (4 * 0.7 - 4) * 2 * r ** 2
        assert np.max(np.abs(exact / closed - 1.0)) < 1e-10

    def test_slab_covariance_symmetric_and_zero(self):
        spec = MediumSpec(epsilon=0.05, h_profile=linear_profile(0.6, 0.85),
                          truncation=truncation("square_center"))
        i, j = np.meshgrid(np.arange(0, 400, 37), np.arange(3, 400, 41))
        assert np.array_equal(slab_covariance(spec, i, j),
                              slab_covariance(spec, j, i))
        zero = lr_spec(truncation=truncation("zero"))
        assert np.all(slab_covariance(zero, i, j) == 0.0)

    def test_a2_varying_profile_anchors(self):
        spec = MediumSpec(epsilon=0.05, h_profile=linear_profile(0.6, 0.85),
                          truncation=truncation("square_center"))
        report = check_a2(spec)
        assert report.status == "pass"
        assert {row[0] for row in report.rows} == {0.25, 0.5, 0.75}

    def test_a2_tight_delta_fails(self):
        assert check_a2(lr_spec(), delta=1e-4).status == "fail"

    def test_a3_steep_short_lags_fail(self):
        """The fit over micro lags 1-8 reads the pre-asymptotic decay, which
        is steeper than gamma K: this valid spec fits an exponent >= 1."""
        report = check_a3(lr_spec(gamma=0.98))
        assert report.status == "fail"
        assert report.gamma_rho >= 1.0

    @pytest.mark.parametrize("check", [check_a2, check_a3],
                             ids=["check_a2", "check_a3"])
    def test_zero_truncation_raises(self, check):
        with pytest.raises(DomainError, match="zero truncation"):
            check(lr_spec(truncation=truncation("zero")))

    def test_grid_without_lags_raises(self):
        with pytest.raises(DomainError, match="no A2 lag"):
            check_a2(lr_spec(eps=0.2))
        with pytest.raises(DomainError, match="fewer than two A3 lags"):
            check_a3(lr_spec(eps=0.8))


class TestLimitMatching:
    def test_v1_law_approaches_gaussian_limit(self):
        """K=1: standardized v1(Z) looks increasingly Gaussian as eps drops."""
        stats = []
        for eps, m in ((0.1, 100), (0.05, 100), (0.025, 100)):
            v1 = np.array([
                v_triple(build_medium(lr_spec(eps=eps, seed=(950, i))), 0.0)
                .v1.values[-1] for i in range(m)])
            std = (v1 - v1.mean()) / v1.std(ddof=1)
            stats.append(kstest(std, "norm").statistic)
        assert stats[0] >= stats[-1]

    def test_travel_time_hurst_small(self):
        """Quick version of the Hurst law H = (2 - gamma K)/2 (K=1)."""
        from lrwave import hurst_estimate
        ests = []
        for i in range(24):
            r = build_medium(lr_spec(eps=1 / 48, seed=(960, i)))
            ests.append(hurst_estimate(v_triple(r, 0.0).v1, n_boot=0).value)
        assert abs(np.mean(ests) - 0.6) < 0.05


class TestMixingFixture:
    def test_white_medium_meta(self):
        r = white_medium(0.1, seed=3, variance=1.0)
        assert r.meta["sigma_sq"] == pytest.approx(0.5)
        assert r.n_slabs == 100

    @pytest.mark.parametrize("eps, match", [
        (0.0, "epsilon"), (1.5, "epsilon"), (1e-4, "budget")])
    def test_white_medium_rejects_epsilon(self, eps, match):
        with pytest.raises(ConfigurationError, match=match):
            white_medium(eps)
