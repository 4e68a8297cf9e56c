import numpy as np
import pytest
from dataclasses import replace
from scipy.stats import kstest

from lrwave import (ConfigurationError, MediumSpec, PhaseResolutionError,
                    build_medium, check_a2, check_a3, constant_profile,
                    linear_profile, periodic_profile, profile_from_config,
                    truncation, v_triple, white_medium)
from lrwave.medium import MAX_SLABS


def lr_spec(eps=0.1, gamma=0.8, seed=0, **kw):
    return MediumSpec(epsilon=eps, gamma_profile=constant_profile(gamma),
                      seed=seed, **kw)


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

    @pytest.mark.parametrize("spacing", [0.0, float("nan"), -0.01])
    def test_level_spacing_finite_positive(self, spacing):
        with pytest.raises(ConfigurationError, match="level_spacing"):
            MediumSpec(epsilon=0.1, h_profile=linear_profile(0.6, 0.8),
                       level_spacing=spacing)


class TestBuildMedium:
    def test_gaussian_reduction_covariance(self, gaussian_lr_ensemble):
        """K=1, T=identity: ensemble covariance approaches
        J(1)^2 R(H,H) |dz|^(2H-2) at moderate lags."""
        report = check_a2(gaussian_lr_ensemble, delta=0.3)
        assert report.status == "pass"
        assert report.max_rel_dev < 0.3


class TestVTriple:
    def test_constant_medium_v1(self):
        r = build_medium(lr_spec(seed=1))
        const = replace(r, nu_eps=np.full(r.n_slabs, 2.0))
        vt = v_triple(const, 0.0)
        assert vt.v1.values[0] == 0.0
        assert vt.v1.values[-1] == pytest.approx(2.0 * r.depth, rel=1e-12)
        assert np.allclose(vt.v2.values, vt.v1.values)
        assert np.all(vt.v3.values == 0.0)

    def test_phase_guard(self):
        r = build_medium(lr_spec(seed=1))
        with pytest.raises(PhaseResolutionError):
            v_triple(r, 50.0)

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
    def test_a2_pass(self, gaussian_lr_ensemble):
        assert check_a2(gaussian_lr_ensemble).status == "pass"

    def test_a2_shuffled_fails(self, gaussian_lr_ensemble):
        shuffled = [replace(r, nu_eps=r.nu_eps[
                        np.random.default_rng(i).permutation(r.n_slabs)])
                    for i, r in enumerate(gaussian_lr_ensemble)]
        assert check_a2(shuffled).status == "fail"

    def test_a2_zero_inconclusive(self):
        zeros = [build_medium(lr_spec(truncation=truncation("zero"),
                                      seed=(900, i))) for i in range(120)]
        assert check_a2(zeros).status == "inconclusive"

    def test_a2_small_ensemble_inconclusive(self, gaussian_lr_ensemble):
        assert check_a2(gaussian_lr_ensemble[:50]).status == "inconclusive"

    def test_a3_pass(self, gaussian_lr_ensemble):
        report = check_a3(gaussian_lr_ensemble[:1500])
        assert report.status == "pass"
        assert 0.0 < report.gamma_rho < 1.0
        assert report.violations == 0

    def test_a3_zero_inconclusive(self):
        zeros = [build_medium(lr_spec(truncation=truncation("zero"),
                                      seed=(901, i))) for i in range(120)]
        assert check_a3(zeros).status == "inconclusive"

    def test_a3_nonintegrable_spike_fails(self):
        n, m = 64, 400
        lagmat = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        cov = 25.0 * (lagmat + 1.0) ** -1.5
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(n))
        base = build_medium(lr_spec(eps=0.25, n_slabs=n, seed=0))
        rng = np.random.default_rng(5)
        reals = [replace(base, nu_eps=chol @ rng.standard_normal(n))
                 for _ in range(m)]
        report = check_a3(reals, rho=8.0)
        assert report.status == "fail"
        assert report.gamma_rho >= 1.0


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
        assert r.meta["kind"] == "mixing"
        assert r.meta["sigma_sq"] == pytest.approx(0.5)
        assert r.n_slabs == 100
