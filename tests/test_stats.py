import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (DomainError, Trajectory, dyadic_p_variation,
                    hurst_estimate, local_hurst, mc_aggregate, simulate_sh,
                    synthesize_fgn)


def fbm_traj(h, n, seed):
    y = synthesize_fgn(h, n, seed).values
    return Trajectory(np.arange(n, dtype=float) / n, np.cumsum(y))


class TestHurstEstimate:
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_fbm_recovery(self, h):
        ests = [hurst_estimate(fbm_traj(h, 1 << 16, seed=(71, int(100 * h), i)),
                               n_boot=0).value for i in range(12)]
        assert abs(np.mean(ests) - h) < 0.05

    def test_brownian_half(self):
        ests = [hurst_estimate(fbm_traj(0.5, 1 << 15, seed=(72, i)),
                               n_boot=0).value for i in range(12)]
        assert abs(np.mean(ests) - 0.5) < 0.05

    @given(st.floats(min_value=0.1, max_value=50),
           st.floats(min_value=-10, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_affine_invariance(self, a, b):
        tr = fbm_traj(0.7, 1 << 12, seed=73)
        scaled = Trajectory(tr.t_grid, a * tr.values + b)
        assert hurst_estimate(scaled, n_boot=0).value == pytest.approx(
            hurst_estimate(tr, n_boot=0).value, abs=1e-12)

    def test_ci_brackets_value(self):
        est = hurst_estimate(fbm_traj(0.75, 1 << 14, seed=74), n_boot=400)
        assert est.ci_low <= est.value <= est.ci_high
        assert est.ci_high - est.ci_low < 0.2

    def test_too_short(self):
        with pytest.raises(DomainError):
            hurst_estimate(fbm_traj(0.7, 512, seed=0))


class TestLocalHurst:
    def test_full_window_matches_global(self):
        tr = fbm_traj(0.7, 1 << 13, seed=75)
        glob = hurst_estimate(tr, n_boot=0).value
        loc = local_hurst(tr, 0.5, window=tr.values.size, n_boot=0).value
        assert loc == pytest.approx(glob, abs=0.05)

    def test_constant_index_no_t0_dependence(self):
        ests = {t0: [] for t0 in (0.25, 0.5, 0.75)}
        for i in range(10):
            tr = simulate_sh(0.7, 1 << 13, seed=(76, i))
            for t0 in ests:
                ests[t0].append(local_hurst(tr, t0, window=1 << 10,
                                            n_boot=0).value)
        means = {t0: np.mean(v) for t0, v in ests.items()}
        ses = {t0: np.std(v, ddof=1) / np.sqrt(len(v)) for t0, v in ests.items()}
        for t0 in (0.25, 0.75):
            gap = abs(means[t0] - means[0.5])
            assert gap < 2.5 * np.hypot(ses[t0], ses[0.5]) + 0.02

    def test_increasing_profile_orders_estimates(self):
        prof = lambda u: 0.55 + 0.3 * np.asarray(u)
        lo, hi = [], []
        for i in range(10):
            tr = simulate_sh(prof, 1 << 14, seed=(77, i))
            lo.append(local_hurst(tr, 0.25, window=1 << 11, n_boot=0).value)
            hi.append(local_hurst(tr, 0.75, window=1 << 11, n_boot=0).value)
        lo, hi = np.asarray(lo), np.asarray(hi)
        gap = hi.mean() - lo.mean()
        se = np.hypot(lo.std(ddof=1), hi.std(ddof=1)) / np.sqrt(lo.size)
        assert gap > 2 * se

    def test_window_guards(self):
        tr = fbm_traj(0.7, 1 << 12, seed=78)
        with pytest.raises(DomainError):
            local_hurst(tr, 0.5, window=64)
        with pytest.raises(DomainError):
            local_hurst(tr, 0.5, window=1 << 13)
        with pytest.raises(DomainError, match="window"):
            local_hurst(tr, 0.5, window=1024.5)
        assert local_hurst(tr, 0.5, window=np.int64(1024), n_boot=0).value \
            == local_hurst(tr, 0.5, window=1024, n_boot=0).value

    @pytest.mark.parametrize("t0", [1.5, -0.25, np.nan, np.inf])
    def test_t0_outside_path_rejected(self, t0):
        tr = fbm_traj(0.7, 1 << 12, seed=78)
        with pytest.raises(DomainError, match="t0"):
            local_hurst(tr, t0, window=1024, n_boot=0)

    def test_t0_at_path_ends_accepted(self):
        tr = fbm_traj(0.7, 1 << 12, seed=78)
        for t0 in (tr.t_grid[0], tr.t_grid[-1]):
            assert np.isfinite(local_hurst(tr, t0, window=1024, n_boot=0).value)


class TestDyadicPVariation:
    def test_linear_path_closed_form(self):
        n = (1 << 10) + 1
        tr = Trajectory(np.linspace(0, 1, n), np.linspace(0, 1, n))
        rep = dyadic_p_variation(tr, 2.0, 8)
        assert np.allclose(rep.dyadic_sums, 2.0 ** -np.arange(1, 9))
        assert rep.bounded

    def test_constant_path(self):
        n = (1 << 10) + 1
        tr = Trajectory(np.linspace(0, 1, n), np.zeros(n))
        rep = dyadic_p_variation(tr, 1.5, 6)
        assert np.all(rep.dyadic_sums == 0.0)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_level_sums_superadditive_at_p_one(self, seed):
        tr = fbm_traj(0.7, (1 << 10) + 1, seed=seed)
        rep = dyadic_p_variation(tr, 1.0, 8)
        assert np.all(np.diff(rep.dyadic_sums) >= -1e-12)

    def test_fbm_trend_directions(self):
        down = up = 0
        for i in range(8):
            tr = fbm_traj(0.75, 1 << 14, seed=(79, i))
            down += dyadic_p_variation(tr, 2.0, 11).trend < 0
            up += dyadic_p_variation(tr, 1.2, 11).trend > 0
        assert down >= 6 and up >= 6

    def test_depth_guard(self):
        tr = fbm_traj(0.7, 1 << 10, seed=80)
        with pytest.raises(DomainError):
            dyadic_p_variation(tr, 2.0, 14)
        with pytest.raises(DomainError):
            dyadic_p_variation(tr, 0.5, 4)


class TestMcAggregate:
    def test_constant_records(self):
        est = mc_aggregate(np.full(64, 2.5), "mean")
        assert est.ci_low == est.value == est.ci_high == 2.5

    def test_normal_mean(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        est = mc_aggregate(x, "mean", seed=1)
        half = 1.96 / np.sqrt(500)
        assert est.ci_low == pytest.approx(x.mean() - half, abs=0.03)
        assert est.ci_high == pytest.approx(x.mean() + half, abs=0.03)

    def test_coverage_near_nominal(self):
        rng = np.random.default_rng(9)
        hits = 0
        reps = 300
        for i in range(reps):
            x = rng.standard_normal(40)
            est = mc_aggregate(x, "mean", n_boot=300, seed=i)
            hits += est.ci_low <= 0.0 <= est.ci_high
        assert abs(hits / reps - 0.95) < 0.04

    def test_median_statistic(self):
        est = mc_aggregate([1.0, 2.0, 9.0], "median", n_boot=100)
        assert est.value == 2.0

    def test_empty(self):
        with pytest.raises(DomainError):
            mc_aggregate([], "mean")
