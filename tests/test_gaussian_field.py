import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (ConfigurationError, DomainError, FrequencyGridSpec,
                    SynthesisError, Trajectory, asymptotic_covariance_scale,
                    fgn_covariance, field_covariance,
                    increment_field_covariance,
                    renorm_constant, renorm_constant_sq,
                    renorm_constant_sq_quadrature, sample_field_diagonal,
                    synthesize_fgn, synthesize_field_grid)
from lrwave import gaussian_field as gf

hurst = st.floats(min_value=0.02, max_value=0.98)
hurst_lr = st.floats(min_value=0.51, max_value=0.95)


class TestRenormConstant:
    def test_half_is_two_pi(self):
        assert renorm_constant_sq(0.5) == pytest.approx(2 * np.pi, rel=1e-12)
        assert renorm_constant_sq_quadrature(0.5) == pytest.approx(
            2 * np.pi, rel=1e-6)

    def test_closed_form_at_three_quarters(self):
        from scipy.special import gamma
        expected = np.pi / (0.75 * gamma(1.5) * np.sin(0.75 * np.pi))
        assert renorm_constant_sq(0.75) == pytest.approx(expected, rel=1e-14)
        assert renorm_constant_sq_quadrature(0.75) == pytest.approx(
            expected, rel=1e-6)

    @given(hurst)
    @settings(max_examples=25, deadline=None)
    def test_positive(self, h):
        assert renorm_constant_sq(h) > 0
        assert renorm_constant(h) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            renorm_constant_sq(1.0)
        with pytest.raises(DomainError):
            renorm_constant_sq(-0.1)


class TestFgnCovariance:
    @given(hurst)
    @settings(max_examples=25, deadline=None)
    def test_unit_variance(self, h):
        assert fgn_covariance(h, 0) == pytest.approx(1.0)

    def test_brownian_increments_independent(self):
        assert fgn_covariance(0.5, 1) == pytest.approx(0.0, abs=1e-14)

    def test_lag_one_value(self):
        assert fgn_covariance(0.75, 1) == pytest.approx(0.5 * (2 ** 1.5 - 2))

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            fgn_covariance(0.75, -1)

    @given(hurst_lr, st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_matches_increment_field_at_integer_lags(self, h, k):
        # the identity is exact; the tolerance covers the cancellation of the
        # second difference at large lags (relative error ~ eps * k^2)
        assert increment_field_covariance(float(k), 0.0, h, h) == pytest.approx(
            fgn_covariance(h, k), rel=1e-6, abs=4e-16 * k ** 2)


class TestSynthesizeFgn:
    def test_brownian_case_uncorrelated(self):
        m, n = 120, 1 << 12
        ests = []
        for i in range(m):
            y = synthesize_fgn(0.5, n, seed=(31, i)).values
            ests.append(np.dot(y[1:], y[:-1]) / (n - 1))
        ests = np.asarray(ests)
        z = abs(ests.mean()) / (ests.std(ddof=1) / np.sqrt(m))
        assert z < 3.0

    def test_long_memory_lag_one(self):
        m, n = 150, 1 << 13
        ests = []
        for i in range(m):
            y = synthesize_fgn(0.75, n, seed=(32, i)).values
            ests.append(np.dot(y[1:], y[:-1]) / (n - 1))
        ests = np.asarray(ests)
        target = fgn_covariance(0.75, 1)
        z = abs(ests.mean() - target) / (ests.std(ddof=1) / np.sqrt(m))
        assert z < 3.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            synthesize_fgn(0.75, 1, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 100, 257, 1000, 4096, 12345,
                                   65536])
    def test_minimal_embedding_nonnegative(self, n):
        for h in np.linspace(0.01, 0.99, 99):
            lam = gf._circulant_eigenvalues(h, n)
            assert lam.min() >= -gf._FGN_NEG_TOL * lam.max()

    def test_negative_embedding_raises(self, monkeypatch):
        monkeypatch.setattr(gf, "_circulant_eigenvalues",
                            lambda h, n: np.array([1.0, -0.5, 1.0, 0.5]))
        with pytest.raises(SynthesisError, match="negative"):
            synthesize_fgn(0.75, 2, seed=0)


class TestFieldGrid:
    def test_equal_indices_share_samples(self):
        fg = synthesize_field_grid([0.75, 0.75], np.arange(128.0), seed=9)
        assert np.array_equal(fg.samples[:, 0], fg.samples[:, 1])

    def test_deterministic(self):
        z = np.arange(64.0)
        a = synthesize_field_grid([0.6, 0.8], z, seed=3)
        b = synthesize_field_grid([0.6, 0.8], z, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_discrete_column_variance_near_one(self):
        fg = synthesize_field_grid([0.55, 0.75, 0.9], np.arange(256.0), seed=1)
        assert np.all(np.abs(fg.column_variance - 1.0) < 0.02)

    def test_column_covariance_against_closed_form(self):
        z = np.arange(512.0)
        m, lag = 200, 5
        ests = []
        for i in range(m):
            y = synthesize_field_grid([0.75], z, seed=(77, i)).samples[:, 0]
            ests.append(np.dot(y[lag:], y[:-lag]) / (z.size - lag))
        ests = np.asarray(ests)
        target = increment_field_covariance(float(lag), 0.0, 0.75, 0.75)
        z_score = abs(ests.mean() - target) / (ests.std(ddof=1) / np.sqrt(m))
        assert z_score < 3.0

    def test_cross_index_coupling(self):
        z = np.arange(256.0)
        m = 200
        ests = []
        for i in range(m):
            fg = synthesize_field_grid([0.6, 0.9], z, seed=(78, i))
            ests.append(np.mean(fg.samples[:, 0] * fg.samples[:, 1]))
        ests = np.asarray(ests)
        target = float(field_covariance(0.0, 0.0, 0.6, 0.9).closed_form)
        z_score = abs(ests.mean() - target) / (ests.std(ddof=1) / np.sqrt(m))
        assert z_score < 3.0

    def test_single_point_variance(self):
        # one depth is a trivial fold; the low cutoff keeps the discretized
        # variance visibly below 1 (by 1.2%)
        spec = FrequencyGridSpec(x_max=12.0, dx=0.25)
        m = 400
        vals = []
        for i in range(m):
            fg = synthesize_field_grid([0.75], np.array([0.0]), grid_spec=spec,
                                       seed=(79, i))
            vals.append(fg.samples[0, 0])
        var_emp = np.var(vals)
        x, w = spec.positive_nodes()
        abs2 = np.sinc(x / (2.0 * np.pi)) ** 2      # |psi|^2 = sin^2(x/2)/(x/2)^2
        var_disc = (2.0 * np.sum(w * abs2 * x ** (1.0 - 2 * 0.75))
                    / renorm_constant_sq(0.75))
        assert abs(var_disc - 1.0) > 0.005
        fg = synthesize_field_grid([0.75], np.array([0.0]), grid_spec=spec,
                                   seed=0)
        assert fg.column_variance[0] == pytest.approx(var_disc, rel=1e-12)
        assert var_emp == pytest.approx(var_disc, rel=0.3)

    def test_aliasing_guard(self):
        spec = FrequencyGridSpec(x_max=64.0, dx=1.0)
        with pytest.raises(ConfigurationError, match="alias"):
            synthesize_field_grid([0.75], np.arange(512.0), grid_spec=spec)

    def test_noncommensurate_grid_spec_rejected(self):
        # dz * dx = 0.0026 is not 2*pi over an integer
        spec = FrequencyGridSpec(x_max=64.0, dx=0.0026)
        with pytest.raises(ConfigurationError, match="commensurate"):
            synthesize_field_grid([0.75], np.arange(512.0), grid_spec=spec)

    def test_default_grid_is_commensurate(self):
        # micro grid of a medium at eps = 0.03: 1/eps^2 is not an integer
        n = 1112
        z = (np.arange(n) + 0.5) / n / 0.03 ** 2
        spec = FrequencyGridSpec.for_grid(z)
        ratio = 2.0 * np.pi / ((z[1] - z[0]) * spec.dx)
        assert ratio == pytest.approx(round(ratio), abs=1e-9)
        assert round(ratio) >= 4 * n
        # where the span-based spacing is commensurate it is kept
        assert FrequencyGridSpec.for_grid(np.arange(100.0)).dx == 2 * np.pi / 400

    def test_fold_matches_direct_sum_on_noninteger_grid(self):
        n, h, seed = 1112, 0.6, 11
        z = (np.arange(n) + 0.5) / n / 0.03 ** 2       # spacing 0.9992
        fg = synthesize_field_grid([h], z, seed=seed)
        spec = fg.grid_spec
        # the same spectral sum in float64, from the same noise draw
        x, w = spec.positive_nodes()
        g = np.random.default_rng(seed).standard_normal(2 * x.size)
        noise = (g[:x.size] + 1j * g[x.size:]) * np.sqrt(0.5 * w)
        psi = (1.0 - np.exp(-1j * x)) / (1j * x)
        c = noise * psi * x ** (0.5 - h) / renorm_constant(h)
        # most of the difference (1.3e-5) is a constant phase exp(-i z_0 x)
        # that the synthesizer gives the refined nodes
        rows = np.array([0, 1, 371, 800, n - 1])
        direct = 2.0 * (np.exp(-1j * np.outer(z[rows], x)) @ c).real
        assert np.max(np.abs(fg.samples[rows, 0] - direct)) < 1e-4


class TestFieldCovariance:
    def test_unit_variance_at_zero_lag(self):
        fc = field_covariance(1.0, 1.0, 0.7, 0.7)
        assert fc.value == pytest.approx(1.0, rel=1e-8)
        assert fc.closed_form == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_matches_closed_form_lag_ten(self):
        fc = field_covariance(0.0, 10.0, 0.75, 0.75)
        assert abs(fc.value - fc.closed_form) < 1e-4 * abs(fc.closed_form)

    @given(hurst_lr, hurst_lr, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_closed_form_symmetric(self, h1, h2, d):
        a = increment_field_covariance(d, 0.0, h1, h2)
        b = increment_field_covariance(0.0, d, h2, h1)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            field_covariance(0.0, 1.0, 0.3, 0.3)   # index sum below 1


class TestAsymptoticScale:
    def test_equal_indices_collapse(self):
        assert asymptotic_covariance_scale(0.75, 0.75) == pytest.approx(0.375)
        assert asymptotic_covariance_scale(0.55, 0.55) == pytest.approx(0.055)

    @given(hurst_lr, hurst_lr)
    @settings(max_examples=25, deadline=None)
    def test_symmetric(self, h1, h2):
        assert asymptotic_covariance_scale(h1, h2) == pytest.approx(
            asymptotic_covariance_scale(h2, h1), rel=1e-12)

    def test_scaled_covariance_residual_decays(self):
        target = asymptotic_covariance_scale(0.75, 0.75)
        resid = [abs(increment_field_covariance(d, 0.0, 0.75, 0.75)
                     * d ** 0.5 - target) for d in (10.0, 100.0, 1000.0)]
        assert resid[0] > resid[1] > resid[2]
        assert resid[2] < 0.05 * target


class TestFieldDiagonal:
    def test_constant_profile_matches_single_column(self):
        z = np.arange(128.0)
        vals, _ = sample_field_diagonal(np.full(z.size, 0.7), z, seed=4)
        fg = synthesize_field_grid([0.7], z, seed=4)
        assert np.allclose(vals, fg.samples[:, 0])

    def test_varying_profile_unit_variance(self):
        z = np.arange(1024.0)
        h = 0.6 + 0.2 * np.linspace(0, 1, z.size)
        acc = []
        for i in range(60):
            vals, _ = sample_field_diagonal(h, z, seed=(40, i))
            acc.append(np.mean(vals[::8] ** 2))
        assert np.mean(acc) == pytest.approx(1.0, abs=0.05)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            sample_field_diagonal(np.full(4, 0.7), np.arange(8.0))


class TestSpectralWeight:
    def test_default_weight_valid(self):
        # the increment weight: psi(0) = 1, Hermitian, |psi(x)| <= 2/|x|
        x = np.linspace(1e-9, 200.0, 512)
        psi = gf._increment_weight(x)
        assert gf._increment_weight(np.array([0.0]))[0] == 1.0
        assert np.allclose(gf._increment_weight(-x), np.conj(psi),
                           rtol=1e-9, atol=1e-12)
        tail = x >= 1.0
        assert np.all(np.abs(psi[tail]) * x[tail] <= 2.0 + 1e-6)


class TestTrajectory:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ConfigurationError):
            Trajectory(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            Trajectory(np.arange(3.0), np.array([0.0, np.nan, 1.0]))
