import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (ConfigurationError, DomainError, MediumSpec,
                    QuadratureError, SynthesisError, Trajectory,
                    asymptotic_covariance_scale,
                    fgn_covariance, field_covariance,
                    increment_field_covariance, linear_profile,
                    renorm_constant, renorm_constant_sq,
                    renorm_constant_sq_quadrature, sample_field_diagonal,
                    synthesize_fgn, synthesize_field_grid, truncation)
from lrwave import gaussian_field as gf

hurst = st.floats(min_value=0.02, max_value=0.98)
hurst_lr = st.floats(min_value=0.51, max_value=0.95)


class TestGammaPort:
    """The numpy port of Cephes' Gamma is scipy's Gamma, bit for bit, on the
    domain lrwave calls it on."""

    def test_bitwise_scipy(self):
        from scipy.special import gamma
        points = [np.geomspace(1e-300, 1e-9, 10 ** 5),
                  np.linspace(1e-9, 2.0, 10 ** 6),
                  np.array([0.5, 1.0, 2.0, np.nextafter(1.0, 0.0),
                            np.nextafter(2.0, 0.0), np.nextafter(1e-9, 0.0)])]
        for x in points:
            assert gf._gamma_fn(x).tobytes() == gamma(x).tobytes()

    def test_scalar_gives_float(self):
        from scipy.special import gamma
        for x in (0.3, 1.5, 1e-12):
            val = gf._gamma_fn(x)
            assert type(val) is float and val == gamma(x)

    def test_renorm_constant_bitwise(self):
        from scipy.special import gamma
        h = np.random.default_rng(20).uniform(0.0, 1.0, 10 ** 5)
        want = np.pi / (h * gamma(2.0 * h) * np.sin(np.pi * h))
        assert renorm_constant_sq(h).tobytes() == want.tobytes()


class TestRenormConstant:
    def test_half_is_two_pi(self):
        assert renorm_constant_sq(0.5) == pytest.approx(2 * np.pi, rel=1e-12)
        assert renorm_constant_sq_quadrature(0.5) == pytest.approx(
            2 * np.pi, rel=1e-6)

    def test_quadrature_matches_closed_form(self):
        hs = np.linspace(0.51, 0.99, 25)
        rel = max(abs(renorm_constant_sq_quadrature(h) - renorm_constant_sq(h))
                  / renorm_constant_sq(h) for h in hs)
        assert rel < 1e-12

    @pytest.mark.parametrize("err", [np.nan, 1e-3])
    def test_unconverged_quadrature_raises(self, monkeypatch, err):
        monkeypatch.setattr(gf, "_spectral_integral", lambda d, s: (6.0, err))
        with pytest.raises(QuadratureError):
            renorm_constant_sq_quadrature(0.5)

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

    @pytest.mark.parametrize("lag", [np.nan, np.inf, -np.inf,
                                     np.array([0.0, 1.0, np.nan, 3.0])])
    def test_non_finite_lag_rejected(self, lag):
        with pytest.raises(DomainError, match="finite"):
            fgn_covariance(0.7, lag)

    @given(hurst_lr, st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_matches_increment_field_at_integer_lags(self, h, k):
        assert increment_field_covariance(float(k), 0.0, h, h) == pytest.approx(
            fgn_covariance(h, k), rel=1e-12)

    @pytest.mark.parametrize("h1, h2", [(0.6, 0.6), (0.9, 0.9), (0.6, 0.9)])
    def test_large_lags_match_long_double_series(self, h1, h2):
        """(d+1)^s + (d-1)^s - 2 d^s = d^s sum_k 2 C(s, 2k) d^(-2k), summed
        in long double over the lags 2..2^16, where the three terms
        cancel."""
        s = np.longdouble(h1) + np.longdouble(h2)
        d = np.arange(2, (1 << 16) + 1).astype(np.longdouble)
        series, binom = np.zeros_like(d), np.longdouble(1.0)
        for m in range(1, 81):
            binom *= (s - m + 1) / m                    # C(s, m)
            if m % 2 == 0:
                series += 2 * binom * d ** -m
        kernel = (d ** s * series).astype(float)
        lags = d.astype(float)
        if h1 == h2:
            got, ref = fgn_covariance(h1, lags), 0.5 * kernel
        else:
            got = increment_field_covariance(lags, 0.0, h1, h2)
            ref = (0.5 * renorm_constant_sq(0.5 * (h1 + h2)) * kernel
                   / (renorm_constant(h1) * renorm_constant(h2)))
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-9


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
            lam = gf._embedding_spectrum((h,), n)[:, 0, 0]
            assert lam.min() >= -1e-9 * lam.max()

    def test_embedding_spectrum_matches_long_double(self):
        """The embedding spectrum at H = 0.9, n = 2^16 against the same
        lags and FFT in long double: the lags by _lag_kernel's formula, the
        transform by numpy's FFT, which keeps long double input (complex256
        out).  Measured 4.2e-9 at most, at the smallest eigenvalues; no
        eigenvalue is negative, so the clipped mass is 0 at both
        precisions."""
        n = 1 << 16
        lam = gf._embedding_spectrum((0.9,), n)[:, 0, 0]
        ld = np.longdouble
        s, d = ld(2.0 * 0.9), np.arange(n + 1, dtype=ld)
        kernel = np.empty_like(d)
        far, df, dn = d > 1, d[d > 1], d[d <= 1]
        kernel[far] = df ** s * (np.expm1(s * np.log1p(1 / df))
                                 + np.expm1(s * np.log1p(-1 / df)))
        kernel[~far] = (dn + 1) ** s + np.abs(1 - dn) ** s - 2 * dn ** s
        cov = kernel / 2
        exact = np.fft.fft(np.concatenate([cov, cov[-2:0:-1]]))[:n + 1].real
        assert exact.dtype == np.longdouble
        assert np.max(np.abs(lam - exact) / np.abs(exact)) <= 1e-8

        def clipped(w):
            return -w[w < 0].sum() / np.abs(w).sum()

        assert np.sign(clipped(lam)) == np.sign(clipped(exact)) == 0.0

    def test_negative_embedding_raises(self, monkeypatch):
        gf._embedding_factor.cache_clear()
        spectrum = np.array([1.0, -0.5, 1.0])[:, None, None]
        monkeypatch.setattr(gf, "_embedding_spectrum", lambda levels, n: spectrum)
        with pytest.raises(SynthesisError, match="negative"):
            synthesize_fgn(0.75, 2, seed=0)

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.85])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_matches_direct_embedding(self, h, n):
        # the arithmetic of a standalone fGn synthesizer: the full embedding
        # spectrum and one complex FFT of the Hermitian noise
        rho = fgn_covariance(h, np.arange(n + 1))
        lam = np.clip(np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real,
                      0.0, None)
        g = np.random.default_rng(5).standard_normal(2 * n)
        z = np.empty(2 * n, dtype=complex)
        z[0], z[n] = g[0], g[1]
        half = (g[2:n + 1] + 1j * g[n + 1:]) / np.sqrt(2.0)
        z[1:n] = half
        z[n + 1:] = np.conj(half[::-1])
        direct = np.fft.fft(np.sqrt(lam / (2 * n)) * z).real[:n]
        y = synthesize_fgn(h, n, seed=5).values
        assert np.max(np.abs(y - direct)) <= 1e-15 * np.max(np.abs(direct))


def _realized_lag_covariance(levels, n):
    """Lag covariances k = 0..n-1 the cached factor realizes: the inverse
    FFT of 2n F F^T, shape (n, L, L)."""
    f = gf._embedding_factor(tuple(levels), n)[0]
    spec = 2 * n * (f @ np.swapaxes(f, 1, 2))
    return np.fft.irfft(spec, 2 * n, axis=0)[:n]


class TestCoupledFgn:
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("levels", [0.02 * np.arange(27, 44),
                                        0.02 * np.arange(38, 48)])
    def test_realized_covariance_audit(self, levels, n):
        realized = _realized_lag_covariance(levels, n)
        lags = np.arange(n, dtype=float)
        for a, ha in enumerate(levels):
            for b, hb in enumerate(levels):
                exact = increment_field_covariance(lags, 0.0, ha, hb)
                assert np.max(np.abs(realized[:, a, b] - exact)) <= 5e-4

    @pytest.mark.parametrize("n", [256, 512])
    def test_one_level_audit_exact(self, n):
        realized = _realized_lag_covariance([0.75], n)[:, 0, 0]
        exact = fgn_covariance(0.75, np.arange(n))
        assert np.max(np.abs(realized - exact)) <= 1e-15

    def test_clipped_mass_above_tolerance_raises(self, monkeypatch):
        # the 0.54-0.86 ladder clips about 5e-5 of its mass at n = 256
        gf._embedding_factor.cache_clear()
        monkeypatch.setattr(gf, "_CLIP_TOL", 1e-9)
        with pytest.raises(SynthesisError, match="negative"):
            gf.synthesize_coupled_fgn(0.02 * np.arange(27, 44), 256, seed=0)

    def test_blocked_factor_equals_one_shot(self):
        """The factor built in blocks of frequencies is bitwise the one-shot
        eigh of the spectrum, at an n + 1 that is no multiple of the block."""
        levels, n = tuple(0.02 * np.arange(27, 44)), 2500
        assert (n + 1) % gf._EIGH_BLOCK
        gf._embedding_factor.cache_clear()
        f, _, _ = gf._embedding_factor(levels, n)
        w, v = np.linalg.eigh(gf._embedding_spectrum(levels, n))
        v *= np.sqrt(np.clip(w, 0.0, None) / (2 * n))[:, None, :]
        assert np.array_equal(f, v)
        assert not f.flags.writeable

    def test_shape_and_one_level_is_fgn(self):
        y = gf.synthesize_coupled_fgn([0.6, 0.8], 300, seed=4)
        assert y.shape == (300, 2)
        one = gf.synthesize_coupled_fgn([0.7], 300, seed=4)[:, 0]
        assert np.array_equal(one, synthesize_fgn(0.7, 300, seed=4).values)

    def test_work_arrays_do_not_leak(self):
        """Draws of one shape share the work arrays; an earlier draw stays
        as drawn and equals a draw on fresh ones."""
        levels = [0.6, 0.7, 0.8]
        first = gf.synthesize_coupled_fgn(levels, 400, seed=1)
        kept = first.copy()
        gf.synthesize_coupled_fgn(levels, 400, seed=2)
        assert first.tobytes() == kept.tobytes()
        gf._embedding_factor.cache_clear()
        fresh = gf.synthesize_coupled_fgn(levels, 400, seed=1)
        assert fresh.tobytes() == kept.tobytes()


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
        # one depth is a trivial fold of length 1
        m = 400
        vals = []
        for i in range(m):
            fg = synthesize_field_grid([0.75], np.array([0.0]), seed=(79, i))
            vals.append(fg.samples[0, 0])
        var_emp = np.var(vals)
        x, w = fg.grid_spec.positive_nodes()
        abs2 = np.sinc(x / (2.0 * np.pi)) ** 2      # |psi|^2 = sin^2(x/2)/(x/2)^2
        var_disc = (2.0 * np.sum(w * abs2 * x ** (1.0 - 2 * 0.75))
                    / renorm_constant_sq(0.75))
        assert fg.column_variance[0] == pytest.approx(var_disc, rel=1e-12)
        assert var_emp == pytest.approx(var_disc, rel=0.3)

    def test_index_near_one_names_it(self):
        with pytest.raises(ConfigurationError, match="0.97.*close to 1"):
            synthesize_field_grid([0.6, 0.97], np.arange(64.0))

    def test_default_grid_is_commensurate(self):
        # micro grid of a medium at eps = 0.03: 1/eps^2 is not an integer
        n = 1112
        z = (np.arange(n) + 0.5) / n / 0.03 ** 2
        spec = gf.FrequencyGridSpec.for_grid(z)
        ratio = 2.0 * np.pi / ((z[1] - z[0]) * spec.dx)
        assert ratio == pytest.approx(round(ratio), abs=1e-9)
        assert round(ratio) >= 4 * n
        # where the span-based spacing is commensurate it is kept
        assert gf.FrequencyGridSpec.for_grid(np.arange(100.0)).dx == 2 * np.pi / 400

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

    @pytest.mark.parametrize("value", [np.nan, 2.0])
    def test_disagreement_with_closed_form_raises(self, monkeypatch, value):
        """A quadrature value off the closed form fails the check, and so
        does NaN."""
        monkeypatch.setattr(gf, "_spectral_integral",
                            lambda d, s: (value, 0.0))
        with pytest.raises(QuadratureError):
            field_covariance(0.0, 10.0, 0.75, 0.75)

    @pytest.mark.parametrize("lag", [1e3, 1e4])
    def test_long_lags_converge(self, lag):
        fc = field_covariance(0.0, lag, 0.75, 0.75)
        assert abs(fc.value - fc.closed_form) < 1e-8 * fc.closed_form

    @pytest.mark.parametrize("lag", [1e5, 1e6, 1e7])
    def test_unconverged_long_lag_raises(self, lag):
        """Beyond about 1e4 the cosine tails cancel and the quadrature's own
        error estimate grows past 1e-6 of the value: at 1e6 the value is
        3.5e-5 off the closed form."""
        with pytest.raises(QuadratureError):
            field_covariance(0.0, lag, 0.75, 0.75)

    @pytest.mark.parametrize("z", [np.nan, np.inf])
    def test_non_finite_depth(self, z):
        with pytest.raises(DomainError, match="finite"):
            field_covariance(0.0, z, 0.7, 0.7)
        with pytest.raises(DomainError, match="finite"):
            increment_field_covariance(0.0, z, 0.7, 0.7)
        with pytest.raises(DomainError, match="finite"):
            increment_field_covariance(np.array([0.0, z]), 1.0, 0.7, 0.7)


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


def per_level_reference(h_values, z, seed):
    """The field samples computed one level at a time from the complex
    noise, as synthesize_field_grid computed them before it held the nodes
    in the fold's padded layout: each operation written out with its
    operand order, since a complex product is not bitwise commutative."""
    spec = gf.FrequencyGridSpec.for_grid(z)
    nfold = (1 if z.size == 1 else
             int(round(2.0 * np.pi / (float(z[1] - z[0]) * spec.dx))))
    x, widths = spec.positive_nodes()
    k, nf = x.size, spec.n_fine
    g = np.random.default_rng(seed).standard_normal(2 * k)
    noise = np.empty(k, dtype=complex)
    np.multiply(g[:k], np.sqrt(0.5 * widths), out=noise.real)
    np.multiply(g[k:], np.sqrt(0.5 * widths), out=noise.imag)
    base = np.multiply(noise, gf._increment_weight(x))
    if z[0] != 0.0:
        base = np.multiply(np.exp(-1j * z[0] * x), base)
    twiddle = np.exp(-1j * np.pi * np.arange(z.size) / nfold)
    fine = np.exp(-1j * np.outer(z, x[:nf])).astype(np.complex64)
    n_uni = k - nf
    norms = renorm_constant(np.asarray(h_values))
    out = np.empty((z.size, len(h_values)))
    for i, h in enumerate(h_values):
        power = np.exp(np.multiply(np.log(x), 0.5 - h))
        power /= norms[i]
        c = np.multiply(base, power)
        buf = np.zeros((n_uni + nfold) // nfold * nfold + nfold, dtype=complex)
        buf[1:1 + n_uni] = c[nf:]
        s = np.fft.fft(buf.reshape(-1, nfold).sum(axis=0))[:z.size] * twiddle
        s += fine @ c[:nf].astype(np.complex64)
        out[:, i] = 2.0 * s.real
    return out


class TestFieldGridReference:
    """synthesize_field_grid gives the per-level computation's samples bit
    for bit on the TestFieldGrid inputs."""

    @pytest.mark.parametrize("h_values, z, seed", [
        ([0.75, 0.75], np.arange(128.0), 9),
        ([0.6, 0.8], np.arange(64.0), 3),
        ([0.55, 0.75, 0.9], np.arange(256.0), 1),
        ([0.75], np.arange(512.0), (77, 0)),
        ([0.6, 0.9], np.arange(256.0), (78, 5)),
        ([0.75], np.array([0.0]), (79, 0)),
        ([0.6], (np.arange(1112) + 0.5) / 1112 / 0.03 ** 2, 11),
        ([0.6, 0.7, 0.8], 0.5 + np.arange(96.0), 5),
    ])
    def test_bitwise(self, h_values, z, seed):
        got = synthesize_field_grid(h_values, z, seed=seed).samples
        want = per_level_reference(h_values, z, seed)
        assert got.tobytes() == want.tobytes()

    def test_diagonal_seeds_match_one_seed_calls(self):
        """Several seeds through the shared levels, more than one chunk of
        the fold's work arrays, equal one call per seed."""
        z = 0.5 + np.arange(400.0)
        h = np.linspace(0.8, 0.925, z.size)
        spec = gf.FrequencyGridSpec.for_grid(z)
        seeds = [(16, i) for i in range(5)]
        assert gf._FOLD_NODES // (spec.n_fine + spec.n_uniform) < len(seeds)
        values, levels = gf._diagonal_samples(h, z, seeds)
        for seed, row in zip(seeds, values):
            one, info = sample_field_diagonal(h, z, seed=seed)
            assert row.tobytes() == one.tobytes()
            assert levels.tobytes() == info["levels"].tobytes()

    @pytest.mark.parametrize("eps, n_seeds, chunk", [
        (0.05, 2, 2),           # one chunk of two seeds
        (0.04, 2, 1),           # chunks of one seed
        (0.05, 5, 2),           # more seeds than one chunk holds
    ])
    def test_field_columns_chunks(self, eps, n_seeds, chunk):
        """_field_columns folds each chunk's seeds with one einsum per
        level and transforms them with one row-wise FFT: each seed's
        columns equal the per-level reference bit for bit, whatever the
        chunk."""
        n = int(np.ceil(1.0 / eps ** 2))
        z = (np.arange(n) + 0.5) / n / eps ** 2
        ctx = gf._spectral_context(z.tobytes())
        assert len(ctx.planes) == chunk
        assert ctx.nfold > 1
        h_values = [0.8, 0.86, 0.925]
        seeds = [(25, i) for i in range(n_seeds)]
        got = gf._field_columns(h_values, ctx, seeds)
        for seed, cols in zip(seeds, got):
            want = per_level_reference(h_values, z, seed)
            assert cols.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z0", [0.0, 3.5])
    def test_field_columns_one_depth(self, z0):
        """The one-depth grid folds into one column, which numpy sums
        pairwise as complex numbers: that sum is kept, bit for bit."""
        z = np.array([z0])
        ctx = gf._spectral_context(z.tobytes())
        assert ctx.nfold == 1 and len(ctx.planes) > 3
        seeds = [(26, i) for i in range(3)]
        got = gf._field_columns([0.6, 0.9], ctx, seeds)
        for seed, cols in zip(seeds, got):
            want = per_level_reference([0.6, 0.9], z, seed)
            assert cols.tobytes() == want.tobytes()


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

    def test_ladder_matches_exact_columns(self):
        """On the field of the medium h 0.6 -> 0.85, square_center, at
        eps = 0.05 (field index 0.8 -> 0.925), the ladder's value at row j
        is the column m(z_j, h_j) of the same noise draw."""
        spec = MediumSpec(epsilon=0.05, h_profile=linear_profile(0.6, 0.85),
                          truncation=truncation("square_center"))
        n = spec.resolved_slabs()
        u = (np.arange(n) + 0.5) / n
        z, h = u * spec.depth / spec.epsilon ** 2, spec.field_index(u)
        vals, info = sample_field_diagonal(h, z, seed=(16, 1))
        rows = np.r_[0:n:20, n - 1]
        exact = synthesize_field_grid(h[rows], z, seed=(16, 1)).samples
        assert np.max(np.abs(vals[rows] - exact[rows, np.arange(rows.size)])
                      ) <= 1e-5
        assert info["levels"].size == 9

    def test_origin_shift_cache_matches_fresh_context(self):
        # grids of the same spacing and span but other origins get contexts
        # of their own, each with its phase exp(-i z0 x): a cached context
        # draws what a fresh one draws
        h = np.linspace(0.6, 0.8, 64)
        origins = (0.5, 1.5, 0.5)

        def draw(z0):
            return sample_field_diagonal(h, z0 + np.arange(64.0), seed=11)[0]

        cached = [draw(z0) for z0 in origins]
        fresh = []
        for z0 in origins:
            gf._spectral_context.cache_clear()
            fresh.append(draw(z0))
        assert [a.tobytes() for a in cached] == [b.tobytes() for b in fresh]
        assert not np.array_equal(cached[0], cached[1])

    def test_work_arrays_do_not_leak(self):
        """Two draws on one depth grid share the context's work arrays; the
        first draw's samples stay as drawn and equal a fresh context's."""
        z = np.arange(96.0)
        first = synthesize_field_grid([0.6, 0.8], z, seed=5)
        kept = first.samples.copy()
        second = synthesize_field_grid([0.7], z, seed=6)
        assert first.samples.tobytes() == kept.tobytes()
        assert not np.shares_memory(first.samples, second.samples)
        gf._spectral_context.cache_clear()
        fresh = synthesize_field_grid([0.6, 0.8], z, seed=5)
        assert fresh.samples.tobytes() == kept.tobytes()


class TestSpectralContextKey:
    def test_one_context_per_grid_bytes(self):
        """Grids with the same ends and size but other interior bytes get
        contexts of their own; the cache holds at most two of three."""
        n, eps = 1112, 0.03
        mid = (np.arange(n) + 0.5) / n / eps ** 2
        lin = np.linspace(mid[0], mid[-1], n)
        assert (mid[0], mid[-1]) == (lin[0], lin[-1])
        assert mid.tobytes() != lin.tobytes()
        gf._spectral_context.cache_clear()
        drawn = []
        for z in (mid, lin, np.arange(64.0)):
            drawn.append(synthesize_field_grid([0.7], z, seed=3).samples)
            assert gf._spectral_context.cache_info().currsize <= 2
        info = gf._spectral_context.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 2)
        assert (gf._spectral_context(mid.tobytes())
                is not gf._spectral_context(lin.tobytes()))
        for z, got in zip((mid, lin), drawn):
            gf._spectral_context.cache_clear()
            fresh = synthesize_field_grid([0.7], z, seed=3).samples
            assert got.tobytes() == fresh.tobytes()


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

    def test_rejects_nan_spacing(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            Trajectory(np.array([0.0, 1.0, np.nan, 3.0]), np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            Trajectory(np.arange(3.0), np.array([0.0, np.nan, 1.0]))
