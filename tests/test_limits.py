import json
import math
from pathlib import Path

import numpy as np
import pytest

from lrwave import (DomainError, asymptotic_covariance_scale,
                    hermite_covariance, hermite_poly,
                    increment_field_covariance, profile_from_config,
                    sh_covariance, simulate, simulate_hermite, simulate_sh,
                    synthesize_fgn)
from lrwave import gaussian_field as gf
from lrwave import limits as lm
from lrwave.quadrature import geometric_edges, panel_nodes

FIGURES = Path(__file__).resolve().parents[1] / "configs" / "figures.json"


def mc_cov(paths, i, j):
    x = np.array([p.values[i] for p in paths])
    y = np.array([p.values[j] for p in paths])
    prod = x * y
    return prod.mean(), prod.std(ddof=1) / np.sqrt(len(paths))


class TestHermiteCovariance:
    def test_values(self):
        assert hermite_covariance(0.75, 1.0, 1.0) == 1.0
        assert hermite_covariance(0.6, 1.7, 0.0) == 0.0
        assert hermite_covariance(0.75, 2.0, 1.0) == pytest.approx(np.sqrt(2))

    def test_domain(self):
        with pytest.raises(DomainError):
            hermite_covariance(0.75, -1.0, 1.0)


class TestSimulateHermite:
    def test_gaussian_case_covariance(self):
        m, n = 400, 1024
        paths = [simulate_hermite(0.75, 1, n, seed=(60, i)) for i in range(m)]
        for t1, t2 in ((n, n), (n, n // 2), (n // 2, n // 4)):
            est, se = mc_cov(paths, t1, t2)
            target = hermite_covariance(0.75, t1 / n, t2 / n)
            assert abs(est - target) < 3 * se

    def test_rank_two_covariance_normalized(self):
        m, n = 500, 1024
        paths = [simulate_hermite(0.7, 2, n, seed=(61, i)) for i in range(m)]
        est, se = mc_cov(paths, n, n)
        assert abs(est - 1.0) < 4 * se

    def test_rank_two_is_skewed(self):
        m, n = 600, 1024
        end = np.array([simulate_hermite(0.7, 2, n, seed=(62, i)).values[-1]
                        for i in range(m)])
        skew = np.mean((end - end.mean()) ** 3) / end.std(ddof=1) ** 3
        assert skew > 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simulate_hermite(0.4, 1, 512, seed=0)
        with pytest.raises(DomainError):
            simulate_hermite(0.7, 0, 512, seed=0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lag_sum_arithmetic(self, k):
        """A constant index: P_K of fGn(h~), summed and divided by the exact
        lag-sum sd, bit for bit."""
        n, h = 1000, 0.7
        h_tilde = (h - 1.0) / k + 1.0
        p = hermite_poly(k, synthesize_fgn(h_tilde, n, (70, k)).values)
        expected = (np.concatenate([[0.0], np.cumsum(p)])
                    / lm._hermite_sum_std(h_tilde, k, n))
        assert np.array_equal(simulate_hermite(h, k, n, (70, k)).values,
                              expected)


class TestSimulateSh:
    def test_deterministic(self):
        a = simulate_sh(0.7, 512, seed=4)
        b = simulate_sh(0.7, 512, seed=4)
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0

    def test_profile_domain_guard(self):
        with pytest.raises(DomainError):
            simulate_sh(0.5, 512, seed=0)
        with pytest.raises(DomainError):
            simulate_sh(lambda u: 0.4 + 0.3 * np.asarray(u), 512, seed=0)

    def test_constant_profile_end_variance(self):
        m, n = 300, 512
        end = np.array([simulate_sh(0.7, n, seed=(63, i)).values[-1]
                        for i in range(m)])
        var = end.var(ddof=1)
        se = var * np.sqrt(2.0 / m)
        assert abs(var - sh_covariance(0.7, 1.0, 1.0)) < 4 * se

    def test_consistency_triangle_constant_index(self):
        """simulate_sh == simulate_hermite(K=1) == fBm form, in covariance."""
        m, n = 300, 512
        sh_paths = [simulate_sh(0.75, n, seed=(64, i)) for i in range(m)]
        he_paths = [simulate_hermite(0.75, 1, n, seed=(65, i))
                    for i in range(m)]
        for frac in (1.0, 0.5):
            i = int(frac * n)
            target = hermite_covariance(0.75, 1.0, frac)
            for paths in (sh_paths, he_paths):
                est, se = mc_cov(paths, n, i)
                assert abs(est - target) < 3.5 * se

    def test_max_increment_small(self):
        tr = simulate_sh(lambda u: 0.55 + 0.3 * np.asarray(u), 4096, seed=3)
        assert np.max(np.abs(np.diff(tr.values))) < 20.0 * 4096 ** -0.55

    @pytest.mark.parametrize("n", [2, 100])
    def test_short_paths(self, n):
        for prof in (0.7, *_figure_profiles()):
            tr = simulate_sh(prof, n, seed=6)
            assert len(tr) == n + 1 and tr.values[0] == 0.0
            assert np.all(np.isfinite(tr.values))


class TestSimulateShHermite:
    """:func:`simulate` along index profiles, at rank K."""

    def test_k1_matches_simulate_sh_in_covariance(self):
        m, n = 250, 512
        prof = lambda u: 0.6 + 0.2 * np.asarray(u)
        a = [simulate(prof, 1, n, seed=(66, i)) for i in range(m)]
        b = [simulate_sh(prof, n, seed=(66, i)) for i in range(m)]
        for i in range(m):
            assert np.allclose(a[i].values, b[i].values)

    def test_constant_profile_matches_simulate_hermite(self):
        m, n = 400, 512
        a_end = np.array([
            simulate(0.7, 2, n, seed=(67, i)).values[-1]
            for i in range(m)])
        b_end = np.array([
            simulate_hermite(0.7, 2, n, seed=(68, i)).values[-1]
            for i in range(m)])
        # same normalization target: unit variance at t = 1
        assert abs(a_end.var(ddof=1) - 1.0) < 0.35
        assert abs(a_end.var(ddof=1) - b_end.var(ddof=1)) < 0.5
        sk_a = np.mean(a_end ** 3)
        sk_b = np.mean(b_end ** 3)
        assert np.sign(sk_a) == np.sign(sk_b) == 1.0

    def test_varying_profile_calibrated(self):
        # the exact pair-sum normalization: varying profile, K >= 2
        m, n = 400, 256
        prof = lambda u: 0.6 + 0.2 * np.asarray(u)
        end = np.array([simulate(prof, 2, n, seed=(69, i)).values[-1]
                        for i in range(m)])
        assert abs(end.var(ddof=1) - 1.0) < 0.35
        c = end - end.mean()
        assert np.mean(c ** 3) / np.mean(c ** 2) ** 1.5 > 0.0

    def test_zero_start(self):
        tr = simulate(0.66, 2, 512, seed=1)
        assert tr.values[0] == 0.0

    def test_one_noise_path_per_call(self, monkeypatch):
        calls = []
        draw = lm.sample_field_diagonal
        monkeypatch.setattr(lm, "sample_field_diagonal",
                            lambda *a, **kw: calls.append(1) or draw(*a, **kw))
        prof = lambda u: 0.6 + 0.2 * np.asarray(u)
        simulate(prof, 2, 256, seed=2)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_weighted_arithmetic(self, k):
        """A varying profile: increments weighted n^(-h), rank 1 unscaled,
        rank 2 divided by the exact pair-sum sd, bit for bit."""
        n = 300
        prof = _figure_profiles()[1]
        h = np.asarray(prof(np.arange(1, n + 1) / n), dtype=float)
        h_field = (h - 1.0) / k + 1.0
        y, _ = lm.sample_field_diagonal(h_field, n, (71, k))
        w = float(n) ** (-h)
        scale = 1.0 if k == 1 else lm._weighted_hermite_sum_std(h_field, w, k)
        expected = (np.concatenate([[0.0], np.cumsum(w * hermite_poly(k, y))])
                    / scale)
        assert np.array_equal(simulate(prof, k, n, (71, k)).values, expected)


class TestNearOneProfiles:
    """Profiles reaching field indices near 1: the ladder's top level stays
    below 1 and the coupled noise is exact there."""

    @pytest.mark.parametrize("top", [0.95, 0.99])
    def test_simulate_sh(self, top):
        prof = lambda u: 0.6 + (top - 0.6) * np.asarray(u)
        tr = simulate_sh(prof, 512, seed=5)
        assert tr.values[0] == 0.0 and np.all(np.isfinite(tr.values))

    @pytest.mark.parametrize("top", [0.95, 0.99])
    def test_simulate_sh_hermite_rank_two(self, top):
        prof = lambda u: 0.6 + (top - 0.6) * np.asarray(u)
        tr = simulate(prof, 2, 256, seed=5)
        assert tr.values[0] == 0.0 and np.all(np.isfinite(tr.values))

    def test_ladder_on_lattice_below_one(self):
        # the range widens to [0.54, 1.0]; its top at 1 becomes max h = 0.99
        h = 0.55 + 0.44 * np.arange(1, 257) / 256
        _, info = lm.sample_field_diagonal(h, 256, seed=0)
        levels = info["levels"]
        assert levels.size == 9 and np.all(np.diff(levels) > 0)
        assert 0.54 < levels[0] and levels[-1] < h.max() < 1.0

    def test_profiles_with_one_range_share_levels(self):
        a, b = _figure_profiles()
        u = np.arange(1, 1025) / 1024
        _, la = lm.sample_field_diagonal(a(u), 1024, seed=0)
        _, lb = lm.sample_field_diagonal(b(u), 1024, seed=0)
        assert np.array_equal(la["levels"], lb["levels"])


class TestIndexLadder:
    @pytest.mark.parametrize("j", [0, 1])
    def test_endpoint_variance_matches_exact_sum(self, j):
        """Var of sum_j n^(-h_j) X_j for the interpolated noise X, as one
        Toeplitz quadratic form per level pair by FFT, against the exact
        O(n^2) sum over the target covariance: no Monte Carlo."""
        n = 1 << 12
        h = np.asarray(_figure_profiles()[j](np.arange(1, n + 1) / n),
                       dtype=float)
        w = float(n) ** (-h)
        levels = lm.sample_field_diagonal(h, n, seed=0)[1]["levels"]
        u = w[:, None] * gf._lagrange_weights(h, levels)
        fu = np.fft.rfft(u, 2 * n, axis=0)
        lags = np.arange(n, dtype=float)
        var = 0.0
        for a, la in enumerate(levels):
            for b, lb in enumerate(levels):
                r = increment_field_covariance(lags, 0.0, la, lb)
                circ = np.fft.rfft(np.concatenate([r, [0.0], r[:0:-1]]))
                var += u[:, a] @ np.fft.irfft(circ * fu[:, b], 2 * n)[:n]
        exact = lm._weighted_hermite_sum_std(h, w, 1) ** 2
        assert abs(var / exact - 1.0) < 1e-4

    def test_factor_cache_holds_workload_keys(self):
        """The limits workload's factors (the ladder at n = 2^14 and 512,
        one level at 2,048) are each built once over two rounds."""
        prof = _figure_profiles()[0]
        gf._embedding_factor.cache_clear()
        for _ in range(2):
            for n in (1 << 14, 512):
                lm.sample_field_diagonal(prof(np.arange(1, n + 1) / n), n, 0)
            lm.sample_field_diagonal(0.85, 2048, 0)
        assert gf._embedding_factor.cache_info().misses == 3


class TestRankKNormalization:
    def test_hoisted_constants_bit_identical(self):
        n = 64
        h = 0.6 + 0.2 * np.arange(1, n + 1) / n
        c = gf.renorm_constant(h)
        j, l = np.arange(n)[:, None], np.arange(n)
        hoisted = gf._increment_covariance(np.abs(j - l).astype(float), h[j],
                                           h[l], c[j], c[l])
        assert np.array_equal(hoisted,
                              increment_field_covariance(j, l, h[j], h[l]))

    @pytest.mark.parametrize("block", [None, 200])
    @pytest.mark.parametrize("k", [2, 3])
    def test_pair_sum_matches_dense_covariance(self, monkeypatch, k, block):
        if block:                   # several row blocks of 3 rows each
            monkeypatch.setattr(lm, "_PAIR_BLOCK", block)
        n = 64
        h = 0.6 + 0.2 * np.arange(1, n + 1) / n
        h_field = (h - 1.0) / k + 1.0
        w = float(n) ** (-h)
        j = np.arange(1.0, n + 1)
        r = increment_field_covariance(j[:, None], j[None, :],
                                       h_field[:, None], h_field[None, :])
        dense = math.sqrt(math.factorial(k) * (w @ r ** k @ w))
        assert lm._weighted_hermite_sum_std(h_field, w, k) == pytest.approx(
            dense, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_constant_index_matches_toeplitz(self, k):
        n, h = 512, 0.7
        h_tilde = (h - 1.0) / k + 1.0
        pair_sum = lm._weighted_hermite_sum_std(
            np.full(n, h_tilde), np.full(n, float(n) ** -h), k)
        assert pair_sum == pytest.approx(
            lm._hermite_sum_std(h_tilde, k, n) / n ** h, rel=1e-12)


class TestShCovariance:
    def test_constant_index_identity(self):
        for h in (0.55, 0.7, 0.9):
            for z in (0.4, 1.0):
                assert sh_covariance(h, z, z) == pytest.approx(
                    z ** (2 * h), rel=1e-4)

    def test_zero_depth(self):
        assert sh_covariance(0.7, 0.0, 1.0) == 0.0
        assert sh_covariance(0.7, 1.0, 0.0) == 0.0

    def test_symmetry_varying_profile(self):
        prof = lambda u: 0.6 + 0.25 * np.asarray(u)
        a = sh_covariance(prof, 0.8, 0.3)
        b = sh_covariance(prof, 0.3, 0.8)
        assert a == pytest.approx(b, rel=1e-6)

    def test_constant_profile_off_diagonal(self):
        assert sh_covariance(0.7, 1.0, 0.5) == pytest.approx(
            hermite_covariance(0.7, 1.0, 0.5), rel=1e-6)

    def test_scales_with_j1(self):
        assert sh_covariance(0.7, 1.0, 1.0, j1=3.0) == pytest.approx(
            9.0, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            sh_covariance(0.7, -1.0, 1.0)
        with pytest.raises(DomainError):
            sh_covariance(0.3, 1.0, 1.0)


def _reference_inner(u1, z2, h_prof, j1_sq, band, npts=12):
    """Inner integral at one outer node, one scalar node at a time: the
    quadrature rule of sh_covariance written as a per-node loop."""
    h1 = float(h_prof(np.asarray(u1)))
    total = 0.0
    if u1 < z2:
        d_left = min(band, u1)
        d_right = min(band, z2 - u1)
        r11 = j1_sq * asymptotic_covariance_scale(h1, h1)
        total += r11 * (d_left ** (2 * h1 - 1) + d_right ** (2 * h1 - 1)) / (2 * h1 - 1)
        segments = []
        if u1 - d_left > 0:
            segments.append((0.0, u1 - d_left, "right"))
        if u1 + d_right < z2:
            segments.append((u1 + d_right, z2, "left"))
    else:
        segments = [(0.0, z2, "right")] if z2 > 0 else []
    for a, b, toward in segments:
        frac = min(0.25, max(1e-7, 0.5 * band / (b - a)))
        edges = geometric_edges(a, b, toward=toward, min_frac=frac)
        nodes, weights = panel_nodes(edges, npts)
        h2 = np.asarray(h_prof(nodes), dtype=float)
        scale = j1_sq * asymptotic_covariance_scale(np.full_like(h2, h1), h2)
        vals = scale * np.abs(u1 - nodes) ** (h1 + h2 - 2.0)
        total += float(np.dot(weights, vals))
    return total


def _reference_sh_covariance(h_profile, z1, z2, *, j1=1.0, band=1e-3, npts=16):
    if callable(h_profile):
        prof = h_profile
    else:
        prof = lambda u: np.full_like(np.asarray(u, dtype=float), float(h_profile))
    delta = band * max(z1, z2)
    breakpoints = [0.0, z1] if z2 >= z1 else [0.0, z2, z1]
    outer_edges = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        seg = geometric_edges(a, b, toward="both", min_frac=1e-9)
        outer_edges.append(seg if not outer_edges else seg[1:])
    nodes, weights = panel_nodes(np.concatenate(outer_edges), npts)
    inner = np.array([_reference_inner(float(u), z2, prof, float(j1) ** 2, delta)
                      for u in nodes])
    return float(np.dot(weights, inner))


def _figure_profiles():
    cfg = json.loads(FIGURES.read_text())
    return [profile_from_config(p) for p in cfg["limits"]["profiles"]]


class TestShCovarianceRule:
    """The batched oracle against the per-node loop it replaced."""

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("z1,z2,j1", [(0.3, 0.8, 1.0), (0.8, 0.3, 1.0),
                                          (0.6, 0.6, 1.0), (1.0, 0.5, 3.0)])
    def test_matches_per_node_rule(self, j, z1, z2, j1):
        prof = _figure_profiles()[j]
        assert sh_covariance(prof, z1, z2, j1=j1) == pytest.approx(
            _reference_sh_covariance(prof, z1, z2, j1=j1), rel=1e-12)

    def test_constant_float_index(self):
        assert sh_covariance(0.7, 0.75, 0.25) == pytest.approx(
            _reference_sh_covariance(0.7, 0.75, 0.25), rel=1e-12)

    def test_scalar_valued_profile(self):
        assert sh_covariance(lambda u: 0.7, 1.0, 0.5) == pytest.approx(
            sh_covariance(0.7, 1.0, 0.5), rel=1e-12)

    def test_profile_leaving_at_check_samples(self):
        with pytest.raises(DomainError):
            sh_covariance(lambda u: 0.45 + 0.5 * np.asarray(u), 1.0, 1.0)

    def test_profile_leaving_between_check_samples(self):
        # the 65 check samples sit at k/64 and miss (0.501, 0.5146)
        def prof(u):
            u = np.asarray(u)
            return np.where((u > 0.501) & (u < 0.5146), 0.45, 0.7)
        check = np.linspace(0.0, 1.0, 65)
        assert np.all(prof(check) == 0.7)
        with pytest.raises(DomainError):
            sh_covariance(prof, 1.0, 1.0)

