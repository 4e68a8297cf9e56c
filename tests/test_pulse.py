import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from lrwave import (ConfigurationError, MediumSpec, PulseTrace,
                    TransmissionSpectrum, WindowError, build_medium,
                    constant_profile, gaussian_source, pulse_distance,
                    pulse_width, reflected_pulse, ricker_source, spectrum,
                    theory_longrange, theory_shortrange, transmitted_pulse)
from lrwave.pulse import _distances, _ensemble_traces, _make_source


@pytest.fixture(scope="module")
def source():
    return gaussian_source()


def transparent(source):
    n = source.grid.n
    return TransmissionSpectrum(grid=source.grid, T=np.ones(n, complex),
                                R=np.zeros(n, complex), det_drift=0.0)


class TestSources:
    def test_gaussian_window_geometry(self, source):
        assert source.s_grid.size == 4096
        assert source.window == pytest.approx(16.0)
        assert np.max(source.values) == pytest.approx(1.0)

    def test_ricker_is_band_limited(self):
        r = ricker_source()          # construction runs the band-limit check
        assert np.max(r.values) == pytest.approx(1.0)

    def test_wide_source_rejected(self):
        # a source nearly as wide as its window cannot be band-limited
        with pytest.raises(ConfigurationError, match="band-limited"):
            gaussian_source(width=1.0, window_lengths=2.0, n=64)


class TestTransmittedPulse:
    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_shift_theorem(self, b):
        f = gaussian_source(n=1024)
        ts = replace(transparent(f), T=np.exp(1j * f.grid.omegas * b))
        out = transmitted_pulse(ts, f)
        # the spectral shift is circular: the wrapped tail bounds the error
        tol = 3.0 * np.exp(-0.5 * (8.0 - abs(b)) ** 2) + 1e-9
        assert np.max(np.abs(out.values
                             - np.exp(-0.5 * (f.s_grid - b) ** 2))) < tol

    def test_linear_in_source(self, source):
        ts = replace(transparent(source),
                     T=np.exp(1j * source.grid.omegas * 0.4 - 0.01
                              * source.grid.omegas ** 2))
        r = ricker_source()
        combined = _make_source(source.s_grid, source.values + 0.5 * r.values)
        a = transmitted_pulse(ts, source).values
        b = transmitted_pulse(ts, r).values
        c = transmitted_pulse(ts, combined).values
        assert np.max(np.abs(c - (a + 0.5 * b))) < 1e-10

    def test_grid_mismatch(self, source):
        small = gaussian_source(n=1024)
        with pytest.raises(ConfigurationError, match="grid"):
            transmitted_pulse(transparent(small), source)


class TestReflectedPulse:
    def test_zero_medium_zero_trace(self, source):
        out = reflected_pulse(transparent(source), source)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_antisymmetric_in_source(self, source):
        real = build_medium(MediumSpec(epsilon=0.1,
                                       gamma_profile=constant_profile(0.8),
                                       seed=24))
        sp = spectrum(real, source.grid)
        neg = _make_source(source.s_grid, -source.values)
        b_pos = reflected_pulse(sp, source).values
        b_neg = reflected_pulse(sp, neg).values
        assert np.allclose(b_neg, -b_pos, atol=1e-12)


class TestTheoryPulses:
    def test_longrange_zero_shift(self, source):
        out = theory_longrange(source, 0.0)
        assert np.max(np.abs(out.values - source.values)) < 1e-12

    def test_longrange_unit_shift(self, source):
        out = theory_longrange(source, 2.0)
        exact = np.exp(-0.5 * (source.s_grid - 1.0) ** 2)
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_longrange_window_guard(self, source):
        with pytest.raises(WindowError):
            theory_longrange(source, 20.0)

    def test_shortrange_zero_sigma_is_shift(self, source):
        out = theory_shortrange(source, 0.0, 1.0, b_shift=0.5)
        exact = np.exp(-0.5 * (source.s_grid - 0.5) ** 2)
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_shortrange_zero_depth_is_shift(self, source):
        out = theory_shortrange(source, 0.7, 0.0, b_shift=-0.3)
        exact = np.exp(-0.5 * (source.s_grid + 0.3) ** 2)
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_shortrange_width_moment_additivity(self, source):
        sigma, depth = 0.6, 1.0
        out = theory_shortrange(source, sigma, depth)
        w_in = pulse_width(PulseTrace(source.s_grid, source.values))
        assert pulse_width(out) ** 2 == pytest.approx(
            w_in ** 2 + sigma ** 2 * depth / 2.0, rel=1e-6)


class TestPulseDistance:
    def test_identical_traces(self, source):
        a = PulseTrace(source.s_grid, source.values)
        d = pulse_distance(a, a)
        assert d.l2 < 1e-12 and d.sup < 1e-12 and abs(d.best_shift) < 1e-9

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_known_shift_recovered(self, delta):
        f = gaussian_source(n=1024)
        a = PulseTrace(f.s_grid, f.values)
        b = PulseTrace(f.s_grid, theory_longrange(f, 2.0 * delta).values)
        d = pulse_distance(a, b)
        assert d.best_shift == pytest.approx(delta, abs=2e-3)
        assert d.l2 < 1e-6

    def test_broadened_residual_grows(self, source):
        a = PulseTrace(source.s_grid, source.values)
        resid = [pulse_distance(a, theory_shortrange(source, s, 1.0)).l2
                 for s in (0.2, 0.4, 0.8)]
        assert 0 < resid[0] < resid[1] < resid[2]

    def test_grid_mismatch(self, source):
        f = gaussian_source(n=1024)
        with pytest.raises(ConfigurationError):
            pulse_distance(PulseTrace(source.s_grid, source.values),
                           PulseTrace(f.s_grid, f.values))


class TestPulseWidth:
    def test_gaussian_width(self, source):
        assert pulse_width(PulseTrace(source.s_grid, source.values)) \
            == pytest.approx(1.0, rel=1e-6)

    def test_no_positive_mass(self, source):
        with pytest.raises(ConfigurationError):
            pulse_width(PulseTrace(source.s_grid, -source.values))

    def test_lobe_floor_isolates_main_lobe(self, source):
        # a distant low bump inflates the raw moment but not the lobe moment
        bumped = source.values + 0.02 * np.exp(
            -0.5 * (source.s_grid - 6.0) ** 2)
        tr = PulseTrace(source.s_grid, bumped)
        clean = PulseTrace(source.s_grid, source.values)
        assert pulse_width(tr) > 1.05
        assert pulse_width(tr, lobe_floor=0.05) == pytest.approx(
            pulse_width(clean, lobe_floor=0.05), abs=1e-3)

    @pytest.mark.parametrize("values, lobe_floor", [
        ([5.0, 4.0, 0.1, 3.0, 0.0], 0.5),              # peak at sample 0
        ([0.0, 3.0, 0.1, 4.0, 5.0], 0.5),              # peak at sample n - 1
        ([2.0, 3.0, 5.0, 4.0, 1.0], 0.1),              # every sample above
        ([1.0, 0.0, 5.0, 0.2, 4.0, 0.0, 3.0], 0.0),    # no floor
        ([1.0, 0.0, 5.0, 0.2, 4.0, 0.0, 3.0], 0.04),   # lobe past a dip
        ([1.0, 2.0, 5.0, 0.5, 4.0, -1.0, 3.0], 0.1),   # negative part
        ([1.0, 2.0, 5.0, 2.0, 1.0], 1.0),              # floor at the peak
    ])
    def test_lobe_matches_sample_walk(self, values, lobe_floor):
        """The main lobe equals the one found by walking from the peak
        sample by sample while the trace stays above the floor."""
        tr = PulseTrace(np.linspace(-1.0, 1.0, len(values)),
                        np.array(values))
        pos = np.clip(tr.values, 0.0, None)
        if lobe_floor > 0.0:
            peak = int(np.argmax(pos))
            above = pos > lobe_floor * pos[peak]
            lo = hi = peak
            while lo > 0 and above[lo - 1]:
                lo -= 1
            while hi < pos.size - 1 and above[hi + 1]:
                hi += 1
            pos = np.where((np.arange(pos.size) >= lo)
                           & (np.arange(pos.size) <= hi), pos, 0.0)
        mean = np.dot(tr.s_grid, pos) / pos.sum()
        walked = float(np.sqrt(np.dot((tr.s_grid - mean) ** 2, pos)
                               / pos.sum()))
        assert pulse_width(tr, lobe_floor=lobe_floor) == walked

    def test_longrange_width_nearly_preserved(self, source):
        """Transmitted main-lobe width changes below 5% at eps = 0.025."""
        from lrwave import MediumSpec, build_medium, constant_profile, spectrum
        band = np.abs(source.fhat) ** 2 > 1e-16 * np.max(np.abs(source.fhat) ** 2)
        ref_w = pulse_width(PulseTrace(source.s_grid, source.values),
                            lobe_floor=0.02)
        ratios = []
        for i in range(60):
            real = build_medium(MediumSpec(
                epsilon=0.025, gamma_profile=constant_profile(0.8),
                seed=(6000, i)))
            a = transmitted_pulse(spectrum(real, source.grid, active=band),
                                  source)
            ratios.append(pulse_width(a, lobe_floor=0.02) / ref_w)
        assert abs(np.median(ratios) - 1.0) < 0.05


def reference_trace(tspec, f, coeffs):
    """One window-frame trace as it was computed one spectrum at a time,
    each operation written out with its operand order."""
    n, ds = f.s_grid.size, float(f.s_grid[1] - f.s_grid[0])
    x = (coeffs * f.fhat) * np.exp(-1j * f.grid.omegas * f.s_grid[0])
    return (np.fft.fft(x) / (n * ds)).real


def reference_distance(a, b, s_grid):
    """(l2, sup, best_shift) of one trace pair as it was computed one pair
    at a time."""
    ds, n = float(s_grid[1] - s_grid[0]), s_grid.size
    fa, fb = np.fft.fft(a), np.fft.fft(b)
    corr = np.fft.ifft(np.conj(fa) * fb).real
    m = int(np.argmax(corr))
    c_minus, c_0, c_plus = corr[(m - 1) % n], corr[m], corr[(m + 1) % n]
    denom = c_minus - 2.0 * c_0 + c_plus
    frac = 0.0 if denom == 0.0 else 0.5 * (c_minus - c_plus) / denom
    best_shift = ((m if m <= n // 2 else m - n) + frac) * ds
    omegas = 2.0 * np.pi * np.fft.fftfreq(n, ds)
    aligned = np.fft.ifft(fb * np.exp(1j * omegas * best_shift)).real
    diff = a - aligned
    return (float(np.sqrt(np.sum(diff ** 2) * ds)),
            float(np.max(np.abs(diff))), float(best_shift))


class TestEnsemblePulses:
    """The pulse stage over an (R, n) stack equals the per-trace
    computation bit for bit; R = 20 traces of n = 4,096 make arrays of more
    than 256 KB, which numpy treats otherwise than small ones."""

    @pytest.fixture(scope="class")
    def ensemble(self, source):
        from lrwave import MediumSpec, build_media, spectra
        spec = MediumSpec(epsilon=0.1, gamma_profile=constant_profile(0.8))
        band = np.abs(source.fhat) ** 2 > 1e-16 * np.max(
            np.abs(source.fhat) ** 2)
        reals = build_media(spec, [(27, i) for i in range(20)])
        return list(spectra(reals, source.grid, active=band))

    @pytest.mark.parametrize("reflected", [False, True])
    def test_traces_match_per_trace(self, source, ensemble, reflected):
        got = _ensemble_traces(ensemble, source, reflected=reflected)
        assert got.shape == (20, source.s_grid.size)
        for tspec, row in zip(ensemble, got):
            coeffs = tspec.R if reflected else tspec.T
            want = reference_trace(tspec, source, coeffs)
            assert row.tobytes() == want.tobytes()
            one = (reflected_pulse if reflected else transmitted_pulse)(
                tspec, source)
            assert one.values.tobytes() == want.tobytes()

    def test_spectra_must_share_grid_and_mask(self, source, ensemble):
        other = replace(ensemble[1], active=ensemble[1].active.copy())
        with pytest.raises(ConfigurationError, match="share"):
            _ensemble_traces([ensemble[0], other], source)

    def test_distances_match_per_trace(self, source, ensemble):
        a = source.values
        rows = [reference_trace(t, source, t.T) for t in ensemble]
        # correlation peaks at index 0 and at n - 1, and a zero trace,
        # whose correlation is flat (denom == 0)
        rows += [a.copy(), np.roll(a, -1), np.zeros_like(a)]
        stack = np.array(rows)
        l2, sup, shift = _distances(PulseTrace(source.s_grid, a), stack)
        n = a.size
        peaks = [int(np.argmax(np.fft.ifft(np.conj(np.fft.fft(a))
                                           * np.fft.fft(b)).real))
                 for b in rows[-3:]]
        assert peaks[:2] == [0, n - 1]
        for i, b in enumerate(rows):
            want = reference_distance(a, b, source.s_grid)
            assert (l2[i], float(sup[i]), float(shift[i])) == want
            one = pulse_distance(PulseTrace(source.s_grid, a),
                                 PulseTrace(source.s_grid, b))
            assert (one.l2, one.sup, one.best_shift) == want
        ds = float(source.s_grid[1] - source.s_grid[0])
        assert abs(shift[-3]) < 1e-9 and abs(shift[-2] + ds) < 1e-9
        assert shift[-1] == 0.0

    def test_flat_reference_correlation(self, source, ensemble):
        """A zero reference makes every row's correlation zero: denom == 0
        gives a zero shift in each row."""
        zero = np.zeros(source.s_grid.size)
        rows = np.array([reference_trace(t, source, t.T)
                         for t in ensemble[:3]])
        l2, sup, shift = _distances(PulseTrace(source.s_grid, zero), rows)
        assert np.all(shift == 0.0)
        for i, b in enumerate(rows):
            assert (l2[i], float(sup[i]), float(shift[i])) == \
                reference_distance(zero, b, source.s_grid)
