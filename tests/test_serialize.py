import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrwave import MediumSpec, build_medium, constant_profile, synthesize_fgn
from lrwave import serialize
from lrwave.serialize import (fmt, medium_manifest, read_csv, write_csv,
                              write_medium, write_trajectory)


def reference_csv(header, cols):
    """The CSV bytes of one fmt() call per value."""
    rows = (",".join(fmt(c[i]) for c in cols) + "\n"
            for i in range(len(cols[0])))
    return (",".join(header) + "\n" + "".join(rows)).encode("utf-8")


def written(tmp_path, header, cols):
    return write_csv(tmp_path / "x.csv", header, cols).read_bytes()


def test_trajectory_roundtrip(tmp_path):
    tr = synthesize_fgn(0.7, 256, seed=3)
    path = write_trajectory(tmp_path / "t.csv", tr)
    header, data = read_csv(path)
    assert header == ["t", "value"]
    assert np.array_equal(data[:, 0], tr.t_grid)
    assert np.array_equal(data[:, 1], tr.values)


def test_medium_roundtrip_and_manifest(tmp_path):
    spec = MediumSpec(epsilon=0.2, gamma_profile=constant_profile(0.8), seed=5)
    real = build_medium(spec)
    path = write_medium(tmp_path / "m.csv", real)
    header, data = read_csv(path)
    assert header == ["z", "nu_eps"]
    assert np.array_equal(data[:, 1], real.nu_eps)
    manifest = medium_manifest(spec)
    assert manifest["n_slabs"] == real.n_slabs
    assert len(manifest["profiles"]["gamma"]) == 256
    assert manifest["profiles"]["h"][0] == 0.6
    assert manifest["truncation"]["name"] == "identity"
    json.dumps(manifest)


class TestRowTemplates:
    """write_csv formats a first column once per value and reuses it; every
    file must still equal the per-value fmt() reference."""

    def test_same_grid_other_columns(self, tmp_path):
        rng = np.random.default_rng(8)
        grid = np.linspace(-3.0, 5.0, 700)
        for cols in ([grid, rng.standard_normal(700)],
                     [grid, -rng.standard_normal(700)]):
            assert written(tmp_path, ["s", "v"], cols) == reference_csv(
                ["s", "v"], cols)
        # same grid, other column count: a template of its own
        cols = [grid, grid ** 2, rng.standard_normal(700)]
        assert written(tmp_path, ["s", "a", "b"], cols) == reference_csv(
            ["s", "a", "b"], cols)

    def test_same_length_other_grid(self, tmp_path):
        ones = np.ones(300)
        for grid in (np.arange(300.0), np.arange(300.0) / 7.0):
            cols = [grid, ones]
            assert written(tmp_path, ["t", "v"], cols) == reference_csv(
                ["t", "v"], cols)

    def test_signed_zero_grid(self, tmp_path):
        out = [written(tmp_path, ["z", "v"], [np.full(3, zero), np.arange(3.0)])
               for zero in (-0.0, 0.0, -0.0)]
        assert out[0] == out[2] != out[1]
        assert out[0].splitlines()[1] == b"-0,0"
        assert out[1].splitlines()[1] == b"0,0"

    def test_one_column(self, tmp_path):
        col = [np.array([np.pi, -0.0, 1e-300, np.nan])]
        assert written(tmp_path, ["v"], col) == reference_csv(["v"], col)

    def test_several_blocks(self, tmp_path):
        n = 2 * serialize._BLOCK_ROWS + 37
        rng = np.random.default_rng(9)
        cols = [rng.standard_normal(n), rng.standard_normal(n),
                np.arange(n) - 5, rng.standard_normal(n).astype(np.float32)]
        for _ in range(2):                  # cold, then from the cache
            assert written(tmp_path, list("abcd"), cols) == reference_csv(
                list("abcd"), cols)


class TestSpectrumRows:
    """Rows whose values are all +0, -0 or 1 carry their text in the
    template; every spectrum file must still equal the per-value fmt()
    reference, whatever the band, the grid parity and the zeros' signs."""

    HEADER = ["omega", "T_re", "T_im", "R_re", "R_im"]

    @staticmethod
    def band_spectrum(n, active, seed=3):
        from lrwave.propagator import FrequencyGrid, spectrum

        real = build_medium(MediumSpec(epsilon=0.2, seed=seed,
                                       gamma_profile=constant_profile(0.8)))
        return spectrum(real, FrequencyGrid.for_window(n, 0.25),
                        active=active)

    def check(self, tmp_path, tspec):
        from lrwave.serialize import write_spectrum

        cols = [tspec.grid.omegas, tspec.T.real, tspec.T.imag, tspec.R.real,
                tspec.R.imag]
        got = write_spectrum(tmp_path / "s.csv", tspec).read_bytes()
        assert got == reference_csv(self.HEADER, cols)
        return got

    def test_masked_band(self, tmp_path):
        n = 256
        active = np.zeros(n, dtype=bool)
        active[3:20] = True
        out = self.check(tmp_path, self.band_spectrum(n, active))
        lines = out.decode().splitlines()
        # transparent rows: +0 imaginary parts above 0, -0 once mirrored
        assert lines[1 + 40].endswith(",1,0,0,0")
        assert lines[1 + n - 40].endswith(",1,-0,0,-0")

    def test_full_grid(self, tmp_path):
        self.check(tmp_path, self.band_spectrum(64, None))

    def test_odd_grid(self, tmp_path):
        n = 63
        active = np.zeros(n, dtype=bool)
        active[1:9] = True
        self.check(tmp_path, self.band_spectrum(n, active))

    @pytest.mark.parametrize("nyquist_in_band", [True, False])
    def test_even_grid_nyquist(self, tmp_path, nyquist_in_band):
        n = 128
        active = np.zeros(n, dtype=bool)
        active[1:6] = True
        active[n // 2] = nyquist_in_band
        tspec = self.band_spectrum(n, active)
        assert (tspec.T[n // 2] != 1.0) == nyquist_in_band
        self.check(tmp_path, tspec)

    def test_signed_zeros_and_ones_in_every_column(self, tmp_path):
        """Every row of {+0, -0, 1}^4, and rows mixing those values with
        others or with values next to them."""
        from lrwave.propagator import FrequencyGrid, TransmissionSpectrum

        lit = np.array([0.0, -0.0, 1.0])
        rows = np.array(np.meshgrid(lit, lit, lit, lit)).reshape(4, -1).T
        near = [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324,
                -5e-324, 0.5, np.nan]
        mixed = [np.where(np.arange(4) == j, v, rows[7 * j + i])
                 for i, v in enumerate(near) for j in range(4)]
        vals = np.concatenate([rows, mixed, rows[::-1]])
        n = vals.shape[0] + (vals.shape[0] % 2)
        vals = np.concatenate([vals, rows[:n - vals.shape[0]]])
        # parts set one at a time: a + 1j * b would turn -0 into +0
        t, r = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        t.real, t.imag, r.real, r.imag = vals.T
        tspec = TransmissionSpectrum(grid=FrequencyGrid.for_window(n, 0.5),
                                     T=t, R=r, det_drift=0.0)
        assert np.signbit(vals).any(axis=0).all()
        for _ in range(2):                  # cold, then from the cache
            self.check(tmp_path, tspec)

    def test_exact_transparent_row_in_band(self, tmp_path):
        n = 64
        active = np.zeros(n, dtype=bool)
        active[2:8] = True
        tspec = self.band_spectrum(n, active)
        tspec.T[4], tspec.R[4] = 1.0, 0.0
        tspec.T[n - 4], tspec.R[n - 4] = 1.0, -0.0
        self.check(tmp_path, tspec)

    def test_out_of_band_rows_not_transparent(self, tmp_path):
        n = 64
        active = np.zeros(n, dtype=bool)
        active[2:8] = True
        tspec = self.band_spectrum(n, active)
        rng = np.random.default_rng(5)
        out = ~tspec.active
        tspec.T[out] = rng.standard_normal(out.sum()) + 1.0
        tspec.R[30] = 1e-300j
        self.check(tmp_path, tspec)

    def test_template_cache_stays_bounded(self, tmp_path):
        info = serialize._row_blocks.cache_info
        for n in range(20, 20 + 3 * info().maxsize):
            cols = [np.arange(float(n)), np.where(np.arange(n) % 3, 1.0, 0.5)]
            assert written(tmp_path, ["t", "v"], cols) == reference_csv(
                ["t", "v"], cols)
            assert info().currsize <= info().maxsize
        assert info().currsize == info().maxsize == 4


class TestFormatKernel:
    """Values after the grid are formatted by an array kernel; every file
    must equal the per-value fmt() reference, for any float64."""

    @staticmethod
    def check(tmp_path, values, n_cols):
        """values laid out row by row in n_cols columns after a grid."""
        values = np.asarray(values, dtype=float)
        values = values[:values.size - values.size % n_cols]
        rest = values.reshape(-1, n_cols)
        cols = [np.arange(float(rest.shape[0])), *rest.T]
        header = ["t"] + [f"v{j}" for j in range(n_cols)]
        assert written(tmp_path, header, cols) == reference_csv(header, cols)

    @pytest.mark.parametrize("n_cols", [1, 3])
    @given(values=st.lists(st.floats(), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_float(self, tmp_path, n_cols, values):
        # every example rewrites the one file, so sharing tmp_path is safe
        self.check(tmp_path, values, n_cols)

    def test_full_exponent_range(self, tmp_path):
        rng = np.random.default_rng(11)
        exps = np.repeat(np.arange(-1100, 1030), 3)
        with np.errstate(over="ignore"):
            x = np.ldexp(rng.uniform(0.5, 1.0, exps.size), exps)
        x *= np.where(rng.random(exps.size) < 0.5, -1.0, 1.0)
        for n_cols in (1, 3):
            self.check(tmp_path, x, n_cols)

    def test_built_ties(self, tmp_path):
        """odd/4 and odd/8 below 2^53 are exact 17-digit ties; odd 2^-60
        lands near them."""
        odd = np.random.default_rng(12).integers(2 ** 50, 2 ** 53, 3000) | 1
        self.check(tmp_path, np.concatenate([odd / 4.0, odd / 8.0,
                                             odd * 2.0 ** -60]), 3)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        """Near a power of ten k changes; 1e-12 rounds to 1e16 digits at the
        wrong k, and 1e-14 carries to 10^17."""
        x = [1e-12, 1e-14, 1e98, 1e153, *(10.0 ** np.arange(-300, 301))]
        for c in (1e-5, 1e-4, 1e16, 1e17, 1e-290, 1e290, 1e-12, 1.0):
            for toward in (0.0, np.inf):
                y = c
                for _ in range(8):
                    y = np.nextafter(y, toward)
                    x.append(y)
        self.check(tmp_path, np.concatenate([x, np.negative(x)]), 3)

    def test_fallback_branches(self, monkeypatch):
        """Only non-finite values, |x| outside [1e-290, 1e290] and exact
        ties go to fmt(), and the cells equal its text."""
        tie = (4e15 + 1) / 4           # 1e15 + 0.25: 17-digit tie
        fallback = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300,
                    -1e300, np.nextafter(1e-290, 0.0), tie, -tie]
        kernel = [1e-290, 1e290, -np.pi, np.nextafter(tie, 0.0), 123.5]
        v = np.array(fallback + kernel)[:, None]
        calls = []
        monkeypatch.setattr(serialize, "fmt",
                            lambda x: calls.append(x) or fmt(x))
        cells, mask = serialize._format_cells(v, np.frombuffer(b"\n", np.uint8))
        assert cells[mask].tobytes().decode() == "".join(
            fmt(x) + "\n" for x in v[:, 0])
        assert [fmt(x) for x in calls] == [fmt(x) for x in fallback]
