import json

import numpy as np

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
