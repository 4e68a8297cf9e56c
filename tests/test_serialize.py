import json

import numpy as np

from lrwave import MediumSpec, build_medium, constant_profile, synthesize_fgn
from lrwave.serialize import (medium_manifest, read_csv, write_medium,
                              write_trajectory)


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
