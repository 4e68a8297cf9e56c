import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrwave.cli
import lrwave.limits
from lrwave.cli import main, run
from lrwave.config import LIMIT_KINDS, MODES, ExperimentConfig
from lrwave.errors import ConfigurationError
from lrwave.serialize import fmt, read_csv, write_csv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def tiny_sweep_config(out, jobs=1):
    return {
        "mode": "sweep",
        "seed": 77,
        "jobs": jobs,
        "output_dir": str(out),
        "medium": {"gamma": {"kind": "constant", "value": 0.8}},
        "source": {"n": 1024},
        "ensemble": {"n_realizations": 3},
        "sweep": {"epsilons": [0.2, 0.15]},
    }


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="typo_key"):
            ExperimentConfig.from_dict({"typo_key": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigurationError, match="epsilonn"):
            ExperimentConfig.from_dict({"medium": {"epsilonn": 0.1}})

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentConfig.from_dict({"mode": "render"})

    def test_defaults_materialize(self):
        cfg = ExperimentConfig.from_dict({})
        resolved = cfg.resolved()
        assert resolved["mode"] == "verify"
        assert resolved["sweep"]["epsilons"] == [0.1, 0.05, 0.025]

    def test_tolerances_resolve_as_given(self):
        cfg = ExperimentConfig.from_dict({"tolerances": {"sh_quad": 1e-3}})
        assert cfg.resolved()["tolerances"] == {"sh_quad": 1e-3}

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="tolerances"):
            ExperimentConfig.from_dict({"tolerances": 5})

    def test_readme_grammar_is_the_schema(self):
        block = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S)[1]
        doc = json.loads(re.sub(r"//[^\n]*", "", block))

        def keys(d, prefix=""):
            out = set()
            for k, v in d.items():
                out.add(prefix + k)
                if isinstance(v, dict):
                    out |= keys(v, f"{prefix}{k}.")
            return out

        assert keys(doc) == keys(ExperimentConfig.from_dict(doc).resolved())

    def test_readme_choices_are_the_accepted_ones(self):
        block = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S)[1]
        modes = re.search(r'"mode":.*// (.*)', block)[1]
        kinds = re.search(r"// kinds (fbm[^;]*);", block)[1]
        assert tuple(modes.split(" | ")) == MODES
        assert tuple(kinds.split(" | ")) == LIMIT_KINDS

    def test_limits_profiles_resolve_by_kind(self):
        """The multifractional kinds fill in the two default profiles; fbm
        and hermite, which read limits.h, resolve them to null."""
        multi = ExperimentConfig.from_dict({"limits": {"kind": "multifrac"}})
        assert [p["kind"] for p in multi.resolved()["limits"]["profiles"]] \
            == ["linear", "periodic"]
        fbm = ExperimentConfig.from_dict({"limits": {"kind": "fbm", "h": 0.7}})
        assert fbm.resolved()["limits"]["profiles"] is None
        assert ExperimentConfig.from_dict(fbm.resolved()) == fbm

    def test_manifest_unwrapping(self):
        cfg = ExperimentConfig.from_dict({"mode": "synth"})
        wrapped = {"config": cfg.resolved(), "artifacts": []}
        cfg2 = ExperimentConfig.from_dict(wrapped)
        assert cfg2.mode == "synth"


class TestRun:
    def test_verify_mode_passes(self, tmp_path):
        status = run({"mode": "verify", "output_dir": str(tmp_path)})
        assert status == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert all(c["passed"] for suite in report["suites"].values()
                   for c in suite)

    def test_bad_profile_exits_one(self, tmp_path, capsys):
        status = run({"mode": "synth", "output_dir": str(tmp_path),
                      "medium": {"gamma": {"kind": "constant", "value": 1.4}},
                      "ensemble": {"n_realizations": 1}})
        assert status == 1
        assert "gamma" in capsys.readouterr().err

    def test_synth_deterministic_digests(self, tmp_path):
        cfg = {"mode": "synth", "seed": 5, "output_dir": str(tmp_path / "a"),
               "medium": {"epsilon": 0.2,
                          "gamma": {"kind": "constant", "value": 0.8}},
               "ensemble": {"n_realizations": 2}}
        assert run(cfg) == 0
        cfg["output_dir"] = str(tmp_path / "b")
        assert run(cfg) == 0
        m_a = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        m_b = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
        assert [e["sha256"] for e in m_a["artifacts"]] == \
            [e["sha256"] for e in m_b["artifacts"]]

    def test_manifest_replay_reproduces_artifacts(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path / "first")
        assert run(cfg) == 0
        manifest = tmp_path / "first" / "run_manifest.json"
        replay = json.loads(manifest.read_text())
        replay["config"]["output_dir"] = str(tmp_path / "second")
        replay_path = tmp_path / "replay.json"
        replay_path.write_text(json.dumps(replay))
        assert run(replay_path) == 0
        m1 = json.loads(manifest.read_text())
        m2 = json.loads((tmp_path / "second" / "run_manifest.json").read_text())
        assert [e["sha256"] for e in m1["artifacts"]] == \
            [e["sha256"] for e in m2["artifacts"]]

    def test_sweep_records_and_cells(self, tmp_path, capsys):
        assert run(tiny_sweep_config(tmp_path)) == 0
        cells = json.loads((tmp_path / "sweep.json").read_text())
        assert [c["epsilon"] for c in cells] == [0.2, 0.15]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cells)
        for cell, line in zip(cells, lines):
            assert set(cell) == {"epsilon", "n_realizations", "median_l2",
                                 "median_width_ratio", "shift_vs_v1_corr"}
            # one "[sweep] key value ..." line per cell, in sweep.json order
            tokens = line.split()
            assert tokens[0] == "[sweep]"
            printed = dict(zip(tokens[1::2], map(float, tokens[2::2])))
            assert set(printed) == set(cell) - {"n_realizations"}
            for key, value in printed.items():
                assert value == pytest.approx(cell[key], rel=1e-5)
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 6
        assert all(r["conservation_defect"] < 1e-8 for r in records)

    @pytest.mark.parametrize("medium, n_real", [
        ({"truncation": {"name": "zero"}}, 3),     # v1_half is 0 throughout
        ({}, 1),
    ])
    def test_sweep_undefined_correlation_is_null(self, tmp_path, capsys,
                                                 medium, n_real):
        assert run({"mode": "sweep", "output_dir": str(tmp_path),
                    "medium": medium, "ensemble": {"n_realizations": n_real},
                    "sweep": {"epsilons": [0.1]}, "source": {"n": 512}}) == 0
        cells = json.loads((tmp_path / "sweep.json").read_text())
        assert cells[0]["shift_vs_v1_corr"] is None
        assert (tmp_path / "run_manifest.json").exists()
        assert capsys.readouterr().out.split()[-2:] == ["shift_vs_v1_corr",
                                                        "nan"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        assert run(tiny_sweep_config(tmp_path / "serial", jobs=1)) == 0
        assert run(tiny_sweep_config(tmp_path / "par", jobs=2)) == 0
        r1 = json.loads((tmp_path / "serial" / "records.json").read_text())
        r2 = json.loads((tmp_path / "par" / "records.json").read_text())
        assert r1 == r2

    def test_more_jobs_than_realizations_match_serial(self, tmp_path):
        assert run(tiny_sweep_config(tmp_path / "serial", jobs=1)) == 0
        assert run(tiny_sweep_config(tmp_path / "par", jobs=4)) == 0
        r1 = json.loads((tmp_path / "serial" / "records.json").read_text())
        r2 = json.loads((tmp_path / "par" / "records.json").read_text())
        assert r1 == r2

    def test_limits_mode_emits_trajectories(self, tmp_path):
        cfg = {"mode": "limits", "output_dir": str(tmp_path),
               "limits": {"kind": "multifrac", "n": 512}}
        assert run(cfg) == 0
        header, data = read_csv(tmp_path / "sh_linear_0.csv")
        assert header == ["t", "value"]
        assert data.shape[0] == 513
        assert (tmp_path / "sh_periodic_1.csv").exists()
        # covariance oracle grids ride along as regression fixtures
        header2, grid = read_csv(tmp_path / "sh_linear_0_covariance.csv")
        assert header2 == ["z1", "z2", "cov"]
        assert grid.shape == (16, 3)
        assert np.all(grid[:, 2] > 0)

    def test_verify_tolerance_failure_exits_two(self, tmp_path):
        status = run({"mode": "verify", "output_dir": str(tmp_path),
                      "tolerances": {"renorm": 1e-30}})
        assert status == 2
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is False

    def test_verify_tolerance_typo_exits_one(self, tmp_path, capsys):
        status = run({"mode": "verify", "output_dir": str(tmp_path),
                      "tolerances": {"renrom": 1e-30}})
        assert status == 1
        assert "renrom" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", 0.0, -1e-6, float("inf"),
                                       float("nan"), True, None])
    def test_verify_tolerance_bad_value_exits_one(self, tmp_path, capsys,
                                                  value):
        status = run({"mode": "verify", "output_dir": str(tmp_path),
                      "tolerances": {"renorm": value}})
        assert status == 1
        assert "tolerances.renorm" in capsys.readouterr().err

    @pytest.mark.parametrize("key, cfg", [
        ("medium.epsilon", {"mode": "synth", "medium": {"epsilon": "abc"}}),
        ("ensemble.n_realizations",
         {"mode": "synth", "ensemble": {"n_realizations": "2"}}),
        ("jobs", {"mode": "synth", "jobs": "x"}),
        ("seed", {"mode": "synth", "seed": 3.7}),
        ("seed", {"mode": "synth", "seed": -1}),
        ("limits.n", {"mode": "limits", "limits": {"n": "512"}}),
        ("limits.profiles", {"mode": "limits", "limits": {"profiles": 5}}),
        ("sweep.epsilons", {"mode": "sweep", "sweep": {"epsilons": 0.1}}),
        ("source.n", {"mode": "propagate", "source": {"n": "1024"}}),
        ("medium.truncation",
         {"mode": "synth", "medium": {"truncation": "cubic"}}),
        ("medium.gamma", {"mode": "synth", "medium": {"gamma": 5}}),
        ("medium.tau", {"mode": "synth", "medium": {"tau": True}}),
        ("medium.truncation",
         {"mode": "synth",
          "medium": {"truncation": {"name": "tanh", "b": 1}}}),
        ("medium.gamma.value", {"mode": "synth", "medium": {
            "gamma": {"kind": "constant", "value": "abc"}}}),
        ("medium.truncation.scale", {"mode": "synth", "medium": {
            "truncation": {"name": "cubic", "scale": "abc"}}}),
        ("medium.truncation.scale", {"mode": "synth", "medium": {
            "truncation": {"name": "identity", "scale": True}}}),
        ("medium.h.start", {"mode": "synth", "medium": {
            "h": {"kind": "linear", "start": True, "end": 0.8}}}),
        ("limits.profiles[0]", {"mode": "limits", "limits": {
            "profiles": [{"kind": "linear", "start": 0.6, "slope": 1}]}}),
        ("limits.profiles[1].mean", {"mode": "limits", "limits": {
            "profiles": [{"kind": "constant", "value": 0.7},
                         {"kind": "periodic", "mean": "abc",
                          "amplitude": 0.1}]}}),
        ("ensemble.n_realizations", {"mode": "sweep", "sweep": {
            "epsilons": [0.2]}, "ensemble": {"n_realizations": 0}}),
        ("ensemble.n_realizations",
         {"mode": "synth", "ensemble": {"n_realizations": -1}}),
        ("source.n", {"mode": "propagate", "source": {"n": 1},
                      "ensemble": {"n_realizations": 1}}),
        ("source.n", {"mode": "propagate",
                      "source": {"kind": "ricker", "n": 1},
                      "ensemble": {"n_realizations": 1}}),
        ("source.width", {"mode": "propagate", "source": {"width": 0},
                          "ensemble": {"n_realizations": 1}}),
        ("source.width", {"mode": "propagate", "source": {"width": -1},
                          "ensemble": {"n_realizations": 1}}),
        ("source.window_lengths",
         {"mode": "propagate", "source": {"window_lengths": 0},
          "ensemble": {"n_realizations": 1}}),
        ("limits.kind", {"mode": "limits", "limits": {"kind": "levy"}}),
        ("limits.k", {"mode": "limits", "limits": {
            "kind": "hermite", "h": 0.7, "k": 0}}),
        ("limits.k", {"mode": "limits", "limits": {
            "kind": "fbm", "h": 0.7, "k": 3}}),
        ("limits.k", {"mode": "limits", "limits": {"kind": "multifrac",
                                                   "k": 2}}),
        ("limits.h", {"mode": "limits", "limits": {"kind": "hermite",
                                                   "k": 2}}),
        ("jobs", {"mode": "synth", "jobs": 0}),
        ("jobs", {"mode": "synth", "jobs": -2}),
    ])
    def test_bad_value_exits_one(self, tmp_path, capsys, key, cfg):
        assert run(dict(cfg, output_dir=str(tmp_path))) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_epsilon_range_checked_in_every_mode(self, tmp_path, capsys,
                                                       mode):
        # a manifest written outside sweep mode must replay in sweep mode
        cfg = {"mode": mode, "output_dir": str(tmp_path),
               "sweep": {"epsilons": [0.1, 1.5]}}
        assert run(cfg) == 1
        assert "sweep.epsilons[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", [0, float("nan"), -0.01])
    def test_bad_level_spacing_exits_one(self, tmp_path, capsys, spacing):
        status = run({"mode": "synth", "output_dir": str(tmp_path),
                      "medium": {"epsilon": 0.2, "level_spacing": spacing,
                                 "h": {"kind": "linear", "start": 0.6,
                                       "end": 0.8}},
                      "ensemble": {"n_realizations": 1}})
        assert status == 1
        assert "level_spacing" in capsys.readouterr().err

    def test_limits_empty_profiles_exits_one(self, tmp_path, capsys):
        status = run({"mode": "limits", "output_dir": str(tmp_path),
                      "limits": {"kind": "multifrac", "profiles": []}})
        assert status == 1
        assert "limits.profiles" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key, limits", [
        ("limits.h", {"kind": "fbm", "h": 0.3}),
        ("limits.profiles[0]", {"kind": "multifrac", "profiles": [
            {"kind": "periodic", "mean": 0.7, "amplitude": 0.3}]}),
        # h is read by fbm and hermite only
        ("limits.h", {"kind": "multifrac", "h": 0.99}),
        ("limits.h", {"kind": "multifrac_hermite", "h": 0.99}),
        # profiles are read by multifrac and multifrac_hermite only
        ("limits.profiles", {"kind": "fbm", "h": 0.7, "n": 512, "profiles": [
            {"kind": "linear", "start": 0.6, "end": 0.8}]}),
        ("limits.profiles", {"kind": "hermite", "h": 0.7, "k": 2,
                             "profiles": []}),
    ])
    def test_limits_index_range_exits_one(self, tmp_path, capsys, key,
                                          limits):
        out = tmp_path / "out"
        status = run({"mode": "limits", "output_dir": str(out),
                      "limits": limits})
        assert status == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, cfg", [
        ("medium: epsilon", {"mode": "verify", "medium": {"epsilon": 1.5}}),
        ("medium: epsilon", {"mode": "synth", "medium": {"epsilon": 1.5}}),
        ("medium: violated constraint: gamma",
         {"mode": "limits", "limits": {"kind": "fbm", "h": 0.7, "n": 64},
          "medium": {"gamma": {"kind": "constant", "value": 1.5}}}),
        ("source.kind",
         {"mode": "limits", "limits": {"kind": "fbm", "h": 0.7, "n": 64},
          "source": {"kind": "bogus", "width": -1}}),
        ("source.kind", {"mode": "propagate", "source": {"kind": "bogus"}}),
        ("sweep.epsilons[1]: epsilon",
         {"mode": "sweep", "sweep": {"epsilons": [0.2, 1.5]}}),
        ("sweep.epsilons", {"mode": "sweep", "sweep": {"epsilons": []}}),
    ])
    def test_every_section_checked_before_output(self, tmp_path, capsys, key,
                                                 cfg):
        out = tmp_path / "out"
        assert run(dict(cfg, output_dir=str(out))) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_limits_zero_length_rejected(self, tmp_path):
        status = run({"mode": "limits", "output_dir": str(tmp_path),
                      "limits": {"n": 0}})
        assert status == 1

    def test_propagate_mode(self, tmp_path):
        cfg = {"mode": "propagate", "seed": 3, "output_dir": str(tmp_path),
               "medium": {"epsilon": 0.2,
                          "gamma": {"kind": "constant", "value": 0.8}},
               "source": {"n": 1024},
               "ensemble": {"n_realizations": 2}}
        assert run(cfg) == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 2
        assert (tmp_path / "transmitted_0001.csv").exists()
        assert (tmp_path / "spectrum_0000.csv").exists()


    def test_propagate_matches_per_realization_loop(self, tmp_path):
        """The batched ensemble writes the bytes of one spectrum call and
        one set of writers per realization."""
        from lrwave.cli import _source_band
        from lrwave.medium import build_medium
        from lrwave.propagator import spectrum
        from lrwave.pulse import reflected_pulse, transmitted_pulse
        from lrwave.serialize import write_pulse, write_spectrum

        cfg = {"mode": "propagate", "seed": 11,
               "output_dir": str(tmp_path / "run"),
               "medium": {"epsilon": 0.1, "truncation": {"name": "cubic"}},
               "source": {"n": 512}, "ensemble": {"n_realizations": 3}}
        assert run(cfg) == 0
        manifest = json.loads(
            (tmp_path / "run" / "run_manifest.json").read_text())
        digests = {e["path"]: e["sha256"] for e in manifest["artifacts"]}
        parsed = ExperimentConfig.from_dict(cfg)
        source = parsed.source.build()
        ref = tmp_path / "ref"
        for i in range(3):
            real = build_medium(parsed.medium.to_spec(seed=(11, i)))
            tspec = spectrum(real, source.grid, active=_source_band(source))
            for path in (
                    write_spectrum(ref / f"spectrum_{i:04d}.csv", tspec),
                    write_pulse(ref / f"transmitted_{i:04d}.csv",
                                transmitted_pulse(tspec, source)),
                    write_pulse(ref / f"reflected_{i:04d}.csv",
                                reflected_pulse(tspec, source))):
                assert digests[path.name] == hashlib.sha256(
                    path.read_bytes()).hexdigest()

    def test_benchmark_shape_matches_per_realization_loop(self, tmp_path):
        """At the propagate benchmark's shape (eps = 0.05, h linear 0.6 ->
        0.85, square_center, a 4,096-sample window, 16 realizations) the
        batched media, spectra, traces and distances write the bytes of
        one medium, spectrum, trace and distance per realization: every
        artifact, records.json included, has the loop's digest."""
        from lrwave.cli import _source_band
        from lrwave.medium import build_medium
        from lrwave.propagator import spectrum
        from lrwave.pulse import (PulseTrace, pulse_distance, pulse_width,
                                  reflected_pulse, transmitted_pulse)
        from lrwave.serialize import write_json, write_pulse, write_spectrum

        cfg = {"mode": "propagate", "seed": 13,
               "output_dir": str(tmp_path / "run"),
               "medium": {"epsilon": 0.05,
                          "h": {"kind": "linear", "start": 0.6,
                                "end": 0.85},
                          "truncation": {"name": "square_center"}},
               "source": {"kind": "gaussian", "width": 0.25,
                          "window_lengths": 64.0, "n": 4096},
               "ensemble": {"n_realizations": 16}}
        assert run(cfg) == 0
        manifest = json.loads(
            (tmp_path / "run" / "run_manifest.json").read_text())
        digests = {e["path"]: e["sha256"] for e in manifest["artifacts"]}
        parsed = ExperimentConfig.from_dict(cfg)
        source = parsed.source.build()
        src = PulseTrace(s_grid=source.s_grid, values=source.values)
        ref = tmp_path / "ref"
        paths, records = [], []
        for i in range(16):
            real = build_medium(parsed.medium.to_spec(seed=(13, i)))
            tspec = spectrum(real, source.grid, active=_source_band(source))
            trace = transmitted_pulse(tspec, source)
            dist = pulse_distance(src, trace)
            records.append({
                "epsilon": 0.05, "index": i, "l2": dist.l2,
                "sup": dist.sup, "best_shift": dist.best_shift,
                "v1_half": float(0.5 * np.cumsum(real.nu_eps * real.dz)[-1]),
                "width_ratio": (pulse_width(trace, lobe_floor=0.02)
                                / pulse_width(src, lobe_floor=0.02)),
                "conservation_defect": tspec.conservation_defect()})
            paths += [write_spectrum(ref / f"spectrum_{i:04d}.csv", tspec),
                      write_pulse(ref / f"transmitted_{i:04d}.csv", trace),
                      write_pulse(ref / f"reflected_{i:04d}.csv",
                                  reflected_pulse(tspec, source))]
        paths.append(write_json(ref / "records.json", records))
        assert len(digests) == len(paths)
        for path in paths:
            assert digests[path.name] == hashlib.sha256(
                path.read_bytes()).hexdigest(), path.name

    def test_record_v1_half_is_v_triple_endpoint(self, tmp_path):
        """A record's v1_half is half the endpoint of v_triple's v1 for the
        realization's own medium, bit for bit."""
        from lrwave.medium import build_medium, v_triple

        cfg = {"mode": "propagate", "seed": 12,
               "output_dir": str(tmp_path / "run"),
               "medium": {"epsilon": 0.1,
                          "h": {"kind": "linear", "start": 0.6, "end": 0.8},
                          "truncation": {"name": "square_center"}},
               "source": {"n": 256}, "ensemble": {"n_realizations": 3}}
        assert run(cfg) == 0
        records = json.loads((tmp_path / "run" / "records.json").read_text())
        medium = ExperimentConfig.from_dict(cfg).medium
        for i, record in enumerate(records):
            v1 = v_triple(build_medium(medium.to_spec(seed=(12, i))), 0.0).v1
            assert record["v1_half"] == float(0.5 * v1.values[-1])


class TestLimitsCovarianceCache:
    """The covariance grid does not depend on the seed: a process computes
    it once per profile, keyed by the profile's canonical JSON."""

    @staticmethod
    def limits_config(out, seed, profiles=None):
        lim = {"kind": "multifrac", "n": 256}
        if profiles is not None:
            lim["profiles"] = profiles
        return {"mode": "limits", "seed": seed, "output_dir": str(out),
                "limits": lim}

    @staticmethod
    def grids(out):
        return {p.name: p.read_bytes()
                for p in sorted(out.glob("*_covariance.csv"))}

    def test_second_run_calls_no_oracle(self, tmp_path, monkeypatch):
        calls = []
        oracle = lrwave.limits.sh_covariance
        monkeypatch.setattr(lrwave.limits, "sh_covariance",
                            lambda *a, **kw: calls.append(a) or oracle(*a, **kw))
        lrwave.cli._covariance_grid.cache_clear()
        counts = []
        for seed, out in ((1, "a"), (2, "b")):
            before = len(calls)
            assert run(self.limits_config(tmp_path / out, seed)) == 0
            counts.append(len(calls) - before)
        assert counts == [20, 0]
        a, b = self.grids(tmp_path / "a"), self.grids(tmp_path / "b")
        assert len(a) == 2 and a == b
        lrwave.cli._covariance_grid.cache_clear()
        assert run(self.limits_config(tmp_path / "c", 3)) == 0
        assert len(calls) == 40
        assert self.grids(tmp_path / "c") == a

    def test_key_is_canonical_profile_json(self, tmp_path):
        cache = lrwave.cli._covariance_grid
        prof = {"kind": "periodic", "mean": 0.7, "amplitude": 0.15,
                "cycles": 2.0}
        cache.cache_clear()
        assert run(self.limits_config(tmp_path / "a", 1, [prof])) == 0
        reordered = dict(reversed(list(prof.items())))
        assert run(self.limits_config(tmp_path / "b", 2, [reordered])) == 0
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        changed = dict(prof, amplitude=0.1)
        assert run(self.limits_config(tmp_path / "c", 1, [changed])) == 0
        info = cache.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_cache_bounded(self, tmp_path):
        cache = lrwave.cli._covariance_grid
        cache.cache_clear()
        profiles = [{"kind": "linear", "start": 0.6, "end": 0.6 + 0.05 * i}
                    for i in range(1, 6)]
        assert run(self.limits_config(tmp_path, 1, profiles)) == 0
        info = cache.cache_info()
        assert info.misses == 5
        assert info.currsize <= info.maxsize < 5


class TestMain:
    def test_cli_overrides(self, tmp_path):
        status = main(["--mode", "limits", "--out", str(tmp_path),
                       "--seed", "9"])
        assert status == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["mode"] == "limits"

    def test_config_parsed_once(self, tmp_path, monkeypatch):
        """A CLI run parses its config once, overrides included, also when
        it replays a run manifest."""
        calls = []
        parse = ExperimentConfig.from_dict.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return parse(cls, *args, **kwargs)

        monkeypatch.setattr(ExperimentConfig, "from_dict", classmethod(counted))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "limits", "seed": 3, "limits":
                                    {"kind": "fbm", "h": 0.7, "n": 64}}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--config", str(path), "--out", str(first)]) == 0
        assert len(calls) == 1
        assert main(["--config", str(first / "run_manifest.json"),
                     "--out", str(second)]) == 0
        assert len(calls) == 2
        m1, m2 = (json.loads((d / "run_manifest.json").read_text())
                  for d in (first, second))
        assert m2["config"] == {**m1["config"], "output_dir": str(second)}
        assert m2["artifacts"] == m1["artifacts"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, kind):
        """A config path that is missing, a directory or not UTF-8 is a
        ConfigurationError naming the path, and the run exits 1."""
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin-1":
            path.write_bytes('{"mode": "verify", "x": "\xe9"}'.encode("latin-1"))
        with pytest.raises(ConfigurationError, match="cannot be read") as exc:
            ExperimentConfig.from_file(path)
        assert str(path) in str(exc.value)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LRWAVE_JOBS", "3")
        status = main(["--mode", "verify", "--out", str(tmp_path)])
        assert status == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["jobs"] == 3

    def test_jobs_precedence(self, tmp_path, monkeypatch):
        """--jobs, then LRWAVE_JOBS, then the config's jobs."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "limits", "jobs": 3, "limits":
                                    {"kind": "fbm", "h": 0.7, "n": 64}}))

        def jobs(out, *flags):
            assert main(["--config", str(path), "--out", str(out),
                         *flags]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            return manifest["config"]["jobs"]

        monkeypatch.delenv("LRWAVE_JOBS", raising=False)
        assert jobs(tmp_path / "config") == 3
        monkeypatch.setenv("LRWAVE_JOBS", "2")
        assert jobs(tmp_path / "env") == 2
        assert jobs(tmp_path / "flag", "--jobs", "4") == 4

    @pytest.mark.parametrize("flags, env", [
        (["--jobs", "0"], None), ([], "-2"), ([], "x"), ([], "")])
    def test_bad_jobs_exits_one(self, tmp_path, monkeypatch, capsys, flags,
                                env):
        monkeypatch.delenv("LRWAVE_JOBS", raising=False)
        if env is not None:
            monkeypatch.setenv("LRWAVE_JOBS", env)
        out = tmp_path / "out"
        assert main(["--mode", "limits", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert ("LRWAVE_JOBS" if env in ("x", "") else "jobs") in err
        assert not out.exists()


class TestShipped:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_config_parses(self, path):
        assert ExperimentConfig.from_file(path).mode in MODES

    def test_assumption_checks_script(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "assumption_checks.py")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "moderate-lag power law: pass" in proc.stdout
        assert "short-lag integrability: pass" in proc.stdout


class TestSerialize:
    def test_seventeen_digit_roundtrip(self, tmp_path):
        values = np.array([np.pi, 1 / 3, 1e-300, 123456789.123456789])
        path = write_csv(tmp_path / "x.csv", ["v"], [values])
        _, data = read_csv(path)
        assert np.array_equal(data[:, 0], values)

    def test_rows_match_per_element_fmt(self, tmp_path):
        edge = np.array([-0.0, 0.0, 1e-300, 5e-324, 1.2e17, np.nan, np.inf,
                         -np.inf, np.pi])
        noise = np.random.default_rng(5).standard_normal(4096)
        cols = [np.concatenate([edge, noise]) * s for s in (1.0, -1.0, 1e-200)]
        n = cols[0].size
        cols += [np.arange(n) - 7, np.arange(n, dtype=np.int32) * 1001,
                 cols[0].astype(np.float32)]
        header = ["a", "b", "c", "d", "e", "f"]
        path = write_csv(tmp_path / "x.csv", header, cols)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(fmt(c[i]) for c in cols) + "\n" for i in range(n))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_fmt_is_shortest_exact(self):
        assert float(fmt(np.pi)) == np.pi
