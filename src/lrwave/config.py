"""Experiment configuration: strict JSON parsing into dataclasses.

The config is a JSON object with nested sections (grammar documented in the
README).  Unknown keys anywhere are hard errors: silent misconfiguration is
the main reproducibility hazard.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError
from .hermite import truncation
from .medium import MediumSpec, profile_from_config
from .pulse import gaussian_source, ricker_source
from .verify import TOLERANCES

MODES = ("synth", "propagate", "sweep", "limits", "verify")


def _take(d: dict, allowed: dict, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")
    out = dict(allowed)
    out.update(d)
    return out


@dataclass(frozen=True)
class MediumBlock:
    epsilon: float = 0.1
    tau: float = 1.0
    depth: float = 1.0
    gamma: dict | None = None
    h: dict | None = None
    truncation: dict = field(default_factory=lambda: {"name": "identity"})
    n_slabs: int | None = None
    level_spacing: float = 0.01

    @classmethod
    def from_dict(cls, d: dict, where="medium") -> "MediumBlock":
        vals = _take(d, {f.name: getattr(cls, f.name, None)
                         for f in cls.__dataclass_fields__.values()}, where)
        vals["truncation"] = d.get("truncation", {"name": "identity"})
        return cls(**vals)

    def to_spec(self, seed, epsilon=None) -> MediumSpec:
        t_cfg = dict(self.truncation)
        name = t_cfg.pop("name", None)
        if name is None:
            raise ConfigurationError("medium.truncation needs a 'name'")
        trunc = truncation(name, **t_cfg)
        gamma = self.gamma
        if gamma is None and self.h is None:
            gamma = {"kind": "constant", "value": 0.8}
        gamma_prof = profile_from_config(gamma) if gamma else None
        h_prof = profile_from_config(self.h) if self.h else None
        return MediumSpec(
            epsilon=float(self.epsilon if epsilon is None else epsilon),
            tau=self.tau, depth=self.depth, gamma_profile=gamma_prof,
            h_profile=h_prof, truncation=trunc, n_slabs=self.n_slabs,
            seed=seed, level_spacing=self.level_spacing)


@dataclass(frozen=True)
class SourceBlock:
    kind: str = "gaussian"
    width: float = 1.0
    window_lengths: float = 16.0
    n: int = 4096

    @classmethod
    def from_dict(cls, d: dict) -> "SourceBlock":
        vals = _take(d, {f.name: getattr(cls, f.name)
                         for f in cls.__dataclass_fields__.values()}, "source")
        return cls(**vals)

    def build(self):
        if self.kind == "gaussian":
            return gaussian_source(self.width, self.window_lengths, self.n)
        if self.kind == "ricker":
            return ricker_source(self.width, self.window_lengths, self.n)
        raise ConfigurationError(f"unknown source kind {self.kind!r}")


@dataclass(frozen=True)
class EnsembleBlock:
    n_realizations: int = 100

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleBlock":
        vals = _take(d, {"n_realizations": 100}, "ensemble")
        return cls(**vals)


@dataclass(frozen=True)
class SweepBlock:
    epsilons: tuple = (0.1, 0.05, 0.025)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepBlock":
        vals = _take(d, {"epsilons": (0.1, 0.05, 0.025)}, "sweep")
        return cls(epsilons=tuple(float(e) for e in vals["epsilons"]))


@dataclass(frozen=True)
class LimitsBlock:
    kind: str = "multifrac"
    n: int = 1 << 16
    k: int = 1
    h: float | None = None
    profiles: tuple = (
        {"kind": "linear", "start": 0.55, "end": 0.85},
        {"kind": "periodic", "mean": 0.7, "amplitude": 0.15, "cycles": 2.0},
    )

    @classmethod
    def from_dict(cls, d: dict) -> "LimitsBlock":
        defaults = {f.name: getattr(cls, f.name)
                    for f in cls.__dataclass_fields__.values()}
        vals = _take(d, defaults, "limits")
        vals["profiles"] = tuple(vals["profiles"])
        if vals["n"] < 2:
            raise ConfigurationError("limits.n must be at least 2")
        return cls(**vals)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "verify"
    seed: int = 1234
    output_dir: str = "out"
    jobs: int = 1
    medium: MediumBlock = field(default_factory=MediumBlock)
    source: SourceBlock = field(default_factory=SourceBlock)
    ensemble: EnsembleBlock = field(default_factory=EnsembleBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    limits: LimitsBlock = field(default_factory=LimitsBlock)
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if "config" in d and "artifacts" in d:
            # a run manifest doubles as a config for byte-exact replay
            d = d["config"]
        allowed = {"mode": "verify", "seed": 1234, "output_dir": "out",
                   "jobs": 1, "medium": {}, "source": {}, "ensemble": {},
                   "sweep": {}, "limits": {}, "tolerances": {}}
        vals = _take(d, allowed, "config")
        if vals["mode"] not in MODES:
            raise ConfigurationError(
                f"unknown mode {vals['mode']!r}; choose from {MODES}")
        for key, value in _take(vals["tolerances"], TOLERANCES,
                                "tolerances").items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise ConfigurationError(
                    f"tolerances.{key} must be a finite positive number, "
                    f"got {value!r}")
        return cls(
            mode=vals["mode"], seed=int(vals["seed"]),
            output_dir=str(vals["output_dir"]), jobs=int(vals["jobs"]),
            medium=MediumBlock.from_dict(vals["medium"]),
            source=SourceBlock.from_dict(vals["source"]),
            ensemble=EnsembleBlock.from_dict(vals["ensemble"]),
            sweep=SweepBlock.from_dict(vals["sweep"]),
            limits=LimitsBlock.from_dict(vals["limits"]),
            tolerances=dict(vals["tolerances"]))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with Path(path).open("r", encoding="utf-8") as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        return cls.from_dict(data)

    def resolved(self) -> dict:
        """All defaults materialized, JSON-able."""
        return {
            "mode": self.mode,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "jobs": self.jobs,
            "medium": {
                "epsilon": self.medium.epsilon, "tau": self.medium.tau,
                "depth": self.medium.depth, "gamma": self.medium.gamma,
                "h": self.medium.h, "truncation": dict(self.medium.truncation),
                "n_slabs": self.medium.n_slabs,
                "level_spacing": self.medium.level_spacing,
            },
            "source": {"kind": self.source.kind, "width": self.source.width,
                       "window_lengths": self.source.window_lengths,
                       "n": self.source.n},
            "ensemble": {"n_realizations": self.ensemble.n_realizations},
            "sweep": {"epsilons": list(self.sweep.epsilons)},
            "limits": {"kind": self.limits.kind, "n": self.limits.n,
                       "k": self.limits.k, "h": self.limits.h,
                       "profiles": [dict(p) for p in self.limits.profiles]},
            "tolerances": dict(self.tolerances),
        }
