"""Experiment configuration: strict JSON parsing into dataclasses.

The section dataclasses below are the config grammar (documented in the
README): their fields are the keys, their defaults the defaults and their
annotations the accepted JSON types.  Unknown keys and mistyped values
anywhere are hard errors that name the dotted key: silent misconfiguration
is the main reproducibility hazard.
"""
from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .hermite import truncation
from .limits import _checked_index
from .medium import MediumSpec, _check_epsilon, profile_from_config
from .pulse import gaussian_source, ricker_source
from .verify import TOLERANCES

MODES = ("synth", "propagate", "sweep", "limits", "verify")
LIMIT_KINDS = ("fbm", "hermite", "multifrac", "multifrac_hermite")

# depths of [0, 1] at which each limits.profiles entry is range-checked
_PROFILE_CHECK_POINTS = 257
# index profiles of the multifractional kinds when limits.profiles is not given
_DEFAULT_PROFILES = (
    {"kind": "linear", "start": 0.55, "end": 0.85},
    {"kind": "periodic", "mean": 0.7, "amplitude": 0.15, "cycles": 2.0},
)

_JSON_TYPES = {float: "a finite number", int: "an integer", str: "a string",
               dict: "a JSON object"}


def _reject_unknown(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def _value(tp, value, key: str):
    """``value`` checked against the annotation ``tp``.  A section is parsed
    and a list becomes a tuple for ``tuple[X, ...]``; nothing else is
    converted.  ``float`` accepts an int but not a bool, and only finite."""
    if isinstance(tp, types.UnionType):                      # X | None
        return None if value is None else _value(tp.__args__[0], value, key)
    if dataclasses.is_dataclass(tp):
        return _parse(tp, value, key)
    if typing.get_origin(tp) is tuple:                       # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{key} must be a list, got {value!r}")
        return tuple(_value(tp.__args__[0], v, f"{key}[{i}]")
                     for i, v in enumerate(value))
    accepted = (int, float) if tp is float else tp
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (tp is float and not math.isfinite(value))):
        raise ConfigurationError(
            f"{key} must be {_JSON_TYPES[tp]}, got {value!r}")
    return value


def _check_entry(build, cfg: dict, label: str, key: str):
    """Check the free-form profile or truncation object ``cfg`` at dotted
    ``key``: ``label`` ("kind" or "name") is a string, every other entry a
    finite number, and ``build`` accepts them (known kind and parameters)."""
    for name, value in cfg.items():
        _value(str if name == label else float, value, f"{key}.{name}")
    _named(key, build, cfg)


def _named(key: str, build, *args):
    """``build(*args)``, with a rejection reported under the config ``key``."""
    try:
        return build(*args)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _truncation_from_config(cfg: dict):
    params = dict(cfg)
    return truncation(params.pop("name", None), **params)


def _parse(cls, d, where: str):
    """Section ``cls`` from the JSON object ``d`` found at dotted key
    ``where`` ("" at the root); keys left out take the field defaults."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where or 'config'} must be a JSON object")
    hints = typing.get_type_hints(cls)
    _reject_unknown(d, hints, where or "config")
    return cls(**{k: _value(hints[k], v, f"{where}.{k}" if where else k)
                  for k, v in d.items()})


@dataclass(frozen=True)
class MediumBlock:
    epsilon: float = 0.1
    tau: float = 1.0
    depth: float = 1.0
    gamma: dict | None = None
    h: dict | None = None
    truncation: dict = field(default_factory=lambda: {"name": "identity"})
    n_slabs: int | None = None

    def __post_init__(self):
        _check_entry(_truncation_from_config, self.truncation, "name",
                     "medium.truncation")
        for key in ("gamma", "h"):
            if getattr(self, key) is not None:
                _check_entry(profile_from_config, getattr(self, key), "kind",
                             f"medium.{key}")
        _named("medium", self.to_spec, 0)

    def to_spec(self, seed, epsilon=None) -> MediumSpec:
        trunc = _truncation_from_config(self.truncation)
        gamma = self.gamma
        if gamma is None and self.h is None:
            gamma = {"kind": "constant", "value": 0.8}
        gamma_prof = profile_from_config(gamma) if gamma else None
        h_prof = profile_from_config(self.h) if self.h else None
        return MediumSpec(
            epsilon=float(self.epsilon if epsilon is None else epsilon),
            tau=self.tau, depth=self.depth, gamma_profile=gamma_prof,
            h_profile=h_prof, truncation=trunc, n_slabs=self.n_slabs,
            seed=seed)


@dataclass(frozen=True)
class SourceBlock:
    kind: str = "gaussian"
    width: float = 1.0
    window_lengths: float = 16.0
    n: int = 4096

    def __post_init__(self):
        self.build()

    def build(self):
        if self.kind == "gaussian":
            return gaussian_source(self.width, self.window_lengths, self.n)
        if self.kind == "ricker":
            return ricker_source(self.width, self.window_lengths, self.n)
        raise ConfigurationError(f"unknown source.kind {self.kind!r}")


@dataclass(frozen=True)
class EnsembleBlock:
    n_realizations: int = 100

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ConfigurationError("ensemble.n_realizations must be at "
                                     f"least 1, got {self.n_realizations}")


@dataclass(frozen=True)
class SweepBlock:
    epsilons: tuple[float, ...] = (0.1, 0.05, 0.025)

    def __post_init__(self):
        if not self.epsilons:
            raise ConfigurationError("sweep.epsilons needs at least one")
        for i, eps in enumerate(self.epsilons):
            _named(f"sweep.epsilons[{i}]", _check_epsilon, eps)


@dataclass(frozen=True)
class LimitsBlock:
    kind: str = "multifrac"
    n: int = 1 << 16
    k: int = 1
    h: float | None = None
    profiles: tuple[dict, ...] | None = None

    def __post_init__(self):
        if self.kind not in LIMIT_KINDS:
            raise ConfigurationError(
                f"unknown limits.kind {self.kind!r}; choose from {LIMIT_KINDS}")
        if self.n < 2:
            raise ConfigurationError("limits.n must be at least 2")
        if self.k < 1 or (self.k > 1 and self.kind in ("fbm", "multifrac")):
            raise ConfigurationError(
                "limits.k must be 1 for fbm and multifrac, at least 1 "
                f"otherwise; got {self.k} for kind {self.kind!r}")
        if self.kind in ("fbm", "hermite"):
            if self.h is None:
                raise ConfigurationError(
                    f"limits.h is required for kind {self.kind!r}")
            if not 0.5 < self.h < 1.0:
                raise ConfigurationError(
                    f"limits.h must lie in (1/2, 1) for kind {self.kind!r}, "
                    f"got {self.h!r}")
            if self.profiles is not None:
                raise ConfigurationError(
                    f"limits.profiles is not read by kind {self.kind!r}; its "
                    "constant index is limits.h")
            return
        if self.h is not None:
            raise ConfigurationError(
                f"limits.h is not read by kind {self.kind!r}; its index "
                "profiles are limits.profiles")
        if self.profiles is None:
            object.__setattr__(self, "profiles", _DEFAULT_PROFILES)
        elif not self.profiles:
            raise ConfigurationError(
                f"limits.profiles is empty; kind {self.kind!r} needs at "
                "least one index profile")
        u = np.linspace(0.0, 1.0, _PROFILE_CHECK_POINTS)
        for i, prof in enumerate(self.profiles):
            _check_entry(lambda p: _checked_index(profile_from_config(p)(u),
                                                  u.shape),
                         prof, "kind", f"limits.profiles[{i}]")


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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.seed < 0:      # numpy seed sequences take no negative entry
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.mode == "sweep":
            for i, eps in enumerate(self.sweep.epsilons):
                _named(f"sweep.epsilons[{i}]", self.medium.to_spec, 0, eps)
        _reject_unknown(self.tolerances, TOLERANCES, "tolerances")
        for key, value in self.tolerances.items():
            if _value(float, value, f"tolerances.{key}") <= 0:
                raise ConfigurationError(
                    f"tolerances.{key} must be positive, got {value!r}")

    @classmethod
    def from_dict(cls, d: dict, overrides=None) -> "ExperimentConfig":
        """Parse the config ``d``, or the config of the run manifest ``d``,
        with the top-level keys of ``overrides`` replacing its own."""
        if "config" in d and "artifacts" in d:
            # a run manifest doubles as a config for byte-exact replay
            d = d["config"]
        if overrides and isinstance(d, dict):
            d = {**d, **overrides}
        return _parse(cls, d, "")

    @classmethod
    def from_file(cls, path, overrides=None) -> "ExperimentConfig":
        try:
            with Path(path).open("r", encoding="utf-8") as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config {path} cannot be read: {exc}")
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        return cls.from_dict(data, overrides)

    def resolved(self) -> dict:
        """All defaults materialized, JSON-able."""
        return json.loads(json.dumps(dataclasses.asdict(self)))
