"""Run configuration: defaults, JSON loading, and strict validation.

Every physical parameter of the library lives here; the JSON schema rejects
unknown keys so typos fail loudly.  Covariances accept either a 4-entry
diagonal shorthand or a 16-entry row-major matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .rss import RssParams
from .sim import IdmParams, LateralControl, RoadParams
from .uncertainty import STATE_DIM, UncertaintySpec

DEFAULT_CONTOUR_LEVELS = (0.25, 0.5, 0.75, 0.93, 0.97, 0.999)
DEFAULT_N_PHI = 8
DEFAULT_BETAS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
POLICY_NAMES = ("ProbabilisticEnvelopeRestriction", "EnvelopeRestriction",
                "Simplex", "ProbabilisticSimplex")
COVARIANCE_CASES = ("none", "small", "large")

# Small case: 0.2 m position noise, 0.2 m/s speed noise, 0.01 rad heading
# noise; the large case doubles every standard deviation.
DEFAULT_SMALL_VARIANCES = (0.04, 0.04, 0.04, 1e-4)
DEFAULT_LARGE_VARIANCES = (0.16, 0.16, 0.16, 4e-4)


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario generation: a two-vehicle platoon on the left lane straddling
    the point the ego is expected to reach when it merges."""

    n_scenarios: int = 100
    speed_min: float = 15.3
    speed_max: float = 19.9
    gap_min: float = 40.0
    gap_max: float = 50.0
    n_others: int = 2
    merge_lookahead: float = 26.5  # merge point ahead of the ego start (m)
    dt: float = 0.2
    horizon: float = 8.0

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ConfigError("scenario.n_scenarios must be >= 1")
        if not (0.0 < self.speed_min <= self.speed_max):
            raise ConfigError("scenario speed range is invalid")
        if not (0.0 < self.gap_min <= self.gap_max):
            raise ConfigError("scenario gap range is invalid")
        if self.n_others < 1:
            raise ConfigError("scenario.n_others must be >= 1")
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ConfigError("scenario dt and horizon must be > 0")


@dataclass(frozen=True)
class RunConfig:
    rss: RssParams = field(default_factory=RssParams)
    idm: IdmParams = field(default_factory=IdmParams)
    road: RoadParams = field(default_factory=RoadParams)
    scenario: ScenarioParams = field(default_factory=ScenarioParams)
    lateral: LateralControl = field(default_factory=LateralControl)
    uncertainty: dict = field(default_factory=dict)  # case name -> UncertaintySpec
    policies: tuple[str, ...] = POLICY_NAMES
    betas: tuple[float, ...] = DEFAULT_BETAS
    simplex_samples: int = 100
    tau: float = 0.2
    seed: int = 20260808

    def __post_init__(self):
        if not self.uncertainty:
            object.__setattr__(self, "uncertainty", default_uncertainty())
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {name!r}")
        for b in self.betas:
            if not (0.0 <= b <= 1.0):
                raise ConfigError(f"beta {b} outside [0, 1]")
        for case in self.uncertainty:
            if case not in COVARIANCE_CASES:
                raise ConfigError(f"unknown covariance case {case!r}")
        if self.simplex_samples < 1:
            raise ConfigError("simplex_samples must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")


def default_uncertainty(contour_levels=DEFAULT_CONTOUR_LEVELS,
                        n_phi=DEFAULT_N_PHI) -> dict:
    zeros = (0.0, 0.0, 0.0, 0.0)
    return {
        "none": UncertaintySpec.from_diagonal(zeros, contour_levels, n_phi),
        "small": UncertaintySpec.from_diagonal(DEFAULT_SMALL_VARIANCES, contour_levels, n_phi),
        "large": UncertaintySpec.from_diagonal(DEFAULT_LARGE_VARIANCES, contour_levels, n_phi),
    }


def _check_keys(section: str, data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}")


def _build(section: str, cls, data: dict):
    allowed = {f.name for f in fields(cls)}
    _check_keys(section, data, allowed)
    try:
        return cls(**data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {section}: {exc}") from exc


def parse_sigma(field_name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape == (STATE_DIM,):
        return np.diag(arr)
    if arr.shape == (STATE_DIM * STATE_DIM,):
        return arr.reshape(STATE_DIM, STATE_DIM)
    if arr.shape == (STATE_DIM, STATE_DIM):
        return arr
    raise ConfigError(
        f"{field_name} must hold 4 diagonal entries or 16 row-major entries")


def _parse_uncertainty(data: dict, contour_levels, n_phi) -> dict:
    out = {}
    for case, entry in data.items():
        if case not in COVARIANCE_CASES:
            raise ConfigError(f"unknown key uncertainty.{case}")
        if not isinstance(entry, dict):
            raise ConfigError(f"uncertainty.{case} must be an object")
        _check_keys(f"uncertainty.{case}", entry, {"sigma", "contour_levels", "n_phi"})
        if "sigma" not in entry:
            raise ConfigError(f"uncertainty.{case}.sigma is required")
        sigma = parse_sigma(f"uncertainty.{case}.sigma", entry["sigma"])
        levels = tuple(entry.get("contour_levels", contour_levels))
        try:
            out[case] = UncertaintySpec(sigma, levels, entry.get("n_phi", n_phi))
        except ValueError as exc:
            raise ConfigError(f"invalid uncertainty.{case}: {exc}") from exc
    try:
        base = default_uncertainty(contour_levels, n_phi)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    base.update(out)
    return base


TOP_LEVEL_KEYS = ("rss", "idm", "road", "scenario", "lateral", "uncertainty",
                  "contour_levels", "n_phi", "policies", "betas",
                  "simplex_samples", "tau", "seed")


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("config", data, TOP_LEVEL_KEYS)
    contour_levels = tuple(data.get("contour_levels", DEFAULT_CONTOUR_LEVELS))
    n_phi = data.get("n_phi", DEFAULT_N_PHI)
    kwargs = {}
    if "rss" in data:
        kwargs["rss"] = _build("rss", RssParams, data["rss"])
    if "idm" in data:
        kwargs["idm"] = _build("idm", IdmParams, data["idm"])
    if "road" in data:
        kwargs["road"] = _build("road", RoadParams, data["road"])
    if "scenario" in data:
        kwargs["scenario"] = _build("scenario", ScenarioParams, data["scenario"])
    if "lateral" in data:
        kwargs["lateral"] = _build("lateral", LateralControl, data["lateral"])
    kwargs["uncertainty"] = _parse_uncertainty(data.get("uncertainty", {}),
                                               contour_levels, n_phi)
    if "policies" in data:
        kwargs["policies"] = tuple(data["policies"])
    if "betas" in data:
        kwargs["betas"] = tuple(float(b) for b in data["betas"])
    if "simplex_samples" in data:
        kwargs["simplex_samples"] = int(data["simplex_samples"])
    if "tau" in data:
        kwargs["tau"] = float(data["tau"])
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    try:
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _finite(value) -> bool:
    if isinstance(value, (int, float)):
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer literal beyond the float range
            return False
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _finite_object(pairs) -> dict:
    for key, value in pairs:
        if not _finite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    return dict(pairs)


def read_json(path) -> object:
    """Parsed JSON file.  Malformed JSON and non-finite numbers (NaN,
    Infinity, or a literal such as 1e400 that overflows the float range)
    raise ConfigError naming the key that holds them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_finite_object)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    """RunConfig from a JSON file; None yields the built-in defaults."""
    if path is None:
        return RunConfig()
    return config_from_dict(read_json(path))
