"""Run configuration: defaults, JSON loading, and strict validation.

Every physical parameter of the library lives here.  The run config and the
envelope input share one set of readers: an unknown key or a value of the
wrong JSON type raises ConfigError naming its dotted key.  Covariances
accept either a 4-entry diagonal shorthand or a 16-entry row-major matrix.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .rss import AgentState, RssParams
from .sim import IdmParams, LateralControl, RoadParams
from .uncertainty import STATE_DIM, UncertaintySpec, integral

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


def check_beta(beta: float) -> float:
    """``beta`` if it is a risk level in [0, 1]; NaN is not one."""
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"beta {beta} outside [0, 1]")
    return beta


def check_tau(tau: float) -> float:
    """``tau`` if it is a finite envelope horizon > 0."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"tau must be finite and > 0, got {tau}")
    return tau


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
            check_beta(b)
        for case in self.uncertainty:
            if case not in COVARIANCE_CASES:
                raise ConfigError(f"unknown covariance case {case!r}")
        if self.simplex_samples < 1:
            raise ConfigError("simplex_samples must be >= 1")
        check_tau(self.tau)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def default_uncertainty(contour_levels=DEFAULT_CONTOUR_LEVELS,
                        n_phi=DEFAULT_N_PHI) -> dict:
    zeros = (0.0, 0.0, 0.0, 0.0)
    return {
        "none": UncertaintySpec.from_diagonal(zeros, contour_levels, n_phi),
        "small": UncertaintySpec.from_diagonal(DEFAULT_SMALL_VARIANCES, contour_levels, n_phi),
        "large": UncertaintySpec.from_diagonal(DEFAULT_LARGE_VARIANCES, contour_levels, n_phi),
    }


def _key(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


# A reader maps (dotted key, JSON value) to a value or raises ConfigError
# naming the key; further arguments come first, for functools.partial.

def _number(where: str, value) -> float:
    """A JSON number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(where: str, value) -> int:
    """A JSON integer; an integral number such as 8.0 counts as one."""
    try:
        return integral(where, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _list(read, where: str, value) -> tuple:
    """A JSON list, each item read by ``read``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(read(f"{where}[{i}]", item) for i, item in enumerate(value))


def _object(readers: dict, where: str, value, required=()) -> dict:
    """A JSON object, each value read by the reader of its key; a key with
    no reader, or a missing ``required`` key, is rejected."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'input'} must be a JSON object")
    for key in value:
        if key not in readers:
            raise ConfigError(f"unknown key {_key(where, key)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{_key(where, key)} is required")
    return {key: readers[key](_key(where, key), item) for key, item in value.items()}


_TYPE_READERS = {
    "float": _number,
    "int": _integer,
    "float | None": lambda where, value: None if value is None else _number(where, value),
}


@functools.cache
def _field_readers(cls) -> dict:
    """Reader of each field of the dataclass ``cls``, by its declared type."""
    return {f.name: _TYPE_READERS[f.type] for f in fields(cls)}


def _build(cls, where: str, value, required=(), **defaults):
    """The dataclass ``cls`` from a JSON object that holds every ``required``
    key; ``defaults`` fill fields that have no default of their own."""
    kwargs = defaults | _object(_field_readers(cls), where, value, required)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


_numbers = functools.partial(_list, _number)


def _sigma_entry(where: str, value):
    return _numbers(where, value) if isinstance(value, list) else _number(where, value)


def _sigma(where: str, value) -> np.ndarray:
    """Covariance from 4 diagonal entries, 16 row-major entries or 4 rows of 4."""
    entries = _list(_sigma_entry, where, value)
    try:
        arr = np.array(entries)
    except ValueError:  # rows of unequal length
        arr = np.empty(0)
    if arr.shape == (STATE_DIM,):
        return np.diag(arr)
    if arr.shape == (STATE_DIM * STATE_DIM,):
        return arr.reshape(STATE_DIM, STATE_DIM)
    if arr.shape == (STATE_DIM, STATE_DIM):
        return arr
    raise ConfigError(
        f"{where} must hold 4 diagonal entries or 16 row-major entries")


SPEC_READERS = {"sigma": _sigma, "contour_levels": _numbers, "n_phi": _integer}


def uncertainty_spec(where: str, entry: dict, levels, n_phi) -> UncertaintySpec:
    """UncertaintySpec from an object read by SPEC_READERS; its contour_levels
    and n_phi default to ``levels`` and ``n_phi``."""
    try:
        return UncertaintySpec(entry["sigma"], entry.get("contour_levels", levels),
                               entry.get("n_phi", n_phi))
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


TOP_LEVEL_READERS = {
    "rss": functools.partial(_build, RssParams),
    "idm": functools.partial(_build, IdmParams),
    "road": functools.partial(_build, RoadParams),
    "scenario": functools.partial(_build, ScenarioParams),
    "lateral": functools.partial(_build, LateralControl),
    "uncertainty": functools.partial(_object, dict.fromkeys(
        COVARIANCE_CASES, functools.partial(_object, SPEC_READERS, required=("sigma",)))),
    "contour_levels": _numbers,
    "n_phi": _integer,
    "policies": functools.partial(_list, lambda where, name: name),  # RunConfig checks them
    "betas": _numbers,
    "simplex_samples": _integer,
    "tau": _number,
    "seed": _integer,
}


def config_from_dict(data) -> RunConfig:
    kwargs = _object(TOP_LEVEL_READERS, "", data)
    levels = kwargs.pop("contour_levels", DEFAULT_CONTOUR_LEVELS)
    n_phi = kwargs.pop("n_phi", DEFAULT_N_PHI)
    try:
        cases = default_uncertainty(levels, n_phi)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    for case, entry in kwargs.get("uncertainty", {}).items():
        cases[case] = uncertainty_spec(f"uncertainty.{case}", entry, levels, n_phi)
    kwargs["uncertainty"] = cases
    return RunConfig(**kwargs)


_agent = functools.partial(_build, AgentState, required=("v",), x=0.0, y=0.0, theta=0.0)
ENVELOPE_READERS = {"ego": _agent, "agents": functools.partial(_list, _agent),
                    "beta": _number, "tau": _number, **SPEC_READERS}


def envelope_input(data, cfg: RunConfig, beta: float):
    """(ego, agents, spec, beta, tau) of an envelope input object.  The spec
    defaults to the contour levels and n_phi of ``cfg``'s small case, tau
    to ``cfg.tau`` and beta to ``beta``."""
    data = _object(ENVELOPE_READERS, "", data, ("ego", "sigma"))
    base = cfg.uncertainty["small"]
    spec = uncertainty_spec("input", data, base.contour_levels, base.n_phi)
    tau = check_tau(data["tau"]) if "tau" in data else cfg.tau
    return (data["ego"], data.get("agents", ()), spec,
            check_beta(data.get("beta", beta)), tau)


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
