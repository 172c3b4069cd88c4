"""The JSON layer over the core modules: the run config and its defaults,
and one set of readers for the config file and the envelope input.  The
core classes declare and enforce each field's type and range
(``rss.check_bounds``); a reader adds the JSON rules: an unknown key or a
value of the wrong JSON type raises ConfigError naming its dotted key.  A
covariance is 4 diagonal entries, 16 row-major entries or 4 rows of 4.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .prob_envelope import check_beta
from .rss import (MAX_POSITION, MAX_SPEED, MAX_TAU, AgentState, ConfigError, RssParams, bounded,
                  check_bounds, check_order, integral, real, sequence)
from .sim import MAX_DT, MIN_SPEED, IdmParams, LateralControl, RoadParams
from .uncertainty import MAX_SIMPLEX_ROWS, STATE_DIM, UncertaintySpec

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


# Bounds on the scenario sizes, so that every accepted config runs in bounded
# time and memory.  results.json keeps one record of about 118 bytes per
# scenario per cell (96 cells in the default sweep): 10,000 scenarios, 100x
# the default, are 960,000 records, about 113 MB.
MAX_SCENARIOS = 10_000
# A sweep has len(policies) x 3 covariance cases x len(betas) cells, each a
# row of rates.csv and a record of results.json with every scenario: 8
# policies (each name twice) and 32 betas, 4x the default, are 768 cells, 8x
# the default 96.
MAX_POLICIES, MAX_BETAS = 8, 32
# The product of the two bounds above: at most 1,000,000 records (about 118 MB
# of results.json), which holds the default 96 cells at MAX_SCENARIOS; 768
# cells at MAX_SCENARIOS would be 7.68 M records, about 0.9 GB.
MAX_RECORDS = 1_000_000
# A simulate trace keeps one record per step: 10,000 steps is 250x the
# default episode (8 s at dt = 0.2 s).
MAX_EPISODE_STEPS = 10_000
# Each other agent adds its contour rows to every PER step: 100 agents, 50x
# the default platoon, is 48,000 kernel rows per step on the default grid.
MAX_OTHERS = 100
# A step of at least MIN_DT keeps classify_outcome's 1e-9 s tolerance far below a step.
# Positions stay inside MAX_POSITION: the platoon starts within MAX_POSITION / 2 (merge
# point and MAX_OTHERS gaps a quarter each) and no one travels past MAX_SPEED * (horizon + dt).
MIN_DT, MAX_LOOKAHEAD = 1e-3, MAX_POSITION / 4  # s, m


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario generation: a two-vehicle platoon on the left lane straddling
    the point the ego is expected to reach when it merges."""

    n_scenarios: int = bounded(100, 1, MAX_SCENARIOS)
    speed_min: float = bounded(15.3, MIN_SPEED, MAX_SPEED)
    speed_max: float = bounded(19.9, MIN_SPEED, MAX_SPEED)
    gap_min: float = bounded(40.0, 0.0, MAX_LOOKAHEAD / MAX_OTHERS, low_open=True)
    gap_max: float = bounded(50.0, 0.0, MAX_LOOKAHEAD / MAX_OTHERS, low_open=True)
    n_others: int = bounded(2, 1, MAX_OTHERS)
    merge_lookahead: float = bounded(26.5, -MAX_LOOKAHEAD, MAX_LOOKAHEAD)  # merge point (m)
    dt: float = bounded(0.2, MIN_DT, MAX_DT)
    horizon: float = bounded(8.0, 0.0, MAX_EPISODE_STEPS * MAX_DT, low_open=True)

    def __post_init__(self):
        check_bounds(self)
        check_order(self, ("speed_min", "speed_max"), ("gap_min", "gap_max"))
        if self.horizon / self.dt > MAX_EPISODE_STEPS:
            raise ValueError(f"horizon / dt must be <= {MAX_EPISODE_STEPS}")


def _shared(value):
    """A field whose default is the frozen ``value`` itself, shared by every
    instance.  It is kept off the class: a class attribute of the field's name
    stops Python 3.11 from specializing reads of it (16 -> 28 ns a read)."""
    return field(default_factory=lambda: value)


@dataclass(frozen=True)
class RunConfig:
    rss: RssParams = _shared(RssParams())
    idm: IdmParams = _shared(IdmParams())
    road: RoadParams = _shared(RoadParams())
    scenario: ScenarioParams = _shared(ScenarioParams())
    lateral: LateralControl = _shared(LateralControl())
    uncertainty: dict = field(default_factory=dict)  # case name -> UncertaintySpec
    policies: tuple[str, ...] = POLICY_NAMES
    betas: tuple[float, ...] = DEFAULT_BETAS
    simplex_samples: int = bounded(100, 1, MAX_SIMPLEX_ROWS)
    tau: float = bounded(0.2, 0.0, MAX_TAU, low_open=True)  # envelope horizon (s)
    seed: int = bounded(20260808, 0, math.inf)

    def __post_init__(self):
        check_bounds(self)
        if not self.uncertainty:
            object.__setattr__(self, "uncertainty", default_uncertainty())
        for key, most in (("policies", MAX_POLICIES), ("betas", MAX_BETAS)):
            items = sequence(key, getattr(self, key))
            if not items:
                raise ConfigError(f"{key} must be non-empty")
            if len(items) > most:
                raise ConfigError(f"{key} must hold at most {most} entries, got {len(items)}")
            object.__setattr__(self, key, items)
        for i, name in enumerate(self.policies):
            if name not in POLICY_NAMES:
                raise ConfigError(f"policies[{i}]: unknown policy {name!r}")
        object.__setattr__(self, "betas", tuple(check_beta(b, f"betas[{i}]")
                                                for i, b in enumerate(self.betas)))
        sizes = (len(self.policies), len(COVARIANCE_CASES), len(self.betas),
                 self.scenario.n_scenarios)
        if math.prod(sizes) > MAX_RECORDS:
            raise ConfigError(f"policies x covariance cases x betas x scenario.n_scenarios "
                              f"must be <= {MAX_RECORDS} records, got "
                              f"{' x '.join(map(str, sizes))}")
        for case in self.uncertainty:
            if case not in COVARIANCE_CASES:
                raise ConfigError(f"unknown covariance case {case!r}")
        if self.simplex_samples * self.scenario.n_others > MAX_SIMPLEX_ROWS:
            raise ConfigError(f"simplex_samples x scenario.n_others must be <= "
                              f"{MAX_SIMPLEX_ROWS}, got {self.simplex_samples} x "
                              f"{self.scenario.n_others}")


def default_uncertainty(contour_levels=DEFAULT_CONTOUR_LEVELS,
                        n_phi=DEFAULT_N_PHI) -> dict:
    """A new dict of the three default specs, case name -> UncertaintySpec;
    the specs, frozen with read-only arrays, are shared."""
    return _default_specs(sequence("contour_levels", contour_levels), n_phi).copy()


@functools.lru_cache(maxsize=4)  # a process loads few (contour_levels, n_phi) pairs
def _default_specs(contour_levels: tuple, n_phi) -> dict:
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
    "float": real,
    "int": integral,
    "float | None": lambda where, value: None if value is None else real(where, value),
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


_numbers = functools.partial(_list, real)


def _sigma_entry(where: str, value):
    return _numbers(where, value) if isinstance(value, list) else real(where, value)


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
        f"{where} must hold 4 diagonal entries, 16 row-major entries or 4 rows of 4")


SPEC_READERS = {"sigma": _sigma, "contour_levels": _numbers, "n_phi": integral}


def uncertainty_spec(where: str, entry: dict, levels, n_phi) -> UncertaintySpec:
    """UncertaintySpec from an object read by SPEC_READERS at the dotted key
    ``where`` ("" for the envelope input); its contour_levels and n_phi
    default to ``levels`` and ``n_phi``.  Its sigma is decomposed here, so a
    matrix that is not positive semi-definite is a usage error."""
    try:
        spec = UncertaintySpec(entry["sigma"], entry.get("contour_levels", levels),
                               entry.get("n_phi", n_phi))
    except ValueError as exc:
        raise ConfigError(f"invalid {where or 'input'}: {exc}") from exc
    try:
        spec.basis
    except ValueError:
        raise ConfigError(f"{_key(where, 'sigma')} must be positive semi-definite") from None
    return spec


TOP_LEVEL_READERS = {
    "rss": functools.partial(_build, RssParams),
    "idm": functools.partial(_build, IdmParams),
    "road": functools.partial(_build, RoadParams),
    "scenario": functools.partial(_build, ScenarioParams),
    "lateral": functools.partial(_build, LateralControl),
    "uncertainty": functools.partial(_object, dict.fromkeys(
        COVARIANCE_CASES, functools.partial(_object, SPEC_READERS, required=("sigma",)))),
    "contour_levels": _numbers,
    "n_phi": integral,
    "policies": functools.partial(_list, lambda where, name: name),  # RunConfig checks them
    "betas": _numbers,
    "simplex_samples": integral,
    "tau": real,
    "seed": integral,
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
                    "beta": real, "tau": real, **SPEC_READERS}


def envelope_input(data, cfg: RunConfig, beta: float):
    """(ego, agents, spec, beta, tau) of an envelope input object.  The spec
    defaults to the contour levels and n_phi of ``cfg``'s small case, tau
    to ``cfg.tau`` and beta to ``beta``."""
    data = _object(ENVELOPE_READERS, "", data, ("ego", "sigma"))
    base = cfg.uncertainty["small"]
    spec = uncertainty_spec("", data, base.contour_levels, base.n_phi)
    tau = replace(cfg, tau=data["tau"]).tau if "tau" in data else cfg.tau
    return (data["ego"], data.get("agents", ()), spec,
            check_beta(data.get("beta", beta)), tau)


def read_json(path) -> object:
    """Parsed JSON file; a path that cannot be read, malformed JSON, or an
    integer literal too long for Python to convert, raises ConfigError naming
    the path.  The readers reject non-finite numbers, naming their dotted key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    """RunConfig from a JSON file; None yields the built-in defaults."""
    if path is None:
        return RunConfig()
    return config_from_dict(read_json(path))
