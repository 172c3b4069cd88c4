"""The three benchmark workloads: seeded inputs, one op each, and the gate.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  The ops reach the program only through
its stable entry points (``bench.generate_scenarios``, ``bench.run_episode``,
``config.RunConfig`` and ``cli.main``), so a refactor behind them does not
break the benchmark.

* ``sweep-contours``: ProbabilisticEnvelopeRestriction on the ``small`` and
  ``large`` covariance cases over a beta grid.  Every non-latched step runs
  the contour analysis, so the pair kernel in ``rss`` is the hot path.
* ``sweep-baselines``: the three baseline policies on all three covariance
  cases plus ProbabilisticEnvelopeRestriction on ``none``.  No contour
  analysis runs, the kernel sees one or two rows per call, and the scalar
  simulator dominates.  It is the bypass workload for big-batch kernel work.
* ``envelope-queries``: a stream of ``riskenv envelope`` inputs run in
  process through ``cli.main``; nothing is cached between queries.

The seed fixes every input.  Inputs are stratified so that a run's cost mix
depends little on the seed: per-step cost varies tenfold between scenarios
(a policy that latches early runs cheap safety steps), and an unstratified
draw of a few hundred episodes moved steps/s by about 7 % between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep-contours", "sweep-baselines", "envelope-queries")

PER = "ProbabilisticEnvelopeRestriction"
CONTOUR_CELLS = tuple((PER, case, beta) for case in ("small", "large")
                      for beta in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0))
BASELINE_CELLS = tuple((policy, case, 0.1)
                       for policy in ("EnvelopeRestriction", "Simplex",
                                      "ProbabilisticSimplex")
                       for case in ("none", "small", "large")) + ((PER, "none", 0.1),)

# Scenarios are binned by ego speed and by the position of the first platoon
# vehicle, the two inputs that best predict per-step cost, into STRATA_SIDE
# quantile bins each.
STRATA_SIDE = 7
SCENARIO_POOL = 6000
SWEEP_OPS = 6000          # the op list is cycled if a run gets through it

QUERY_AGENTS = tuple(range(1, 9))
QUERY_N_PHI = (6, 8, 12)
QUERY_COVARIANCES = ("small", "large", "correlated")
QUERY_BLOCKS = 16         # each block holds every (agents, n_phi, covariance) once
QUERY_BETAS = (0.01, 0.05, 0.1, 0.2, 0.5)
CONTOUR_LEVELS = (0.25, 0.5, 0.75, 0.93, 0.97, 0.999)
SMALL_VARIANCES = (0.04, 0.04, 0.04, 1e-4)
LARGE_VARIANCES = (0.16, 0.16, 0.16, 4e-4)
LANE_WIDTH = 3.5

# Canonical outputs of the program at the commit that defined the benchmark
# for these seeds; any seed also gets the invariant checks.
REFERENCE_SEEDS = (0, 1, 2, 3)
REFERENCE_OPS = {"sweep-contours": 120, "sweep-baselines": 400,
                 "envelope-queries": 144}
# Absolute tolerance on query outputs against the reference.  The envelope
# bounds come from a 40-step bisection over [-8, 8] (resolution ~1.5e-11).
QUERY_ABS_TOL = 1e-9
OUTCOMES = ("Success", "Collision", "Timeout")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class OpResult:
    """What one op returned, reduced to the values the gate checks."""

    units: int            # simulation steps, or 1 per query
    output: object        # tuple for an episode, dict for a query
    error: str | None     # exception text, or None


class Workload:
    """Seeded inputs plus the op and the gate of one workload."""

    name: str
    unit: str             # what ops_per_s counts
    contour_levels: int   # contour levels per covariance in the inputs

    def op_count(self) -> int:
        raise NotImplementedError

    def stage(self, k: int) -> None:
        """Prepare what op k reads; called untimed right before the op."""

    def run_op(self, k: int) -> OpResult:
        raise NotImplementedError

    def cell_of(self, k: int):
        """The sweep cell (policy, case, beta) of op k, or None."""
        return None

    def warm_up(self) -> OpResult:
        self.stage(self.op_count() - 1)
        return self.run_op(self.op_count() - 1)

    def check(self, k: int, result: OpResult) -> str | None:
        """None if the op's output is correct, else the reason it is not."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def load_reference(workload: str, seed: int):
    if seed not in REFERENCE_SEEDS:
        return None
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)[str(seed)]


# ---------------------------------------------------------------------------
# Sweeps


def _quantile_bins(values, n_bins):
    order = np.argsort(np.asarray(values), kind="stable")
    bins = np.empty(len(values), dtype=int)
    bins[order] = np.arange(len(values)) * n_bins // len(values)
    return bins


def stratified_order(scenarios, n_cells: int, n_ops: int):
    """(cell index, scenario) for ops 0..n_ops-1.

    Op k runs cell k mod n_cells on a scenario of stratum k mod n_strata.
    The two counts are coprime, so every n_cells consecutive ops cover every
    cell, every n_strata consecutive ops cover every stratum, and each block
    of n_cells * n_strata ops pairs each cell with each stratum once.  Each
    op takes the next unused scenario of its stratum.
    """
    n_strata = STRATA_SIDE * STRATA_SIDE
    if math.gcd(n_cells, n_strata) != 1:
        raise ValueError(f"{n_cells} cells and {n_strata} strata must be coprime")
    speed_bin = _quantile_bins([s.ego_speed for s in scenarios], STRATA_SIDE)
    lead_bin = _quantile_bins([s.others[0][0] for s in scenarios], STRATA_SIDE)
    members = [[] for _ in range(n_strata)]
    for i, s in enumerate(scenarios):
        members[speed_bin[i] * STRATA_SIDE + lead_bin[i]].append(s)
    used = [0] * n_strata
    order = []
    for k in range(n_ops):
        stratum = k % n_strata
        pool = members[stratum]
        order.append((k % n_cells, pool[used[stratum] % len(pool)]))
        used[stratum] += 1
    return order


class SweepWorkload(Workload):
    unit = "steps"

    def __init__(self, name: str, seed: int, riskenv):
        self.name = name
        self.bench = riskenv.bench
        self.cfg = riskenv.config.RunConfig()
        self.cells = CONTOUR_CELLS if name == "sweep-contours" else BASELINE_CELLS
        pool = self.bench.generate_scenarios(SCENARIO_POOL, seed, self.cfg)
        self.ops = stratified_order(pool, len(self.cells), SWEEP_OPS)
        sp = self.cfg.scenario
        self.max_steps = math.ceil(sp.horizon / sp.dt) + 1
        self.contour_levels = len(self.cfg.uncertainty["small"].contour_levels)
        self.reference = load_reference(name, seed)

    def op_count(self) -> int:
        return len(self.ops)

    def cell_of(self, k: int):
        return self.cells[self.ops[k % len(self.ops)][0]]

    def run_op(self, k: int) -> OpResult:
        cell, scenario = self.ops[k % len(self.ops)]
        policy, case, beta = self.cells[cell]
        try:
            r = self.bench.run_episode(scenario, policy, beta, case, self.cfg)
        except Exception as exc:  # noqa: BLE001 - an op that raises has failed
            return OpResult(0, None, f"{type(exc).__name__}: {exc}")
        out = (r.outcome, r.steps, r.envelope_steps, r.envelope_violations)
        return OpResult(int(r.steps), out, None)

    def check(self, k: int, result: OpResult) -> str | None:
        if result.error is not None:
            return result.error
        outcome, steps, env_steps, env_viol = result.output
        if outcome not in OUTCOMES:
            return f"op {k}: outcome {outcome!r} is not one of {OUTCOMES}"
        if not (1 <= steps <= self.max_steps):
            return f"op {k}: {steps} steps outside [1, {self.max_steps}]"
        if not (0 <= env_viol <= env_steps <= steps):
            return f"op {k}: envelope counts {env_viol}/{env_steps} of {steps} steps"
        if self.reference is not None and k < len(self.reference):
            want = tuple(self.reference[k])
            if tuple(result.output) != want:
                return f"op {k}: got {result.output}, reference {want}"
        return None


# ---------------------------------------------------------------------------
# Envelope queries


def _query_agent(rng, ego_lane: int) -> dict:
    where = rng.integers(0, 3)   # ahead, behind, beside
    if where == 0:
        dx = rng.uniform(6.0, 45.0)
    elif where == 1:
        dx = -rng.uniform(6.0, 45.0)
    else:
        dx = rng.uniform(-5.0, 5.0)
    # Beside the ego means the other lane; ahead and behind, either lane.
    lane = 1 - ego_lane if where == 2 else int(rng.integers(0, 2))
    return {"x": float(dx), "y": float(LANE_WIDTH * lane + rng.normal(0.0, 0.15)),
            "theta": float(rng.uniform(-0.03, 0.03)), "v": float(rng.uniform(8.0, 26.0))}


def _query_sigma(rng, kind: str) -> list[float]:
    if kind == "small":
        return list(SMALL_VARIANCES)
    if kind == "large":
        return list(LARGE_VARIANCES)
    # Correlated: random correlation matrix scaled to the small or large
    # variances, written as 16 row-major entries.
    variances = np.asarray(SMALL_VARIANCES if rng.integers(0, 2) == 0 else LARGE_VARIANCES)
    b = rng.normal(size=(4, 4))
    c = b @ b.T + 2.0 * np.eye(4)
    d = 1.0 / np.sqrt(np.diag(c))
    corr = c * d[:, None] * d[None, :]
    s = np.sqrt(variances)
    sigma = corr * s[:, None] * s[None, :]
    sigma = 0.5 * (sigma + sigma.T)
    return [float(v) for v in sigma.ravel()]


def query_inputs(seed: int) -> list[dict]:
    """QUERY_BLOCKS blocks; each holds every (agents, n_phi, covariance)
    combination once, in a seeded order, with seeded geometry and beta."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E3779B9]))
    combos = [(n, p, c) for n in QUERY_AGENTS for p in QUERY_N_PHI
              for c in QUERY_COVARIANCES]
    inputs = []
    for _ in range(QUERY_BLOCKS):
        for idx in rng.permutation(len(combos)):
            n_agents, n_phi, kind = combos[idx]
            ego_lane = int(rng.integers(0, 2))
            ego = {"x": 0.0, "y": float(LANE_WIDTH * ego_lane + rng.normal(0.0, 0.1)),
                   "theta": float(rng.uniform(-0.03, 0.03)),
                   "v": float(rng.uniform(12.0, 24.0))}
            inputs.append({
                "ego": ego,
                "agents": [_query_agent(rng, ego_lane) for _ in range(n_agents)],
                "sigma": _query_sigma(rng, kind),
                "beta": float(QUERY_BETAS[rng.integers(0, len(QUERY_BETAS))]),
                "contour_levels": list(CONTOUR_LEVELS),
                "n_phi": n_phi,
            })
    return inputs


ENVELOPE_KEYS = ("a_lon_min", "a_lon_max", "a_lat_min", "a_lat_max")


def query_values(out: dict) -> list[float]:
    """Flat numeric view of one query output, in a fixed order."""
    vals = []
    for env in ("deterministic_envelope", "probabilistic_envelope"):
        vals.extend(float(out[env][k]) for k in ENVELOPE_KEYS)
    vals.extend(float(e) for e in out["per_agent_violation_expectation"])
    return vals


class QueryWorkload(Workload):
    name = "envelope-queries"
    unit = "queries"
    contour_levels = len(CONTOUR_LEVELS)

    def __init__(self, seed: int, riskenv, work_dir: str):
        self.cli = riskenv.cli
        rss = riskenv.config.RunConfig().rss
        self.lon_limit = rss.a_lon_limit
        self.lat_limit = rss.a_lat_limit
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"tau": 0.2}, fh)
        self.inputs = query_inputs(seed)
        # Each query file is written by stage(), outside both set-up and op
        # time: written all at set-up, the 1152 files would make set-up time
        # swing twofold with the speed of small file writes, which is not the
        # program's doing.
        self.input_path = os.path.join(work_dir, "query.json")
        self.argv = ["envelope", "--input", self.input_path, "--config", config_path]
        self.staged = None
        self.reference = load_reference(self.name, seed)

    def op_count(self) -> int:
        return len(self.inputs)

    def stage(self, k: int) -> None:
        with open(self.input_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.inputs[k % len(self.inputs)]))
        self.staged = k % len(self.inputs)

    def run_op(self, k: int) -> OpResult:
        if self.staged != k % len(self.inputs):
            return OpResult(1, None, f"op {k} was not staged")
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - an op that raises has failed
            return OpResult(1, None, f"{type(exc).__name__}: {exc}")
        if rc != 0:
            return OpResult(1, None, f"exit {rc}: {err.getvalue().strip()}")
        try:
            return OpResult(1, json.loads(out.getvalue()), None)
        except json.JSONDecodeError as exc:
            return OpResult(1, None, f"unparsable output: {exc}")

    def check(self, k: int, result: OpResult) -> str | None:
        if result.error is not None:
            return result.error
        data = self.inputs[k % len(self.inputs)]
        why = self.check_invariants(data, result.output)
        if why is not None:
            return f"op {k}: {why}"
        if self.reference is not None and k < len(self.reference):
            want_vals, want_switch = self.reference[k]
            got = query_values(result.output)
            if len(got) != len(want_vals):
                return f"op {k}: {len(got)} values, reference has {len(want_vals)}"
            worst = max(abs(a - b) for a, b in zip(got, want_vals))
            if worst > QUERY_ABS_TOL:
                return f"op {k}: off the reference by {worst:.3e} > {QUERY_ABS_TOL:g}"
            if bool(result.output["switch_decision"]) != want_switch:
                return f"op {k}: switch decision differs from the reference"
        return None

    def check_invariants(self, data: dict, out) -> str | None:
        try:
            vals = query_values(out)
            expectations = [float(e) for e in out["per_agent_violation_expectation"]]
            switch = out["switch_decision"]
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc}"
        if not all(math.isfinite(v) for v in vals):
            return "non-finite output"
        if len(expectations) != len(data["agents"]):
            return f"{len(expectations)} expectations for {len(data['agents'])} agents"
        if not all(0.0 <= e <= 1.0 + 1e-12 for e in expectations):
            return "violation expectation outside [0, 1]"
        if switch is not any(e > data["beta"] for e in expectations):
            return "switch_decision != any(expectation > beta)"
        # Every component lies within the physical limits; the restrictive
        # sentinel sits on those limits, so it passes this check too.
        for env in ("deterministic_envelope", "probabilistic_envelope"):
            e = out[env]
            for key, limit in (("a_lon_min", self.lon_limit), ("a_lon_max", self.lon_limit),
                               ("a_lat_min", self.lat_limit), ("a_lat_max", self.lat_limit)):
                if not (-limit <= e[key] <= limit):
                    return f"{env}.{key} = {e[key]} outside [-{limit}, {limit}]"
        return None

    def close(self) -> None:
        for name in os.listdir(self.work_dir):
            os.remove(os.path.join(self.work_dir, name))
        os.rmdir(self.work_dir)


def make_workload(name: str, seed: int, riskenv, work_dir: str) -> Workload:
    if name == "envelope-queries":
        return QueryWorkload(seed, riskenv, work_dir)
    if name in ("sweep-contours", "sweep-baselines"):
        return SweepWorkload(name, seed, riskenv)
    raise ValueError(f"unknown workload {name!r}")
