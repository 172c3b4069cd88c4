"""Benchmark harness: scenario generation, baseline policies, rate sweeps.

Four ego policies share one scenario set with paired seeds:

* ProbabilisticEnvelopeRestriction: risk-bounded envelope clamps the nominal
  controller; the safety maneuver latches when the expected violation of any
  single agent exceeds the risk level.
* EnvelopeRestriction: envelope at the observed states clamps the controller;
  switches on an observed violation.
* Simplex: unrestricted controller; switches on an observed violation.
* ProbabilisticSimplex: unrestricted controller; switches when the sampled
  mean violation over drawn deviations exceeds the risk level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import POLICY_NAMES, RunConfig
from .prob_envelope import (
    agent_analyses,
    contour_samples,
    perturbed_state_arrays,
    risk_bounded_envelope,
    should_switch,
)
from .rss import (
    AgentState,
    Envelope,
    less_restrictive_any,
    safety_envelope,
    safety_violated,
    unrestricted_envelope,
    violation_batch,
)
from .sim import (
    EpisodeResult,
    ObservedWorld,
    WorldState,
    nominal_lane_change,
    safety_maneuver,
    simulate,
)
from .uncertainty import EigenBasis, UncertaintySpec, eigendecompose

BETA_FREE_POLICIES = ("EnvelopeRestriction", "Simplex")


@dataclass(frozen=True)
class ScenarioConfig:
    """Initial conditions of one episode; fully determined by the master seed."""

    index: int
    seed: int
    ego_speed: float
    others: tuple[tuple[float, int, float], ...]  # (x, lane, speed)
    dt: float = 0.2
    horizon: float = 8.0


def generate_scenarios(n: int, master_seed: int, cfg: RunConfig) -> list[ScenarioConfig]:
    """Deterministic scenario draws: uniform speeds, uniform platoon gaps.

    The left-lane platoon straddles the ego's projected merge point
    (merge_lookahead ahead of the ego start); consecutive platoon gaps fall in
    [gap_min, gap_max].
    """
    if n < 1:
        raise ValueError("scenario count must be >= 1")
    sp = cfg.scenario
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    scenarios = []
    for i in range(n):
        ego_speed = float(rng.uniform(sp.speed_min, sp.speed_max))
        others = []
        # First platoon vehicle sits half a gap behind the merge point.
        first_gap = float(rng.uniform(sp.gap_min, sp.gap_max))
        x = sp.merge_lookahead - 0.5 * first_gap
        others.append((x, 1, float(rng.uniform(sp.speed_min, sp.speed_max))))
        for _ in range(sp.n_others - 1):
            gap = float(rng.uniform(sp.gap_min, sp.gap_max))
            x += gap
            others.append((x, 1, float(rng.uniform(sp.speed_min, sp.speed_max))))
        seed = int(rng.integers(0, 2**31 - 1))
        scenarios.append(ScenarioConfig(index=i, seed=seed, ego_speed=ego_speed,
                                        others=tuple(others), dt=sp.dt,
                                        horizon=sp.horizon))
    return scenarios


def initial_world(scn: ScenarioConfig, cfg: RunConfig) -> WorldState:
    road = cfg.road
    ego = AgentState(x=0.0, y=road.lane_center(0), theta=0.0, v=scn.ego_speed)
    others = tuple(AgentState(x=x, y=road.lane_center(lane), theta=0.0, v=v)
                   for x, lane, v in scn.others)
    lanes = tuple(lane for _, lane, _ in scn.others)
    return WorldState(time=0.0, ego=ego, others=others, other_lanes=lanes, road=road)


class Policy:
    """Per-episode policy closure handed to sim.simulate.

    Carries the precomputed eigenbasis and contour samples of the
    covariance case, its own RNG stream for sampled switching, and the latch.
    """

    def __init__(self, kind: str, beta: float, cfg: RunConfig,
                 spec: UncertaintySpec, basis: EigenBasis,
                 policy_rng: np.random.Generator | None, ego_v0: float):
        if kind not in POLICY_NAMES:
            raise ValueError(f"unknown policy {kind!r}")
        self.kind = kind
        self.beta = beta
        self.cfg = cfg
        self.basis = basis
        self.rng = policy_rng
        self.ego_v0 = ego_v0
        self.latched = False
        self.samples = (contour_samples(basis, spec)
                        if kind == "ProbabilisticEnvelopeRestriction" else None)

    # Returns (a_lon, a_lat, mode, envelope, env_violated) per simulate().
    def __call__(self, obs: ObservedWorld, world: WorldState):
        cfg = self.cfg
        rss = cfg.rss
        envelope = None
        if not self.latched:
            switch, envelope = self._decide(obs)
            if switch:
                self.latched = True
        if self.latched:
            a_lon, a_lat = safety_maneuver(obs, cfg.road, rss, cfg.lateral)
            return a_lon, a_lat, "safety", None, None
        applied = envelope if envelope is not None else unrestricted_envelope(rss)
        a_lon, a_lat = nominal_lane_change(obs, 1, applied, cfg.road, cfg.idm,
                                           self.ego_v0, rss, cfg.lateral)
        env_violated = None
        if envelope is not None and world is not None:
            true_env = safety_envelope(world.ego, world.others, rss, cfg.tau)
            env_violated = less_restrictive_any(envelope, true_env)
        return a_lon, a_lat, "nominal", envelope, env_violated

    def _decide(self, obs: ObservedWorld) -> tuple[bool, Envelope | None]:
        """Switch decision and (for restricting policies) the envelope."""
        cfg = self.cfg
        if self.kind == "EnvelopeRestriction":
            return (safety_violated(obs.ego, obs.others, cfg.rss),
                    safety_envelope(obs.ego, obs.others, cfg.rss, cfg.tau))
        if self.kind == "Simplex":
            return safety_violated(obs.ego, obs.others, cfg.rss), None
        if self.kind == "ProbabilisticEnvelopeRestriction":
            dists, expectations = agent_analyses(obs.ego, obs.others, self.samples,
                                                 cfg.rss, cfg.tau)
            if should_switch(expectations, self.beta):
                return True, None
            if not dists:
                return False, unrestricted_envelope(cfg.rss)
            return False, risk_bounded_envelope(dists, self.beta, cfg.rss)
        # ProbabilisticSimplex: sampled per-agent mean violation.
        m = cfg.simplex_samples
        scale = np.sqrt(self.basis.eigenvalues)
        for o in obs.others:
            draws = self.rng.standard_normal((m, 4))
            devs = (draws * scale) @ self.basis.eigenvectors.T
            ox, oy, ov, ot = perturbed_state_arrays(o, devs)
            frac = float(violation_batch(obs.ego, ox, oy, ov, ot, cfg.rss).mean())
            if frac > self.beta:
                return True, None
        return False, None


def run_episode(scn: ScenarioConfig, kind: str, beta: float, case: str,
                cfg: RunConfig, collect_trace: bool = False) -> EpisodeResult:
    """One deterministic episode of one policy on one covariance case.

    Observation noise and policy sampling use independent child streams of
    the scenario seed, so the observed world is identical across policies
    until commands diverge.
    """
    spec = cfg.uncertainty[case]
    basis = eigendecompose(spec.sigma)
    ss = np.random.SeedSequence(entropy=scn.seed, spawn_key=(0,))
    obs_ss, policy_ss = ss.spawn(2)
    obs_rng = np.random.default_rng(obs_ss)
    policy_rng = np.random.default_rng(policy_ss)
    ego_v0 = cfg.idm.v0 if cfg.idm.v0 is not None else scn.ego_speed
    policy = Policy(kind, beta, cfg, spec, basis, policy_rng, ego_v0=ego_v0)
    world = initial_world(scn, cfg)
    others_v0 = tuple(cfg.idm.v0 if cfg.idm.v0 is not None else v
                      for _, _, v in scn.others)
    return simulate(world, policy, basis, obs_rng, cfg.idm, others_v0,
                    cfg.rss, scn.dt, scn.horizon, collect_trace=collect_trace)


@dataclass
class RateRow:
    """One cell of the rate table."""

    policy: str
    covariance_case: str
    beta: float
    success_rate: float
    collision_rate: float
    timeout_rate: float
    n: int
    mean_steps: float
    mean_violation_freq: float | None
    envelope_steps: int = 0
    outcomes: list[dict] = field(default_factory=list)


def _aggregate(policy: str, case: str, beta: float,
               results: list[EpisodeResult], scenarios) -> RateRow:
    n = len(results)
    counts = {"Success": 0, "Collision": 0, "Timeout": 0}
    for r in results:
        counts[r.outcome] += 1
    env_steps = sum(r.envelope_steps for r in results)
    env_viol = sum(r.envelope_violations for r in results)
    freq = (env_viol / env_steps) if env_steps else None
    outcomes = [{"index": s.index, "seed": s.seed, "outcome": r.outcome,
                 "steps": r.steps} for s, r in zip(scenarios, results)]
    return RateRow(policy=policy, covariance_case=case, beta=beta,
                   success_rate=counts["Success"] / n,
                   collision_rate=counts["Collision"] / n,
                   timeout_rate=counts["Timeout"] / n,
                   n=n, mean_steps=sum(r.steps for r in results) / n,
                   mean_violation_freq=freq, envelope_steps=env_steps,
                   outcomes=outcomes)


def run_cell(scenarios, policy: str, case: str, beta: float, cfg: RunConfig) -> RateRow:
    results = [run_episode(s, policy, beta, case, cfg) for s in scenarios]
    return _aggregate(policy, case, beta, results, scenarios)


def sweep(scenarios, policies, cases, betas, cfg: RunConfig,
          pool=None) -> list[RateRow]:
    """Rate table over every (policy, covariance case, beta) cell.

    Policies that ignore the risk level run once per case and replicate
    across the beta grid; all cells share the per-scenario seeds.
    """
    if not (scenarios and policies and cases and betas):
        raise ValueError("scenarios, policies, cases and betas must be non-empty")
    jobs = []
    for policy in policies:
        for case in cases:
            cell_betas = [betas[0]] if policy in BETA_FREE_POLICIES else list(betas)
            for beta in cell_betas:
                jobs.append((policy, case, beta))
    if pool is None:
        cells = [run_cell(scenarios, p, c, b, cfg) for p, c, b in jobs]
    else:
        cells = pool.starmap(run_cell, [(scenarios, p, c, b, cfg) for p, c, b in jobs])
    by_key = {(r.policy, r.covariance_case, r.beta): r for r in cells}
    rows = []
    for policy in policies:
        for case in cases:
            for beta in betas:
                key_beta = betas[0] if policy in BETA_FREE_POLICIES else beta
                rows.append(replace(by_key[(policy, case, key_beta)], beta=beta))
    return rows


CSV_HEADER = ("policy,covariance_case,beta,success_rate,collision_rate,"
              "timeout_rate,n,mean_steps,mean_violation_freq")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        freq = "" if r.mean_violation_freq is None else repr(r.mean_violation_freq)
        lines.append(f"{r.policy},{r.covariance_case},{r.beta!r},{r.success_rate!r},"
                     f"{r.collision_rate!r},{r.timeout_rate!r},{r.n},"
                     f"{r.mean_steps!r},{freq}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> list[dict]:
    return [{
        "policy": r.policy,
        "covariance_case": r.covariance_case,
        "beta": r.beta,
        "success_rate": r.success_rate,
        "collision_rate": r.collision_rate,
        "timeout_rate": r.timeout_rate,
        "n": r.n,
        "mean_steps": r.mean_steps,
        "mean_violation_freq": r.mean_violation_freq,
        "scenarios": r.outcomes,
    } for r in rows]


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = 0.5 * (i + j) + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx = ranks(list(xs))
    ry = ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / (vx * vy)
