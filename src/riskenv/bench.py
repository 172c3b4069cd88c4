"""Benchmark harness: scenario generation, the episode loop, rate sweeps.

``run_episode`` is the closed loop: perception, the policy's analysis (a
``Policy`` pairs each agent with its samples; ``prob_envelope`` turns the
pairs into kernel rows), the switch decision at the risk level (latched), the
command, the simulator step.
Four ego policies share one scenario set with paired seeds:

* ProbabilisticEnvelopeRestriction: risk-bounded envelope clamps the nominal
  controller; the safety maneuver latches when the expected violation of any
  single agent exceeds the risk level.
* ProbabilisticSimplex: unrestricted controller; switches when the sampled
  mean violation over drawn deviations exceeds the risk level.
* EnvelopeRestriction and Simplex: the two above at zero covariance and
  beta 0, so the envelope is the one at the observed states and either
  switches on an observed violation.

A step draws perception noise only if it begins unlatched, or records a trace,
at nonzero covariance.  Exact: nothing else reads the noise, a latched step
reads only the ego, and a zero-covariance draw (+-0.0) moves no observed value.
An untraced episode that latches steps the others only while the safety
maneuver can still reach their lanes (``run_episode`` states why that is
exact); a traced one (``simulate --out``) steps every agent to the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .config import POLICY_NAMES, RunConfig
from .prob_envelope import (
    analyze_step,
    check_beta,
    mean_violations,
    risk_bounded_envelope,
    should_switch,
)
from .rss import AgentState, ConfigError, less_restrictive_any, unrestricted_envelope
from .sim import (
    EpisodeResult,
    StepRecord,
    WorldState,
    classify_outcome,
    idm_step_others,
    integrate_ego,
    nominal_lane_change,
    observe,
    safety_maneuver,
)
from .uncertainty import EXACT_SAMPLES, SampleSet, UncertaintySpec, draw_noise

BETA_FREE_POLICIES = ("EnvelopeRestriction", "Simplex")
RESTRICTING_POLICIES = ("ProbabilisticEnvelopeRestriction", "EnvelopeRestriction")


@dataclass(frozen=True)
class ScenarioConfig:
    """Initial conditions of one episode; fully determined by the master seed."""

    index: int
    seed: int
    ego_speed: float
    others: tuple[tuple[float, int, float], ...]  # (x, lane, speed)


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
        for j in range(sp.n_others):  # the first sits half a gap behind the merge point
            gap = float(rng.uniform(sp.gap_min, sp.gap_max))
            x = sp.merge_lookahead - 0.5 * gap if j == 0 else x + gap
            others.append((x, 1, float(rng.uniform(sp.speed_min, sp.speed_max))))
        seed = int(rng.integers(0, 2**31 - 1))
        scenarios.append(ScenarioConfig(index=i, seed=seed, ego_speed=ego_speed,
                                        others=tuple(others)))
    return scenarios


def initial_world(scn: ScenarioConfig, cfg: RunConfig) -> WorldState:
    road = cfg.road
    ego = AgentState(x=0.0, y=road.lane_center(0), theta=0.0, v=scn.ego_speed)
    others = tuple(AgentState(x=x, y=road.lane_center(lane), theta=0.0, v=v)
                   for x, lane, v in scn.others)
    lanes = tuple(lane for _, lane, _ in scn.others)
    return WorldState(time=0.0, ego=ego, others=others, other_lanes=lanes)


def case_spec(cfg: RunConfig, case: str) -> UncertaintySpec:
    """``cfg``'s UncertaintySpec of the covariance ``case``; an unknown case
    raises ConfigError naming it and the known ones."""
    try:
        return cfg.uncertainty[case]
    except (KeyError, TypeError):  # TypeError: an unhashable case
        raise ConfigError(f"unknown covariance case {case!r}; known cases: "
                          f"{', '.join(cfg.uncertainty)}") from None


def analysis(kind: str, spec: UncertaintySpec) -> tuple[bool, bool]:
    """(restricting, exact): whether ``kind``'s analysis of ``spec`` yields
    envelopes, and whether it runs at zero covariance; reads ``spec.basis``."""
    return (kind in RESTRICTING_POLICIES,
            kind in BETA_FREE_POLICIES or spec.basis.is_zero)


def acting_beta(kind: str, beta: float, spec: UncertaintySpec) -> float:
    """The risk level ``kind``'s analysis of ``spec`` acts on, once ``check_beta``
    accepts ``beta``: 0.0 for the beta-free kinds, and for any beta below 1 on
    an exact analysis (each expectation is 0 or 1, each envelope support one
    point); beta otherwise."""
    beta = check_beta(beta)
    if kind in BETA_FREE_POLICIES or (analysis(kind, spec)[1] and beta < 1.0):
        return 0.0
    return beta


class Policy:
    """One policy's analysis of one covariance case, with no risk level;
    run_episode applies beta, the latch and the commands."""

    def __init__(self, kind: str, cfg: RunConfig, spec: UncertaintySpec,
                 policy_rng: np.random.Generator | None):
        if kind not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {kind!r}; known policies: "
                              f"{', '.join(POLICY_NAMES)}")
        self.restricting, exact = analysis(kind, spec)
        self.cfg, self.rng, self.basis = cfg, policy_rng, spec.basis
        # What every agent is analysed under: the case's contour samples, or
        # EXACT_SAMPLES when exact, or None when drawn in the case's eigenbasis.
        self.samples = EXACT_SAMPLES if exact else spec.samples if self.restricting else None

    def __call__(self, observed: tuple[AgentState, ...], world: WorldState):
        """Each observed agent's violation expectation; for a restricting
        policy also their envelope distributions and the envelope at the true
        states of ``world`` for the audit, from one ``analyze_step`` call, and
        None, None otherwise.  The ego is ``world.ego``."""
        cfg, ego = self.cfg, world.ego
        if self.restricting:
            dists, expectations, true_env = analyze_step(
                ego, observed, self.samples, world.others, cfg.rss, cfg.tau)
            return expectations, dists, true_env
        sets = [self.samples] * len(observed)
        if self.samples is None:  # one draw of k * m rows: the numbers of k draws of m rows
            k, m = len(observed), cfg.simplex_samples
            devs = draw_noise(self.basis, self.rng, k * m).reshape(k, m, 4)
            sets = [SampleSet(((1.0,), d, (m,))) for d in devs]
            for s, box in zip(sets, zip(devs.min(axis=1).tolist(), devs.max(axis=1).tolist())):
                s.box = box  # one min and one max over the whole draw
        return mean_violations(ego, list(zip(observed, sets)), cfg.rss), None, None


def run_episode(scn: ScenarioConfig, kind: str, beta: float, case: str,
                cfg: RunConfig, collect_trace: bool = False) -> EpisodeResult:
    """One deterministic episode of one policy on one covariance case.

    Each step that begins unlatched, or records a trace, at nonzero
    covariance observes one ``draw_noise`` call, and any other the true
    states (exact, see above).  Until the policy switches, a step clamps the
    nominal controller into its envelope and audits it against the true
    states; once it switches, the safety maneuver is latched.  The policy's
    analysis meets the risk level here, at ``acting_beta``: ``should_switch``,
    then ``risk_bounded_envelope``.

    Observation noise and policy sampling use independent child streams of
    the scenario seed, so the observed world is identical across policies
    until commands diverge.

    An untraced episode ends early once it latches: ``latched_tail`` steps
    the ego alone to its end, and the loop steps every agent only up to the
    last step at which the ego is within ``rss.width`` of some other's lane
    position, then returns the ego's outcome and step count.  This is exact:
    (1) the latched command reads only the ego; (2) nothing is drawn or
    observed after the latch; (3) ``idm_step_others`` holds every other's
    ``y``; (4) a collision needs ``|dy| < width``; (5) the goal and Timeout
    rules read only the ego and ``steps * dt``; (6) an accepted config keeps
    every state in bounds (``MAX_LOOKAHEAD`` in ``config``), so no skipped
    step could have raised.  A traced episode steps every agent to the end.
    """
    spec = case_spec(cfg, case)
    obs_ss, policy_ss = np.random.SeedSequence(entropy=scn.seed, spawn_key=(0,)).spawn(2)
    obs_rng = np.random.default_rng(obs_ss)
    policy = Policy(kind, cfg, spec, np.random.default_rng(policy_ss))
    beta = acting_beta(kind, beta, spec)
    rss, road, dt = cfg.rss, cfg.road, cfg.scenario.dt
    ego_v0 = cfg.idm.v0 if cfg.idm.v0 is not None else scn.ego_speed
    others_v0 = tuple(cfg.idm.v0 if cfg.idm.v0 is not None else v
                      for _, _, v in scn.others)
    unrestricted = unrestricted_envelope(rss)
    world = initial_world(scn, cfg)
    result = EpisodeResult(outcome="Timeout", steps=0)
    latched = False
    near = None  # untraced and latched: the last step at which an other is reachable
    noisy = not spec.basis.is_zero
    while True:
        if noisy and (not latched or collect_trace):
            observed = observe(world, draw_noise(spec.basis, obs_rng, len(world.others)))
        else:  # latched: nothing is observed; zero covariance: the draw is +-0.0
            observed = world.others
        envelope = env_violated = None
        if not latched:
            expectations, dists, true_env = policy(observed, world)
            latched = should_switch(expectations, beta)
            if latched and not collect_trace:
                end, end_steps, near = latched_tail(world.ego, result.steps,
                                                    {s.y for s in world.others}, cfg)
            if not latched and dists is not None:
                envelope = risk_bounded_envelope(dists, beta, rss)
        if result.steps == near:
            result.outcome, result.steps = end, end_steps
            return result
        if latched:
            a_lon, a_lat = safety_maneuver(world.ego, road, rss, cfg.lateral)
        else:
            a_lon, a_lat = nominal_lane_change(world.ego, observed, 1, envelope or unrestricted,
                                               road, cfg.idm, ego_v0, rss, cfg.lateral)
            if true_env is not None:
                env_violated = less_restrictive_any(envelope, true_env)
                result.envelope_steps += 1
                result.envelope_violations += int(env_violated)
        result.steps += 1
        world = WorldState(time=result.steps * dt,
                           ego=integrate_ego(world.ego, a_lon, a_lat, dt),
                           others=idm_step_others(world, road, cfg.idm, others_v0, rss, dt),
                           other_lanes=world.other_lanes)
        outcome = classify_outcome(world, road, cfg.scenario.horizon, rss)
        if collect_trace:
            result.records.append(StepRecord(
                t=world.time, ego=world.ego, observations=observed, envelope=envelope,
                a_lon=a_lon, a_lat=a_lat, mode="safety" if latched else "nominal",
                collision=outcome == "Collision", success=outcome == "Success",
                env_violated=env_violated))
        if outcome is not None:
            result.outcome = outcome
            return result


def latched_tail(ego: AgentState, steps: int, others_y, cfg: RunConfig
                 ) -> tuple[str, int, int]:
    """The latched ego's own path from ``ego`` after ``steps`` steps: the
    outcome and step count that ``classify_outcome`` gives it on a road with
    no others, and the last step at which it is within ``rss.width`` of a
    lateral position in ``others_y`` (``steps`` if none)."""
    rss, road, lat, dt = cfg.rss, cfg.road, cfg.lateral, cfg.scenario.dt
    near = steps
    while True:
        ego = integrate_ego(ego, *safety_maneuver(ego, road, rss, lat), dt)
        steps += 1
        if any(abs(ego.y - y) < rss.width for y in others_y):
            near = steps
        outcome = classify_outcome(WorldState(steps * dt, ego, (), ()), road,
                                   cfg.scenario.horizon, rss)
        if outcome is not None:
            return outcome, steps, near


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
    if not scenarios:
        raise ValueError("scenarios must be non-empty")
    results = [run_episode(s, policy, beta, case, cfg) for s in scenarios]
    return _aggregate(policy, case, beta, results, scenarios)


def sweep(scenarios, cases, cfg: RunConfig, pool=None) -> list[RateRow]:
    """Rate table over every (policy, covariance case, beta) cell, for
    ``cfg.policies`` and ``cfg.betas`` (which ``RunConfig`` checks).

    Cells with the same case, ``analysis`` and ``acting_beta`` run the same
    episodes: the first cell of each such group runs and the rest take its
    row.  All cells share the per-scenario seeds.
    """
    if not (scenarios and cases):
        raise ValueError("scenarios and cases must be non-empty")

    def group(policy, case, beta):
        spec = case_spec(cfg, case)
        return case, *analysis(policy, spec), acting_beta(policy, beta, spec)

    cells = [(p, c, b) for p in cfg.policies for c in cases for b in cfg.betas]
    runs = {}  # each group's first cell
    for cell in cells:
        runs.setdefault(group(*cell), cell)
    args = [(scenarios, p, c, b, cfg) for p, c, b in runs.values()]
    rows = [run_cell(*a) for a in args] if pool is None else pool.starmap(run_cell, args)
    by_group = dict(zip(runs, rows))
    return [replace(by_group[group(p, c, b)], policy=p, beta=b) for p, c, b in cells]


# The fields of a RateRow that the rate table shows, in column order: the CSV
# header and rows and the keys of each results.json record.
COLUMNS = ("policy", "covariance_case", "beta", "success_rate", "collision_rate",
           "timeout_rate", "n", "mean_steps", "mean_violation_freq")
_columns_of = attrgetter(*COLUMNS)


def _csv_cell(value) -> str:
    """A name as it is, None as an empty cell, a number by repr (round-trips)."""
    return value if isinstance(value, str) else "" if value is None else repr(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(COLUMNS), *(",".join(map(_csv_cell, _columns_of(r))) for r in rows)]
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> list[dict]:
    return [dict(zip(COLUMNS, _columns_of(r)), scenarios=r.outcomes) for r in rows]


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(vals):  # (smaller values) + (equal values + 1) / 2
        s = sorted(vals)
        return [(bisect_left(s, v) + bisect_right(s, v) + 1) / 2 for v in vals]

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
