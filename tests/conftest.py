"""Shared oracles and helpers.

The oracles deliberately avoid the library's fast paths: explicit braking
profile simulation, discretized acceleration search, the 40-step bisection
the closed-form bound solver reproduces, the chi-square quantile's full
bisection, exhaustive joint enumeration of
envelope distributions, one contour point at a time, one contour level at a
time, one agent's perturbed states at a time, the full n_phi^3 contour grid
with its repeated points, the episode loop with a policy that applies
the risk level itself, one cell at a time, and the risk solve's candidate
walk on every component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
import pytest

from riskenv import config, uncertainty
from riskenv.bench import (
    BETA_FREE_POLICIES,
    RESTRICTING_POLICIES,
    RateRow,
    ScenarioConfig,
    _aggregate,
    initial_world,
)
from riskenv.config import POLICY_NAMES, RunConfig
from riskenv.prob_envelope import (
    EXACT_SAMPLES,
    EnvelopeDistribution,
    analyze_step,
    check_beta,
    risk_bounded_envelope,
    should_switch,
    stacked_states,
)
from riskenv.rss import (
    AgentState,
    BroadPhase,
    COMPONENTS,
    Envelope,
    RssParams,
    less_restrictive_any,
    pair_analysis_batch,
    pairwise_envelope_batch,
    restrictive_sentinel,
    safe_distance_lat,
    safe_distance_lon,
    unrestricted_envelope,
    violation_batch,
    wrap_angle,
)
from riskenv.sim import (
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
from riskenv.uncertainty import (
    EigenBasis,
    UncertaintySpec,
    _distinct_grid,
    chi2_cdf_4,
    chi2_quantile_4,
    draw_noise,
)


def simulate_lon_profile(v_rear: float, v_front: float, gap0: float,
                         params: RssParams, dt: float = 1e-3) -> bool:
    """Braking-profile oracle: True iff the gap never goes negative.

    Rear accelerates at a_max for rho then brakes at b_min until stopped;
    front brakes at b_max until stopped.
    """
    vr, vf = v_rear, v_front
    gap = gap0
    t = 0.0
    while vr > 0.0 or vf > 0.0 or t <= params.rho:
        a_r = params.a_max_accel_lon if t < params.rho else -params.b_min_brake_lon
        if vr == 0.0 and a_r < 0.0:
            a_r = 0.0
        a_f = -params.b_max_brake_lon
        vr2 = max(vr + a_r * dt, 0.0)
        vf2 = max(vf + a_f * dt, 0.0)
        gap += 0.5 * (vf + vf2) * dt - 0.5 * (vr + vr2) * dt
        vr, vf = vr2, vf2
        t += dt
        if gap < 0.0:
            return False
        if t > 60.0:
            break
    return gap >= 0.0


def simulate_lat_profile(v1_toward: float, v2_toward: float, gap0: float,
                         params: RssParams, dt: float = 1e-3) -> float:
    """Worst-case lateral closing oracle: minimum gap reached when both sides
    accelerate toward each other for rho and then brake until their closing
    speed is gone.  Returns the minimum gap (can be negative)."""
    v1, v2 = v1_toward, v2_toward
    gap = gap0
    min_gap = gap0
    t = 0.0
    while True:
        a1 = params.a_max_accel_lat if t < params.rho else -params.b_min_brake_lat
        a2 = params.a_max_accel_lat if t < params.rho else -params.b_min_brake_lat
        if t >= params.rho and v1 <= 0.0:
            a1, v1 = 0.0, max(v1, 0.0)
        if t >= params.rho and v2 <= 0.0:
            a2, v2 = 0.0, max(v2, 0.0)
        v1n = v1 + a1 * dt
        v2n = v2 + a2 * dt
        gap -= 0.5 * (v1 + v1n) * dt + 0.5 * (v2 + v2n) * dt
        v1, v2 = v1n, v2n
        min_gap = min(min_gap, gap)
        t += dt
        if t >= params.rho and v1 <= 0.0 and v2 <= 0.0:
            return min_gap
        if t > 60.0:
            return min_gap


def oracle_max_lon_accel(ego: AgentState, other: AgentState, params: RssParams,
                         tau: float, n_grid: int = 3201) -> float:
    """Largest ego acceleration (discretized grid) keeping the longitudinal
    gap at tau at or above the safe distance at post-tau speeds; the ego is
    the rear vehicle and the front worst-case brakes at b_max."""
    u = ego.v * math.cos(ego.theta)
    w = other.v * math.cos(other.theta)
    gap = abs(other.x - ego.x) - params.length
    best = -params.a_lon_limit
    for a in np.linspace(-params.a_lon_limit, params.a_lon_limit, n_grid):
        t_stop = u / -a if a < 0.0 and u + a * tau < 0.0 else tau
        de = u * t_stop + 0.5 * a * t_stop * t_stop
        ue = max(u + a * tau, 0.0)
        tf = min(tau, w / params.b_max_brake_lon)
        df = w * tf - 0.5 * params.b_max_brake_lon * tf * tf
        wf = max(w - params.b_max_brake_lon * tau, 0.0)
        if gap + df - de >= safe_distance_lon(ue, wf, params):
            best = max(best, float(a))
    return best


def bisect_largest(cond, lo: float, hi: float, n: int, iters: int = 40) -> np.ndarray:
    """Bisection oracle of the bound solver: the largest grid point
    lo + k * h, h = (hi - lo) / 2**iters, where the monotone-decreasing
    condition holds; hi where cond(hi) holds and lo where even cond(lo)
    fails.  It bisects the index k, so each midpoint is an integer and each
    point is computed as lo + k * h, whatever the limits.
    ``cond(values, rows)`` evaluates the condition for the given rows."""
    rows = np.arange(n)
    h = (hi - lo) / 2.0 ** iters
    a = np.zeros(n)
    b = np.full(n, 2.0 ** iters)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        ok = cond(lo + mid * h, rows)
        a = np.where(ok, mid, a)
        b = np.where(ok, b, mid)
    ok_hi = cond(np.full(n, hi), rows)
    ok_lo = cond(np.full(n, lo), rows)
    return np.where(ok_hi, hi, np.where(ok_lo, lo + a * h, lo))


def chi2_quantile_bisection(p: float) -> float:
    """Oracle of ``chi2_quantile_4``: its bisection from [0, 2**j], every step
    taken, with the same stop rule."""
    if p == 0.0:
        return 0.0
    hi = 1.0
    while chi2_cdf_4(hi) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_4(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def pairwise_envelope(ego: AgentState, other: AgentState,
                      params: RssParams, tau: float) -> Envelope:
    """Envelope of the ego against a single other vehicle."""
    lon_max, lat_min, lat_max = pairwise_envelope_batch(
        ego, [other.x], [other.y], [other.v], [other.theta], params, tau)
    return Envelope(-params.a_lon_limit, float(lon_max[0]),
                    float(lat_min[0]), float(lat_max[0]))


def worst_of(a: Envelope, b: Envelope) -> Envelope:
    """Component-wise most restrictive combination of two envelopes."""
    return Envelope(
        max(a.a_lon_min, b.a_lon_min),
        min(a.a_lon_max, b.a_lon_max),
        max(a.a_lat_min, b.a_lat_min),
        min(a.a_lat_max, b.a_lat_max),
    )


def safety_violated(ego: AgentState, others, params: RssParams) -> bool:
    """Violation indicator as EnvelopeRestriction switches on it: some
    agent's expectation at zero covariance is above 0."""
    _, expectations, _ = analyze_step(ego, list(others), EXACT_SAMPLES, (), params, 0.2)
    return should_switch(expectations, 0.0)


def per_agent_states(pairs):
    """Oracle of ``stacked_states``: each (state, deviations) pair perturbed
    on its own (state plus deviations, speed clamped at 0, heading wrapped),
    then the four columns concatenated."""
    parts = []
    for obs, deviations in pairs:
        d = np.asarray(deviations, dtype=float)
        parts.append((obs.x + d[:, 0], obs.y + d[:, 1], np.maximum(obs.v + d[:, 2], 0.0),
                      wrap_angle(obs.theta + d[:, 3])))
    return [np.concatenate(column) for column in zip(*parts)]


def contour_loop_analysis(ego: AgentState, obs: AgentState, samples, params: RssParams,
                          tau: float, agent_id: int = 0):
    """One agent's (EnvelopeDistribution, expectation), one kernel call for
    the agent and a slice per contour: the per-contour loop the stacked
    ``analyze_step`` replaces."""
    levels, deviations, counts = samples
    lon_max, lat_min, lat_max, violated = pair_analysis_batch(
        ego, *per_agent_states([(obs, deviations)]), params, tau)
    masses, envelopes = [], []
    expectation = 1.0 - levels[-1]
    prev = 0.0
    start = 0
    for p_k, m in zip(levels, counts):
        sl = slice(start, start + m)
        start += m
        masses.append(p_k - prev)
        envelopes.append(Envelope(-params.a_lon_limit, float(lon_max[sl].min()),
                                  float(lat_min[sl].max()), float(lat_max[sl].min())))
        if violated[sl].any():
            expectation += p_k - prev
        prev = p_k
    return (EnvelopeDistribution(agent_id, tuple(masses), tuple(envelopes), 1.0 - prev),
            expectation)


def walk_risk_envelope(distributions, beta: float, params: RssParams) -> Envelope:
    """The component-wise walk of ``risk_bounded_envelope`` as it was before
    its point-mass and shared-value closures, verbatim: every call walks the
    sorted candidates of every component."""
    check_beta(beta)
    distributions = list(distributions)
    if not distributions:
        return unrestricted_envelope(params)
    sentinel = restrictive_sentinel(params)
    supports = ([], [], [], [])  # per component, each agent's value -> mass
    for dist in distributions:
        columns = tuple(zip(*dist.envelopes)) or ((),) * len(supports)
        total = reduce(add, dist.masses, 0.0)  # a value on every contour, summed as below
        for k, column in enumerate(columns):
            support = {sentinel[k]: dist.residual_mass} if dist.residual_mass > 0.0 else {}
            if column and column.count(column[0]) == len(column) and column[0] not in support:
                support[column[0]] = total
            else:
                for mass, v in zip(dist.masses, column):
                    support[v] = support.get(v, 0.0) + mass
            supports[k].append(support)
    values = []
    for (_, orientation), component in zip(COMPONENTS, supports):
        candidates = sorted({v for s in component for v in s}, reverse=orientation < 0.0)
        best, cum = candidates[0], [0.0] * len(component)
        for prev, v in zip(candidates, candidates[1:]):  # nothing to discard before the first
            cum = [c + s.get(prev, 0.0) for c, s in zip(cum, component)]
            survive = math.prod([1.0 - c for c in cum])  # multiplied in agent order
            # Mass that is certain to be more restrictive is never discarded,
            # so beta = 1 still respects any agent's full support.
            if not (1.0 - survive <= beta and survive > 0.0):
                break
            best = v
        values.append(best)
    return Envelope(*values)


def enumerate_risk_envelope(distributions, beta: float, params: RssParams) -> Envelope:
    """Brute-force oracle for the component-wise risk-bounded solve.

    Enumerates the full joint support (agents independent), computes the
    distribution of the component-wise most restrictive combination, and
    picks the least restrictive candidate whose probability of a strictly
    more restrictive combined value stays within beta.
    """
    sentinel = restrictive_sentinel(params)
    out = {}
    for name, orientation in COMPONENTS:
        supports = []
        for dist in distributions:
            support = [(getattr(e, name), m)
                       for m, e in zip(dist.masses, dist.envelopes)]
            if dist.residual_mass > 0.0:
                support.append((getattr(sentinel, name), dist.residual_mass))
            supports.append(support)
        combined = {}  # most restrictive value across agents -> mass
        for combo in itertools.product(*supports):
            mass = 1.0
            for _, m in combo:
                mass *= m
            worst = combo[0][0]
            for v, _ in combo[1:]:
                if orientation * v < orientation * worst:
                    worst = v
            combined[worst] = combined.get(worst, 0.0) + mass
        # Candidates are every support value of every agent, like the solver's
        # iteration rule; the CDF they are checked against comes from the
        # enumerated joint distribution.
        candidates = sorted({v for s in supports for v, _ in s},
                            key=lambda v: orientation * v)
        best = candidates[0]
        for cand in candidates:
            below = sum(m for v, m in combined.items()
                        if orientation * v < orientation * cand)
            if below <= beta and below < 1.0:
                best = cand
        out[name] = best
    return Envelope(**out)


@dataclass(frozen=True)
class StateDeviation:
    """Additive deviation applied to an observed state."""

    dx: float
    dy: float
    dv: float
    dtheta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dv, self.dtheta], dtype=float)


def contour_deviation(basis: EigenBasis, p_k: float,
                      phi1: float, phi2: float, phi3: float) -> StateDeviation:
    """Scalar contour oracle: the deviation on the p_k iso-probability
    contour at the given angles, rotated back to state coordinates."""
    if not (0.0 < p_k < 1.0):
        raise ValueError(f"contour level must lie in (0, 1), got {p_k}")
    r = np.sqrt(chi2_quantile_4(p_k) * basis.eigenvalues)
    s1, c1 = math.sin(phi1), math.cos(phi1)
    s2, c2 = math.sin(phi2), math.cos(phi2)
    s3, c3 = math.sin(phi3), math.cos(phi3)
    d_eigen = np.array([r[0] * c1,
                        r[1] * s1 * c2,
                        r[2] * s1 * s2 * c3,
                        r[3] * s1 * s2 * s3])
    return StateDeviation(*(basis.eigenvectors @ d_eigen))


def sample_contour(basis: EigenBasis, p_k: float, n_phi: int) -> np.ndarray:
    """One-level contour oracle: the deviations of the p_k contour at the
    distinct points of the angle grid, as an (n, 4) array in lexicographic
    order of the first grid index naming each point; ``contour_samples``
    builds every level in one pass instead."""
    if n_phi < 2:
        raise ValueError("n_phi must be >= 2")
    if not (0.0 < p_k < 1.0):
        raise ValueError(f"contour level must lie in (0, 1), got {p_k}")
    r = np.sqrt(chi2_quantile_4(p_k) * basis.eigenvalues)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    s = np.sin(phis)
    c = np.cos(phis)
    g1, g2, g3 = _distinct_grid(n_phi)
    d_eigen = np.stack([
        r[0] * c[g1],
        r[1] * s[g1] * c[g2],
        r[2] * s[g1] * s[g2] * c[g3],
        r[3] * s[g1] * s[g2] * s[g3],
    ], axis=-1)
    return d_eigen @ basis.eigenvectors.T


def full_grid_contour(basis: EigenBasis, p_k: float, n_phi: int) -> np.ndarray:
    """Full-grid contour oracle: the deviations at every grid index
    (z1, z2, z3), angles z * 2*pi / n_phi, as an (n_phi^3, 4) array in
    lexicographic order, repeated points included."""
    r = np.sqrt(chi2_quantile_4(p_k) * basis.eigenvalues)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    s = np.sin(phis)
    c = np.cos(phis)
    g1, g2, g3 = np.meshgrid(np.arange(n_phi), np.arange(n_phi), np.arange(n_phi),
                             indexing="ij")
    d_eigen = np.stack([
        r[0] * c[g1],
        r[1] * s[g1] * c[g2],
        r[2] * s[g1] * s[g2] * c[g3],
        r[3] * s[g1] * s[g2] * s[g3],
    ], axis=-1).reshape(-1, 4)
    return d_eigen @ basis.eigenvectors.T


def grid_representatives(n_phi: int) -> np.ndarray:
    """For each flat full-grid index, the flat index of the first grid index
    naming the same point of the unit angle grid; points are matched by
    rounding to 1e-9."""
    unit = full_grid_contour(EigenBasis(np.ones(4), np.eye(4)), 0.5, n_phi)
    key = np.round(unit * 1e9) + 0.0  # + 0.0 turns -0.0 into 0.0
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    return first[inverse.ravel()]


def first_grid_indices(n_phi: int) -> np.ndarray:
    """Flat full-grid index of the first occurrence of each distinct point of
    the unit angle grid, ascending."""
    return np.unique(grid_representatives(n_phi))


# The episode loop as it ran before the risk level moved out of the policy:
# a Policy that applies beta itself, and every cell run on its own.  The
# sweep oracle runs each requested cell through ``oracle_cell``.


class OraclePolicy:
    """One policy's switch decision on one covariance case; a beta-free
    policy runs as its probabilistic twin at zero covariance and beta 0.
    The latch and the commands belong to run_episode.
    """

    def __init__(self, kind: str, beta: float, cfg: RunConfig, spec: UncertaintySpec,
                 policy_rng: np.random.Generator | None):
        if kind not in POLICY_NAMES:
            raise ValueError(f"unknown policy {kind!r}")
        exact = kind in BETA_FREE_POLICIES
        self.beta = 0.0 if exact else beta
        self.cfg = cfg
        self.rng = policy_rng
        # The analysis: the case's contour samples, or deviations drawn in its
        # eigenbasis (None at zero covariance: one zero deviation per agent).
        self.samples = self.basis = None
        if kind in RESTRICTING_POLICIES:
            self.samples = EXACT_SAMPLES if exact else spec.samples
        elif not (exact or spec.basis.eigenvalues[0] <= 0.0):
            self.basis = spec.basis

    def __call__(self, observed: tuple[AgentState, ...], world: WorldState
                 ) -> tuple[bool, Envelope | None, Envelope | None]:
        """Switch decision (some agent's expectation exceeds beta), the
        envelope of a restricting policy (None when it switches), and the
        envelope at the true states of ``world`` for the audit.

        A restricting policy analyses the observed and the true agents in one
        ``analyze_step`` call; the ego is ``world.ego``.
        """
        cfg = self.cfg
        if self.samples is None:
            return should_switch(self._mean_violations(world.ego, observed), self.beta), None, None
        dists, expectations, true_env = analyze_step(
            world.ego, observed, self.samples, world.others, cfg.rss, cfg.tau)
        if should_switch(expectations, self.beta):
            return True, None, true_env
        return False, risk_bounded_envelope(dists, self.beta, cfg.rss), true_env

    def _mean_violations(self, ego: AgentState, observed: tuple[AgentState, ...]):
        """Each observed agent's mean violation over ``simplex_samples``
        drawn deviations, or over one zero deviation at zero covariance.
        One draw of k * m rows takes the same numbers as k draws of m rows.
        An agent whose rows ``BroadPhase`` finds unviolated has mean 0.0; the
        other agents' rows go to one violation_batch call."""
        k = len(observed)
        if k == 0:
            return ()
        if self.basis is None:
            m, devs, boxes = 1, np.zeros((k, 1, 4)), [EXACT_SAMPLES.box] * k
        else:
            m = self.cfg.simplex_samples
            devs = draw_noise(self.basis, self.rng, k * m).reshape(k, m, 4)
            boxes = zip(devs.min(axis=1).tolist(), devs.max(axis=1).tolist())
        broad = BroadPhase(ego, self.cfg.rss)
        rest = [j for j, (o, box) in enumerate(zip(observed, boxes))
                if not broad.unviolated(o, *box)]
        means = np.zeros(k)
        if rest:
            ox, oy, ov, ot = stacked_states((observed[j], devs[j]) for j in rest)
            violated = violation_batch(ego, ox, oy, ov, ot, self.cfg.rss)
            means[rest] = violated.reshape(len(rest), m).mean(axis=1)
        return means


def oracle_episode(scn: ScenarioConfig, kind: str, beta: float, case: str,
                   cfg: RunConfig, collect_trace: bool = False) -> EpisodeResult:
    """One deterministic episode of one policy on one covariance case.

    Each step observes the world through one ``draw_noise`` call and, until
    the policy switches, clamps the nominal controller into its envelope
    and audits that envelope against the true states; once it switches, the
    safety maneuver is latched.

    Observation noise and policy sampling use independent child streams of
    the scenario seed, so the observed world is identical across policies
    until commands diverge.
    """
    spec = cfg.uncertainty[case]
    obs_ss, policy_ss = np.random.SeedSequence(entropy=scn.seed, spawn_key=(0,)).spawn(2)
    obs_rng = np.random.default_rng(obs_ss)
    policy = OraclePolicy(kind, beta, cfg, spec, np.random.default_rng(policy_ss))
    rss, road, dt = cfg.rss, cfg.road, cfg.scenario.dt
    ego_v0 = cfg.idm.v0 if cfg.idm.v0 is not None else scn.ego_speed
    others_v0 = tuple(cfg.idm.v0 if cfg.idm.v0 is not None else v
                      for _, _, v in scn.others)
    unrestricted = unrestricted_envelope(rss)
    world = initial_world(scn, cfg)
    result = EpisodeResult(outcome="Timeout", steps=0)
    latched = False
    while True:
        observed = observe(world, draw_noise(spec.basis, obs_rng, len(world.others)))
        envelope = env_violated = None
        if not latched:
            latched, envelope, true_env = policy(observed, world)
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


def oracle_cell(scenarios, policy: str, case: str, beta: float, cfg: RunConfig) -> RateRow:
    results = [oracle_episode(s, policy, beta, case, cfg) for s in scenarios]
    return _aggregate(policy, case, beta, results, scenarios)


def mahalanobis_sq(delta: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Mahalanobis distance of a deviation under a covariance."""
    return float(delta @ np.linalg.solve(sigma, delta))


@pytest.fixture
def eigendecompose_calls(monkeypatch) -> list:
    """A list that grows by one sigma per ``uncertainty.eigendecompose`` call."""
    calls = []
    decompose = uncertainty.eigendecompose

    def counted(sigma):
        calls.append(sigma)
        return decompose(sigma)

    monkeypatch.setattr(uncertainty, "eigendecompose", counted)
    return calls


@pytest.fixture
def fresh_memos() -> None:
    """Empty the per-process memos of config-only state (the default specs
    and the angle-grid factors), so a test can count the work they save."""
    config._default_specs.cache_clear()
    uncertainty._grid_factors.cache_clear()


@pytest.fixture
def rss_params() -> RssParams:
    return RssParams()


@pytest.fixture
def legacy_params() -> RssParams:
    """Parameter set used by several frozen-value examples."""
    return RssParams(rho=1.0, a_max_accel_lon=3.5, b_min_brake_lon=4.0,
                     b_max_brake_lon=8.0)
