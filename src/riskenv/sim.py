"""Closed-loop 2-lane highway simulation.

The ego runs a lane-change controller whose commands can be clamped into a
safety envelope or replaced by a latched emergency maneuver; the other
vehicles follow the intelligent-driver car-following law on the true states.
Observations of the others carry i.i.d. Gaussian noise; the ego observes
itself exactly.  Episodes are fully determined by (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rss import AgentState, Envelope, RssParams, advance_speed_clamped, wrap_angle
from .uncertainty import EigenBasis, draw_noise


@dataclass(frozen=True)
class IdmParams:
    """Intelligent-driver car-following parameters.

    ``v0`` is the desired speed; None means each agent desires its initial
    speed.
    """

    v0: float | None = None
    T: float = 1.5       # desired time headway (s)
    a: float = 1.5       # maximum acceleration (m/s^2)
    b: float = 2.0       # comfortable deceleration (m/s^2)
    s0: float = 2.0      # minimum gap (m)
    delta: float = 4.0   # velocity exponent

    def __post_init__(self):
        for name in ("T", "a", "b", "s0", "delta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.v0 is not None and self.v0 <= 0.0:
            raise ValueError("v0 must be > 0 when given")


@dataclass(frozen=True)
class RoadParams:
    """Two-lane road geometry and the goal region on the left lane."""

    lane_width: float = 3.5
    n_lanes: int = 2
    goal_x_min: float = 60.0
    goal_x_max: float = 150.0
    goal_speed_min: float = 10.0
    goal_speed_max: float = 25.0
    goal_heading_max: float = 0.15  # |theta| bound (rad)

    def lane_center(self, lane: int) -> float:
        return lane * self.lane_width

    def lane_of(self, y: float) -> int:
        return 0 if y < 0.5 * self.lane_width else 1


@dataclass(frozen=True)
class WorldState:
    time: float
    ego: AgentState
    others: tuple[AgentState, ...]
    other_lanes: tuple[int, ...]
    road: RoadParams


@dataclass(frozen=True)
class ObservedWorld:
    ego: AgentState
    others: tuple[AgentState, ...]


@dataclass(frozen=True)
class StepRecord:
    """One trajectory step as recorded in the trace: commanded accelerations,
    the resulting true state, what the ego observed, and the policy context."""

    t: float
    ego: AgentState
    observations: tuple[AgentState, ...]
    envelope: Envelope | None
    a_lon: float
    a_lat: float
    mode: str                 # "nominal" or "safety"
    collision: bool
    success: bool
    env_violated: bool | None  # applied envelope less restrictive than true one


def idm_accel(ego_v: float, gap: float, lead_v: float, params: IdmParams,
              v0: float, brake_limit: float) -> float:
    """Intelligent-driver acceleration, clamped to [-brake_limit, params.a].

    ``gap`` is bumper-to-bumper; pass math.inf for free flow.  A non-positive
    gap is an emergency and commands full braking.
    """
    if gap <= 0.0:
        return -brake_limit
    free = 1.0 - (ego_v / v0) ** params.delta
    if math.isinf(gap):
        interaction = 0.0
    else:
        s_star = params.s0 + ego_v * params.T + ego_v * (ego_v - lead_v) / (
            2.0 * math.sqrt(params.a * params.b))
        interaction = (s_star / gap) ** 2
    a = params.a * (free - interaction)
    return min(max(a, -brake_limit), params.a)


def observe(world: WorldState, basis: EigenBasis,
            rng: np.random.Generator) -> ObservedWorld:
    """Perturb every other agent with one fresh Gaussian deviation; the ego
    state is copied exactly."""
    observed = []
    for s in world.others:
        d = draw_noise(basis, rng)
        observed.append(AgentState(
            x=s.x + d[0],
            y=s.y + d[1],
            theta=wrap_angle(s.theta + d[3]),
            v=max(s.v + d[2], 0.0),
        ))
    return ObservedWorld(ego=world.ego, others=tuple(observed))


@dataclass(frozen=True)
class LateralControl:
    kp: float = 3.5
    kd: float = 3.742  # critical damping for kp = 3.5

    def accel(self, y: float, v_lat: float, y_target: float, limit: float) -> float:
        a = self.kp * (y_target - y) - self.kd * v_lat
        return min(max(a, -limit), limit)


def nominal_lane_change(obs: ObservedWorld, target_lane: int, envelope: Envelope,
                        road: RoadParams, idm: IdmParams, ego_v0: float,
                        rss: RssParams, lat: LateralControl) -> tuple[float, float]:
    """Lane-change command: car-following toward the nearer perceived leader in
    the current or target lane, proportional-derivative steering toward the
    target centerline, both clamped into the envelope."""
    ego = obs.ego
    ego_lane = road.lane_of(ego.y)
    lanes = {ego_lane, target_lane}
    gap = math.inf
    lead_v = 0.0
    for s in obs.others:
        if road.lane_of(s.y) not in lanes:
            continue
        d = s.x - ego.x - rss.length
        if s.x > ego.x and d < gap:
            gap = d
            lead_v = s.v_lon
    a_lon = idm_accel(ego.v_lon, gap, lead_v, idm, ego_v0, rss.a_lon_limit)
    a_lat = lat.accel(ego.y, ego.v_lat, road.lane_center(target_lane), rss.a_lat_limit)
    return envelope.clamp(a_lon, a_lat)


def safety_maneuver(obs: ObservedWorld, road: RoadParams, rss: RssParams,
                    lat: LateralControl) -> tuple[float, float]:
    """Emergency braking plus steering back to the right lane, at physical
    limits and free of envelope restrictions."""
    ego = obs.ego
    a_lon = -rss.b_max_brake_lon
    a_lat = lat.accel(ego.y, ego.v_lat, road.lane_center(0), rss.a_lat_limit)
    return a_lon, a_lat


def integrate_ego(state: AgentState, a_lon: float, a_lat: float, dt: float) -> AgentState:
    """Point-mass update with piecewise-constant accelerations over dt.

    The longitudinal velocity component is clamped at 0 (no reversing); the
    heading follows the velocity components.
    """
    vl = state.v * math.cos(state.theta)
    vt = state.v * math.sin(state.theta)
    dx, vl2 = advance_speed_clamped(vl, a_lon, dt)
    dy = vt * dt + 0.5 * a_lat * dt * dt
    vt2 = vt + a_lat * dt
    v2 = math.hypot(float(vl2), vt2)
    theta2 = math.atan2(vt2, float(vl2)) if v2 > 0.0 else 0.0
    return AgentState(x=state.x + float(dx), y=state.y + dy,
                      theta=wrap_angle(theta2), v=v2)


def idm_step_others(world: WorldState, idm: IdmParams, others_v0: tuple[float, ...],
                    rss: RssParams, dt: float) -> tuple[AgentState, ...]:
    """Advance the other agents by the car-following law on true states.

    Each agent follows its nearest same-lane leader (the ego included once it
    occupies the lane); lateral position and heading are held."""
    ego_lane = world.road.lane_of(world.ego.y)
    agents = [(s.x, s.v_lon, world.other_lanes[i]) for i, s in enumerate(world.others)]
    agents.append((world.ego.x, world.ego.v_lon, ego_lane))
    out = []
    for i, s in enumerate(world.others):
        lane = world.other_lanes[i]
        gap = math.inf
        lead_v = 0.0
        for j, (x, v, ln) in enumerate(agents):
            if j == i or ln != lane or x <= s.x:
                continue
            d = x - s.x - rss.length
            if d < gap:
                gap = d
                lead_v = v
        a = idm_accel(s.v, gap, lead_v, idm, others_v0[i], rss.a_lon_limit)
        dx, v2 = advance_speed_clamped(s.v, a, dt)
        out.append(replace(s, x=s.x + float(dx), v=float(v2)))
    return tuple(out)


def boxes_overlap(a: AgentState, b: AgentState, rss: RssParams) -> bool:
    """Axis-aligned bounding boxes of two agents intersect."""
    return (abs(a.x - b.x) < rss.length) and (abs(a.y - b.y) < rss.width)


def collision(world: WorldState, rss: RssParams) -> bool:
    return any(boxes_overlap(world.ego, s, rss) for s in world.others)


def in_goal(world: WorldState) -> bool:
    ego = world.ego
    road = world.road
    if not (road.goal_x_min <= ego.x <= road.goal_x_max):
        return False
    if not (0.5 * road.lane_width <= ego.y <= 1.5 * road.lane_width):
        return False
    if not (road.goal_speed_min <= ego.v <= road.goal_speed_max):
        return False
    return abs(ego.theta) <= road.goal_heading_max


def classify_outcome(world: WorldState, elapsed: float, horizon: float,
                     rss: RssParams) -> str | None:
    """Terminal classification for the current state, or None to continue.

    Collision dominates, then goal membership; exceeding the horizon is a
    Timeout.  Exactly one terminal outcome ends every episode.
    """
    if collision(world, rss):
        return "Collision"
    if in_goal(world):
        return "Success"
    if elapsed > horizon - 1e-9:  # the step landing on the horizon ends the episode
        return "Timeout"
    return None


@dataclass
class EpisodeResult:
    outcome: str
    steps: int
    records: list[StepRecord] = field(default_factory=list)
    envelope_steps: int = 0      # steps with an active (pre-switch) envelope
    envelope_violations: int = 0


def simulate(world: WorldState, policy, basis: EigenBasis,
             rng: np.random.Generator, idm: IdmParams, others_v0: tuple[float, ...],
             rss: RssParams, dt: float, horizon: float,
             collect_trace: bool = False) -> EpisodeResult:
    """Run one episode to its terminal outcome.

    ``policy`` maps an ObservedWorld to a decision with fields
    (a_lon, a_lat, mode, envelope, env_violated); see bench.Policy.
    """
    result = EpisodeResult(outcome="Timeout", steps=0)
    while True:
        obs = observe(world, basis, rng)
        a_lon, a_lat, mode, envelope, env_violated = policy(obs, world)
        ego2 = integrate_ego(world.ego, a_lon, a_lat, dt)
        others2 = idm_step_others(world, idm, others_v0, rss, dt)
        result.steps += 1
        world = replace(world, time=result.steps * dt, ego=ego2, others=others2)
        if env_violated is not None:
            result.envelope_steps += 1
            result.envelope_violations += int(env_violated)
        outcome = classify_outcome(world, world.time, horizon, rss)
        if collect_trace:
            result.records.append(StepRecord(
                t=world.time, ego=world.ego, observations=obs.others,
                envelope=envelope, a_lon=a_lon, a_lat=a_lat, mode=mode,
                collision=outcome == "Collision", success=outcome == "Success",
                env_violated=env_violated))
        if outcome is not None:
            result.outcome = outcome
            return result
