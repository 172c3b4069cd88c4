"""World model of the closed-loop 2-lane highway simulation.

The ego's lane-change controller can be clamped into a safety envelope, and
its emergency maneuver brakes at the physical limit; the other vehicles
follow the intelligent-driver car-following law on the true states.
``observe`` perturbs the others by one step's Gaussian deviations; the ego's
own state is known.  The step loop, which latches the emergency
maneuver once a policy switches, is ``bench.run_episode``; episodes are
fully determined by (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rss import (MAX_ACCEL, MAX_POSITION, MAX_SPEED, MAX_TAU, MIN_ACCEL, AgentState,
                  Envelope, RssParams, advance_speed_clamped, bounded, check_bounds,
                  check_order, wrap_angle)
from .uncertainty import draw_noise  # noqa: F401 - perfbench's tests look it up here

# IdmParams bounds that keep idm_accel finite and below MAX_SPEED: with v0 >=
# MIN_SPEED, (v / v0) ** delta < (MAX_SPEED / MIN_SPEED) ** MAX_DELTA = 1e50, and
# with a <= MAX_SPEED / (MAX_DELTA * MAX_DT) no step of at most MAX_DT passes MAX_SPEED.
MIN_SPEED, MAX_DELTA, MAX_DT = 1e-3, 10.0, 1.0  # m/s, 1, s


@dataclass(frozen=True)
class IdmParams:
    """Intelligent-driver car-following parameters.  ``v0`` is the desired
    speed; None means each agent desires its initial speed."""

    v0: float | None = bounded(None, MIN_SPEED, MAX_SPEED)
    T: float = bounded(1.5, 0.0, MAX_TAU, low_open=True)  # desired time headway (s)
    a: float = bounded(1.5, MIN_ACCEL, MAX_SPEED / (MAX_DELTA * MAX_DT))  # max accel (m/s^2)
    b: float = bounded(2.0, MIN_ACCEL, MAX_ACCEL)  # comfortable deceleration (m/s^2)
    s0: float = bounded(2.0, 0.0, MAX_POSITION, low_open=True)  # minimum gap (m)
    delta: float = bounded(4.0, 0.0, MAX_DELTA, low_open=True)  # velocity exponent

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RoadParams:
    """Two-lane road geometry and the goal region on the left lane."""

    lane_width: float = bounded(3.5, 0.0, MAX_POSITION, low_open=True)
    goal_x_min: float = bounded(60.0, -MAX_POSITION, MAX_POSITION)
    goal_x_max: float = bounded(150.0, -MAX_POSITION, MAX_POSITION)
    goal_speed_min: float = bounded(10.0, 0.0, MAX_SPEED)
    goal_speed_max: float = bounded(25.0, 0.0, MAX_SPEED)
    goal_heading_max: float = bounded(0.15, 0.0, math.pi)  # |theta| bound (rad)

    def __post_init__(self):
        check_bounds(self)
        check_order(self, ("goal_x_min", "goal_x_max"), ("goal_speed_min", "goal_speed_max"))

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


def observe(world: WorldState, deviations: np.ndarray) -> tuple[AgentState, ...]:
    """The other agents as the ego perceives them: agent j perturbed by row j
    of the (k, 4) ``deviations`` (x, y, v, theta), each quantity saturated at
    its ``AgentState`` bound and held as a Python float (not a numpy scalar)."""
    observed = []
    for s, (dx, dy, dv, dth) in zip(world.others, deviations.tolist(), strict=True):
        x, y, v = s.x + dx, s.y + dy, s.v + dv
        # Comparisons first: they cost less than the min / max calls.
        if not (-MAX_POSITION <= x <= MAX_POSITION and -MAX_POSITION <= y <= MAX_POSITION
                and 0.0 <= v <= MAX_SPEED):
            x = min(max(x, -MAX_POSITION), MAX_POSITION)
            y = min(max(y, -MAX_POSITION), MAX_POSITION)
            v = min(max(v, 0.0), MAX_SPEED)
        observed.append(AgentState(x=x, y=y, theta=wrap_angle(s.theta + dth), v=v))
    return tuple(observed)


@dataclass(frozen=True)
class LateralControl:
    kp: float = bounded(3.5, 0.0, MAX_ACCEL)
    kd: float = bounded(3.742, 0.0, MAX_ACCEL)  # critical damping for kp = 3.5

    __post_init__ = check_bounds

    def accel(self, y: float, v_lat: float, y_target: float, limit: float) -> float:
        a = self.kp * (y_target - y) - self.kd * v_lat
        return min(max(a, -limit), limit)


def nominal_lane_change(ego: AgentState, observed: tuple[AgentState, ...], target_lane: int,
                        envelope: Envelope, road: RoadParams, idm: IdmParams, ego_v0: float,
                        rss: RssParams, lat: LateralControl) -> tuple[float, float]:
    """Lane-change command: car-following toward the nearer perceived leader in
    the current or target lane, proportional-derivative steering toward the
    target centerline, both clamped into the envelope."""
    ego_lane = road.lane_of(ego.y)
    lanes = {ego_lane, target_lane}
    gap = math.inf
    lead_v = 0.0
    for s in observed:
        if road.lane_of(s.y) not in lanes:
            continue
        d = s.x - ego.x - rss.length
        if s.x > ego.x and d < gap:
            gap = d
            lead_v = s.v_lon
    a_lon = idm_accel(ego.v_lon, gap, lead_v, idm, ego_v0, rss.a_lon_limit)
    a_lat = lat.accel(ego.y, ego.v_lat, road.lane_center(target_lane), rss.a_lat_limit)
    return envelope.clamp(a_lon, a_lat)


def safety_maneuver(ego: AgentState, road: RoadParams, rss: RssParams,
                    lat: LateralControl) -> tuple[float, float]:
    """Emergency braking plus steering back to the right lane, at physical
    limits and free of envelope restrictions."""
    a_lon = -rss.b_max_brake_lon
    a_lat = lat.accel(ego.y, ego.v_lat, road.lane_center(0), rss.a_lat_limit)
    return a_lon, a_lat


def integrate_ego(state: AgentState, a_lon: float, a_lat: float, dt: float) -> AgentState:
    """Point-mass update with piecewise-constant accelerations over dt.

    The longitudinal velocity component is clamped at 0 (no reversing); the
    heading follows the velocity components, and the speed saturates at
    MAX_SPEED, as ``observe`` saturates observed states (two accepted
    fields, such as a large a_lat_limit with a stiff lateral gain, can
    command more).
    """
    vl, vt = state.v_lon, state.v_lat
    dx, vl2 = advance_speed_clamped(vl, a_lon, dt)
    dy = vt * dt + 0.5 * a_lat * dt * dt
    vt2 = vt + a_lat * dt
    v2 = math.hypot(float(vl2), vt2)
    theta2 = math.atan2(vt2, float(vl2)) if v2 > 0.0 else 0.0
    return AgentState(x=state.x + float(dx), y=state.y + dy,
                      theta=wrap_angle(theta2), v=min(v2, MAX_SPEED))


def idm_step_others(world: WorldState, road: RoadParams, idm: IdmParams,
                    others_v0: tuple[float, ...], rss: RssParams,
                    dt: float) -> tuple[AgentState, ...]:
    """Advance the other agents by the car-following law on true states.

    Each agent follows its nearest same-lane leader (the ego included once it
    occupies the lane); lateral position and heading are held."""
    ego_lane = road.lane_of(world.ego.y)
    agents = [(s.x, s.v_lon, world.other_lanes[i]) for i, s in enumerate(world.others)]
    agents.append((world.ego.x, world.ego.v_lon, ego_lane))
    out = []
    for i, s in enumerate(world.others):
        lane = world.other_lanes[i]
        gap = math.inf
        lead_v = 0.0
        for x, v, ln in agents:
            if ln != lane or x <= s.x:  # x <= s.x skips the agent itself
                continue
            d = x - s.x - rss.length
            if d < gap:
                gap = d
                lead_v = v
        a = idm_accel(s.v, gap, lead_v, idm, others_v0[i], rss.a_lon_limit)
        dx, v2 = advance_speed_clamped(s.v, a, dt)
        out.append(AgentState(x=s.x + float(dx), y=s.y, theta=s.theta, v=float(v2)))
    return tuple(out)


def boxes_overlap(a: AgentState, b: AgentState, rss: RssParams) -> bool:
    """Axis-aligned bounding boxes of two agents intersect."""
    return (abs(a.x - b.x) < rss.length) and (abs(a.y - b.y) < rss.width)


def collision(world: WorldState, rss: RssParams) -> bool:
    return any(boxes_overlap(world.ego, s, rss) for s in world.others)


def in_goal(world: WorldState, road: RoadParams) -> bool:
    ego = world.ego
    if not (road.goal_x_min <= ego.x <= road.goal_x_max):
        return False
    if not (0.5 * road.lane_width <= ego.y <= 1.5 * road.lane_width):
        return False
    if not (road.goal_speed_min <= ego.v <= road.goal_speed_max):
        return False
    return abs(ego.theta) <= road.goal_heading_max


def classify_outcome(world: WorldState, road: RoadParams, horizon: float,
                     rss: RssParams) -> str | None:
    """Terminal classification for the current state, or None to continue.

    Collision dominates, then goal membership; a ``world.time`` past the
    horizon is a Timeout.  Exactly one terminal outcome ends every episode.
    """
    if collision(world, rss):
        return "Collision"
    if in_goal(world, road):
        return "Success"
    if world.time > horizon - 1e-9:  # the step landing on the horizon ends the episode
        return "Timeout"
    return None


@dataclass
class EpisodeResult:
    outcome: str
    steps: int
    records: list[StepRecord] = field(default_factory=list)
    envelope_steps: int = 0      # steps with an active (pre-switch) envelope
    envelope_violations: int = 0

