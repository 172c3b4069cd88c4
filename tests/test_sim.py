import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskenv.config import RunConfig
from riskenv.rss import AgentState, RssParams, unrestricted_envelope
from riskenv.sim import (
    IdmParams,
    LateralControl,
    ObservedWorld,
    RoadParams,
    WorldState,
    boxes_overlap,
    classify_outcome,
    idm_accel,
    idm_step_others,
    in_goal,
    integrate_ego,
    nominal_lane_change,
    observe,
    safety_maneuver,
    simulate,
)
from riskenv.uncertainty import UncertaintySpec, eigendecompose
from riskenv import bench

RSS = RssParams()
ROAD = RoadParams()
IDM = IdmParams()
LAT = LateralControl()


def world_with(others, ego=None, lanes=None):
    ego = ego or AgentState(0, 0, 0, 17)
    lanes = lanes if lanes is not None else tuple(ROAD.lane_of(o.y) for o in others)
    return WorldState(time=0.0, ego=ego, others=tuple(others),
                      other_lanes=tuple(lanes), road=ROAD)


class TestIdm:
    def test_free_flow_at_desired_speed(self):
        assert idm_accel(17.0, math.inf, 0.0, IDM, 17.0, RSS.a_lon_limit) == 0.0

    def test_free_flow_from_standstill(self):
        assert idm_accel(0.0, math.inf, 0.0, IDM, 17.0, RSS.a_lon_limit) == IDM.a

    def test_equilibrium_formula_value(self):
        v = 15.0
        gap = IDM.s0 + v * IDM.T
        a = idm_accel(v, gap, v, IDM, 20.0, RSS.a_lon_limit)
        expected = IDM.a * (1 - (v / 20.0) ** IDM.delta - 1.0)
        assert a == pytest.approx(expected)

    def test_non_positive_gap_is_emergency(self):
        assert idm_accel(10.0, 0.0, 5.0, IDM, 17.0, RSS.a_lon_limit) == -RSS.a_lon_limit
        assert idm_accel(10.0, -2.0, 5.0, IDM, 17.0, RSS.a_lon_limit) == -RSS.a_lon_limit

    def test_platoon_converges_to_equilibrium_gap(self):
        # Follower behind a constant-speed leader settles at s0 + v*T.
        leader_v = 16.0
        dt = 0.2
        follower = AgentState(0.0, 3.5, 0, 19.0)
        leader = AgentState(60.0, 3.5, 0, leader_v)
        world = world_with([follower, leader])
        v0s = (60.0, leader_v)  # follower wants far more than the leader allows
        for _ in range(300):
            others = idm_step_others(world, IDM, v0s, RSS, dt)
            world = WorldState(world.time + dt, world.ego, others,
                               world.other_lanes, ROAD)
        follower2, leader2 = world.others
        gap = leader2.x - follower2.x - RSS.length
        assert abs(gap - (IDM.s0 + follower2.v * IDM.T)) < 0.5
        assert follower2.v == pytest.approx(leader_v, abs=0.05)


class TestObserve:
    def spec(self, var):
        return UncertaintySpec.from_diagonal([var] * 3 + [var / 400], (0.9,), 4)

    def test_zero_covariance_identity(self):
        spec = self.spec(0.0)
        basis = eigendecompose(spec.sigma)
        world = world_with([AgentState(20, 3.5, 0, 15)])
        obs = observe(world, basis, np.random.default_rng(0))
        assert obs.ego == world.ego
        assert obs.others == world.others

    def test_fixed_seed_reproducible(self):
        spec = self.spec(0.04)
        basis = eigendecompose(spec.sigma)
        world = world_with([AgentState(20, 3.5, 0, 15), AgentState(45, 3.5, 0, 17)])
        a = [observe(world, basis, np.random.default_rng(5)) for _ in range(1)]
        b = [observe(world, basis, np.random.default_rng(5)) for _ in range(1)]
        assert a == b

    def test_empirical_noise_covariance(self):
        spec = self.spec(0.04)
        basis = eigendecompose(spec.sigma)
        world = world_with([AgentState(1000, 3.5, 0, 15)])
        rng = np.random.default_rng(17)
        devs = []
        for _ in range(10_000):
            obs = observe(world, basis, rng)
            o = obs.others[0]
            t = world.others[0]
            devs.append([o.x - t.x, o.y - t.y, o.v - t.v, o.theta - t.theta])
        emp = np.cov(np.array(devs).T)
        for i in range(4):
            assert emp[i, i] == pytest.approx(spec.sigma[i, i], rel=0.1)


class TestControllers:
    def obs(self, others, ego=None):
        ego = ego or AgentState(0, ROAD.lane_center(1), 0, 17)
        return ObservedWorld(ego=ego, others=tuple(others))

    def test_equilibrium_gives_zero_commands(self):
        obs = self.obs([], ego=AgentState(0, 3.5, 0, 17))
        a_lon, a_lat = nominal_lane_change(obs, 1, unrestricted_envelope(RSS), ROAD,
                                           IDM, 17.0, RSS, LAT)
        assert a_lon == 0.0
        assert a_lat == 0.0

    def test_envelope_clamps_lon(self):
        obs = self.obs([], ego=AgentState(0, 3.5, 0, 10.0))
        env = unrestricted_envelope(RSS)
        a_free, _ = nominal_lane_change(obs, 1, env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_free > 0.0
        clamped_env = env.__class__(env.a_lon_min, 0.0, env.a_lat_min, env.a_lat_max)
        a_lon, _ = nominal_lane_change(obs, 1, clamped_env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_lon == 0.0

    def test_envelope_clamps_lat(self):
        obs = self.obs([], ego=AgentState(0, 0.0, 0, 17.0))
        env = unrestricted_envelope(RSS)
        _, a_free = nominal_lane_change(obs, 1, env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_free > 0.0
        clamped_env = env.__class__(env.a_lon_min, env.a_lon_max, env.a_lat_min, 0.0)
        _, a_lat = nominal_lane_change(obs, 1, clamped_env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_lat == 0.0

    def test_safety_maneuver_brakes_hard(self):
        obs = self.obs([AgentState(10, 3.5, 0, 10)], ego=AgentState(0, 2.0, 0.1, 15))
        a_lon, a_lat = safety_maneuver(obs, ROAD, RSS, LAT)
        assert a_lon == -RSS.b_max_brake_lon
        assert a_lat < 0.0  # steering back toward the right lane

    def test_safety_maneuver_on_right_centerline(self):
        obs = self.obs([], ego=AgentState(0, 0.0, 0, 15))
        _, a_lat = safety_maneuver(obs, ROAD, RSS, LAT)
        assert a_lat == 0.0

    def test_no_reverse_from_standstill(self):
        state = AgentState(0, 0, 0, 0.0)
        nxt = integrate_ego(state, -RSS.b_max_brake_lon, 0.0, 0.2)
        assert nxt.v == 0.0
        assert nxt.x == state.x


class TestIntegration:
    def test_exact_kinematics(self):
        state = AgentState(0, 0, 0, 10.0)
        for _ in range(5):
            state = integrate_ego(state, 1.0, 0.0, 0.2)
        assert state.v == pytest.approx(11.0, abs=1e-9)
        assert state.x == pytest.approx(10.5, abs=1e-9)

    def test_heading_tracks_velocity(self):
        state = AgentState(0, 0, 0, 10.0)
        state = integrate_ego(state, 0.0, 2.0, 0.5)
        assert state.theta == pytest.approx(math.atan2(1.0, 10.0))
        assert state.v == pytest.approx(math.hypot(10.0, 1.0))

    @given(a_lon=st.floats(-8, 8), a_lat=st.floats(-4, 4), v=st.floats(0, 25),
           theta=st.floats(-0.5, 0.5))
    @settings(max_examples=100)
    def test_never_reverses(self, a_lon, a_lat, v, theta):
        state = AgentState(0, 0, theta, v)
        for _ in range(10):
            state = integrate_ego(state, a_lon, a_lat, 0.2)
        assert state.v >= 0.0
        assert -math.pi / 2 <= state.theta <= math.pi / 2


class TestOutcomes:
    def test_collision_iff_boxes_overlap(self):
        near = world_with([AgentState(RSS.length - 0.01, 0.5, 0, 15)])
        apart = world_with([AgentState(RSS.length + 0.01, 0.5, 0, 15)])
        assert classify_outcome(near, 1.0, 8.0, RSS) == "Collision"
        assert classify_outcome(apart, 1.0, 8.0, RSS) != "Collision"

    def test_success_requires_pose_and_speed(self):
        good = world_with([], ego=AgentState(80, 3.5, 0.05, 17))
        assert classify_outcome(good, 5.0, 8.0, RSS) == "Success"
        too_fast = world_with([], ego=AgentState(80, 3.5, 0.05, 26))
        assert classify_outcome(too_fast, 5.0, 8.0, RSS) is None
        crooked = world_with([], ego=AgentState(80, 3.5, 0.2, 17))
        assert classify_outcome(crooked, 5.0, 8.0, RSS) is None
        wrong_lane = world_with([], ego=AgentState(80, 0.0, 0.0, 17))
        assert classify_outcome(wrong_lane, 5.0, 8.0, RSS) is None

    def test_timeout_at_horizon(self):
        idle = world_with([], ego=AgentState(0, 0, 0, 17))
        assert classify_outcome(idle, 8.0, 8.0, RSS) == "Timeout"
        assert classify_outcome(idle, 7.8, 8.0, RSS) is None

    def test_stationary_world_stays_put(self):
        # Null policy, no other agents: nothing moves.
        world = world_with([], ego=AgentState(5.0, 1.0, 0, 0.0))
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], (0.9,), 4)
        basis = eigendecompose(spec.sigma)

        def null_policy(obs, w):
            return 0.0, 0.0, "nominal", None, None

        res = simulate(world, null_policy, basis, np.random.default_rng(0),
                       IDM, (), RSS, 0.2, 8.0, collect_trace=True)
        assert res.outcome == "Timeout"
        assert res.steps == 40
        assert all(r.ego.x == 5.0 and r.ego.y == 1.0 for r in res.records)


class TestEpisodes:
    def test_deterministic_trace(self):
        cfg = RunConfig()
        scns = bench.generate_scenarios(3, cfg.seed, cfg)
        a = bench.run_episode(scns[1], "ProbabilisticEnvelopeRestriction", 0.1,
                              "small", cfg, collect_trace=True)
        b = bench.run_episode(scns[1], "ProbabilisticEnvelopeRestriction", 0.1,
                              "small", cfg, collect_trace=True)
        assert a.outcome == b.outcome
        assert a.records == b.records

    def test_envelope_compliance_logged(self):
        cfg = RunConfig()
        scns = bench.generate_scenarios(4, cfg.seed, cfg)
        for s in scns:
            res = bench.run_episode(s, "EnvelopeRestriction", 0.0, "none", cfg,
                                    collect_trace=True)
            for rec in res.records:
                if rec.envelope is None:
                    continue
                assert rec.envelope.a_lon_min - 1e-9 <= rec.a_lon <= rec.envelope.a_lon_max + 1e-9
                assert rec.envelope.a_lat_min - 1e-9 <= rec.a_lat <= rec.envelope.a_lat_max + 1e-9

    def test_outcome_partition(self):
        cfg = RunConfig()
        scns = bench.generate_scenarios(10, cfg.seed, cfg)
        for s in scns:
            res = bench.run_episode(s, "Simplex", 0.0, "small", cfg)
            assert res.outcome in ("Success", "Collision", "Timeout")
            assert res.steps <= 40

    def test_trace_step_count_capped(self):
        cfg = RunConfig()
        scns = bench.generate_scenarios(2, cfg.seed, cfg)
        res = bench.run_episode(scns[0], "ProbabilisticEnvelopeRestriction", 0.0,
                                "small", cfg, collect_trace=True)
        assert len(res.records) <= 40
