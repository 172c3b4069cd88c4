import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskenv.config import RunConfig, config_from_dict
from riskenv.rss import (
    MAX_POSITION,
    MAX_SPEED,
    AgentState,
    RssParams,
    unrestricted_envelope,
    wrap_angle,
)
from riskenv.sim import (
    IdmParams,
    LateralControl,
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
)
from riskenv.uncertainty import UncertaintySpec, draw_noise, eigendecompose
from riskenv import bench, cli

RSS = RssParams()
ROAD = RoadParams()
IDM = IdmParams()
LAT = LateralControl()


def world_with(others, ego=None, lanes=None, time=0.0):
    ego = ego or AgentState(0, 0, 0, 17)
    lanes = lanes if lanes is not None else tuple(ROAD.lane_of(o.y) for o in others)
    return WorldState(time=time, ego=ego, others=tuple(others), other_lanes=tuple(lanes))


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
            others = idm_step_others(world, ROAD, IDM, v0s, RSS, dt)
            world = WorldState(world.time + dt, world.ego, others, world.other_lanes)
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
        assert observe(world, draw_noise(basis, np.random.default_rng(0), 1)) == world.others

    def test_fixed_seed_reproducible(self):
        spec = self.spec(0.04)
        basis = eigendecompose(spec.sigma)
        world = world_with([AgentState(20, 3.5, 0, 15), AgentState(45, 3.5, 0, 17)])
        a = [observe(world, draw_noise(basis, np.random.default_rng(5), 2)) for _ in range(1)]
        b = [observe(world, draw_noise(basis, np.random.default_rng(5), 2)) for _ in range(1)]
        assert a == b

    @pytest.mark.parametrize("var", [0.0, 0.04])
    def test_states_hold_python_floats(self, var):
        basis = eigendecompose(self.spec(var).sigma)
        world = world_with([AgentState(20.0, 3.5, 0.0, 15.0), AgentState(45.0, 3.5, 0.0, 17.0)],
                           ego=AgentState(0.0, 0.0, 0.0, 17.0))
        observed = observe(world, draw_noise(basis, np.random.default_rng(3), 2))
        stepped = idm_step_others(world, ROAD, IDM, (15.0, 17.0), RSS, 0.2)
        for s in observed + stepped + (integrate_ego(world.ego, -1.3, 0.4, 0.2),):
            assert [type(getattr(s, f)) for f in ("x", "y", "theta", "v")] == [float] * 4

    def test_empirical_noise_covariance(self):
        spec = self.spec(0.04)
        basis = eigendecompose(spec.sigma)
        world = world_with([AgentState(1000, 3.5, 0, 15)])
        rng = np.random.default_rng(17)
        devs = []
        for _ in range(10_000):
            [o] = observe(world, draw_noise(basis, rng, 1))
            t = world.others[0]
            devs.append([o.x - t.x, o.y - t.y, o.v - t.v, o.theta - t.theta])
        emp = np.cov(np.array(devs).T)
        for i in range(4):
            assert emp[i, i] == pytest.approx(spec.sigma[i, i], rel=0.1)

    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_pure_function_of_world_and_deviations(self, seed, n_agents):
        rng = np.random.default_rng(seed)
        world = world_with([AgentState(float(rng.uniform(-50.0, 150.0)),
                                       float(3.5 * rng.integers(2)),
                                       float(rng.normal(0.0, 0.05)),
                                       float(rng.uniform(0.0, 30.0)))
                            for _ in range(n_agents)])
        devs = rng.normal(0.0, 0.5, (n_agents, 4))
        kept = devs.copy()
        observed = observe(world, devs)
        assert observe(world, devs) == observed
        assert np.array_equal(devs, kept)
        assert type(observed) is tuple and len(observed) == n_agents
        for s, d, o in zip(world.others, devs.tolist(), observed, strict=True):
            assert (o.x, o.y, o.v) == (s.x + d[0], s.y + d[1], max(s.v + d[2], 0.0))
            assert o.theta == wrap_angle(s.theta + d[3])

    def test_row_count_must_match_the_agents(self):
        world = world_with([AgentState(20, 3.5, 0, 15), AgentState(45, 3.5, 0, 17)])
        with pytest.raises(ValueError):
            observe(world, np.zeros((1, 4)))

    def test_observed_quantities_saturate_at_the_state_bounds(self):
        world = world_with([AgentState(MAX_POSITION - 1.0, 1.0 - MAX_POSITION, 0.0,
                                       MAX_SPEED - 0.5),
                            AgentState(1.0 - MAX_POSITION, MAX_POSITION - 1.0, 0.0, 0.5)])
        observed = observe(world, np.array([[2.0, -2.0, 1.0, 0.0], [-2.0, 2.0, -1.0, 0.0]]))
        assert [(o.x, o.y, o.v) for o in observed] == [
            (MAX_POSITION, -MAX_POSITION, MAX_SPEED), (-MAX_POSITION, MAX_POSITION, 0.0)]


class TestControllers:
    def test_equilibrium_gives_zero_commands(self):
        a_lon, a_lat = nominal_lane_change(AgentState(0, 3.5, 0, 17), (), 1,
                                           unrestricted_envelope(RSS), ROAD, IDM, 17.0, RSS, LAT)
        assert a_lon == 0.0
        assert a_lat == 0.0

    def test_envelope_clamps_lon(self):
        ego = AgentState(0, 3.5, 0, 10.0)
        env = unrestricted_envelope(RSS)
        a_free, _ = nominal_lane_change(ego, (), 1, env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_free > 0.0
        clamped_env = env.__class__(env.a_lon_min, 0.0, env.a_lat_min, env.a_lat_max)
        a_lon, _ = nominal_lane_change(ego, (), 1, clamped_env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_lon == 0.0

    def test_envelope_clamps_lat(self):
        ego = AgentState(0, 0.0, 0, 17.0)
        env = unrestricted_envelope(RSS)
        _, a_free = nominal_lane_change(ego, (), 1, env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_free > 0.0
        clamped_env = env.__class__(env.a_lon_min, env.a_lon_max, env.a_lat_min, 0.0)
        _, a_lat = nominal_lane_change(ego, (), 1, clamped_env, ROAD, IDM, 17.0, RSS, LAT)
        assert a_lat == 0.0

    def test_safety_maneuver_brakes_hard(self):
        a_lon, a_lat = safety_maneuver(AgentState(0, 2.0, 0.1, 15), ROAD, RSS, LAT)
        assert a_lon == -RSS.b_max_brake_lon
        assert a_lat < 0.0  # steering back toward the right lane

    def test_safety_maneuver_on_right_centerline(self):
        _, a_lat = safety_maneuver(AgentState(0, 0.0, 0, 15), ROAD, RSS, LAT)
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

    def test_speed_saturates_at_the_bound(self):
        state = integrate_ego(AgentState(0.0, 0.0, 0.0, 90.0), 8.0, 1000.0, 0.2)
        assert state.v == MAX_SPEED
        assert state.theta == pytest.approx(math.atan2(200.0, 91.6))  # the heading holds
        assert integrate_ego(AgentState(0.0, 0.0, 0.0, MAX_SPEED), 8.0, 0.0, 0.2).v == MAX_SPEED


class TestCrossFieldConfigs:
    """Configs whose fields each lie in their range, but whose combination
    once drove the ego past MAX_SPEED and crashed ``simulate`` (exit 1)."""

    @pytest.mark.parametrize("config, argv", [
        # One saturated lateral step at kp = 1000 gives about 200 m/s sideways.
        ({"rss": {"a_lat_limit": 1000}, "lateral": {"kp": 1000}},
         ["--policy", "EnvelopeRestriction", "--covariance", "none"]),
        # The ego steers toward a lane 1e6 m away until it passes MAX_SPEED.
        ({"road": {"lane_width": 1e6}, "scenario": {"horizon": 100}},
         ["--scenario", "0", "--policy", "Simplex", "--covariance", "small"]),
    ], ids=["stiff-lateral-gain", "far-lane"])
    def test_simulate_runs_with_the_speed_saturated(self, tmp_path, capsys, config, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path), *argv])
        assert code == 0, capsys.readouterr().err
        [trace] = tmp_path.glob("trace_*.jsonl")
        speeds = [json.loads(line)["ego"]["v"] for line in trace.read_text().splitlines()]
        assert max(speeds) == MAX_SPEED

    # idm.a, idm.delta and idm.v0 at the ends of their ranges (v0 also unset),
    # each with scenario.dt at either end.  Where the one-step bound on the
    # others' speed is tight (a = 10, delta = 10, v0 = 100, dt = 1) they
    # reach MAX_SPEED and stop there; every episode ends in a named outcome.
    @pytest.mark.parametrize("dt, horizon", [(1.0, 100.0), (1e-3, 0.05)])
    @pytest.mark.parametrize("v0", [1e-3, 100.0, None])
    @pytest.mark.parametrize("delta", [1e-9, 10.0])
    @pytest.mark.parametrize("a", [1e-3, 10.0])
    def test_idm_and_step_at_their_ends(self, a, delta, v0, dt, horizon):
        idm = {"a": a, "delta": delta} | ({} if v0 is None else {"v0": v0})
        cfg = config_from_dict({"idm": idm, "scenario": {"dt": dt, "horizon": horizon}})
        top = 0.0
        for scn in bench.generate_scenarios(2, cfg.seed, cfg):
            for kind, case in (("Simplex", "none"), ("ProbabilisticEnvelopeRestriction", "small")):
                result = bench.run_episode(scn, kind, 0.1, case, cfg, collect_trace=True)
                assert result.outcome in ("Success", "Collision", "Timeout")
                if case == "none":  # the observations are the true states
                    top = max([top] + [o.v for rec in result.records for o in rec.observations])
        assert top <= MAX_SPEED
        if (a, delta, v0, dt) == (10.0, 10.0, 100.0, 1.0):
            assert top == MAX_SPEED


class TestOutcomes:
    def test_collision_iff_boxes_overlap(self):
        near = world_with([AgentState(RSS.length - 0.01, 0.5, 0, 15)], time=1.0)
        apart = world_with([AgentState(RSS.length + 0.01, 0.5, 0, 15)], time=1.0)
        assert classify_outcome(near, ROAD, 8.0, RSS) == "Collision"
        assert classify_outcome(apart, ROAD, 8.0, RSS) != "Collision"

    def test_success_requires_pose_and_speed(self):
        good = world_with([], ego=AgentState(80, 3.5, 0.05, 17), time=5.0)
        assert classify_outcome(good, ROAD, 8.0, RSS) == "Success"
        too_fast = world_with([], ego=AgentState(80, 3.5, 0.05, 26), time=5.0)
        assert classify_outcome(too_fast, ROAD, 8.0, RSS) is None
        crooked = world_with([], ego=AgentState(80, 3.5, 0.2, 17), time=5.0)
        assert classify_outcome(crooked, ROAD, 8.0, RSS) is None
        wrong_lane = world_with([], ego=AgentState(80, 0.0, 0.0, 17), time=5.0)
        assert classify_outcome(wrong_lane, ROAD, 8.0, RSS) is None

    def test_timeout_at_horizon(self):
        idle = world_with([], ego=AgentState(0, 0, 0, 17), time=8.0)
        assert classify_outcome(idle, ROAD, 8.0, RSS) == "Timeout"
        assert classify_outcome(replace(idle, time=7.8), ROAD, 8.0, RSS) is None

    def test_stationary_world_stays_put(self):
        # Zero commands, no other agents: nothing moves, and the step at
        # t = horizon (step 40 of 0.2 s, at the time run_episode gives step
        # n) is the first that ends the episode.
        ego = AgentState(5.0, 1.0, 0, 0.0)
        world = world_with([], ego=ego)
        for step in range(1, 41):
            assert classify_outcome(world, ROAD, 8.0, RSS) is None
            world = WorldState(time=step * 0.2, ego=integrate_ego(world.ego, 0.0, 0.0, 0.2),
                               others=idm_step_others(world, ROAD, IDM, (), RSS, 0.2),
                               other_lanes=())
            assert world.ego == ego and world.others == ()
        assert classify_outcome(world, ROAD, 8.0, RSS) == "Timeout"


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

    @pytest.mark.parametrize("kind", bench.POLICY_NAMES)
    def test_unreachable_goal_times_out_at_the_horizon(self, kind):
        cfg = replace(RunConfig(), road=RoadParams(goal_x_min=1000.0, goal_x_max=1100.0))
        scn = bench.ScenarioConfig(index=0, seed=3, ego_speed=17.0, others=())
        res = bench.run_episode(scn, kind, 0.1, "small", cfg, collect_trace=True)
        assert res.outcome == "Timeout"
        assert res.steps == len(res.records) == 40
        assert [r.t for r in res.records] == [n * 0.2 for n in range(1, 41)]
        assert {r.mode for r in res.records} == {"nominal"}

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
