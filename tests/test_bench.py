import numpy as np
import pytest

from riskenv import bench
from riskenv.config import RunConfig, ScenarioParams
from riskenv.rss import AgentState
from riskenv.sim import ObservedWorld
from riskenv.uncertainty import UncertaintySpec, eigendecompose


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


@pytest.fixture(scope="module")
def small_set(cfg):
    return bench.generate_scenarios(6, cfg.seed, cfg)


class TestScenarioGeneration:
    def test_counts_and_ranges(self, cfg):
        scns = bench.generate_scenarios(100, cfg.seed, cfg)
        assert len(scns) == 100
        sp = cfg.scenario
        for s in scns:
            assert sp.speed_min <= s.ego_speed <= sp.speed_max
            for _, lane, v in s.others:
                assert lane == 1
                assert sp.speed_min <= v <= sp.speed_max
            xs = [x for x, _, _ in s.others]
            assert xs == sorted(xs)
            for a, b in zip(xs, xs[1:]):
                assert sp.gap_min <= b - a <= sp.gap_max

    def test_platoon_straddles_merge_point(self, cfg):
        sp = cfg.scenario
        for s in bench.generate_scenarios(50, cfg.seed, cfg):
            xs = [x for x, _, _ in s.others]
            assert xs[0] < sp.merge_lookahead < xs[-1]

    def test_deterministic(self, cfg):
        a = bench.generate_scenarios(20, cfg.seed, cfg)
        b = bench.generate_scenarios(20, cfg.seed, cfg)
        assert a == b
        c = bench.generate_scenarios(20, cfg.seed + 1, cfg)
        assert a != c


class TestPolicyEquivalences:
    def zero_noise_policy(self, cfg, kind, beta, ego, others):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0],
                                             cfg.uncertainty["small"].contour_levels,
                                             cfg.uncertainty["small"].n_phi)
        basis = eigendecompose(spec.sigma)
        rng = np.random.default_rng(0)
        policy = bench.Policy(kind, beta, cfg, spec, basis, rng, ego_v0=ego.v)
        obs = ObservedWorld(ego=ego, others=tuple(others))
        return policy, obs

    @pytest.mark.parametrize("geometry", [
        (AgentState(0, 0, 0, 17), [AgentState(28, 0, 0, 15)]),
        (AgentState(0, 0, 0, 17), [AgentState(4, 3.5, 0, 18), AgentState(52, 3.5, 0, 16)]),
        (AgentState(0, 1.4, 0.1, 17), [AgentState(9, 3.5, 0, 17)]),
    ])
    def test_zero_noise_prob_env_equals_env_restriction(self, cfg, geometry):
        ego, others = geometry
        for beta in (0.05, 0.5):
            pa, obs = self.zero_noise_policy(cfg, "ProbabilisticEnvelopeRestriction",
                                             beta, ego, others)
            pb, _ = self.zero_noise_policy(cfg, "EnvelopeRestriction", beta, ego, others)
            switch_a, env_a = pa._decide(obs)
            switch_b, env_b = pb._decide(obs)
            assert switch_a == switch_b
            if not switch_a:
                assert env_a == env_b
            cmd_a = pa(obs, None)[:3]
            cmd_b = pb(obs, None)[:3]
            assert cmd_a == cmd_b

    def test_zero_noise_simplex_flavors_switch_identically(self, cfg):
        ego = AgentState(0, 1.4, 0.1, 17)
        others = [AgentState(6, 3.5, 0, 19)]
        for beta in (0.0, 0.1, 0.9):
            pa, obs = self.zero_noise_policy(cfg, "Simplex", beta, ego, others)
            pb, _ = self.zero_noise_policy(cfg, "ProbabilisticSimplex", beta, ego, others)
            assert pa._decide(obs)[0] == pb._decide(obs)[0]

    def test_far_traffic_pure_nominal(self, cfg):
        ego = AgentState(0, 0, 0, 17)
        others = [AgentState(400, 3.5, 0, 17)]
        commands = set()
        for kind in bench.POLICY_NAMES:
            policy, obs = self.zero_noise_policy(cfg, kind, 0.1, ego, others)
            a_lon, a_lat, mode, _, _ = policy(obs, None)
            assert mode == "nominal"
            commands.add((a_lon, a_lat))
        assert len(commands) == 1


class TestSweep:
    def test_rate_table_shape_and_sanity(self, cfg, small_set):
        rows = bench.sweep(small_set, ["EnvelopeRestriction", "Simplex"],
                           ["none", "small"], [0.0, 0.1], cfg)
        assert len(rows) == 2 * 2 * 2
        for r in rows:
            assert r.n == len(small_set)
            assert r.success_rate + r.collision_rate + r.timeout_rate == pytest.approx(1.0)

    def test_beta_free_policies_constant_across_beta(self, cfg, small_set):
        rows = bench.sweep(small_set, ["EnvelopeRestriction"], ["small"],
                           [0.0, 0.4, 1.0], cfg)
        assert len({(r.success_rate, r.collision_rate, r.timeout_rate)
                    for r in rows}) == 1

    def test_paired_prefix_across_policies(self, cfg, small_set):
        # Identical true trajectories until the first differing command.
        scn = small_set[0]
        a = bench.run_episode(scn, "Simplex", 0.0, "small", cfg, collect_trace=True)
        b = bench.run_episode(scn, "EnvelopeRestriction", 0.0, "small", cfg,
                              collect_trace=True)
        for ra, rb in zip(a.records, b.records):
            assert ra.observations == rb.observations
            assert ra.ego == rb.ego
            if (ra.a_lon, ra.a_lat) != (rb.a_lon, rb.a_lat):
                break

    def test_empty_inputs_rejected(self, cfg, small_set):
        with pytest.raises(ValueError):
            bench.sweep([], ["Simplex"], ["none"], [0.0], cfg)
        with pytest.raises(ValueError):
            bench.sweep(small_set, [], ["none"], [0.0], cfg)


class TestDirectional:
    def test_noise_makes_plain_envelope_restriction_collide(self, cfg):
        # Reacting to the observed boundary with no probabilistic margin is
        # no longer collision-free once observations carry noise.
        scns = bench.generate_scenarios(100, cfg.seed, cfg)
        clean = bench.run_cell(scns, "EnvelopeRestriction", "none", 0.0, cfg)
        noisy = bench.run_cell(scns, "EnvelopeRestriction", "small", 0.0, cfg)
        assert clean.collision_rate == 0.0
        assert noisy.collision_rate > 0.0
        assert noisy.success_rate < clean.success_rate


class TestOutputs:
    def test_csv_layout(self, cfg, small_set):
        rows = bench.sweep(small_set, ["Simplex"], ["none"], [0.0, 0.5], cfg)
        text = bench.rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == bench.CSV_HEADER
        assert len(lines) == 1 + 2
        assert text == bench.rows_to_csv(rows)

    def test_json_round_trip(self, cfg, small_set):
        rows = bench.sweep(small_set, ["Simplex"], ["none"], [0.0], cfg)
        payload = bench.rows_to_json(rows)
        assert payload[0]["policy"] == "Simplex"
        assert len(payload[0]["scenarios"]) == len(small_set)


class TestSpearman:
    def test_perfect_monotone(self):
        assert bench.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert bench.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_handled(self):
        r = bench.spearman([1, 2, 3, 4], [0, 0, 1, 1])
        assert 0.0 < r <= 1.0

    def test_constant_series_zero(self):
        assert bench.spearman([1, 2, 3], [5, 5, 5]) == 0.0
