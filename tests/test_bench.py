import hashlib
import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_cell, oracle_episode
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from riskenv import bench, prob_envelope, rss, uncertainty
from riskenv.config import (
    COVARIANCE_CASES,
    ConfigError,
    DEFAULT_CONTOUR_LEVELS,
    DEFAULT_LARGE_VARIANCES,
    DEFAULT_SMALL_VARIANCES,
    POLICY_NAMES,
    RunConfig,
    ScenarioParams,
    load_config,
)
from riskenv.prob_envelope import perturbed_state_arrays, risk_bounded_envelope, should_switch
from riskenv.rss import AgentState, safety_envelope, violation_batch
from riskenv.sim import LateralControl, WorldState, observe
from riskenv.uncertainty import UncertaintySpec, draw_noise, eigendecompose

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
script_spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
run_benchmark = importlib.util.module_from_spec(script_spec)
script_spec.loader.exec_module(run_benchmark)


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def grid(cfg, policies, betas):
    """``cfg`` with the sweep grid ``policies`` x ``betas``."""
    return replace(cfg, policies=policies, betas=betas)


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


def episode_decision(analysis, beta, cfg):
    """The switch and the envelope that run_episode takes from one policy
    call's ``analysis`` at the risk level ``beta`` (no envelope when it
    switches)."""
    expectations, dists, _ = analysis
    if should_switch(expectations, beta):
        return True, None
    return False, None if dists is None else risk_bounded_envelope(dists, beta, cfg.rss)


class TestPolicyEquivalences:
    # Why acting_beta may act on 0.0: at zero covariance each probabilistic
    # policy decides at its own beta below 1 as its deterministic twin does.
    def zero_noise_policy(self, cfg, kind, ego, others):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0],
                                             cfg.uncertainty["small"].contour_levels,
                                             cfg.uncertainty["small"].n_phi)
        rng = np.random.default_rng(0)
        policy = bench.Policy(kind, cfg, spec, rng)
        # At zero noise the observed agents are the true ones.
        world = WorldState(0.0, ego, tuple(others), tuple(cfg.road.lane_of(o.y) for o in others))
        return policy, world.others, world, spec

    @pytest.mark.parametrize("geometry", [
        (AgentState(0, 0, 0, 17), [AgentState(28, 0, 0, 15)]),
        (AgentState(0, 0, 0, 17), [AgentState(4, 3.5, 0, 18), AgentState(52, 3.5, 0, 16)]),
        (AgentState(0, 1.4, 0.1, 17), [AgentState(9, 3.5, 0, 17)]),
    ])
    def test_zero_noise_prob_env_equals_env_restriction(self, cfg, geometry):
        ego, others = geometry
        pa, observed, world, spec = self.zero_noise_policy(
            cfg, "ProbabilisticEnvelopeRestriction", ego, others)
        pb, _, _, _ = self.zero_noise_policy(cfg, "EnvelopeRestriction", ego, others)
        for beta in (0.05, 0.5):
            # run_episode commands from the switch and the envelope alone, so
            # equal decisions give equal commands: PER at its own beta, ER at
            # the 0.0 it acts on.
            assert bench.acting_beta("EnvelopeRestriction", beta, spec) == 0.0
            assert (episode_decision(pa(observed, world), beta, cfg)
                    == episode_decision(pb(observed, world), 0.0, cfg))

    def test_zero_noise_simplex_flavors_switch_identically(self, cfg):
        ego = AgentState(0, 1.4, 0.1, 17)
        others = [AgentState(6, 3.5, 0, 19)]
        pa, observed, world, spec = self.zero_noise_policy(cfg, "Simplex", ego, others)
        pb, _, _, _ = self.zero_noise_policy(cfg, "ProbabilisticSimplex", ego, others)
        assert episode_decision(pa(observed, world), 0.0, cfg) == (True, None)
        for beta in (0.0, 0.1, 0.9):
            assert bench.acting_beta("Simplex", beta, spec) == 0.0
            state = pb.rng.bit_generator.state
            assert (episode_decision(pb(observed, world), beta, cfg)
                    == episode_decision(pa(observed, world), 0.0, cfg))
            # At zero covariance nothing is drawn: one zero deviation per agent.
            assert pb.rng.bit_generator.state == state

    def test_far_traffic_pure_nominal(self, cfg):
        ego = AgentState(0, 0, 0, 17)
        others = [AgentState(400, 3.5, 0, 17)]
        for kind in bench.POLICY_NAMES:
            policy, observed, world, spec = self.zero_noise_policy(cfg, kind, ego, others)
            switch, envelope = episode_decision(policy(observed, world),
                                                bench.acting_beta(kind, 0.1, spec), cfg)
            assert not switch
            assert envelope in (None, rss.unrestricted_envelope(cfg.rss))
        # Whole episodes: no policy restricts or switches, so every policy
        # commands the same nominal trajectory.
        scn = bench.ScenarioConfig(index=0, seed=5, ego_speed=17.0,
                                   others=((400.0, 1, 17.0),))
        commands = set()
        for kind in bench.POLICY_NAMES:
            res = bench.run_episode(scn, kind, 0.1, "small", cfg, collect_trace=True)
            assert {r.mode for r in res.records} == {"nominal"}
            commands.add(tuple((r.a_lon, r.a_lat) for r in res.records))
        assert len(commands) == 1


class TestUnknownCovarianceCase:
    """A case the config does not hold raises ConfigError naming it and the
    known cases, before any episode runs."""

    def test_sweep_rejects_before_any_episode(self, cfg, small_set, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")
        monkeypatch.setattr(bench, "run_episode", no_episode)
        with pytest.raises(ConfigError, match=r"'bogus'.*none, small, large"):
            bench.sweep(small_set, ["small", "bogus"], grid(cfg, ["Simplex"], [0.1]))

    @pytest.mark.parametrize("case", ["bogus", ["small"]])
    def test_run_episode_rejects(self, cfg, small_set, case):
        with pytest.raises(ConfigError, match="unknown covariance case"):
            bench.run_episode(small_set[0], "Simplex", 0.1, case, cfg)

    def test_known_cases_are_those_of_the_config(self, small_set):
        cfg = RunConfig(uncertainty={"small": RunConfig().uncertainty["small"]})
        with pytest.raises(ConfigError, match="known cases: small$"):
            bench.run_episode(small_set[0], "Simplex", 0.1, "none", cfg)


class TestUnknownPolicy:
    """A policy name that is not one of POLICY_NAMES raises ConfigError
    naming it and the known ones, before any step."""

    MESSAGE = (r"^unknown policy 'bogus'; known policies: ProbabilisticEnvelopeRestriction, "
               r"EnvelopeRestriction, Simplex, ProbabilisticSimplex$")

    def test_run_episode_and_run_cell_reject_before_any_step(self, cfg, small_set,
                                                             monkeypatch):
        def started(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(bench, "initial_world", started)
        with pytest.raises(ConfigError, match=self.MESSAGE):
            bench.run_episode(small_set[0], "bogus", 0.1, "small", cfg)
        with pytest.raises(ConfigError, match=self.MESSAGE):
            bench.run_cell(small_set, "bogus", "small", 0.1, cfg)


class TestSweep:
    def test_rate_table_shape_and_sanity(self, cfg, small_set):
        rows = bench.sweep(small_set, ["none", "small"],
                           grid(cfg, ["EnvelopeRestriction", "Simplex"], [0.0, 0.1]))
        assert len(rows) == 2 * 2 * 2
        for r in rows:
            assert r.n == len(small_set)
            assert r.success_rate + r.collision_rate + r.timeout_rate == pytest.approx(1.0)

    def test_beta_free_policies_constant_across_beta(self, cfg, small_set):
        rows = bench.sweep(small_set, ["small"],
                           grid(cfg, ["EnvelopeRestriction"], [0.0, 0.4, 1.0]))
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

    def test_each_distinct_cell_runs_once(self, cfg, small_set, monkeypatch):
        calls = []
        run_cell = bench.run_cell

        def counted(scenarios, policy, case, beta, cfg):
            calls.append((policy, case, beta))
            return run_cell(scenarios, policy, case, beta, cfg)

        scenarios = small_set[:2]
        want = bench.sweep(scenarios, ["small"], grid(
            cfg, ["ProbabilisticEnvelopeRestriction", "Simplex"], [0.1, 0.4]))
        monkeypatch.setattr(bench, "run_cell", counted)
        rows = bench.sweep(scenarios, ["small"], grid(
            cfg, ["ProbabilisticEnvelopeRestriction", "Simplex",
                  "ProbabilisticEnvelopeRestriction"], [0.1, 0.4, 0.1]))
        assert sorted(calls) == [("ProbabilisticEnvelopeRestriction", "small", 0.1),
                                 ("ProbabilisticEnvelopeRestriction", "small", 0.4),
                                 ("Simplex", "small", 0.1)]
        # One row per requested (policy, case, beta), repeats included.
        assert [(r.policy, r.beta) for r in rows] == [
            (p, b) for p in ("ProbabilisticEnvelopeRestriction", "Simplex",
                             "ProbabilisticEnvelopeRestriction") for b in (0.1, 0.4, 0.1)]
        by_cell = {(r.policy, r.beta): r for r in want}
        assert all(r == by_cell[(r.policy, r.beta)] for r in rows)

    @staticmethod
    def _with_and_without_twins(monkeypatch, *args):
        """sweep(*args) as it runs, and with acting_beta patched to return a
        probabilistic policy's beta unchanged, so that each of its cells runs
        at its own beta and no zero-covariance cell joins its twin's group."""
        got = bench.sweep(*args)
        rule = bench.acting_beta
        with monkeypatch.context() as m:
            m.setattr(bench, "acting_beta", lambda kind, beta, spec: (
                rule(kind, beta, spec) if kind in bench.BETA_FREE_POLICIES else beta))
            want = bench.sweep(*args)
        assert got == want
        assert bench.rows_to_csv(got) == bench.rows_to_csv(want)
        assert bench.rows_to_json(got) == bench.rows_to_json(want)
        return got

    def test_zero_covariance_cells_take_their_twins_rows(self, cfg, monkeypatch):
        # The quick sweep's cells that the grouping joins: the probabilistic
        # policies on "none" over the default beta grid.  Each group runs its
        # first cell.
        scenarios = bench.generate_scenarios(20, cfg.seed, cfg)
        calls = []
        run_cell = bench.run_cell

        def counted(scenarios, policy, case, beta, cfg):
            calls.append((policy, case, beta))
            return run_cell(scenarios, policy, case, beta, cfg)

        monkeypatch.setattr(bench, "run_cell", counted)
        self._with_and_without_twins(
            monkeypatch, scenarios, ["none"], grid(
                cfg, ["ProbabilisticEnvelopeRestriction", "ProbabilisticSimplex"], cfg.betas))
        unmapped = 2 * len(cfg.betas)  # the sweep without twins runs every cell
        assert calls[:-unmapped] == [
            ("ProbabilisticEnvelopeRestriction", "none", cfg.betas[0]),
            ("ProbabilisticEnvelopeRestriction", "none", 1.0),
            ("ProbabilisticSimplex", "none", cfg.betas[0]),
            ("ProbabilisticSimplex", "none", 1.0)]

    def test_twins_keyed_on_the_covariance(self, cfg, small_set, monkeypatch):
        # A zero covariance under another name, and a beta grid with 1.0 and
        # a repeat in it; "none" itself is left out.
        zero = replace(cfg, uncertainty={"small": cfg.uncertainty["none"],
                                         "large": cfg.uncertainty["large"]},
                       policies=bench.POLICY_NAMES, betas=(0.0, 1.0, 0.3, 1.0))
        rows = self._with_and_without_twins(monkeypatch, small_set[:4], ["small", "large"], zero)
        by_cell = {(r.policy, r.covariance_case, r.beta): r for r in rows}
        for beta in (0.0, 0.3):
            assert replace(by_cell[("ProbabilisticSimplex", "small", beta)],
                           policy="Simplex") == by_cell[("Simplex", "small", beta)]
        assert by_cell[("ProbabilisticSimplex", "small", 1.0)].success_rate == 1.0

    def test_empty_inputs_rejected(self, cfg, small_set):
        with pytest.raises(ValueError):
            bench.sweep([], ["none"], cfg)
        with pytest.raises(ValueError):
            bench.sweep(small_set, [], cfg)

    def test_run_cell_rejects_no_scenarios(self, cfg):
        # An empty list used to fail in _aggregate with a bare ZeroDivisionError.
        with pytest.raises(ValueError, match="^scenarios must be non-empty$"):
            bench.run_cell([], "Simplex", "none", 0.0, cfg)


SIGMAS = ("zero", "diagonal", "correlated")


@st.composite
def sweep_inputs(draw):
    """A small sweep: 2-4 scenarios of a few steps, each with 1-4 other
    vehicles in either lane near the ego (so that policies switch early),
    each covariance case zero, diagonal or correlated, policy lists with
    repeats, and beta grids that hold 0, 1 and repeats."""
    dt = draw(st.sampled_from([0.2, 0.5]))
    k = draw(st.integers(1, 4))
    rotation = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 99))).normal(
        size=(4, 4)))[0]
    uncertainty = {}
    for case in COVARIANCE_CASES:
        sigma = np.diag(draw(st.sampled_from([DEFAULT_SMALL_VARIANCES,
                                              DEFAULT_LARGE_VARIANCES])))
        kind = draw(st.sampled_from(SIGMAS))
        if kind == "zero":
            sigma = np.zeros((4, 4))
        elif kind == "correlated":
            sigma = rotation @ sigma @ rotation.T
            sigma = 0.5 * (sigma + sigma.T)
        uncertainty[case] = UncertaintySpec(sigma, DEFAULT_CONTOUR_LEVELS,
                                            draw(st.sampled_from([4, 8])))
    sizes = {"scenario": ScenarioParams(n_others=k, dt=dt,
                                        horizon=dt * draw(st.integers(2, 8))),
             "simplex_samples": draw(st.sampled_from([1, 10, 100]))}
    speed = st.floats(10.0, 25.0)
    other = st.tuples(st.integers(6, 40).flatmap(lambda x: st.sampled_from([-x, x])),
                      st.integers(0, 1), speed)
    scenarios = [bench.ScenarioConfig(index=i, seed=draw(st.integers(0, 2**31 - 1)),
                                      ego_speed=draw(speed),
                                      others=tuple((float(x), lane, v) for x, lane, v in
                                                   draw(st.lists(other, min_size=k,
                                                                 max_size=k))))
                 for i in range(draw(st.integers(2, 4)))]
    policies = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=4))
    cases = draw(st.lists(st.sampled_from(COVARIANCE_CASES), min_size=1, max_size=3))
    betas = draw(st.permutations([0.0, 1.0, *draw(st.lists(
        st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]), max_size=3))]))
    cfg = RunConfig(uncertainty=uncertainty, policies=policies, betas=betas, **sizes)
    return scenarios, cases, cfg


class TestSweepOracle:
    """``sweep`` against every requested cell run on its own through the
    episode loop in which the policy applied beta itself (``oracle_cell``)."""

    @given(inputs=sweep_inputs())
    @settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.shrink},
              suppress_health_check=[HealthCheck.too_slow])
    def test_sweep_equals_oracle_cells(self, inputs):
        scenarios, cases, cfg = inputs
        policies, betas = cfg.policies, cfg.betas
        got = bench.sweep(scenarios, cases, cfg)
        cells = {}
        for cell in ((p, c, b) for p in policies for c in cases for b in betas):
            if cell not in cells:
                cells[cell] = oracle_cell(scenarios, *cell, cfg)
        want = [cells[(p, c, b)] for p in policies for c in cases for b in betas]
        assert bench.rows_to_csv(got) == bench.rows_to_csv(want)
        assert json.dumps(bench.rows_to_json(got)) == json.dumps(bench.rows_to_json(want))


class TestEpisodeLoop:
    @pytest.fixture(scope="class")
    def scenarios(self, cfg):
        return bench.generate_scenarios(20, cfg.seed, cfg)

    @pytest.mark.parametrize("beta,message", [
        (2.0, "beta 2.0 outside [0, 1]"), (float("nan"), "beta must be finite, got nan"),
        (True, "beta must be a number, got True")])
    @pytest.mark.parametrize("kind", POLICY_NAMES)
    def test_bad_beta_rejected_before_any_step(self, cfg, scenarios, kind, beta, message,
                                               monkeypatch):
        # Simplex and EnvelopeRestriction ran any beta (they act on 0.0) and
        # bench.sweep wrote a row for it, ProbabilisticSimplex ran 2.0 and
        # every policy ran True; ProbabilisticEnvelopeRestriction failed
        # inside the first step's risk solve.  A sweep's betas are those of
        # its RunConfig, which names the entry.
        def started(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(bench, "initial_world", started)
        for case in COVARIANCE_CASES:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                bench.run_episode(scenarios[0], kind, beta, case, cfg)
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                bench.run_cell(scenarios[:1], kind, case, beta, cfg)
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(message.replace('beta', 'betas[1]', 1))}$"):
            grid(cfg, [kind], [0.1, beta])

    @pytest.mark.parametrize("kind", ["ProbabilisticEnvelopeRestriction",
                                      "ProbabilisticSimplex"])
    @pytest.mark.parametrize("case", ["small", "large"])
    def test_latch_holds_and_stops_the_decisions(self, cfg, scenarios, kind, case,
                                                 monkeypatch):
        # The switching step takes no envelope and is not audited.
        calls = []
        decide = bench.Policy.__call__

        def counted(policy, observed, world):
            calls.append(None)
            return decide(policy, observed, world)

        monkeypatch.setattr(bench.Policy, "__call__", counted)
        switched = 0
        for scn in scenarios[:6]:
            calls.clear()
            res = bench.run_episode(scn, kind, 0.1, case, cfg, collect_trace=True)
            modes = [r.mode for r in res.records]
            first = modes.index("safety") if "safety" in modes else len(modes)
            assert set(modes[:first]) <= {"nominal"}
            for r in res.records[first:]:
                assert (r.mode, r.envelope, r.env_violated) == ("safety", None, None)
            # One decision per step up to and including the switching step.
            assert len(calls) == min(first + 1, res.steps)
            assert res.envelope_steps == (first if kind in bench.RESTRICTING_POLICIES else 0)
            switched += first < len(modes)
        assert switched > 0

    @pytest.mark.parametrize("kind, betas, baseline", [
        ("ProbabilisticEnvelopeRestriction", (0.0, 0.1, 0.6), "EnvelopeRestriction"),
        ("ProbabilisticSimplex", (0.0, 0.5), "Simplex"),
    ])
    def test_zero_noise_replays_the_deterministic_policy(self, cfg, scenarios, kind,
                                                         betas, baseline, monkeypatch):
        # At zero covariance every support is one point and every expectation
        # is 0 or 1, so below beta = 1 the probabilistic policy is its
        # deterministic counterpart step for step, even when it acts on its
        # own beta rather than the 0.0 that acting_beta gives it.
        for scn in scenarios:
            want = bench.run_episode(scn, baseline, 0.0, "none", cfg, collect_trace=True)
            for beta in betas:
                with monkeypatch.context() as m:
                    m.setattr(bench, "acting_beta", lambda _kind, b, _spec: b)
                    got = bench.run_episode(scn, kind, beta, "none", cfg,
                                            collect_trace=True)
                assert got.records == want.records
                assert (got.outcome, got.envelope_steps, got.envelope_violations) == (
                    want.outcome, want.envelope_steps, want.envelope_violations)

    def test_paired_prefix_across_betas(self, cfg, scenarios):
        # Episodes of one scenario draw the same observation noise, so two
        # betas observe the same world until their commands first differ.
        split = 0
        for scn in scenarios:
            for case in ("small", "large"):
                a, b = (bench.run_episode(scn, "ProbabilisticEnvelopeRestriction", beta,
                                          case, cfg, collect_trace=True)
                        for beta in (0.1, 0.6))
                for ra, rb in zip(a.records, b.records):
                    assert ra.observations == rb.observations
                    if (ra.a_lon, ra.a_lat, ra.mode) != (rb.a_lon, rb.a_lat, rb.mode):
                        split += 1
                        break
                else:
                    assert a.records == b.records
        assert split > 0

    @pytest.fixture(scope="class")
    def draws(self, cfg, scenarios):
        """{(kind, case, beta, scenario index, collect_trace): (episode, the
        observation stream's ``draw_noise`` calls)} over all four policies."""
        out = {}
        with pytest.MonkeyPatch.context() as m:
            calls, policy_rngs = [], []
            draw, init = bench.draw_noise, bench.Policy.__init__

            def counted(basis, rng, n):
                calls.append(rng)
                return draw(basis, rng, n)

            def policy_init(policy, kind, cfg, spec, policy_rng):
                policy_rngs.append(policy_rng)
                init(policy, kind, cfg, spec, policy_rng)

            m.setattr(bench, "draw_noise", counted)
            m.setattr(bench.Policy, "__init__", policy_init)
            for kind in POLICY_NAMES:
                for case in COVARIANCE_CASES:
                    for beta in (0.0, 0.1, 1.0):
                        for scn in scenarios[:6]:
                            for trace in (False, True):
                                calls.clear()
                                res = bench.run_episode(scn, kind, beta, case, cfg,
                                                        collect_trace=trace)
                                n = sum(rng is not policy_rngs[-1] for rng in calls)
                                out[(kind, case, beta, scn.index, trace)] = res, n
        return out

    def test_noise_is_drawn_only_while_a_decision_reads_it(self, cfg, draws):
        # One observation draw per step that begins unlatched at nonzero
        # covariance, whatever the policy; one per step when traced; none at
        # zero covariance.
        latched = 0
        for (kind, case, beta, index, trace), (res, n) in draws.items():
            traced, _ = draws[(kind, case, beta, index, True)]
            modes = [r.mode for r in traced.records]
            unlatched = modes.index("safety") + 1 if "safety" in modes else len(modes)
            noisy = cfg.uncertainty[case].basis.eigenvalues[0] > 0.0
            assert noisy == (case != "none")
            if not noisy:
                assert n == 0
            else:
                assert n == (res.steps if trace else unlatched)
            assert (res.outcome, res.steps) == (traced.outcome, traced.steps)
            latched += noisy and unlatched < res.steps
        assert latched > 0

    def test_trace_equals_the_always_drawing_oracle(self, cfg, scenarios):
        # The oracle draws on every step; the trace, observations included,
        # is the same record for record.
        latched = 0
        for kind in POLICY_NAMES:
            for case in COVARIANCE_CASES:
                for beta in (0.0, 0.1, 1.0):
                    for scn in scenarios[:6]:
                        got = bench.run_episode(scn, kind, beta, case, cfg,
                                                collect_trace=True)
                        want = oracle_episode(scn, kind, beta, case, cfg,
                                              collect_trace=True)
                        assert got.records == want.records
                        assert (got.outcome, got.steps, got.envelope_steps,
                                got.envelope_violations) == (
                            want.outcome, want.steps, want.envelope_steps,
                            want.envelope_violations)
                        latched += any(r.mode == "safety" for r in got.records)
        assert latched > 0


def episode_key(result):
    return (result.outcome, result.steps, result.envelope_steps, result.envelope_violations)


@st.composite
def latching_episodes(draw):
    """An accepted config and a hand-built scenario of 1-4 others near the ego
    (so that policies latch), all in the left lane or each in either lane,
    with an undamped or a stiff lateral controller, a box narrower or wider
    than the lane and a small or a large step."""
    dt = draw(st.sampled_from([0.001, 0.05, 0.2, 0.2, 0.5]))
    k = draw(st.integers(1, 4))
    cfg = RunConfig(
        rss=rss.RssParams(width=draw(st.sampled_from([0.3, 1.8, 1.8, 3.5 + 1e-9, 6.0])),
                          a_lat_limit=draw(st.sampled_from([4.0, 60.0]))),
        lateral=LateralControl(kp=draw(st.sampled_from([0.5, 3.5, 80.0])),
                               kd=draw(st.sampled_from([0.0, 3.742]))),
        scenario=ScenarioParams(n_others=k, dt=dt, horizon=dt * draw(st.integers(2, 80))))
    speed = st.floats(5.0, 25.0)
    lanes = st.integers(0, 1) if draw(st.integers(0, 3)) == 0 else st.just(1)
    other = st.tuples(st.integers(2, 80).flatmap(lambda x: st.sampled_from([-x, x])),
                      lanes, speed)
    scn = bench.ScenarioConfig(
        index=0, seed=draw(st.integers(0, 2**31 - 1)), ego_speed=draw(speed),
        others=tuple((float(x), lane, v) for x, lane, v in
                     draw(st.lists(other, min_size=k, max_size=k))))
    return (scn, draw(st.sampled_from(POLICY_NAMES)), draw(st.sampled_from(COVARIANCE_CASES)),
            draw(st.sampled_from([0.0, 0.1, 0.5])), cfg)


class TestLatchedTail:
    """An untraced episode that latches steps the others only up to the last
    step at which the ego's own path comes within ``rss.width`` of their
    lanes; the oracle steps every agent on every step."""

    @given(episode=latching_episodes())
    @settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.shrink},
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_the_oracle(self, episode):
        scn, kind, case, beta, cfg = episode
        assert (episode_key(bench.run_episode(scn, kind, beta, case, cfg))
                == episode_key(oracle_episode(scn, kind, beta, case, cfg)))

    def built(self, others, ego_speed=20.0, **fields):
        """A deterministic Simplex episode of ``others`` under the default
        config with ``fields`` replaced: the untraced result and the
        oracle's trace."""
        cfg = replace(RunConfig(), scenario=ScenarioParams(n_others=len(others)), **fields)
        scn = bench.ScenarioConfig(index=0, seed=0, ego_speed=ego_speed, others=others)
        got = bench.run_episode(scn, "Simplex", 0.0, "none", cfg)
        want = oracle_episode(scn, "Simplex", 0.0, "none", cfg, collect_trace=True)
        assert episode_key(got) == episode_key(want)
        return got, want.records

    def test_rear_end_collision_just_inside_the_box_width(self):
        # The ego latches on its first step and holds y = 0; the other, one
        # lane over and faster, is 1e-9 m short of clearing it laterally.
        got, records = self.built(((-12.0, 1, 26.0),),
                                  rss=rss.RssParams(width=3.5 + 1e-9))
        assert [r.mode for r in records] == ["safety"] * len(records)
        assert all(r.ego.y == 0.0 for r in records)
        assert got.outcome == "Collision"

    def test_undamped_ego_swings_back_into_the_platoon(self):
        # Latched mid-change without damping, the ego leaves the platoon's
        # band (|y - 3.5| < width) and swings back into it, where a platoon
        # car hits it: the last near step, not the first exit, bounds the
        # full steps.
        got, records = self.built(((-33.0, 1, 25.0), (-17.0, 1, 21.0)), ego_speed=24.0,
                                  lateral=LateralControl(kp=6.0, kd=0.0))
        near = [abs(r.ego.y - 3.5) < 1.8 for r in records if r.mode == "safety"]
        left = near.index(False)
        assert True in near[left:]
        assert near[-1] and got.outcome == "Collision"

    def test_collision_on_the_last_step_near_the_platoon(self):
        # Latched mid-change, the ego is hit on its last step within the
        # platoon's band; its own path then runs on to a Timeout.
        got, records = self.built(((2.0, 1, 17.0), (-22.0, 1, 25.0)), ego_speed=24.0,
                                  lateral=LateralControl(kp=2.0))
        first = [r.mode for r in records].index("safety")
        tail = bench.latched_tail(records[first - 1].ego, first, {3.5}, replace(
            RunConfig(), lateral=LateralControl(kp=2.0)))
        assert tail == ("Timeout", 40, got.steps)
        assert got.outcome == "Collision"

    def test_every_others_lane_is_checked(self):
        # The first other is a lane over from the braking ego; the second,
        # slow and ahead in its lane, is hit.
        got, records = self.built(((-30.0, 1, 20.0), (25.0, 0, 1.0)))
        assert records[0].mode == "safety"
        assert all(abs(r.ego.y - 3.5) >= 1.8 for r in records)
        assert got.outcome == "Collision"

    def test_untraced_episodes_stop_stepping_the_others(self, cfg, small_set, monkeypatch):
        # A traced episode steps the others on every step; an untraced one
        # that latches clear of the platoon stops once no other is reachable.
        calls = []
        step_others = bench.idm_step_others
        monkeypatch.setattr(bench, "idm_step_others",
                            lambda *args: calls.append(None) or step_others(*args))
        closed = 0
        for scn in small_set:
            for case in COVARIANCE_CASES:
                calls.clear()
                traced = bench.run_episode(scn, "Simplex", 0.0, case, cfg, collect_trace=True)
                assert len(calls) == traced.steps
                calls.clear()
                got = bench.run_episode(scn, "Simplex", 0.0, case, cfg)
                assert (got.outcome, got.steps) == (traced.outcome, traced.steps)
                assert len(calls) <= got.steps
                closed += len(calls) < got.steps
        assert closed > 0


class TestQuickSweepDigest:
    # The sha256 of the quick sweep's rates.csv under the default config: the
    # rates of every policy, case and beta over 20 scenarios.  A change that
    # moves it changes what the benchmark computes.
    RATES_SHA256 = "27114b1a68c858daa800f53cbe7e07ed5ef67306ffa4e9a5ff0683f8cc70ffb5"
    # The sha256 of the same sweep's results.json, as `riskenv benchmark`
    # writes it: every scenario's outcome, so two scenarios that swap
    # outcomes inside one cell move it, though not the rates.
    RESULTS_SHA256 = "df9484940f6286d7b4397058370f5cf58c62647b813e14d4bcc6c08d8e1447ef"

    def test_quick_sweep_rates_unchanged(self):
        # The sweep of ``scripts/run_benchmark.py --quick``.
        rows = run_benchmark.rates(load_config(None))
        digest = hashlib.sha256(bench.rows_to_csv(rows).encode()).hexdigest()
        assert digest == self.RATES_SHA256
        results = json.dumps(bench.rows_to_json(rows), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(results.encode()).hexdigest() == self.RESULTS_SHA256


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
        rows = bench.sweep(small_set, ["none"], grid(cfg, ["Simplex"], [0.0, 0.5]))
        text = bench.rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("policy,covariance_case,beta,success_rate,collision_rate,"
                            "timeout_rate,n,mean_steps,mean_violation_freq")
        assert len(lines) == 1 + 2
        assert text == bench.rows_to_csv(rows)

    def test_json_round_trip(self, cfg, small_set):
        rows = bench.sweep(small_set, ["none"], grid(cfg, ["Simplex"], [0.0]))
        payload = bench.rows_to_json(rows)
        assert payload[0]["policy"] == "Simplex"
        assert len(payload[0]["scenarios"]) == len(small_set)


def per_agent_draw_switch(ego, observed, rng, m, basis, beta, params):
    """ProbabilisticSimplex's switch with one (m, 4) draw per agent, stopping
    at the first agent whose mean violation exceeds beta."""
    scale = np.sqrt(basis.eigenvalues)
    for o in observed:
        devs = (rng.standard_normal((m, 4)) * scale) @ basis.eigenvectors.T
        ox, oy, ov, ot = perturbed_state_arrays(o, devs)
        if float(violation_batch(ego, ox, oy, ov, ot, params).mean()) > beta:
            return True
    return False


class TestOneAnalysisPerStep:
    def _worlds(self, cfg):
        """Initial worlds with the ego moved along and across the road, so
        that the platoon restricts it, or is violated, in many of them."""
        for scn in bench.generate_scenarios(4, cfg.seed, cfg):
            world = bench.initial_world(scn, cfg)
            for x in np.linspace(-5.0, 60.0, 14):
                for y in (0.0, 1.8, 3.0):
                    yield replace(world, ego=replace(world.ego, x=float(x), y=y))

    @pytest.mark.parametrize("kind", ["ProbabilisticEnvelopeRestriction",
                                      "EnvelopeRestriction"])
    def test_audit_envelope_is_safety_envelope_on_true_states(self, cfg, kind):
        spec = cfg.uncertainty["large"]
        rng = np.random.default_rng(4)
        restricted = switched = clamped = 0
        # beta = 1: EnvelopeRestriction acts on 0.0 and still switches.
        beta = bench.acting_beta(kind, 1.0, spec)
        for world in self._worlds(cfg):
            observed = observe(world, draw_noise(spec.basis, rng, len(world.others)))
            analysis = bench.Policy(kind, cfg, spec, None)(observed, world)
            switch, envelope = episode_decision(analysis, beta, cfg)
            want = safety_envelope(world.ego, world.others, cfg.rss, cfg.tau)
            assert analysis[2] == want
            restricted += want != rss.unrestricted_envelope(cfg.rss)
            if kind == "EnvelopeRestriction":
                if not switch:
                    assert envelope == safety_envelope(world.ego, observed, cfg.rss, cfg.tau)
                    clamped += envelope != rss.unrestricted_envelope(cfg.rss)
                assert switch is bool(violation_batch(
                    world.ego, [o.x for o in observed], [o.y for o in observed],
                    [o.v for o in observed], [o.theta for o in observed],
                    cfg.rss).any())
                switched += switch
        assert restricted > 20
        if kind == "EnvelopeRestriction":
            assert switched > 0 and clamped > 0

    @pytest.mark.parametrize("beta", [0.1, 0.5])
    def test_stacked_simplex_draw_matches_per_agent_draws(self, cfg, beta):
        spec = cfg.uncertainty["large"]
        basis = eigendecompose(spec.sigma)
        switch_steps = set()
        for seed in range(12):
            policy = bench.Policy("ProbabilisticSimplex", cfg, spec,
                                  np.random.default_rng(seed))
            oracle_rng = np.random.default_rng(seed)
            # The ego drifts toward a three-car platoon in the left lane; an
            # episode latches at its first switch and draws nothing more.
            for step, y in enumerate(np.linspace(1.0, 1.8, 41)):
                ego = AgentState(0.0, float(y), 0.0, 17.0)
                others = tuple(AgentState(x, 3.5, 0.0, 17.0) for x in (-12.0, 1.0, 14.0))
                world = WorldState(0.0, ego, others, (1, 1, 1))
                want = per_agent_draw_switch(ego, others, oracle_rng, cfg.simplex_samples,
                                             basis, beta, cfg.rss)
                assert should_switch(policy(others, world)[0], beta) is want
                if want:
                    switch_steps.add(step)
                    break
        assert len(switch_steps) > 2

    @pytest.mark.parametrize("kind", bench.POLICY_NAMES)
    def test_one_kernel_call_per_step(self, cfg, small_set, kind, monkeypatch):
        """At most one kernel call and one geometry per decision, and none
        when the broad phase certifies every agent.  The broad phase tries
        each agent's whole box once; where that is not free, it tries its
        contours from the innermost outward (the box of contours 0..k), one
        certification per contour tried, up to the first that is not free
        and never the outermost, whose box is the whole box."""
        counts = {"geometry": 0, "pair_analysis_batch": 0, "violation_batch": 0}
        certified, decisions, partly_free = [], [], []

        class CountedGeometry(rss._PairGeometry):
            def __init__(self, *args):
                counts["geometry"] += 1
                super().__init__(*args)

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def recorded(test):
            def wrapper(*args):
                certified.append(test(*args))
                return certified[-1]
            return wrapper

        decide = bench.Policy.__call__

        def decision(policy, observed, world):
            before = dict(counts)
            certified.clear()
            out = decide(policy, observed, world)
            contours = [1] * len(observed)  # per agent, in stacking order
            if policy.restricting:
                contours = [len(policy.samples[2])] * len(observed) + [1] * len(world.others)
            tried = iter(certified)
            for k in contours:
                if next(tried):  # the whole box
                    continue
                for inner in range(k - 1):
                    if not next(tried):
                        break
                    partly_free.append(inner)
            assert next(tried, None) is None
            decisions.append(({k: counts[k] - before[k] for k in counts}, all(certified)))
            return out

        monkeypatch.setattr(rss, "_PairGeometry", CountedGeometry)
        monkeypatch.setattr(prob_envelope, "pair_analysis_batch",
                            counted("pair_analysis_batch", prob_envelope.pair_analysis_batch))
        monkeypatch.setattr(prob_envelope, "violation_batch",
                            counted("violation_batch", prob_envelope.violation_batch))
        for name in ("free", "unviolated"):
            monkeypatch.setattr(rss.BroadPhase, name, recorded(getattr(rss.BroadPhase, name)))
        monkeypatch.setattr(bench.Policy, "__call__", decision)
        for scn in small_set[:3]:
            bench.run_episode(scn, kind, 0.1, "small", cfg)
        kernel = ("violation_batch" if kind in ("Simplex", "ProbabilisticSimplex")
                  else "pair_analysis_batch")
        assert decisions
        for calls, all_certified in decisions:
            assert calls["geometry"] == calls[kernel] == (0 if all_certified else 1)
        assert 0 < sum(all_certified for _, all_certified in decisions) < len(decisions)
        assert bool(partly_free) is (kind == "ProbabilisticEnvelopeRestriction")


class TestOneDecompositionPerCovariance:
    def test_run_cell_decomposes_each_spec_once(self, small_set, eigendecompose_calls):
        cfg = RunConfig()
        assert eigendecompose_calls == []
        for policy in ("ProbabilisticEnvelopeRestriction", "ProbabilisticSimplex",
                       "EnvelopeRestriction"):
            bench.run_cell(small_set[:3], policy, "small", 0.1, cfg)
        assert len(eigendecompose_calls) == 1
        bench.run_cell(small_set[:3], "Simplex", "large", 0.1, cfg)
        assert len(eigendecompose_calls) == 2

    def test_run_cell_samples_each_spec_once(self, small_set, monkeypatch):
        calls = []
        sample = uncertainty.contour_samples

        def counted(basis, spec):
            calls.append(spec)
            return sample(basis, spec)

        monkeypatch.setattr(uncertainty, "contour_samples", counted)
        cfg = RunConfig()
        for beta in (0.1, 0.6):
            bench.run_cell(small_set[:3], "ProbabilisticEnvelopeRestriction", "small", beta,
                           cfg)
        assert len(calls) == 1 and calls[0] is cfg.uncertainty["small"]


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
