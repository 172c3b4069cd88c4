import copy
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from riskenv import bench, prob_envelope, rss
from riskenv.config import RunConfig
from riskenv.prob_envelope import (
    EXACT_SAMPLES,
    ROW_BUDGET,
    EnvelopeDistribution,
    analyze_step,
    contour_samples,
    envelope_distribution,
    mean_violations,
    perturbed_state_arrays,
    risk_bounded_envelope,
    should_switch,
    stacked_states,
)
from riskenv.rss import (
    COMPONENTS,
    AgentState,
    ConfigError,
    Envelope,
    RssParams,
    restrictive_sentinel,
    safe_distance_lat,
    safe_distance_lon,
    safety_envelope,
    unrestricted_envelope,
    violation_batch,
)
from riskenv.uncertainty import (
    MAX_SIGMA,
    SampleSet,
    UncertaintySpec,
    chi2_quantile_4,
    draw_noise,
    eigendecompose,
)

from conftest import (
    contour_loop_analysis,
    enumerate_risk_envelope,
    full_grid_contour,
    pairwise_envelope,
    per_agent_states,
    safety_violated,
    sample_contour,
    walk_risk_envelope,
    worst_of,
)

TAU = 0.2
LEVELS = (0.25, 0.5, 0.75, 0.93, 0.97, 0.999)
PARAMS = RssParams()


def make_dist(masses_and_envs, residual, agent_id=0):
    return EnvelopeDistribution(agent_id, tuple(m for m, _ in masses_and_envs),
                                tuple(e for _, e in masses_and_envs), residual)


def env_of(lon_max, lat_min=-4.0, lat_max=4.0, lon_min=-8.0):
    return Envelope(lon_min, lon_max, lat_min, lat_max)


def analyze_one(ego, obs, samples, params, tau):
    """(EnvelopeDistribution, expectation) of one agent from analyze_step."""
    [dist], [expectation], _ = analyze_step(ego, [obs], samples, (), params, tau)
    return dist, expectation


def worst_case_of(ego, obs, deviations, params):
    """Envelope of a single explicit contour holding ``deviations``."""
    samples = SampleSet(((0.5,), deviations, (deviations.shape[0],)))
    dist, _ = analyze_one(ego, obs, samples, params, TAU)
    return dist.envelopes[0]


class TestWorstCaseContourEnvelope:
    def test_zero_deviation_matches_pairwise(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(25, 0, 0, 15)
        env = worst_case_of(ego, obs, np.zeros((1, 4)), rss_params)
        assert env == pairwise_envelope(ego, obs, rss_params, TAU)

    def test_equals_most_restrictive_sample(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(26, 0, 0, 15)
        deviations = np.array([[-2.0, 0, 0, 0], [2.0, 0, 0, 0], [0, 0, 0.5, 0]])
        env = worst_case_of(ego, obs, deviations, rss_params)
        singles = [worst_case_of(ego, obs, d[None, :], rss_params) for d in deviations]
        expected = singles[0]
        for s in singles[1:]:
            expected = worst_of(expected, s)
        assert env == expected
        # The nearer sample dominates the longitudinal bound.
        assert env.a_lon_max == singles[0].a_lon_max

    def test_more_samples_never_less_restrictive(self, rss_params):
        rng = np.random.default_rng(8)
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(20, 1.5, 0, 16)
        devs = rng.normal(0, 0.5, size=(30, 4))
        base = worst_case_of(ego, obs, devs[:10], rss_params)
        more = worst_case_of(ego, obs, devs, rss_params)
        assert more.a_lon_max <= base.a_lon_max
        assert more.a_lat_max <= base.a_lat_max
        assert more.a_lat_min >= base.a_lat_min

    def test_empty_rejected(self, rss_params):
        with pytest.raises(ValueError):
            worst_case_of(AgentState(0, 0, 0, 1), AgentState(9, 0, 0, 1),
                       np.zeros((0, 4)), rss_params)

    def test_contours_are_consecutive_slices(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(24, 0, 0, 15)
        near, far = np.array([[-3.0, 0, 0, 0]]), np.array([[3.0, 0, 0, 0], [4.0, 0, 0, 0]])
        samples = SampleSet(((0.5, 0.9), np.concatenate([far, near]), (2, 1)))
        dist, _ = analyze_one(ego, obs, samples, rss_params, TAU)
        assert dist.agent_id == 0
        assert dist.envelopes == (worst_case_of(ego, obs, far, rss_params),
                                  worst_case_of(ego, obs, near, rss_params))
        assert dist.masses == pytest.approx((0.5, 0.4))
        assert dist.residual_mass == pytest.approx(0.1)


class TestEnvelopeDistribution:
    def test_mass_accounting_single_level(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], (0.999,), 4)
        basis = eigendecompose(spec.sigma)
        dist = envelope_distribution(AgentState(0, 0, 0, 17), AgentState(30, 0, 0, 15),
                                     spec, basis, rss_params, TAU)
        assert dist.masses == pytest.approx((0.999,))
        assert len(dist.envelopes) == 1
        assert dist.residual_mass == pytest.approx(0.001)

    def test_zero_covariance_collapses(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], LEVELS, 4)
        basis = eigendecompose(spec.sigma)
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(26, 0, 0, 15)
        dist = envelope_distribution(ego, obs, spec, basis, rss_params, TAU)
        assert dist.residual_mass == 0.0
        assert dist.masses == (1.0,)
        assert dist.envelopes == (pairwise_envelope(ego, obs, rss_params, TAU),)

    def test_nested_contours_monotone_on_head_on_geometry(self, rss_params):
        # Only x-deviations: proximity, and thus restriction, is monotone in
        # the contour radius.
        spec = UncertaintySpec.from_diagonal([1.0, 0, 0, 0], (0.25, 0.5, 0.9), 8)
        basis = eigendecompose(spec.sigma)
        ego = AgentState(0, 0, 0, 17)
        obs = AgentState(28, 0, 0, 15)
        dist = envelope_distribution(ego, obs, spec, basis, rss_params, TAU)
        lon_caps = [e.a_lon_max for e in dist.envelopes]
        assert lon_caps[0] >= lon_caps[1] >= lon_caps[2]
        assert lon_caps[0] < rss_params.a_lon_limit

    def test_mass_invariant_enforced(self):
        with pytest.raises(ValueError):
            EnvelopeDistribution(0, (0.5,), (env_of(1.0),), 0.4)

    @pytest.mark.parametrize("masses,n_envs", [((0.5, 0.5), 1), ((1.0,), 2), ((), 1)])
    def test_mismatched_lengths_rejected(self, masses, n_envs):
        with pytest.raises(ValueError, match="masses for"):
            EnvelopeDistribution(0, masses, (env_of(1.0),) * n_envs, 1.0 - sum(masses))


class TestEnvelopeShape:
    """An envelope is its four bounds in ``COMPONENTS`` order: the contours,
    the distributions, the risk solve and the CLI all hold that tuple."""

    def test_fields_are_the_components_in_order(self):
        assert Envelope._fields == tuple(name for name, _ in COMPONENTS)
        env = Envelope(a_lon_min=-8.0, a_lon_max=2.0, a_lat_min=-1.0, a_lat_max=3.0)
        assert env == (-8.0, 2.0, -1.0, 3.0)
        assert env._asdict() == {"a_lon_min": -8.0, "a_lon_max": 2.0, "a_lat_min": -1.0,
                                 "a_lat_max": 3.0}

    @pytest.mark.parametrize("beta,want", [
        (0.0, dict(a_lon_min=-6.0, a_lon_max=2.0, a_lat_min=-1.0, a_lat_max=1.0)),
        (1.0, dict(a_lon_min=-8.0, a_lon_max=5.0, a_lat_min=-3.0, a_lat_max=3.0)),
    ])
    def test_risk_solve_reads_the_components_in_order(self, rss_params, beta, want):
        # Every component of one envelope is the more restrictive of the two
        # for its orientation, so a solve that reads a component at another
        # position, or with another's orientation, keeps a value from the
        # wrong side.
        dist = make_dist([
            (0.5, Envelope(a_lon_min=-8.0, a_lon_max=2.0, a_lat_min=-1.0, a_lat_max=3.0)),
            (0.5, Envelope(a_lon_min=-6.0, a_lon_max=5.0, a_lat_min=-3.0, a_lat_max=1.0)),
        ], 0.0)
        assert risk_bounded_envelope([dist], beta, rss_params) == Envelope(**want)


class TestRiskBoundedSolve:
    def test_single_entry_within_budget(self, rss_params):
        env_a = env_of(2.0, -1.0, 1.0)
        dist = make_dist([(0.999, env_a)], 0.001)
        assert risk_bounded_envelope([dist], 0.05, rss_params) == env_a

    def test_zero_risk_returns_sentinel(self, rss_params):
        dist = make_dist([(0.5, env_of(2.0)), (0.45, env_of(1.0))], 0.05)
        assert risk_bounded_envelope([dist], 0.0, rss_params) == restrictive_sentinel(
            rss_params)

    def test_beta_one_returns_least_restrictive(self, rss_params):
        dist = make_dist([(0.5, env_of(2.0, -1.0, 1.5)), (0.45, env_of(1.0, -3.0, 3.0))],
                         0.05)
        result = risk_bounded_envelope([dist], 1.0, rss_params)
        assert result.a_lon_max == 2.0
        assert result.a_lat_min == -3.0
        assert result.a_lat_max == 3.0
        assert result.a_lon_min == -8.0  # least restrictive support point

    def test_two_agents_match_enumeration(self, rss_params):
        d1 = make_dist([(0.5, env_of(3.0, -2.0, 2.0)), (0.25, env_of(1.0, -1.0, 3.0))],
                       0.25, agent_id=0)
        d2 = make_dist([(0.75, env_of(2.5, -3.0, 1.0)), (0.125, env_of(0.5, -0.5, 2.5))],
                       0.125, agent_id=1)
        for beta in (0.0, 0.125, 0.25, 0.5, 0.875, 1.0):
            got = risk_bounded_envelope([d1, d2], beta, rss_params)
            want = enumerate_risk_envelope([d1, d2], beta, rss_params)
            assert got == want, f"beta={beta}"

    def test_empty_input_is_unrestricted(self, rss_params):
        for beta in (0.0, 0.5, 1.0):
            assert risk_bounded_envelope([], beta, rss_params) == unrestricted_envelope(
                rss_params)
        # beta is checked first, with or without distributions.
        for dists in ([], [make_dist([(1.0, env_of(1.0))], 0.0)]):
            with pytest.raises(ValueError):
                risk_bounded_envelope(dists, 1.5, rss_params)

    @given(seed=st.integers(0, 100_000), beta64=st.integers(0, 64))
    @settings(max_examples=300, deadline=None)
    def test_randomized_brute_force_equivalence(self, seed, beta64):
        dists = _random_dyadic_distributions(np.random.default_rng(seed))
        beta = beta64 / 64.0
        got = risk_bounded_envelope(dists, beta, PARAMS)
        want = enumerate_risk_envelope(dists, beta, PARAMS)
        assert got == want

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        dists = _random_dyadic_distributions(rng)
        betas = sorted(rng.integers(0, 65, size=3) / 64.0)
        envs = [risk_bounded_envelope(dists, b, PARAMS) for b in betas]
        for tight, loose in zip(envs, envs[1:]):
            assert tight.a_lon_max <= loose.a_lon_max
            assert tight.a_lat_max <= loose.a_lat_max
            assert tight.a_lon_min >= loose.a_lon_min
            assert tight.a_lat_min >= loose.a_lat_min

    def test_agent_monotonicity(self, rss_params):
        rng = np.random.default_rng(21)
        for _ in range(50):
            dists = _random_dyadic_distributions(rng, n_agents=3)
            beta = float(rng.integers(0, 65)) / 64.0
            fewer = risk_bounded_envelope(dists[:2], beta, rss_params)
            more = risk_bounded_envelope(dists, beta, rss_params)
            assert more.a_lon_max <= fewer.a_lon_max
            assert more.a_lat_max <= fewer.a_lat_max
            assert more.a_lon_min >= fewer.a_lon_min
            assert more.a_lat_min >= fewer.a_lat_min


def _random_dyadic_distributions(rng, n_agents=None):
    """Distributions with 1/64-grained masses and small value pools, so the
    solver and the enumeration oracle agree bit-for-bit."""
    n_agents = n_agents or int(rng.integers(1, 4))
    value_pool = {
        "a_lon_min": [-8.0, -6.0, -4.0, -2.0],
        "a_lon_max": [-4.0, 0.0, 2.0, 8.0],
        "a_lat_min": [-4.0, -2.0, -1.0, 0.0],
        "a_lat_max": [0.0, 1.0, 2.0, 4.0],
    }
    dists = []
    for agent in range(n_agents):
        k = int(rng.integers(1, 4))
        cuts = np.sort(rng.integers(0, 65, size=k))
        masses = np.diff(np.concatenate([[0], cuts])) / 64.0
        entries = []
        for m in masses:
            if m == 0.0:
                continue
            env = Envelope(**{name: float(rng.choice(pool))
                              for name, pool in value_pool.items()})
            entries.append((float(m), env))
        residual = 1.0 - sum(m for m, _ in entries)
        dists.append(make_dist(entries, residual, agent_id=agent))
    return dists


def expectation(ego, obs, spec, params):
    samples = contour_samples(eigendecompose(spec.sigma), spec)
    return analyze_one(ego, obs, samples, params, TAU)[1]


SENTINEL = restrictive_sentinel(PARAMS)


def _component_values(k: int):
    """Values of component k that tie, sit on the sentinel or lie beyond it
    (more restrictive), or are ordinary bounds of either sign."""
    return (0.0, -0.0, SENTINEL[k], 1.5 * SENTINEL[k], -SENTINEL[k], 1.0, -2.5)


@st.composite
def _closable_inputs(draw):
    """(distributions, beta) of 1-4 agents, each with one contour of mass 1
    (a point mass), one of mass 1 - 1e-13, or 1-4 contours with a residual
    of 0, 1e-15 or 0.3; a component is shared when every contour of every
    agent holds one value (zeros of either sign)."""
    n = draw(st.integers(1, 4))
    kinds = draw(st.sampled_from(["point", "near-point", "contours", "mixed"]))
    shared = [draw(st.sampled_from(_component_values(k))) if draw(st.booleans()) else None
              for k in range(len(COMPONENTS))]
    dists = []
    for j in range(n):
        kind = draw(st.sampled_from(["point", "near-point", "contours"])) \
            if kinds == "mixed" else kinds
        if kind == "point":
            masses, residual = (1.0,), 0.0
        elif kind == "near-point":
            masses, residual = (1.0 - 1e-13,), draw(st.sampled_from([0.0, 1e-13]))
        else:
            residual = draw(st.sampled_from([0.0, 1e-15, 0.3]))
            m = draw(st.integers(1, 4))
            masses = ((1.0 - residual) / m,) * m
        envelopes = []
        for _ in masses:
            values = []
            for k, v0 in enumerate(shared):
                if v0 is None:
                    values.append(draw(st.sampled_from(_component_values(k))))
                else:
                    values.append(v0 if v0 != 0.0 else draw(st.sampled_from([0.0, -0.0])))
            envelopes.append(Envelope(*values))
        dists.append(EnvelopeDistribution(j, masses, tuple(envelopes), residual))
    beta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return dists, beta


def _shared_beyond_sentinel(beta):
    """Two agents whose every contour holds a_lon_max -9, beyond the sentinel's -8."""
    env = Envelope(-8.0, -9.0, -4.0, 4.0)
    return [EnvelopeDistribution(j, (0.5, 0.4), (env, env), 0.1) for j in range(2)], beta


def _near_point_masses(beta):
    """Two agents of one contour of mass 1 - 1e-13 and no residual."""
    return [EnvelopeDistribution(0, (1.0 - 1e-13,), (env_of(1.0, -1.0, 2.0),), 0.0),
            EnvelopeDistribution(1, (1.0 - 1e-13,), (env_of(2.0, -2.0, 1.0),), 0.0)], beta


class TestClosedFormSolve:
    """``risk_bounded_envelope`` closes point masses and shared-value
    components without the walk; both give the walk's bits, the sign of a
    zero included (``walk_risk_envelope`` is the walk)."""

    @given(case=_closable_inputs())
    @example(case=_shared_beyond_sentinel(0.0))
    @example(case=_shared_beyond_sentinel(1.0))
    @example(case=_near_point_masses(1.0))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_walk(self, case):
        dists, beta = case
        got = risk_bounded_envelope(dists, beta, PARAMS)
        want = walk_risk_envelope(dists, beta, PARAMS)
        assert type(got) is Envelope
        assert [(v, math.copysign(1.0, v)) for v in got] == \
            [(v, math.copysign(1.0, v)) for v in want]

    def test_point_masses_keep_the_first_signed_zero(self):
        dists = [EnvelopeDistribution(j, (1.0,), (Envelope(-8.0, z, z, 4.0),), 0.0)
                 for j, z in enumerate((-0.0, 0.0))]
        got = risk_bounded_envelope(dists, 0.5, PARAMS)
        assert [math.copysign(1.0, v) for v in got[1:3]] == [-1.0, -1.0]

    def test_beta_checked_before_the_closed_forms(self):
        dist = EnvelopeDistribution(0, (1.0,), (env_of(1.0),), 0.0)
        with pytest.raises(ValueError, match="beta"):
            risk_bounded_envelope([dist], 1.5, PARAMS)

    def test_sample_set_masses(self):
        samples = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 4).samples
        assert samples.masses == tuple(p - q for p, q in zip(LEVELS, (0.0, *LEVELS)))
        assert samples.masses is samples.masses
        assert EXACT_SAMPLES.masses == (1.0,)


class TestViolationExpectation:
    def _spec_x_only(self, sigma_x, levels=LEVELS, n_phi=8):
        return UncertaintySpec.from_diagonal([sigma_x ** 2, 0, 0, 0], levels, n_phi)

    def test_far_away_leaves_residual_only(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 8)
        e = expectation(AgentState(0, 0, 0, 15), AgentState(300, 0, 0, 15), spec,
                        rss_params)
        assert e == pytest.approx(1.0 - LEVELS[-1])

    def test_overlap_with_zero_covariance(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], LEVELS, 8)
        e = expectation(AgentState(0, 0, 0, 15), AgentState(1, 0.2, 0, 15), spec,
                        rss_params)
        assert e == 1.0

    def test_contour_threshold_geometry(self, rss_params):
        # Only x-noise; violation begins once the contour radius bridges the
        # distance to the unsafe boundary, so the expectation is exactly the
        # mass at and beyond that contour plus the residual.
        sigma_x = 0.5
        spec = self._spec_x_only(sigma_x)
        radii = [math.sqrt(chi2_quantile_4(p)) * sigma_x for p in LEVELS]
        k0 = 3
        ego = AgentState(0, 0, 0, 17)
        d = safe_distance_lon(17.0, 15.0, rss_params)
        gap = d + 0.5 * (radii[k0 - 1] + radii[k0])
        obs = AgentState(gap + rss_params.length, 0, 0, 15)
        e = expectation(ego, obs, spec, rss_params)
        assert e == pytest.approx(1.0 - LEVELS[k0 - 1])

    def test_explicit_samples_count_violated_contours(self, rss_params):
        # Same-lane pair at 10 m: the inner contour keeps the obstacle ahead
        # and safe laterally, the outer one reaches into the ego's lane box.
        ego = AgentState(0, 0, 0, 15)
        obs = AgentState(10, 3.5, 0, 15)
        samples = SampleSet(((0.5, 0.9), np.array([[0.0, 0, 0, 0], [0.0, -3.5, 0, 0]]),
                             (1, 1)))
        _, e = analyze_one(ego, obs, samples, rss_params, TAU)
        assert not safety_violated(ego, [obs], rss_params)
        assert safety_violated(ego, [AgentState(10, 0, 0, 15)], rss_params)
        assert e == pytest.approx((0.9 - 0.5) + (1.0 - 0.9))

    def test_zero_covariance_is_violation_indicator(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], LEVELS, 6)
        samples = contour_samples(eigendecompose(spec.sigma), spec)
        ego = AgentState(0, 0, 0, 18)
        for x, violated in ((1.0, True), (300.0, False)):
            obs = AgentState(x, 0.2, 0, 17)
            dist, exp = analyze_one(ego, obs, samples, rss_params, TAU)
            assert dist.residual_mass == 0.0
            assert dist.masses == (1.0,)
            assert safety_violated(ego, [obs], rss_params) is violated
            assert exp == (1.0 if violated else 0.0)


class TestContourSamples:
    def test_stacks_every_contour_once(self):
        # n_phi = 4 names 8 distinct points: 64 grid rows less the repeats.
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 4)
        basis = eigendecompose(spec.sigma)
        levels, deviations, counts = contour_samples(basis, spec)
        assert levels == LEVELS
        assert counts == (8,) * len(LEVELS)
        want = np.concatenate([sample_contour(basis, p, 4) for p in LEVELS])
        assert np.array_equal(deviations, want)

    @staticmethod
    def _nearby_agent(rng, ego, params):
        """An agent ahead near the safe gap, beside near the lateral margin,
        or anywhere on the road, so that many bounds lie inside the limits."""
        v = rng.uniform(5.0, 25.0)
        kind = rng.integers(3)
        if kind == 0:
            x = params.length + float(safe_distance_lon(ego.v, v, params)) \
                + rng.uniform(-4.0, 4.0)
            y = ego.y + rng.uniform(-0.5, 0.5)
        elif kind == 1:
            x = rng.uniform(-5.0, 5.0)
            y = ego.y + rng.choice((-1.0, 1.0)) * (params.width + rng.uniform(0.2, 1.5))
        else:
            x = rng.uniform(-20.0, 45.0)
            y = 3.5 * rng.integers(2) + rng.uniform(-1.0, 1.0)
        return AgentState(x, y, rng.normal(0.0, 0.05), v)

    def test_analysis_matches_full_grid(self, rss_params):
        # Dropping the repeated grid rows leaves every expectation as it was;
        # a bound may move by one step of the bisection grid, where a dropped
        # row equal to a kept one up to rounding set it.
        lon_step, lat_step = 2.0 ** -36, 2.0 ** -37
        rng = np.random.default_rng(2024)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        sigmas = {
            "diagonal": np.diag([0.16, 0.09, 0.04, 4e-4]),
            "correlated": rot @ np.diag([0.3, 0.1, 0.05, 1e-3]) @ rot.T,
            "tied": np.diag([0.04, 0.04, 0.04, 1e-4]),
            "zero-eigenvalue": rot @ np.diag([0.2, 0.0, 0.05, 0.0]) @ rot.T,
        }
        n_states = 0
        for sigma in sigmas.values():
            for n_phi in (5, 6, 8):
                spec = UncertaintySpec(sigma, LEVELS, n_phi)
                basis = eigendecompose(spec.sigma)
                dedup = contour_samples(basis, spec)
                full = SampleSet((
                    LEVELS,
                    np.concatenate([full_grid_contour(basis, p, n_phi) for p in LEVELS]),
                    (n_phi ** 3,) * len(LEVELS)))
                for _ in range(45):
                    ego = AgentState(0.0, 3.5 * rng.integers(2), rng.normal(0.0, 0.03),
                                     rng.uniform(10.0, 25.0))
                    obs = self._nearby_agent(rng, ego, rss_params)
                    dist, exp = analyze_one(ego, obs, dedup, rss_params, TAU)
                    want_dist, want_exp = analyze_one(ego, obs, full, rss_params, TAU)
                    assert exp == want_exp
                    for g, w in zip(dist.envelopes, want_dist.envelopes):
                        assert g.a_lon_min == w.a_lon_min
                        assert abs(g.a_lon_max - w.a_lon_max) <= lon_step
                        assert abs(g.a_lat_min - w.a_lat_min) <= lat_step
                        assert abs(g.a_lat_max - w.a_lat_max) <= lat_step
                    n_states += 1
        assert n_states >= 500

    def test_zero_covariance_single_point(self):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], LEVELS, 8)
        levels, deviations, counts = contour_samples(eigendecompose(spec.sigma), spec)
        assert levels == (1.0,)
        assert counts == (1,)
        assert np.array_equal(deviations, np.zeros((1, 4)))


class TestShouldSwitch:
    def test_all_zero(self):
        assert not should_switch([0.0, 0.0], 0.1)

    def test_above_threshold(self):
        assert should_switch([0.15], 0.1)

    def test_strict_inequality_at_threshold(self):
        assert not should_switch([0.1], 0.1)

    @pytest.mark.parametrize("beta, message", [
        (math.nan, "beta must be finite, got nan"), (2.0, "beta 2.0 outside [0, 1]"),
        (-0.1, "beta -0.1 outside [0, 1]"), (True, "beta must be a number, got True")])
    def test_bad_beta_rejected(self, beta, message):
        # No expectation exceeds NaN or 2.0, so the policy never switched.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            should_switch([0.9], beta)


class TestDegeneracyAndSoundness:
    def test_zero_covariance_equals_deterministic(self, rss_params):
        spec = UncertaintySpec.from_diagonal([0, 0, 0, 0], LEVELS, 8)
        basis = eigendecompose(spec.sigma)
        ego = AgentState(0, 0, 0, 17)
        others = [AgentState(26, 0, 0, 15), AgentState(6, 3.5, 0, 18)]
        expected = safety_envelope(ego, others, rss_params, TAU)
        for beta in (0.0, 0.05, 0.1, 0.5, 1.0):
            dists = [envelope_distribution(ego, o, spec, basis, rss_params, TAU,
                                           agent_id=j)
                     for j, o in enumerate(others)]
            assert risk_bounded_envelope(dists, beta, rss_params) == expected

    def test_monte_carlo_risk_bound_single_config(self, rss_params):
        beta, n = 0.2, 20_000
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 6)
        basis = eigendecompose(spec.sigma)
        ego = AgentState(0, 0, 0, 17)
        others = [AgentState(30, 0, 0, 15.5), AgentState(45, 3.5, 0, 16)]
        dists = [envelope_distribution(ego, o, spec, basis, rss_params, TAU, agent_id=j)
                 for j, o in enumerate(others)]
        ep = risk_bounded_envelope(dists, beta, rss_params)
        rng = np.random.default_rng(77)
        scale = np.sqrt(basis.eigenvalues)
        true_lon = np.full(n, np.inf)
        true_lat_min = np.full(n, -np.inf)
        true_lat_max = np.full(n, np.inf)
        from riskenv.prob_envelope import perturbed_state_arrays
        from riskenv.rss import pairwise_envelope_batch
        for o in others:
            devs = (rng.standard_normal((n, 4)) * scale) @ basis.eigenvectors.T
            ox, oy, ov, ot = perturbed_state_arrays(o, devs)
            lon_max, lat_min, lat_max = pairwise_envelope_batch(
                ego, ox, oy, ov, ot, rss_params, TAU)
            true_lon = np.minimum(true_lon, lon_max)
            true_lat_min = np.maximum(true_lat_min, lat_min)
            true_lat_max = np.minimum(true_lat_max, lat_max)
        viol = ((true_lon < ep.a_lon_max) | (true_lat_max < ep.a_lat_max)
                | (true_lat_min > ep.a_lat_min))
        rate = float(viol.mean())
        assert rate <= beta + 3 * math.sqrt(beta / n) + 0.02


class TestAnalyzeAgents:
    """analyze_step's stacked passes over several agents against one pass per
    agent."""

    @staticmethod
    def _agents(rng, n_phi, n_agents):
        """Samples, and the observed and exact agents among n_agents states."""
        spec = UncertaintySpec.from_diagonal([0.16, 0.09, 0.04, 4e-4], LEVELS, n_phi)
        observed, exact = [], []
        for _ in range(n_agents):
            state = AgentState(float(rng.uniform(-30.0, 40.0)),
                               float(3.5 * rng.integers(2) + rng.normal(0.0, 0.3)),
                               float(rng.normal(0.0, 0.02)), float(rng.uniform(5.0, 25.0)))
            (exact if rng.random() < 0.3 else observed).append(state)
        return contour_samples(eigendecompose(spec.sigma), spec), observed, exact

    @pytest.mark.parametrize("n_phi,n_agents", [(8, 1), (8, 6), (12, 3), (12, 5)])
    def test_stacked_equals_one_agent_calls(self, rss_params, n_phi, n_agents):
        rng = np.random.default_rng(100 * n_phi + n_agents)
        ego = AgentState(0.0, 0.0, 0.01, 17.0)
        for _ in range(4):
            samples, observed, exact = self._agents(rng, n_phi, n_agents)
            dists, expectations, exact_env = analyze_step(ego, observed, samples, exact,
                                                          rss_params, TAU)
            want = [contour_loop_analysis(ego, state, samples, rss_params, TAU, agent_id=j)
                    for j, state in enumerate(observed)]
            assert list(zip(dists, expectations)) == want
            assert [analyze_one(ego, state, samples, rss_params, TAU) for state in observed] \
                == [contour_loop_analysis(ego, state, samples, rss_params, TAU)
                    for state in observed]
            assert exact_env == functools.reduce(
                worst_of,
                [contour_loop_analysis(ego, state, EXACT_SAMPLES, rss_params, TAU)[0]
                 .envelopes[0] for state in exact],
                unrestricted_envelope(rss_params))

    def test_passes_split_between_whole_agents(self, rss_params, monkeypatch):
        rows = []
        kernel = prob_envelope.pair_analysis_batch

        def recorded(ego, ox, *args):
            rows.append(len(ox))
            return kernel(ego, ox, *args)

        monkeypatch.setattr(prob_envelope, "pair_analysis_batch", recorded)
        ego = AgentState(0.0, 0.0, 0.0, 17.0)
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 12)
        samples = contour_samples(eigendecompose(spec.sigma), spec)
        per_agent = samples[1].shape[0]
        assert 2 * per_agent <= ROW_BUDGET < 3 * per_agent
        # Half a lane across, where the broad phase certifies none of them.
        others = [AgentState(20.0 + 5.0 * j, 1.0, 0.0, 15.0) for j in range(3)]
        analyze_step(ego, others, samples, others, rss_params, TAU)
        assert rows == [2 * per_agent, per_agent + 3]
        # An agent over the budget runs alone.
        rows.clear()
        big = SampleSet(((0.5,), np.zeros((ROW_BUDGET + 1, 4)), (ROW_BUDGET + 1,)))
        analyze_step(ego, others[:2], big, others[2:], rss_params, TAU)
        assert rows == [ROW_BUDGET + 1, ROW_BUDGET + 1, 1]
        rows.clear()
        assert analyze_step(ego, [], samples, [], rss_params, TAU) == (
            [], [], unrestricted_envelope(rss_params))
        assert rows == []

    def test_exact_analysis_is_the_deterministic_envelope(self, rss_params, monkeypatch):
        # With the exact agents the observed ones at zero covariance, each
        # agent gets one broad-phase test, and one kernel row unless certified.
        certified, rows = [], []
        free, kernel = rss.BroadPhase.free, prob_envelope.pair_analysis_batch

        def recorded_free(*args):
            certified.append(free(*args))
            return certified[-1]

        def recorded_kernel(ego, ox, *args):
            rows.append(len(ox))
            return kernel(ego, ox, *args)

        monkeypatch.setattr(rss.BroadPhase, "free", recorded_free)
        monkeypatch.setattr(prob_envelope, "pair_analysis_batch", recorded_kernel)
        rng = np.random.default_rng(31)
        spec = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 8)
        samples = contour_samples(eigendecompose(spec.sigma), spec)
        for _ in range(40):
            ego = AgentState(0.0, float(rng.uniform(0.0, 3.5)), 0.0, float(rng.uniform(10, 25)))
            others = [AgentState(float(rng.uniform(-15.0, 30.0)), float(3.5 * rng.integers(2)),
                                 0.0, float(rng.uniform(10.0, 25.0))) for _ in range(3)]
            certified.clear()
            rows.clear()
            dists, expectations, exact_env = analyze_step(ego, others, EXACT_SAMPLES, others,
                                                          rss_params, TAU)
            assert len(certified) == len(others)
            assert sum(rows) == certified.count(False)
            want = safety_envelope(ego, others, rss_params, TAU)
            assert exact_env == want
            assert analyze_step(ego, others, EXACT_SAMPLES, list(others), rss_params,
                                TAU) == (dists, expectations, exact_env)
            for beta in (0.0, 0.05, 0.5, 1.0):
                assert risk_bounded_envelope(dists, beta, rss_params) == want
            violated = violation_batch(ego, [o.x for o in others], [o.y for o in others],
                                       [o.v for o in others], [o.theta for o in others],
                                       rss_params)
            assert should_switch(expectations, 0.0) is bool(violated.any())
            assert analyze_step(ego, others, samples, (), rss_params, TAU)[2] == \
                unrestricted_envelope(rss_params)

    # Positions around the ego in both lanes, so that some agents restrict
    # it and some are violated.
    agent = st.tuples(st.floats(-15.0, 30.0), st.sampled_from([0.0, 1.8, 3.5]),
                      st.floats(-0.2, 0.2), st.floats(0.0, 30.0))

    @given(ego=agent, others=st.lists(agent, max_size=4), beta=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_exact_risk_envelope_is_the_safety_envelope_at_any_beta(
            self, ego, others, beta):
        # EnvelopeRestriction runs as ProbabilisticEnvelopeRestriction at
        # zero covariance, which rests on this identity.  It needs each
        # distribution to be one point of mass exactly 1: within MASS_TOL a
        # mass of 1 - 1e-13 would be accepted, and at beta = 1 the solve
        # would then discard it.
        rss_params = RssParams()
        ego, others = AgentState(*ego), [AgentState(*o) for o in others]
        dists, _, _ = analyze_step(ego, others, EXACT_SAMPLES, (), rss_params, TAU)
        assert EXACT_SAMPLES[0] == (1.0,)
        for dist in dists:
            assert dist.masses == (1.0,) and dist.residual_mass == 0.0
        assert risk_bounded_envelope(dists, beta, rss_params) == safety_envelope(
            ego, others, rss_params, TAU)


class TestBroadPhase:
    """Agents that ``BroadPhase`` certifies skip the kernel, and every output
    stays exactly what the kernel gives them: with the tests patched to
    certify nothing, each decision is the same, ``==`` and repr."""

    @staticmethod
    def _with_and_without(monkeypatch, fn, *args):
        """fn(*args) with the broad phase and with it certifying nothing, and
        the kernel rows each one ran."""
        rows = []
        kernels = {name: getattr(module, name) for module, name in
                   ((prob_envelope, "pair_analysis_batch"),
                    (prob_envelope, "violation_batch"))}

        def recorded(name):
            def kernel(ego, ox, *rest):
                rows.append(len(ox))
                return kernels[name](ego, ox, *rest)
            return kernel

        with monkeypatch.context() as m:
            m.setattr(prob_envelope, "pair_analysis_batch", recorded("pair_analysis_batch"))
            m.setattr(prob_envelope, "violation_batch", recorded("violation_batch"))
            got = fn(*copy.deepcopy(args))
            got_rows = sum(rows)
            m.setattr(rss.BroadPhase, "free", lambda *_: False)
            m.setattr(rss.BroadPhase, "unviolated", lambda *_: False)
            want = fn(*copy.deepcopy(args))
        assert repr(got) == repr(want)
        assert got == want if isinstance(got, tuple) else np.array_equal(got, want)
        return got_rows, sum(rows) - got_rows

    def test_sweep_steps_unchanged(self, monkeypatch):
        # Every policy's decisions over seeded episodes: the analyses of the
        # restricting policies and the mean violations of the Simplex family,
        # each replayed on the inputs it received.
        cfg = RunConfig()
        calls = []

        def recorder(fn):
            def recorded(*args):
                calls.append((fn, *args))
                return fn(*args)
            return recorded

        with monkeypatch.context() as m:
            m.setattr(bench, "analyze_step", recorder(analyze_step))
            m.setattr(bench, "mean_violations", recorder(mean_violations))
            for scn in bench.generate_scenarios(4, 7, cfg):
                for kind, case in (("ProbabilisticEnvelopeRestriction", "small"),
                                   ("ProbabilisticEnvelopeRestriction", "large"),
                                   ("EnvelopeRestriction", "small"), ("Simplex", "small"),
                                   ("ProbabilisticSimplex", "small"),
                                   ("ProbabilisticSimplex", "large")):
                    bench.run_episode(scn, kind, 0.2, case, cfg)
        for fn in (analyze_step, mean_violations):
            rows = [self._with_and_without(monkeypatch, *call) for call in calls
                    if call[0] is fn]
            assert sum(r for r, _ in rows) < sum(r for _, r in rows)
            assert any(r == 0 < full for r, full in rows)
            assert any(r > 0 for r, _ in rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_query_inputs_unchanged(self, rss_params, monkeypatch, seed):
        # As riskenv envelope analyses them: 1-8 agents ahead, behind and
        # beside the ego in both lanes, each observed and exact, under
        # diagonal and correlated covariances.
        rng = np.random.default_rng(seed)
        skipped = 0
        for _ in range(8):
            variances = np.array([0.16, 0.16, 0.16, 4e-4]) * rng.choice([0.25, 1.0])
            rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0] if rng.random() < 0.5 \
                else np.eye(4)
            sigma = rotation @ np.diag(variances) @ rotation.T
            spec = UncertaintySpec(0.5 * (sigma + sigma.T), LEVELS, int(rng.choice([6, 8, 12])))
            ego = AgentState(0.0, float(rng.choice([0.0, 1.75, 3.5])),
                             float(rng.normal(0.0, 0.02)), float(rng.uniform(10.0, 30.0)))
            agents = [AgentState(float(rng.uniform(-40.0, 90.0)),
                                 float(3.5 * rng.integers(2) + rng.normal(0.0, 0.3)),
                                 float(rng.normal(0.0, 0.05)), float(rng.uniform(5.0, 30.0)))
                      for _ in range(int(rng.integers(1, 9)))]
            got_rows, all_rows = self._with_and_without(
                monkeypatch, analyze_step, ego, agents, spec.samples, agents, rss_params, TAU)
            skipped += all_rows - got_rows
        assert skipped > 0

    def test_far_ahead_agent_adds_no_rows(self, rss_params, monkeypatch):
        rows = []
        kernel = prob_envelope.pair_analysis_batch

        def recorded(ego, ox, *args):
            rows.append(len(ox))
            return kernel(ego, ox, *args)

        monkeypatch.setattr(prob_envelope, "pair_analysis_batch", recorded)
        ego = AgentState(0.0, 0.0, 0.0, 17.0)
        samples = UncertaintySpec.from_diagonal([0.04, 0.04, 0.04, 1e-4], LEVELS, 8).samples
        # Near and behind half a lane across need the kernel; far ahead, and
        # a lane across, do not.
        near, behind, far, beside = (AgentState(x, y, 0.0, 15.0) for x, y in (
            (20.0, 1.0), (-120.0, 1.0), (120.0, 1.0), (5.0, 3.5)))
        analyze_step(ego, [near, far, beside, behind], samples, [far, beside, near],
                     rss_params, TAU)
        assert rows == [2 * samples[1].shape[0] + 1]
        rows.clear()
        dists, expectations, exact_env = analyze_step(ego, [far, beside], samples,
                                                      [far, beside], rss_params, TAU)
        assert rows == []
        free = unrestricted_envelope(rss_params)
        assert all(d.envelopes == (free,) * len(LEVELS) for d in dists)
        assert exact_env == free
        assert expectations == [1.0 - LEVELS[-1]] * 2

    def test_samples_carry_their_box(self):
        spec = UncertaintySpec.from_diagonal([0.04, 0.09, 0.16, 1e-4], LEVELS, 6)
        _, deviations, _ = spec.samples
        assert spec.samples.box is spec.samples.box
        assert spec.samples.box == (deviations.min(axis=0).tolist(),
                                    deviations.max(axis=0).tolist())
        assert EXACT_SAMPLES.box == ([0.0] * 4, [0.0] * 4)


class TestMeanViolations:
    """``mean_violations`` against each agent's own ``violation_batch`` mean,
    bit for bit, for sample sets of any sizes."""

    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_agent_means(self, seed, n_agents):
        rng = np.random.default_rng(seed)
        params = RssParams()
        basis = eigendecompose(np.diag([0.16, 0.16, 0.16, 4e-4]))
        ego = AgentState(0.0, float(rng.uniform(0.0, 3.5)), 0.0, float(rng.uniform(5.0, 30.0)))
        agents = []
        for _ in range(n_agents):
            state = AgentState(float(rng.uniform(-20.0, 40.0)), float(rng.uniform(0.0, 3.5)),
                               float(rng.normal(0.0, 0.05)), float(rng.uniform(0.0, 30.0)))
            m = int(rng.integers(0, 40))
            samples = EXACT_SAMPLES if m == 0 else SampleSet(
                ((1.0,), draw_noise(basis, rng, m), (m,)))
            agents.append((state, samples))
        want = [float(violation_batch(ego, *stacked_states([(state, samples[1])]),
                                      params).mean()) for state, samples in agents]
        assert mean_violations(ego, agents, params).tolist() == want


class TestStackedStates:
    """The one stacking pass against the per-agent path, bit for bit."""

    SAMPLES = UncertaintySpec.from_diagonal([0.16, 0.09, 0.25, 0.04], LEVELS, 6).samples

    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_agent_path(self, seed, n_agents):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_agents):
            # Headings at +-pi wrap, speeds near 0 go below it.
            theta = float(rng.choice([math.pi, math.nextafter(-math.pi, 0.0),
                                      rng.uniform(-math.pi, math.pi)]))
            v = float(rng.choice([0.0, rng.uniform(0.0, 0.5), rng.uniform(0.0, 30.0)]))
            state = AgentState(float(rng.uniform(-50.0, 50.0)), float(rng.normal(0.0, 2.0)),
                               theta, v)
            m = int(rng.integers(1, 40))
            devs = (EXACT_SAMPLES[1], self.SAMPLES[1], rng.normal(0.0, 0.5, (m, 4)),
                    rng.uniform(-4.0, 4.0, (m, 4)))[int(rng.integers(4))]
            pairs.append((state, devs))
        got, want = stacked_states(pairs), per_agent_states(pairs)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert (got[2] >= 0.0).all() and (np.abs(got[3]) <= math.pi).all()

    def test_one_agent_view(self):
        state = AgentState(3.0, 1.0, math.pi, 0.1)
        devs = np.array([[0.5, -0.5, -1.0, 0.2], [0.0, 0.0, 0.0, -0.2]])
        for g, w in zip(perturbed_state_arrays(state, devs), per_agent_states([(state, devs)])):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 1)])
    def test_rejects_a_bad_shape(self, shape):
        with pytest.raises(ValueError):
            perturbed_state_arrays(AgentState(0.0, 0.0, 0.0, 1.0), np.zeros(shape))
        with pytest.raises(ValueError):
            stacked_states([(AgentState(0.0, 0.0, 0.0, 1.0), np.zeros((2, 4))),
                            (AgentState(9.0, 0.0, 0.0, 1.0), np.zeros(shape))])


class TestBoundedSigma:
    """A covariance whose largest entry sits at MAX_SIGMA keeps the contour
    rows finite and the kernel free of floating-point warnings."""

    @given(seed=st.integers(0, 2**32 - 1), rotate=st.booleans(),
           spectrum=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(any),
           n_phi=st.sampled_from([2, 5, 8]))
    @settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.shrink})
    @example(seed=1_691_811_342, rotate=False, spectrum=[2.225073858507203e-309] * 4, n_phi=2)
    @example(seed=7, rotate=True, spectrum=[5e-324, 0.0, 0.0, 0.0], n_phi=5)
    def test_sigma_at_the_bound_stays_finite(self, seed, rotate, spectrum, n_phi):
        rng = np.random.default_rng(seed)
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0] if rotate else np.eye(4)
        # The covariance is rescaled to MAX_SIGMA below, so only the spectrum's
        # shape matters; a largest eigenvalue of 1 keeps a subnormal spectrum
        # from overflowing the rescale factor.
        sigma = rot @ np.diag(np.divide(spectrum, max(spectrum))) @ rot.T
        sigma = 0.5 * (sigma + sigma.T) * (MAX_SIGMA / np.abs(sigma).max())
        spec = UncertaintySpec(np.clip(sigma, -MAX_SIGMA, MAX_SIGMA), LEVELS, n_phi)
        ego = AgentState(0.0, float(rng.uniform(0.0, 3.5)), 0.0, float(rng.uniform(0.0, 30.0)))
        others = [AgentState(float(rng.uniform(-50.0, 50.0)), float(3.5 * rng.integers(2)),
                             float(rng.normal(0.0, 0.1)), float(rng.uniform(0.0, 30.0)))
                  for _ in range(2)]
        # Underflow stays ignored, as in the bounded-state property of the kernel.
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            levels, deviations, counts = spec.samples
            assert np.isfinite(deviations).all()
            dists, expectations, _ = analyze_step(ego, others, spec.samples, others,
                                                  PARAMS, TAU)
        for env in (e for d in dists for e in d.envelopes):
            assert all(map(math.isfinite, (env.a_lon_max, env.a_lat_min, env.a_lat_max)))
        assert all(0.0 <= e <= 1.0 for e in expectations)
