import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riskenv import rss
from riskenv.rss import (
    MAX_ACCEL,
    MAX_POSITION,
    MAX_SPEED,
    MAX_TAU,
    MIN_ACCEL,
    TWO_PI,
    AgentState,
    BroadPhase,
    ConfigError,
    Envelope,
    RssParams,
    advance_speed_clamped,
    pair_analysis_batch,
    pairwise_envelope_batch,
    real,
    safe_distance_lat,
    safe_distance_lon,
    safety_envelope,
    unrestricted_envelope,
    violation_batch,
    wrap_angle,
)
from riskenv.prob_envelope import stacked_states

from conftest import (
    bisect_largest,
    oracle_max_lon_accel,
    pairwise_envelope,
    safety_violated,
    simulate_lat_profile,
    simulate_lon_profile,
    worst_of,
)

TAU = 0.2


def _within(lo, hi):
    """Floats in [lo, hi], or in (0, hi] for lo = 0 exclusive (lo None)."""
    if lo is None:
        return st.floats(0.0, hi, exclude_min=True) | st.sampled_from([5e-324, hi])
    return st.floats(lo, hi) | st.sampled_from([lo, hi])


# Every parameter set RssParams accepts, from each field's bounds, with the
# defaults among them.
ACCEPTED_PARAMS = st.just(RssParams()) | st.builds(
    lambda b1, b2, **kw: RssParams(b_min_brake_lon=min(b1, b2), b_max_brake_lon=max(b1, b2),
                                   **kw),
    b1=_within(MIN_ACCEL, MAX_ACCEL), b2=_within(MIN_ACCEL, MAX_ACCEL),
    rho=_within(None, MAX_TAU), a_max_accel_lon=_within(0.0, MAX_ACCEL),
    a_max_accel_lat=_within(0.0, MAX_ACCEL), b_min_brake_lat=_within(MIN_ACCEL, MAX_ACCEL),
    mu_lat=_within(0.0, MAX_POSITION), a_lon_limit=_within(MIN_ACCEL, MAX_ACCEL),
    a_lat_limit=_within(MIN_ACCEL, MAX_ACCEL), length=_within(None, MAX_POSITION),
    width=_within(None, MAX_POSITION))
ACCEPTED_TAU = st.floats(0.0, MAX_TAU, exclude_min=True) | st.sampled_from([5e-324, MAX_TAU])


class TestSafeDistanceLon:
    def test_all_terms_vanish(self):
        p = RssParams(rho=1.0, a_max_accel_lon=0.0)
        assert safe_distance_lon(0.0, 0.0, p) == 0.0

    def test_frozen_example(self, legacy_params):
        # 15*1 + 0.5*3.5 + 18.5^2/8 - 15^2/16
        assert safe_distance_lon(15.0, 15.0, legacy_params) == pytest.approx(
            45.46875, abs=1e-9)

    def test_negative_raw_value_clamped(self):
        p = RssParams(rho=1.0, a_max_accel_lon=0.0)
        assert safe_distance_lon(0.0, 20.0, p) == 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RssParams(b_min_brake_lon=0.0)
        with pytest.raises(ValueError):
            RssParams(b_min_brake_lon=9.0, b_max_brake_lon=8.0)

    @pytest.mark.parametrize("name,value", [
        ("rho", MAX_TAU * 2), ("rho", 1e300), ("rho", 0.0), ("a_max_accel_lon", 1e200),
        ("a_max_accel_lon", -1e-9), ("a_max_accel_lat", MAX_ACCEL * 1.5),
        ("b_min_brake_lon", MIN_ACCEL / 2), ("b_max_brake_lon", 2 * MAX_ACCEL),
        ("b_min_brake_lat", 1e-308), ("a_lon_limit", 1e300), ("a_lat_limit", MIN_ACCEL / 2),
        ("mu_lat", 2 * MAX_POSITION), ("length", 1e300), ("width", 0.0), ("width", math.nan)])
    def test_magnitudes_bounded(self, name, value):
        with pytest.raises(ValueError, match=name):
            RssParams(**{name: value})

    def test_magnitudes_at_the_bounds_accepted(self):
        RssParams(rho=MAX_TAU, a_max_accel_lon=MAX_ACCEL, b_min_brake_lon=MAX_ACCEL,
                  b_max_brake_lon=MAX_ACCEL, a_max_accel_lat=MAX_ACCEL,
                  b_min_brake_lat=MAX_ACCEL, mu_lat=MAX_POSITION, a_lon_limit=MAX_ACCEL,
                  a_lat_limit=MAX_ACCEL, length=MAX_POSITION, width=MAX_POSITION)
        RssParams(a_max_accel_lon=0.0, b_min_brake_lon=MIN_ACCEL, b_max_brake_lon=MIN_ACCEL,
                  a_max_accel_lat=0.0, b_min_brake_lat=MIN_ACCEL, mu_lat=0.0,
                  a_lon_limit=MIN_ACCEL, a_lat_limit=MIN_ACCEL)

    @given(vr=st.floats(0, 40), vf=st.floats(0, 40), dv=st.floats(0, 5))
    def test_monotone_in_speeds(self, vr, vf, dv):
        p = RssParams()
        assert safe_distance_lon(vr + dv, vf, p) >= safe_distance_lon(vr, vf, p)
        assert safe_distance_lon(vr, vf + dv, p) <= safe_distance_lon(vr, vf, p)

    @given(vr=st.floats(0, 30), vf=st.floats(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_braking_profile_classification(self, vr, vf):
        p = RssParams()
        d = safe_distance_lon(vr, vf, p)
        assert simulate_lon_profile(vr, vf, d + 0.01, p)
        if d > 0.011:
            assert not simulate_lon_profile(vr, vf, d - 0.01, p)


class TestSafeDistanceLat:
    def test_margin_only(self):
        p = RssParams(rho=1.0, a_max_accel_lat=0.0, mu_lat=0.1)
        assert safe_distance_lat(0.0, 0.0, p) == pytest.approx(0.1)

    def test_diverging_clamped(self):
        p = RssParams(mu_lat=0.1)
        assert safe_distance_lat(0.5, -0.3, p) >= 0.1

    def test_monotone_in_closing_speed(self):
        p = RssParams()
        assert safe_distance_lat(1.0, 1.0, p) > safe_distance_lat(0.0, 0.0, p)

    @given(v1=st.floats(-2, 3), v2=st.floats(-2, 3))
    @settings(max_examples=25, deadline=None)
    def test_profile_never_touches_at_safe_gap(self, v1, v2):
        # The formula over-approximates the worst-case closing profile, so
        # starting exactly at the safe distance must keep a positive gap.
        p = RssParams()
        d = safe_distance_lat(v1, v2, p)
        assert simulate_lat_profile(v1, v2, d, p) >= p.mu_lat - 1e-6


class TestPairwiseEnvelope:
    def test_far_ahead_unrestricted(self, rss_params):
        ego = AgentState(0, 0, 0, 15)
        other = AgentState(500, 0, 0, 15)
        assert pairwise_envelope(ego, other, rss_params, TAU) == unrestricted_envelope(
            rss_params)

    def test_at_safe_distance_matches_accel_search_oracle(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        d = safe_distance_lon(17.0, 15.0, rss_params)
        other = AgentState(d + rss_params.length, 0, 0, 15)
        env = pairwise_envelope(ego, other, rss_params, TAU)
        oracle = oracle_max_lon_accel(ego, other, rss_params, TAU)
        grid = 2 * rss_params.a_lon_limit / 3200
        assert env.a_lon_max == pytest.approx(oracle, abs=grid + 1e-6)
        assert env.a_lon_max < 0.0  # gap at the boundary already demands braking

    def test_slightly_beyond_safe_distance_restriction_matches_oracle(self, rss_params):
        ego = AgentState(0, 0, 0, 18)
        d = safe_distance_lon(18.0, 16.0, rss_params)
        other = AgentState(d + rss_params.length + 3.0, 0, 0, 16)
        env = pairwise_envelope(ego, other, rss_params, TAU)
        oracle = oracle_max_lon_accel(ego, other, rss_params, TAU)
        grid = 2 * rss_params.a_lon_limit / 3200
        assert env.a_lon_max == pytest.approx(oracle, abs=grid + 1e-6)

    def test_other_behind_keeps_braking_free(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        other = AgentState(-30, 0, 0, 19)
        env = pairwise_envelope(ego, other, rss_params, TAU)
        assert env.a_lon_min == -rss_params.a_lon_limit
        assert env.a_lon_max == rss_params.a_lon_limit

    def test_restrictions_stay_within_physical_limits(self, rss_params):
        rng = np.random.default_rng(7)
        ego = AgentState(0, 0, 0, 17)
        for _ in range(200):
            other = AgentState(float(rng.uniform(-60, 60)),
                               float(rng.uniform(-4, 8)),
                               float(rng.uniform(-0.3, 0.3)),
                               float(rng.uniform(0, 25)))
            env = pairwise_envelope(ego, other, rss_params, TAU)
            lim = unrestricted_envelope(rss_params)
            assert lim.a_lon_min <= env.a_lon_max <= lim.a_lon_max
            assert lim.a_lat_min <= env.a_lat_max <= lim.a_lat_max
            assert lim.a_lat_min <= env.a_lat_min <= lim.a_lat_max
            # A single pair restricts one lateral side only, so the box
            # stays feasible.
            assert env.a_lon_min <= env.a_lon_max
            assert env.a_lat_min <= env.a_lat_max

    def test_batch_matches_scalar(self, rss_params):
        rng = np.random.default_rng(11)
        ego = AgentState(0, 0, 0.05, 16)
        others = [AgentState(float(rng.uniform(-50, 50)), float(rng.uniform(-2, 6)),
                             float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0, 22)))
                  for _ in range(50)]
        ox = np.array([o.x for o in others])
        oy = np.array([o.y for o in others])
        ov = np.array([o.v for o in others])
        ot = np.array([o.theta for o in others])
        lon_max, lat_min, lat_max = pairwise_envelope_batch(
            ego, ox, oy, ov, ot, rss_params, TAU)
        for i, o in enumerate(others):
            env = pairwise_envelope(ego, o, rss_params, TAU)
            assert env.a_lon_max == lon_max[i]
            assert env.a_lat_min == lat_min[i]
            assert env.a_lat_max == lat_max[i]


class TestCombination:
    def test_empty_world_unrestricted(self, rss_params):
        ego = AgentState(0, 0, 0, 15)
        assert safety_envelope(ego, [], rss_params, TAU) == unrestricted_envelope(
            rss_params)

    def test_singleton_matches_pairwise(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        other = AgentState(26, 0, 0, 15)
        assert safety_envelope(ego, [other], rss_params, TAU) == pairwise_envelope(
            ego, other, rss_params, TAU)

    def test_componentwise_combination(self, rss_params):
        ego = AgentState(0, 0, 0, 17)
        d = safe_distance_lon(17.0, 15.0, rss_params)
        lon_threat = AgentState(d + rss_params.length + 0.5, 0, 0, 15)  # ahead, binding
        lat_threat = AgentState(1.0, 2.1, 0, 17)  # abreast, 0.3 m lateral gap
        e_lon = pairwise_envelope(ego, lon_threat, rss_params, TAU)
        e_lat = pairwise_envelope(ego, lat_threat, rss_params, TAU)
        combined = safety_envelope(ego, [lon_threat, lat_threat], rss_params, TAU)
        assert combined == worst_of(e_lon, e_lat)
        assert combined.a_lon_max == e_lon.a_lon_max < rss_params.a_lon_limit
        assert combined.a_lat_max == e_lat.a_lat_max < rss_params.a_lat_limit

    @pytest.mark.parametrize("n_others", [0, 1])
    def test_components_are_floats_under_int_limits(self, n_others):
        # With a_lon_limit=8, a_lon_min was the int -8 (and every component
        # of the empty world's envelope an int).
        params = RssParams(a_lon_limit=8, a_lat_limit=4)
        others = [AgentState(10.0, 0.0, 0.0, 5.0)][:n_others]
        env = safety_envelope(AgentState(0.0, 0.0, 0.0, 15.0), others, params, TAU)
        assert [type(v) for v in env] == [float] * 4
        assert env == safety_envelope(AgentState(0.0, 0.0, 0.0, 15.0), others, RssParams(), TAU)

    def test_duplicate_agents_idempotent(self, rss_params):
        rng = np.random.default_rng(3)
        ego = AgentState(0, 0, 0, 17)
        others = [AgentState(float(rng.uniform(-40, 40)), float(rng.uniform(0, 4)),
                             0.0, float(rng.uniform(5, 20))) for _ in range(4)]
        once = safety_envelope(ego, others, rss_params, TAU)
        twice = safety_envelope(ego, others + others, rss_params, TAU)
        assert once == twice


ENVELOPES = st.builds(
    Envelope,
    a_lon_min=st.floats(-8, 0),
    a_lon_max=st.floats(-8, 8),
    a_lat_min=st.floats(-4, 4),
    a_lat_max=st.floats(-4, 4),
)


class TestWorstOf:
    @given(a=ENVELOPES, b=ENVELOPES)
    def test_commutative(self, a, b):
        assert worst_of(a, b) == worst_of(b, a)

    @given(a=ENVELOPES)
    def test_idempotent(self, a):
        assert worst_of(a, a) == a

    @given(a=ENVELOPES, b=ENVELOPES, c=ENVELOPES)
    def test_associative(self, a, b, c):
        assert worst_of(worst_of(a, b), c) == worst_of(a, worst_of(b, c))


class TestViolationIndicator:
    def test_far_apart_no_violation(self, rss_params):
        ego = AgentState(0, 0, 0, 15)
        assert not safety_violated(ego, [AgentState(100, 3.5, 0, 15)], rss_params)

    def test_overlapping_boxes_violate(self, rss_params):
        ego = AgentState(0, 0, 0, 15)
        assert safety_violated(ego, [AgentState(1.0, 0.2, 0, 15)], rss_params)

    def test_lon_unsafe_but_lat_safe_is_fine(self, rss_params):
        # Danger requires both distances violated at once.
        ego = AgentState(0, 0, 0, 17)
        other = AgentState(10, 3.5, 0, 17)  # adjacent lane, well inside d_lon
        assert safe_distance_lon(17, 17, rss_params) > 10 - rss_params.length
        lat_gap = 3.5 - rss_params.width
        assert lat_gap > safe_distance_lat(0.0, 0.0, rss_params)
        assert not safety_violated(ego, [other], rss_params)

    def test_restriction_precedes_violation(self, rss_params):
        # A non-violating rear ego closing in gets restricted before f flips.
        ego = AgentState(0, 0, 0, 18)
        d = safe_distance_lon(18.0, 15.0, rss_params)
        other = AgentState(d + rss_params.length + 0.5, 0, 0, 15)
        assert not safety_violated(ego, [other], rss_params)
        env = safety_envelope(ego, [other], rss_params, TAU)
        assert env != unrestricted_envelope(rss_params)


class TestKinematics:
    def test_exact_integration(self):
        d, v = advance_speed_clamped(10.0, 1.0, 1.0)
        assert float(v) == pytest.approx(11.0, abs=1e-12)
        assert float(d) == pytest.approx(10.5, abs=1e-12)

    def test_stop_clamp(self):
        d, v = advance_speed_clamped(2.0, -8.0, 1.0)
        assert float(v) == 0.0
        assert float(d) == pytest.approx(0.25)

    @staticmethod
    def assert_float_path_matches_array_path(v0, a, t):
        with np.errstate(all="ignore"):
            ref = advance_speed_clamped(np.array([v0]), np.array([a]), t)
            got = advance_speed_clamped(v0, a, t)
        for g, r in zip(got, ref):
            assert isinstance(g, float)
            if type(v0) is float and type(a) is float:
                assert type(g) is float
            assert np.array([g]).view(np.int64)[0] == r.view(np.int64)[0], (v0, a, t)

    @given(v0=st.floats(allow_nan=False), a=st.floats(allow_nan=False),
           t=st.floats(0.0, 10.0))
    def test_float_path_matches_array_path(self, v0, a, t):
        self.assert_float_path_matches_array_path(v0, a, t)

    @given(a=st.floats(-1e6, 1e6), t=st.floats(0.0, 10.0), ulps=st.integers(-2, 2))
    def test_float_path_at_the_stop_boundary(self, a, t, ulps):
        v0 = -(a * t)  # v0 + a * t == 0 exactly
        for _ in range(abs(ulps)):
            v0 = math.nextafter(v0, math.copysign(math.inf, ulps))
        self.assert_float_path_matches_array_path(v0, a, t)

    @pytest.mark.parametrize("v0,a", [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, -8.0), (-0.0, -8.0),
        (12.0, 0.0), (12.0, -0.0), (2.0, -10.0), (12.0, -1.3), (1e300, -1e300),
        (1e308, 1e308), (5e-324, -5e-324),
        (np.float64(12.0), np.float64(-1.3)), (np.float64(1.0), -8.0), (3.0, np.float64(-20.0)),
    ])
    def test_float_path_edge_inputs(self, v0, a):
        for t in (0.0, 0.2, 1.0):
            self.assert_float_path_matches_array_path(v0, a, t)

    @given(theta=st.floats(-20, 20))
    def test_wrap_angle_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi

    def test_wrap_angle_scalar_matches_array(self):
        pi = math.pi
        edge = [pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 1e6, -1e6, 0.0, -0.0,
                math.nextafter(pi, 0.0), -math.nextafter(pi, 0.0),
                math.nextafter(pi, 4.0), math.nextafter(-pi, -4.0)]
        rng = np.random.default_rng(12)
        thetas = np.concatenate([edge, rng.uniform(-50, 50, 2000),
                                 rng.uniform(-1e7, 1e7, 500)])
        arr = wrap_angle(thetas)
        scalars = [wrap_angle(float(t)) for t in thetas]
        assert all(type(w) is float for w in scalars)
        assert np.array_equal(np.array(scalars).view(np.int64), arr.view(np.int64))
        assert wrap_angle(-pi) == pi and wrap_angle(pi) == pi

    @staticmethod
    def wrap_with_mod(theta):
        """The array path that always takes np.mod."""
        w = np.mod(np.asarray(theta, dtype=float) + math.pi, TWO_PI) - math.pi
        return np.where(w == -math.pi, math.pi, w)

    @given(thetas=st.lists(
        st.floats(-math.pi, math.pi)
        | st.sampled_from([math.pi, -math.pi, 0.0, -0.0, math.nextafter(math.pi, 0.0),
                           math.nextafter(-math.pi, 0.0), math.nextafter(-math.pi, -4.0),
                           math.nextafter(math.pi, 4.0), 2 * math.pi, -1e-17, 1e-17])
        | st.floats(-50.0, 50.0) | st.floats(allow_nan=True, allow_infinity=True),
        max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_wrap_angle_skips_mod_bit_for_bit(self, thetas):
        with np.errstate(invalid="ignore"):
            got, want = wrap_angle(np.array(thetas)), self.wrap_with_mod(np.array(thetas))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_wrap_angle_edges_of_the_mod_free_path(self):
        below_pi = math.nextafter(math.pi, 0.0)
        assert below_pi + math.pi == TWO_PI  # the sum rounds up to 2 pi
        for thetas in ([below_pi, 0.0], [-math.pi, 0.1], [-0.0, 3.0],
                       [math.nextafter(-math.pi, 0.0), -1.0], [], [3.5, 0.0], 0.5, -math.pi):
            got, want = wrap_angle(np.array(thetas)), self.wrap_with_mod(thetas)
            assert np.asarray(got).tobytes() == want.tobytes(), thetas
        assert wrap_angle(np.array([below_pi]))[0] == wrap_angle(below_pi) == math.pi
        assert wrap_angle(np.array([-math.pi, 1.0]))[0] == math.pi

    def test_agent_state_validation(self):
        with pytest.raises(ValueError):
            AgentState(0, 0, 0, -1.0)
        with pytest.raises(ValueError):
            AgentState(0, 0, 4.0, 1.0)

    @pytest.mark.parametrize("field,value", [
        ("v", math.nextafter(MAX_SPEED, math.inf)), ("v", 1e200),
        ("x", math.nextafter(MAX_POSITION, math.inf)), ("x", -1e300),
        ("y", math.nextafter(-MAX_POSITION, -math.inf)), ("y", 1e200)])
    def test_out_of_range_state_rejected(self, field, value):
        state = {"x": 6.0, "y": 0.0, "theta": 0.0, "v": 15.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            AgentState(**state)
        AgentState(**{**state, field: math.copysign(
            MAX_SPEED if field == "v" else MAX_POSITION, value)})

    @pytest.mark.parametrize("field", ["x", "y", "theta", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, field, value):
        state = {"x": 6.0, "y": 0.0, "theta": 0.0, "v": 15.0}
        state[field] = value
        with pytest.raises(ValueError):
            AgentState(**state)


def _kernel_rows(rng, ego, params, n):
    """Other-vehicle states around one ego: a third near the longitudinal
    boundary ahead (some within centimetres, where a slow ego must stop
    inside tau), a third near the lateral boundary beside (either side), a
    third anywhere on the two lanes ahead of or behind the ego."""
    kind = rng.integers(0, 3, n)
    lon_offset = rng.uniform(-3, 8, n) * rng.choice([1.0, 0.03, 0.001], n)
    ov = np.where(rng.random(n) < 0.15, rng.uniform(0, 1, n), rng.uniform(0, 35, n))
    ot = rng.uniform(-0.3, 0.3, n)
    side = rng.choice([-1.0, 1.0], n)
    d_lon = safe_distance_lon(ego.v_lon, ov * np.cos(ot), params)
    d_lat = safe_distance_lat(ego.v_lat * side, -ov * np.sin(ot) * side, params)
    ox = ego.x + np.choose(kind, [params.length + d_lon + lon_offset,
                                  rng.uniform(-7, 7, n), rng.uniform(-60, 60, n)])
    lanes = rng.choice([-3.5, 0.0, 3.5], n) + rng.normal(0, 0.6, n)
    oy = ego.y + np.choose(kind, [rng.normal(0, 0.3, n),
                                  side * (params.width + d_lat + rng.uniform(-0.3, 1.5, n)),
                                  lanes])
    return ox, oy, ov, ot


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


class TestConditionsAtAFloat:
    """The kernel evaluates a condition at a constant acceleration (the
    physical limits) with a float; that equals the same condition at a full
    row array of that value, bit for bit."""

    @staticmethod
    def assert_float_matches_full(ego, value, tau, seed, subset):
        rng = np.random.default_rng(seed)
        params = RssParams()
        g = rss._PairGeometry(ego, *_kernel_rows(rng, ego, params, 48), params)
        idx = np.sort(rng.choice(48, int(rng.integers(1, 49)), replace=False))
        rows = np.sort(rng.choice(idx.size, int(rng.integers(1, idx.size + 1)),
                                  replace=False)) if subset else None
        n = idx.size if rows is None else rows.size
        for make in (g._lon_cond_rear, g._lat_cond):
            cond, _ = make(tau, idx)
            got, want = cond(value, rows), cond(np.full(n, value), rows)
            assert same_bits(got, want), (make.__name__, value)

    @given(seed=st.integers(0, 2**32 - 1),
           ego_v=st.sampled_from([0.0, 0.2, 12.0]) | st.floats(0.0, 40.0),
           theta=st.sampled_from([0.0, 0.1, -0.3]) | st.floats(-math.pi / 2, math.pi / 2),
           value=st.sampled_from([-8.0, -4.0, 0.0, -0.0, 4.0, 8.0]) | st.floats(-8.0, 8.0),
           tau=st.sampled_from([0.1, 0.2, 0.25, 0.5]), subset=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_value(self, seed, ego_v, theta, value, tau, subset):
        ego = AgentState(0.0, 0.0 if seed % 2 else 3.5, theta, ego_v)
        self.assert_float_matches_full(ego, value, tau, seed, subset)

    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(-8.0, 0.0),
           tau=st.sampled_from([0.1, 0.2, 0.25, 0.5]), ulps=st.integers(-2, 2),
           subset=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_at_the_stop_boundary(self, seed, a, tau, ulps, subset):
        v = -(a * tau)  # ego speed v + a * tau == 0 exactly (heading 0)
        for _ in range(abs(ulps)):
            v = math.nextafter(v, math.copysign(math.inf, ulps))
        ego = AgentState(0.0, 0.0, 0.0, max(v, 0.0))
        self.assert_float_matches_full(ego, a, tau, seed, subset)


class TestBoundSolver:
    """The analytic bound solver against the 40-step bisection it replaces."""

    def test_matches_bisection_bit_for_bit(self, rss_params, legacy_params, monkeypatch):
        rng = np.random.default_rng(20261018)

        def bisection_only(cond, root, lo, hi, ok_hi):
            # Rows passed as holding at hi keep hi; every other row gets the
            # bisection value, which re-evaluates cond(hi) itself.
            return np.where(ok_hi, hi, bisect_largest(cond, lo, hi, ok_hi.size))

        total = stopping = opening = interior = 0
        for params in (rss_params, legacy_params):
            for ego_v in (0.0, 0.2, 1.0, 4.0, 12.0, 20.0, 33.0):
                for tau in (0.1, 0.2, 0.5):
                    ego = AgentState(0.0, float(rng.choice([0.0, 3.5])),
                                     float(rng.uniform(-0.3, 0.3)), ego_v)
                    rows = _kernel_rows(rng, ego, params, 2500)
                    fast = pair_analysis_batch(ego, *rows, params, tau)
                    with monkeypatch.context() as m:
                        m.setattr(rss, "_solve_largest", bisection_only)
                        ref = pair_analysis_batch(ego, *rows, params, tau)
                    for got, want in zip(fast, ref):
                        assert np.array_equal(got, want)
                    lon_max, lat_min, lat_max, _ = ref
                    lon_in = np.abs(lon_max) < params.a_lon_limit
                    lat_in = ((np.abs(lat_max) < params.a_lat_limit)
                              | (np.abs(lat_min) < params.a_lat_limit))
                    total += lon_max.size
                    interior += int(lon_in.sum() + lat_in.sum())
                    stopping += int((lon_in & (lon_max * tau < -ego.v_lon)).sum())
                    ego_lat = np.where(rows[1] >= ego.y, ego.v_lat, -ego.v_lat)
                    toward = np.where(rows[1] >= ego.y, lat_max, -lat_min)
                    opening += int((lat_in & (ego_lat + toward * tau < 0.0)).sum())
        assert total >= 100_000
        # Every branch of both roots is exercised.
        assert interior > 10_000 and stopping > 100 and opening > 100

    @staticmethod
    def _with_bisection(*args):
        """pair_analysis_batch(*args) with the bound solver, and with the
        bisection oracle in its place."""
        def bisection_only(cond, root, lo, hi, ok_hi):
            return np.where(ok_hi, hi, bisect_largest(cond, lo, hi, ok_hi.size))

        fast = pair_analysis_batch(*args)
        with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
            m.setattr(rss, "_solve_largest", bisection_only)
            return fast, pair_analysis_batch(*args)

    # Any accepted parameters, the limits included: the solver and the
    # bisection both compute each grid point as lo + k * h.
    @given(params=st.sampled_from([RssParams(), RssParams(rho=1.0, a_max_accel_lon=3.5),
                                   RssParams(a_max_accel_lon=0.0, rho=2.0)])
           | ACCEPTED_PARAMS, tau=ACCEPTED_TAU, seed=st.integers(0, 2**32 - 1),
           ego_v=st.sampled_from([0.0, 0.2, 17.0]) | st.floats(0.0, MAX_SPEED),
           theta=st.floats(-0.3, 0.3) | st.just(0.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_at_any_tau(self, params, tau, seed, ego_v, theta):
        rng = np.random.default_rng(seed)
        ego = AgentState(0.0, float(rng.choice([0.0, 3.5])), theta, ego_v)
        rows = _kernel_rows(rng, ego, params, 200)
        fast, ref = self._with_bisection(ego, *rows, params, tau)
        for got, want in zip(fast, ref):
            assert np.array_equal(got, want)

    # A stopped agent at gap exactly 0 before an ego at rest that may not
    # accelerate while it responds: the bound is 0, until a subnormal tau
    # rounds a * tau to 0 for small a.  tau**2 underflows below 1.5e-162.
    @pytest.mark.parametrize("tau,bound", [(0.2, 0.0), (1e-150, 0.0), (1e-170, 0.0),
                                           (1e-300, 0.0), (1e-310, 0.0), (5e-324, 0.5)])
    def test_zero_slack_row_at_tiny_tau(self, tau, bound):
        args = (AgentState(0.0, 0.0, 0.0, 0.0), [4.7], [0.0], [0.0], [0.0],
                RssParams(a_max_accel_lon=0.0, rho=2.0), tau)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            fast, ref = self._with_bisection(*args)
        assert fast[0].tolist() == ref[0].tolist() == [bound]

    @pytest.mark.parametrize("limit", [RssParams().a_lon_limit, RssParams().a_lat_limit])
    def test_index_bisection_is_the_midpoint_bisection_at_exact_limits(self, limit):
        # Where every grid point lo + k * h is a float, as at the default
        # limits, halving the interval [a, b] and halving the index give the
        # same bits.
        rng = np.random.default_rng(11)
        thresholds = np.concatenate((rng.uniform(-limit, limit, 2000),
                                     [-limit, limit, 0.0, -2.0 * limit, 2.0 * limit]))

        def cond(values, rows):
            return values <= thresholds[rows]

        a, b = np.full(thresholds.size, -limit), np.full(thresholds.size, limit)
        for _ in range(rss.BISECTION_STEPS):
            mid = 0.5 * (a + b)
            ok = cond(mid, np.arange(thresholds.size))
            a, b = np.where(ok, mid, a), np.where(ok, b, mid)
        want = np.where(thresholds >= limit, limit, np.where(thresholds >= -limit, a, -limit))
        got = bisect_largest(cond, -limit, limit, thresholds.size)
        assert np.array_equal(got, want)

    def test_wrong_root_gets_the_bisection_value(self):
        # Rows whose root misses by more than a grid step, or is no number,
        # run the bisection; every row gets the bisection value.
        rng = np.random.default_rng(5)
        thresholds = rng.uniform(-8.0, 8.0, 1000)
        wrong = rng.random(thresholds.size) < 0.5

        def cond(values, rows=None):
            return values <= (thresholds if rows is None else thresholds[rows])

        ref = bisect_largest(cond, -8.0, 8.0, thresholds.size)
        for bad in (0.5, 4e-11, np.nan, -np.inf, np.inf):
            def root(rows, bad=bad):
                return np.where(wrong[rows], thresholds[rows] + bad, thresholds[rows])

            got = rss._solve_largest(cond, root, -8.0, 8.0, cond(8.0))
            assert np.array_equal(got, ref)

    def test_golden_rows(self):
        golden = json.loads((Path(__file__).parent / "kernel_golden.json").read_text())
        for case in golden["cases"]:
            o = case["others"]
            got = pair_analysis_batch(AgentState(**case["ego"]), o["x"], o["y"], o["v"],
                                      o["theta"], RssParams(**case["params"]), case["tau"])
            for name, values in zip(("a_lon_max", "a_lat_min", "a_lat_max", "violated"), got):
                assert values.tolist() == case[name], name


class TestOneLimitCheckPerCall:
    """One kernel call builds each condition once and evaluates it once at
    its physical limit, for the robustness check and the solve together."""

    def test_each_condition_checked_at_its_limit_once(self, rss_params, monkeypatch):
        events = []

        def counted(make, name):
            def build(self, tau, idx):
                cond, root = make(self, tau, idx)
                events.append((name, "build"))

                def counted_cond(values, rows=None):
                    events.append((name, values if isinstance(values, float) else "array"))
                    return cond(values, rows)

                return counted_cond, root
            return build

        for name in ("_lon_cond_rear", "_lat_cond"):
            monkeypatch.setattr(rss._PairGeometry, name,
                                counted(getattr(rss._PairGeometry, name), name))
        rng = np.random.default_rng(11)
        ego = AgentState(0.0, 1.0, 0.05, 12.0)
        rows = _kernel_rows(rng, ego, rss_params, 3000)
        lon_max, lat_min, lat_max, _ = pair_analysis_batch(ego, *rows, rss_params, TAU)
        # The batch needs robustness checks and interior solves of both bounds.
        g = rss._PairGeometry(ego, *rows, rss_params)
        assert (g.lon_safe & g.lat_safe & g.other_ahead).sum() > 100
        assert (np.abs(lon_max) < rss_params.a_lon_limit).sum() > 100
        assert (np.abs(np.concatenate([lat_min, lat_max])) < rss_params.a_lat_limit).sum() > 100
        for name, limit in (("_lon_cond_rear", rss_params.a_lon_limit),
                            ("_lat_cond", rss_params.a_lat_limit)):
            assert events.count((name, "build")) == 1
            assert events.count((name, limit)) == 1
            assert events.count((name, -limit)) == 1  # the solve's cond(lo)


class TestBoundedStates:
    """Every state AgentState accepts keeps the kernel's arithmetic finite:
    no floating-point warning, whatever the positions and speeds."""

    coord = st.floats(-MAX_POSITION, MAX_POSITION) | st.sampled_from(
        [-MAX_POSITION, MAX_POSITION, 0.0])
    speed = st.floats(0.0, MAX_SPEED) | st.sampled_from([0.0, MAX_SPEED])
    heading = st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from(
        [math.pi, 0.0, math.pi / 2, -math.pi / 2])

    @given(ego=st.tuples(coord, coord, heading, speed),
           others=st.lists(st.tuples(st.booleans(), coord, coord, st.floats(-60.0, 60.0),
                                     st.floats(-8.0, 8.0), heading, speed),
                           min_size=1, max_size=12),
           tau=st.floats(0.0, MAX_TAU, exclude_min=True) | st.sampled_from(
               [5e-324, MAX_TAU]))
    # No shrink phase: shrinking a failure of this many floats runs for minutes.
    @settings(max_examples=300, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_accepted_states_raise_no_float_warning(self, ego, others, tau):
        ego = AgentState(*ego)
        states = []
        for near, x, y, dx, dy, theta, v in others:
            if near:  # around the ego, where the bounds get solved
                x = min(max(ego.x + dx, -MAX_POSITION), MAX_POSITION)
                y = min(max(ego.y + dy, -MAX_POSITION), MAX_POSITION)
            states.append(AgentState(x, y, theta, v))
        ox, oy, ov, ot = (np.array([getattr(s, k) for s in states])
                          for k in ("x", "y", "v", "theta"))
        # Underflow stays ignored, as numpy's default has it: a subnormal
        # heading's sine is one, and it is no fault.
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            for params in (RssParams(), RssParams(rho=1.0, a_max_accel_lon=3.5)):
                out = pair_analysis_batch(ego, ox, oy, ov, ot, params, tau)
                assert all(np.isfinite(a).all() for a in out[:3])

    @given(params=ACCEPTED_PARAMS, ego=st.tuples(coord, coord, heading, speed),
           others=st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-8.0, 8.0), heading,
                                     speed), min_size=1, max_size=12),
           tau=ACCEPTED_TAU)
    @settings(max_examples=300, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_accepted_params_raise_no_float_warning(self, params, ego, others, tau):
        ego = AgentState(*ego)
        dx, dy, ot, ov = (np.array(col) for col in zip(*others))
        ox = np.clip(ego.x + dx, -MAX_POSITION, MAX_POSITION)
        oy = np.clip(ego.y + dy, -MAX_POSITION, MAX_POSITION)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            out = pair_analysis_batch(ego, ox, oy, ov, ot, params, tau)
            assert all(np.isfinite(a).all() for a in out[:3])
            broad = BroadPhase(ego, params, tau)
            for x, y, theta, v in zip(ox, oy, ot, ov):
                state = AgentState(float(x), float(y), theta, v)
                broad.free(state, [-1.0, -1.0, -1.0, -0.1], [1.0, 1.0, 1.0, 0.1])
                broad.unviolated(state, [0.0] * 4, [0.0] * 4)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf,
                                     math.nextafter(MAX_TAU, math.inf)])
    def test_out_of_range_tau_rejected(self, tau):
        # A NaN tau used to give Envelope(-8, 8, -4, -4) with no error, and an
        # infinite one numbers after overflow warnings.
        ego, agent = AgentState(0.0, 0.0, 0.0, 15.0), AgentState(20.0, 3.5, 0.0, 14.0)
        with pytest.raises(ValueError, match="^tau must be in "):
            safety_envelope(ego, [agent], RssParams(), tau)
        with pytest.raises(ValueError, match="^tau must be in "):
            pair_analysis_batch(ego, *np.array([[20.0], [3.5], [14.0], [0.0]]), RssParams(), tau)


def smallest_offset(holds, far: float):
    """The smallest float d in [0, far] with holds(d), by bisection on the
    bits of the non-negative floats, or None where holds(far) fails."""
    if not holds(far):
        return None
    lo, hi = -1, int(np.float64(far).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


class TestBroadPhase:
    """``BroadPhase`` is sufficient: every row of a box it certifies gets
    exactly the certified kernel output, free or unviolated."""

    deviation = st.tuples(st.floats(-5.0, 0.0), st.floats(0.0, 5.0)) | st.just((0.0, 0.0))

    # The agent sits at the smallest offset from the ego, along one axis,
    # where the test certifies the box, or a few ulps off it; the rows are
    # the box's corners and interior points.  Long horizons take most boxes
    # off the road's bounds before they certify, so short ones are drawn too.
    @given(params=st.just(RssParams()) | ACCEPTED_PARAMS,
           tau=ACCEPTED_TAU | st.floats(0.05, 2.0),
           ego=st.tuples(*[st.floats(-1e3, 1e3) | TestBoundedStates.coord] * 2,
                         st.floats(-0.3, 0.3) | TestBoundedStates.heading,
                         TestBoundedStates.speed),
           agent=st.tuples(st.floats(-0.3, 0.3) | st.floats(-1.6, 1.6),
                           st.floats(0.0, 40.0) | TestBoundedStates.speed),
           box=st.tuples(deviation, deviation, st.tuples(st.floats(-20.0, 0.0),
                                                         st.floats(0.0, 20.0)),
                         st.tuples(st.floats(-0.3, 0.0), st.floats(0.0, 0.3))),
           axis=st.sampled_from(["ahead", "behind", "left", "right"]),
           across=st.floats(-20.0, 20.0) | st.just(0.0), ulps=st.integers(-2, 3),
           inner=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), max_size=6))
    @settings(max_examples=400, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_certified_rows_get_the_certified_output(self, params, tau, ego, agent, box,
                                                     axis, across, ulps, inner):
        ego, (theta, v) = AgentState(*ego), agent
        lo, hi = np.array(box).T
        corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(4, -1).T
        devs = np.concatenate([corners, lo + np.array(inner).reshape(-1, 4) * (hi - lo)])
        box = devs.min(axis=0).tolist(), devs.max(axis=0).tolist()
        sign = 1.0 if axis in ("ahead", "left") else -1.0

        def place(d):
            along, side = (ego.x, ego.y) if axis in ("ahead", "behind") else (ego.y, ego.x)
            xy = (min(max(along + sign * d, -MAX_POSITION), MAX_POSITION),
                  min(max(side + across, -MAX_POSITION), MAX_POSITION))
            x, y = xy if axis in ("ahead", "behind") else xy[::-1]
            return AgentState(x, y, theta, v)

        broad = BroadPhase(ego, params, tau)
        for test in (broad.free, broad.unviolated):
            d = smallest_offset(lambda d: test(place(d), *box), 2.0 * MAX_POSITION)
            if d is None:
                continue
            for _ in range(abs(ulps)):
                d = math.nextafter(d, math.copysign(math.inf, ulps))
            state = place(max(d, 0.0))
            if not test(state, *box):
                continue
            rows = stacked_states([(state, devs)])
            if test == broad.free:
                lon_max, lat_min, lat_max, violated = pair_analysis_batch(
                    ego, *rows, params, tau)
                assert (lon_max == params.a_lon_limit).all()
                assert (lat_min == -params.a_lat_limit).all()
                assert (lat_max == params.a_lat_limit).all()
            else:
                violated = violation_batch(ego, *rows, params)
            assert not violated.any()

    def test_heading_round_trip_is_covered(self, rss_params):
        # wrap_angle moves some headings outward by an ulp of pi, which
        # speeds up the agent's closing; at the smallest certified lateral
        # offset the kernel still gives the certified row.
        ego, zero = AgentState(0.0, 0.0, 0.0, 0.0), ([0.0] * 4, [0.0] * 4)
        broad = BroadPhase(ego, rss_params, TAU)
        headings = [t for t in np.linspace(-1.4, -0.1, 200).tolist()
                    if wrap_angle(np.array([t]))[0] < t]
        assert len(headings) > 20
        for theta in headings:
            for test in (broad.free, broad.unviolated):
                d = smallest_offset(lambda d: test(AgentState(0.0, d, theta, 30.0), *zero),
                                    1e3)
                rows = stacked_states([(AgentState(0.0, d, theta, 30.0), np.zeros((1, 4)))])
                _, lat_min, lat_max, violated = pair_analysis_batch(ego, *rows, rss_params,
                                                                    TAU)
                assert not violated.any()
                if test == broad.free:
                    assert lat_min[0] == -lat_max[0] == -rss_params.a_lat_limit

    def test_certifies_each_axis(self, rss_params):
        # Around a 17 m/s ego: ahead beyond the safe distance, behind beyond
        # the rear's, a lane to either side; each free or unviolated only.
        ego = AgentState(0.0, 0.0, 0.0, 17.0)
        broad, zero = BroadPhase(ego, rss_params, TAU), ([0.0] * 4, [0.0] * 4)
        box = [-0.5, -0.5, -1.0, -0.05], [0.5, 0.5, 1.0, 0.05]
        for x, y, free, unviolated in ((60.0, 0.0, True, True), (30.0, 0.0, False, True),
                                       (10.0, 0.0, False, False), (-60.0, 0.0, False, True),
                                       (-10.0, 0.0, False, False), (0.0, 3.5, True, True),
                                       (0.0, -3.5, True, True), (0.0, 2.0, False, True),
                                       (0.0, 1.0, False, False)):
            state = AgentState(x, y, 0.0, 15.0)
            assert broad.free(state, *zero) is free, (x, y)
            assert broad.unviolated(state, *zero) is unviolated, (x, y)
        # A box that crosses the ego's lane or the heading bound certifies nothing.
        assert not broad.unviolated(AgentState(0.0, 3.5, 0.0, 15.0), [0.0, -4.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0])
        assert not broad.free(AgentState(80.0, 0.0, 1.46, 15.0), *box)
        assert broad.free(AgentState(80.0, 0.0, 1.4, 15.0), *box)

    @pytest.mark.parametrize("tau", [None, 0.0, -1.0, math.nan, math.nextafter(MAX_TAU, math.inf)])
    def test_out_of_range_tau_is_never_free(self, rss_params, tau):
        ego, state = AgentState(0.0, 0.0, 0.0, 10.0), AgentState(1e3, 0.0, 0.0, 10.0)
        assert BroadPhase(ego, rss_params, tau).free(state, [0.0] * 4, [0.0] * 4) is False
        assert BroadPhase(ego, rss_params, tau).unviolated(state, [0.0] * 4, [0.0] * 4)
        assert BroadPhase(ego, rss_params, TAU).free(state, [0.0] * 4, [0.0] * 4)


class TestReal:
    """``real`` is the one rule for a real number wherever a scalar enters
    the core: the JSON readers, the declared fields, risk and contour levels."""

    @pytest.mark.parametrize("value,want", [
        (0.25, 0.25), (3, 3.0), (Fraction(1, 4), 0.25), (np.float64(0.25), 0.25),
        (np.int64(-2), -2.0), (-0.0, -0.0)])
    def test_real_number_as_float(self, value, want):
        got = real("x", value)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("value", [True, np.True_, None, "0.5", 1j, [0.5]])
    def test_non_number_rejected(self, value):
        with pytest.raises(ConfigError, match=f"^x must be a number, "
                                              f"got {re.escape(repr(value))}$"):
            real("x", value)

    @pytest.mark.parametrize("value,shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (np.float64("nan"), "nan"),
        (10 ** 400, "inf"), (-10 ** 400, "-inf")])
    def test_non_finite_rejected(self, value, shown):
        with pytest.raises(ConfigError, match=f"^x must be finite, got {shown}$"):
            real("x", value)
