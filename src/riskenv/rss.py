"""Deterministic safety envelopes from responsibility-style safe distances.

A pair of vehicles is dangerous only if it violates the longitudinal AND the
lateral safe distance at the same time.  The envelope of the ego vehicle is
the box of accelerations that keeps at least one of the two safe distances
intact for the next ``tau`` seconds; envelopes of several pairs combine
component-wise into the most restrictive box.

All pair computations exist in a vectorized form (arrays of other-vehicle
states against one ego state); ``safety_envelope`` wraps the vectorized
kernel, so there is a single source of truth.

Each envelope bound is the largest acceleration for which a monotone
condition still holds.  Both conditions are piecewise quadratic in the post-
tau speed, so the kernel solves them in closed form, snaps the root down onto
the grid of a 40-step bisection over the physical limits (spacing 2**-36 for
a_lon, 2**-37 for a_lat) and accepts it only where the condition holds at the
grid point and fails one grid step above.  That is exactly the point the
bisection converges to, so the bounds are bit-identical to it (the tests
keep the bisection as the oracle).  A row where neither the snapped point
nor its grid neighbours pass the check gets the most restrictive bound.
A condition takes a float (as at the physical limits) or a row array; at a
float the ego's travel takes ``advance_speed_clamped``'s float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi].

    Python floats take a ``math`` path (the simulator wraps one heading per
    agent per step); it matches the numpy path bit for bit, because both
    take the floored remainder of the same sum.
    """
    if isinstance(theta, float):
        w = (float(theta) + math.pi) % TWO_PI - math.pi
        return math.pi if w == -math.pi else w
    w = np.mod(np.asarray(theta, dtype=float) + math.pi, TWO_PI) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    if np.ndim(theta) == 0:
        return float(w)
    return w


@dataclass(frozen=True)
class AgentState:
    """Kinematic state of one vehicle in the road-aligned frame."""

    x: float      # longitudinal position (m)
    y: float      # lateral position (m), +y toward the left lane
    theta: float  # heading (rad), 0 = road direction, in (-pi, pi]
    v: float      # speed along heading (m/s), >= 0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.v)):
            raise ValueError(f"position and speed must be finite, got "
                             f"x={self.x}, y={self.y}, v={self.v}")
        if not (self.v >= 0.0):
            raise ValueError(f"speed must be >= 0, got {self.v}")
        if not (-math.pi < self.theta <= math.pi):
            raise ValueError(f"heading must lie in (-pi, pi], got {self.theta}")

    @property
    def v_lon(self) -> float:
        return self.v * math.cos(self.theta)

    @property
    def v_lat(self) -> float:
        return self.v * math.sin(self.theta)


@dataclass(frozen=True)
class RssParams:
    """Safe-distance and physical-limit parameters.

    The response/braking parameters shape the safe distances; the physical
    limits define the unrestricted envelope; the box dimensions are used for
    edge-to-edge gap measurement.
    """

    rho: float = 0.05               # response time (s)
    a_max_accel_lon: float = 1.0    # accel of the rear vehicle during response (m/s^2)
    b_min_brake_lon: float = 4.0    # guaranteed braking of the rear vehicle (m/s^2)
    b_max_brake_lon: float = 8.0    # strongest braking of the front vehicle (m/s^2)
    a_max_accel_lat: float = 0.2    # lateral accel toward the other during response (m/s^2)
    b_min_brake_lat: float = 4.0    # guaranteed lateral braking (m/s^2)
    mu_lat: float = 0.1             # lateral fluctuation margin (m)
    a_lon_limit: float = 8.0        # physical |a_lon| bound (m/s^2)
    a_lat_limit: float = 4.0        # physical |a_lat| bound (m/s^2)
    length: float = 4.7             # vehicle box length (m)
    width: float = 1.8              # vehicle box width (m)

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("response time rho must be > 0")
        for name in ("b_min_brake_lon", "b_max_brake_lon", "b_min_brake_lat",
                     "a_lon_limit", "a_lat_limit", "length", "width"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("a_max_accel_lon", "a_max_accel_lat", "mu_lat"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.b_min_brake_lon > self.b_max_brake_lon:
            raise ValueError("b_min_brake_lon must not exceed b_max_brake_lon")


@dataclass(frozen=True)
class Envelope:
    """Acceleration-limit box: [a_lon_min, a_lon_max] x [a_lat_min, a_lat_max].

    a_lat_min bounds acceleration toward the right (-y), a_lat_max toward the
    left (+y).  The probability-accounting sentinel intentionally carries
    min > max (an empty box), so feasibility is not enforced here.
    """

    a_lon_min: float
    a_lon_max: float
    a_lat_min: float
    a_lat_max: float

    def clamp(self, a_lon: float, a_lat: float) -> tuple[float, float]:
        """Clamp a command into the box; the upper bound wins if the box is empty."""
        lon = min(max(a_lon, self.a_lon_min), self.a_lon_max)
        lat = min(max(a_lat, self.a_lat_min), self.a_lat_max)
        return lon, lat


# Envelope components: (name, orientation). orientation +1 means a smaller
# value is MORE restrictive (upper bounds); -1 means a larger value is.
COMPONENTS: tuple[tuple[str, float], ...] = (
    ("a_lon_min", -1.0),
    ("a_lon_max", +1.0),
    ("a_lat_min", -1.0),
    ("a_lat_max", +1.0),
)


def unrestricted_envelope(params: RssParams) -> Envelope:
    return Envelope(-params.a_lon_limit, params.a_lon_limit,
                    -params.a_lat_limit, params.a_lat_limit)


def restrictive_sentinel(params: RssParams) -> Envelope:
    """Most restrictive representable envelope (empty box at the physical corners)."""
    return Envelope(params.a_lon_limit, -params.a_lon_limit,
                    params.a_lat_limit, -params.a_lat_limit)


def less_restrictive_any(applied: Envelope, true_env: Envelope) -> bool:
    """True if ``applied`` is strictly less restrictive than ``true_env`` in any component."""
    return any(orientation * getattr(true_env, name) < orientation * getattr(applied, name)
               for name, orientation in COMPONENTS)


def advance_speed_clamped(v0, a, t):
    """Distance travelled and final speed after ``t`` seconds of constant
    acceleration ``a`` from speed ``v0``, with the speed clamped at 0 (no
    reversing).  Works on scalars and arrays; two floats take a plain-float
    path (one simulated agent) that matches the array path bit for bit."""
    if isinstance(v0, float) and isinstance(a, float):
        if a < 0.0 and v0 + a * t < 0.0:
            return -v0 * v0 / (2.0 * a), 0.0
        return v0 * t + 0.5 * a * t * t, v0 + a * t
    v0 = np.asarray(v0, dtype=float)
    a = np.asarray(a, dtype=float)
    stops = (a < 0.0) & (v0 + a * t < 0.0)
    denom = np.where(stops, a, -1.0)  # placeholder where not stopping
    d = np.where(stops, -v0 * v0 / (2.0 * denom), v0 * t + 0.5 * a * t * t)
    v1 = np.where(stops, 0.0, v0 + a * t)
    return d, v1


def braking_travel(v0, rate, t):
    """Displacement and final speed when braking toward standstill at
    ``rate`` for ``t`` seconds, valid for either sign of ``v0``."""
    dur = np.minimum(np.abs(v0) / rate, t)
    d = np.sign(v0) * (np.abs(v0) * dur - 0.5 * rate * dur * dur)
    v1 = np.sign(v0) * (np.abs(v0) - rate * dur)
    return d, v1


def safe_distance_lon(v_rear, v_front, params: RssParams):
    """Minimum longitudinal gap the rear vehicle must keep (m), clamped at 0.

    Worst case: the rear vehicle accelerates at a_max for rho seconds, then
    brakes at b_min; the front vehicle brakes at b_max.
    """
    v_rear = np.maximum(np.asarray(v_rear, dtype=float), 0.0)
    v_front = np.maximum(np.asarray(v_front, dtype=float), 0.0)
    rho = params.rho
    v_resp = v_rear + rho * params.a_max_accel_lon
    d = (v_rear * rho
         + 0.5 * params.a_max_accel_lon * rho * rho
         + v_resp * v_resp / (2.0 * params.b_min_brake_lon)
         - v_front * v_front / (2.0 * params.b_max_brake_lon))
    d = np.maximum(d, 0.0)
    if d.ndim == 0:
        return float(d)
    return d


def safe_distance_lat(v1_toward, v2_toward, params: RssParams):
    """Minimum lateral gap between two vehicles (m).

    Velocities are measured toward the other vehicle (positive = closing) and
    clamped at 0.  Each side worst-case accelerates toward the other for rho
    seconds and then brakes laterally at b_min_brake_lat; mu_lat is a flat
    fluctuation margin, so the result is always >= mu_lat.
    """
    v1 = np.maximum(np.asarray(v1_toward, dtype=float), 0.0)
    v2 = np.maximum(np.asarray(v2_toward, dtype=float), 0.0)
    rho = params.rho
    b = params.b_min_brake_lat
    v1r = v1 + rho * params.a_max_accel_lat
    v2r = v2 + rho * params.a_max_accel_lat
    d = (params.mu_lat
         + v1r * rho + v1r * v1r / (2.0 * b)
         + v2r * rho + v2r * v2r / (2.0 * b))
    if d.ndim == 0:
        return float(d)
    return d


def _solve_largest(cond, root, lo: float, hi: float, iters: int = 40) -> np.ndarray:
    """Largest point g of the grid lo + k * (hi - lo) / 2**iters in [lo, hi]
    where the monotone-decreasing boolean condition holds; lo where even
    cond(lo) fails.

    ``cond(values, rows)`` evaluates the condition at ``values``, a float or
    one value per row, for the given row subset (rows=None means all rows);
    ``root(rows)`` approximates its boundary.  The root is snapped down onto
    the grid (spacing h) and accepted where cond(g) holds and cond(g + h)
    fails, which is exactly the point an ``iters``-step bisection converges
    to.  Rows where no snapped point or grid neighbour passes keep lo."""
    ok_hi = cond(hi, None)
    out = np.where(ok_hi, hi, lo)
    rows = (~ok_hi).nonzero()[0]
    if rows.size:  # the bound lies inside where cond(lo) holds
        rows = rows[cond(lo, rows)]
    if rows.size == 0:
        return out
    h = (hi - lo) / 2.0 ** iters
    k = np.floor((root(rows) - lo) / h)
    k = np.where(np.isfinite(k), k, 0.0)  # no real root: start from lo
    for off in (0, -1, 1):  # the snapped point, then its grid neighbours
        g = lo + np.minimum(np.maximum(k + off, 0.0), 2.0 ** iters - 1.0) * h
        hit = cond(g, rows) & ~cond(g + h, rows)
        out[rows[hit]] = g[hit]
        rows, k = rows[~hit], k[~hit]
        if rows.size == 0:
            break
    return out


def _response_speed_root(b: float, k1: float, c):
    """Largest s with s**2 / (2 b) + k1 s + c <= 0, or -inf where no s does."""
    bk = b * k1
    disc = bk * bk - 2.0 * b * c
    return np.where(disc >= 0.0, -bk + np.sqrt(np.maximum(disc, 0.0)), -np.inf)


class _PairGeometry:
    """Shared per-pair quantities between one ego state and n other states."""

    def __init__(self, ego: AgentState, ox, oy, ov, otheta, params: RssParams):
        p = params
        self.params = p
        self.u_lon = ego.v * math.cos(ego.theta)
        self.u_lat = ego.v * math.sin(ego.theta)
        ox, oy, ov, otheta = (np.asarray(a, dtype=float) for a in (ox, oy, ov, otheta))
        self.n = ox.shape[0]
        self.w_lon = ov * np.cos(otheta)
        self.w_lat = ov * np.sin(otheta)
        dx = ox - ego.x
        dy = oy - ego.y
        self.gap_lon = np.abs(dx) - p.length   # edge-to-edge, axis-aligned boxes
        self.gap_lat = np.abs(dy) - p.width
        self.other_ahead = dx >= 0.0
        self.other_left = dy >= 0.0
        rear_v = np.where(self.other_ahead, self.u_lon, self.w_lon)
        front_v = np.where(self.other_ahead, self.w_lon, self.u_lon)
        self.d_lon = safe_distance_lon(rear_v, front_v, p)
        # Lateral closing speeds, signed toward the other vehicle.
        self.ego_toward = np.where(self.other_left, self.u_lat, -self.u_lat)
        self.oth_toward = np.where(self.other_left, -self.w_lat, self.w_lat)
        self.d_lat = safe_distance_lat(self.ego_toward, self.oth_toward, p)
        self.lon_safe = self.gap_lon >= self.d_lon
        self.lat_safe = self.gap_lat >= self.d_lat

    def violation(self) -> np.ndarray:
        return ~self.lon_safe & ~self.lat_safe

    # Longitudinal condition with ego as the rear vehicle: after tau of ego
    # acceleration a and worst-case front braking, the gap still covers the
    # safe distance at the post-tau speeds.  Returns (cond, root).
    def _lon_cond_rear(self, tau, idx):
        p = self.params
        u = self.u_lon
        df, wf2 = braking_travel(self.w_lon[idx], p.b_max_brake_lon, tau)
        margin = self.gap_lon[idx] + df

        def cond(a, rows=None):
            de, ue2 = advance_speed_clamped(u, a, tau)
            m = margin if rows is None else margin[rows]
            w2 = wf2 if rows is None else wf2[rows]
            return m - de >= safe_distance_lon(ue2, w2, p)

        def root(rows):
            # Without a stop (post-tau speed v = u + a tau >= 0) the ego
            # travels (u + v) tau / 2.  The gap must stay >= 0 (linear in a)
            # and >= the unclamped safe distance, a quadratic in the response
            # speed s = v + rho a_max.
            m = margin[rows]
            w2 = np.maximum(wf2[rows], 0.0)
            rho, a_r, b_r = p.rho, p.a_max_accel_lon, p.b_min_brake_lon
            c = (-0.5 * a_r * rho * rho - w2 * w2 / (2.0 * p.b_max_brake_lon)
                 - m + 0.5 * (u - rho * a_r) * tau)
            s = _response_speed_root(b_r, rho + 0.5 * tau, c)
            a_gap = 2.0 * (m - u * tau) / (tau * tau)
            a_run = np.minimum(a_gap, (s - rho * a_r - u) / tau)
            # Stopping inside tau (a < -u / tau): the ego travels u^2 / (2|a|)
            # and ends at rest, so the gap must cover the rest safe distance.
            slack = m - safe_distance_lon(0.0, wf2[rows], p)
            with np.errstate(divide="ignore"):
                a_stop = np.where(slack > 0.0, -u * u / (2.0 * slack), -np.inf)
            return np.where(a_run >= -u / tau, a_run, a_stop)

        return cond, root

    # Longitudinal robustness with ego as the front vehicle: the other (rear)
    # worst-case accelerates while the ego worst-case brakes hard.
    def _lon_robust_front(self, tau, idx):
        p = self.params
        de, ue2 = advance_speed_clamped(self.u_lon, -p.a_lon_limit, tau)
        dr, wr2 = advance_speed_clamped(self.w_lon[idx], p.a_max_accel_lon, tau)
        gap = self.gap_lon[idx] + de - dr
        return gap >= safe_distance_lon(wr2, ue2, p)

    # Lateral condition: after tau of ego toward-acceleration b and the other
    # accelerating toward the ego, the lateral gap still covers the lateral
    # safe distance at post-tau closing speeds.  Returns (cond, root).
    def _lat_cond(self, tau, idx):
        p = self.params
        q = self.ego_toward[idx]
        r2 = self.oth_toward[idx] + p.a_max_accel_lat * tau
        oth_travel = self.oth_toward[idx] * tau + 0.5 * p.a_max_accel_lat * tau * tau
        margin = self.gap_lat[idx] - oth_travel

        def cond(b, rows=None):
            q_ = q if rows is None else q[rows]
            m = margin if rows is None else margin[rows]
            r2_ = r2 if rows is None else r2[rows]
            q_travel = q_ * tau + 0.5 * b * tau * tau
            return m - q_travel >= safe_distance_lat(q_ + b * tau, r2_, p)

        def root(rows):
            # The ego travels (q + v) tau / 2 toward the other, v = q + b tau.
            # For v >= 0 the safe distance is quadratic in the response speed
            # s = v + rho a_max; below it is the constant at v = 0.
            q_, m = q[rows], margin[rows]
            rho, a_r, b_r = p.rho, p.a_max_accel_lat, p.b_min_brake_lat
            d_rest = safe_distance_lat(0.0, r2[rows], p)
            s_rest = rho * a_r
            c = (d_rest - s_rest * rho - s_rest * s_rest / (2.0 * b_r)
                 - m + 0.5 * (q_ - s_rest) * tau)
            s = _response_speed_root(b_r, rho + 0.5 * tau, c)
            b_closing = (s - s_rest - q_) / tau
            b_opening = 2.0 * (m - d_rest - q_ * tau) / (tau * tau)
            return np.where(b_closing >= -q_ / tau, b_closing, b_opening)

        return cond, root


def pair_analysis_batch(ego: AgentState, ox, oy, ov, otheta,
                        params: RssParams, tau: float):
    """Per-pair envelopes and violation flags of the ego against n others.

    Returns (a_lon_max, a_lat_min, a_lat_max, violated) arrays; a_lon_min is
    never restricted (braking responsibility lies with the rear vehicle).
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    p = params
    g = _PairGeometry(ego, ox, oy, ov, otheta, params)
    n = g.n
    a_lon_max = np.full(n, p.a_lon_limit)
    lat_toward_max = np.full(n, p.a_lat_limit)

    both_safe = g.lon_safe & g.lat_safe
    danger = ~g.lon_safe & ~g.lat_safe

    # Robustness of each direction under full ego dynamics for tau; a robust
    # direction keeps the pair non-dangerous without any restriction.
    lon_robust = np.zeros(n, dtype=bool)
    idx_rear = (both_safe & g.other_ahead).nonzero()[0]
    if idx_rear.size:
        cond, _ = g._lon_cond_rear(tau, idx_rear)
        lon_robust[idx_rear] = cond(p.a_lon_limit)
    idx_front = (both_safe & ~g.other_ahead).nonzero()[0]
    if idx_front.size:
        lon_robust[idx_front] = g._lon_robust_front(tau, idx_front)
    lat_robust = np.zeros(n, dtype=bool)
    idx_both = both_safe.nonzero()[0]
    if idx_both.size:
        cond, _ = g._lat_cond(tau, idx_both)
        lat_robust[idx_both] = cond(p.a_lat_limit)

    relax = both_safe & (lon_robust | lat_robust)
    contested = both_safe & ~relax

    # Restrict longitudinally when the ego is the rear vehicle and the
    # longitudinal distance is the one being preserved (or in danger, as a
    # best effort).  Restrict laterally when the lateral distance carries the
    # pair, when a contested ego-front pair must hold its lane, or in danger.
    pick_lon = g.other_ahead & ((contested | danger) | (g.lon_safe & ~g.lat_safe))
    pick_lat = (g.lat_safe & ~g.lon_safe) | (contested & ~g.other_ahead) | danger

    idx = pick_lon.nonzero()[0]
    if idx.size:
        cond, root = g._lon_cond_rear(tau, idx)
        a_lon_max[idx] = _solve_largest(cond, root, -p.a_lon_limit, p.a_lon_limit)
    idx = pick_lat.nonzero()[0]
    if idx.size:
        cond, root = g._lat_cond(tau, idx)
        lat_toward_max[idx] = _solve_largest(cond, root, -p.a_lat_limit, p.a_lat_limit)

    a_lat_max = np.where(g.other_left, lat_toward_max, p.a_lat_limit)
    a_lat_min = np.where(g.other_left, -p.a_lat_limit, -lat_toward_max)
    return a_lon_max, a_lat_min, a_lat_max, g.violation()


def pairwise_envelope_batch(ego: AgentState, ox, oy, ov, otheta,
                            params: RssParams, tau: float):
    """Per-pair envelopes of the ego against n other states, as
    (a_lon_max, a_lat_min, a_lat_max) arrays."""
    return pair_analysis_batch(ego, ox, oy, ov, otheta, params, tau)[:3]


def violation_batch(ego: AgentState, ox, oy, ov, otheta, params: RssParams) -> np.ndarray:
    """Boolean array: pair violates both safe distances at once."""
    return _PairGeometry(ego, ox, oy, ov, otheta, params).violation()


def safety_envelope(ego: AgentState, others, params: RssParams, tau: float) -> Envelope:
    """Most restrictive combination over all pairwise envelopes.

    An empty agent list yields the unrestricted envelope.
    """
    others = list(others)
    if not others:
        return unrestricted_envelope(params)
    ox, oy, ov, ot = (np.array([getattr(s, k) for s in others], dtype=float)
                      for k in ("x", "y", "v", "theta"))
    lon_max, lat_min, lat_max = pairwise_envelope_batch(ego, ox, oy, ov, ot, params, tau)
    return Envelope(-params.a_lon_limit, float(lon_max.min()),
                    float(lat_min.max()), float(lat_max.min()))
