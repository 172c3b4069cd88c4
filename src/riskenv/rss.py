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
the grid lo + k * h of a 40-step bisection of the index k over the physical
limits [lo, hi] (h = (hi - lo) / 2**40, every point computed as lo + k * h at
any accepted limits) and accepts point k only where the condition holds there
and fails at point k + 1.  That is exactly the point the bisection converges
to, so the bounds are bit-identical to it (the tests keep the bisection as the
oracle).  A row where neither k nor its neighbours pass runs the bisection.
One kernel call builds each condition once, over the rows that need its
robustness check or its bound solve, and evaluates it once at its physical
limit for both.  Terms that do not depend on the ego's acceleration are
computed once per call.  A condition takes a float (as at the physical
limits) or a row array; at a float the ego's terms stay Python floats.

``BroadPhase`` decides before the kernel, from an agent's state and the
per-column (min, max) box of its deviations, which kernel outputs are
certain for every row of the box.  A row is *free* (the unrestricted row,
unviolated) if it lies ahead with ``lon_safe`` and the lon condition at
a_lon_limit holding, or on one side with ``lat_safe`` and the lat
condition at a_lat_limit holding: the kernel then relaxes or skips every
bound, whatever the row's other coordinate.  It is *unviolated* if
``lon_safe`` or ``lat_safe`` holds.  Each test evaluates the kernel's own
expressions at the box's worst row: the smallest gap, the slowest forward
speed of an agent ahead, the fastest of one behind, the largest closing
speed.  A row's position and speed are its state plus a deviation, rounded
monotonically, and every safe-distance part rises with its speed, so the
worst row's terms bound every row's bit for bit, the ``_nonneg`` clamps
included (a negative gap certifies nothing).  Three steps are not monotone
and get a margin.  Headings round-trip through pi (by < 2**-51 rad), and
numpy's cos and sin need not match ``math``'s: ``TRIG_TOL`` covers both.
``braking_travel`` subtracts two growing terms: with every speed at most
MAX_SPEED, the front's computed braking travel, and its part of the safe
distance after tau, lie within 2**-51 * MAX_POSITION of their exact values
(the terms are at most MAX_SPEED * MAX_TAU and MAX_SPEED**2 / MIN_ACCEL,
both MAX_POSITION), and the exact values never fall as the front speeds
up; ``LON_SLACK`` = 2**-40 * MAX_POSITION covers the slowest row's error
plus any other row's hundreds of times over.  A box with a heading beyond
``HEADING_BOUND`` or a speed beyond MAX_SPEED certifies nothing.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
# Bounds on a physical state: every accepted state keeps the kernel's
# arithmetic (squares of speeds, gaps over tau**2) far inside the float range.
MAX_SPEED = 100.0      # m/s
MAX_POSITION = 1e7     # |x| and |y| (m)
# Bound on the envelope horizon tau: the time the fastest vehicle takes to
# cross the position bound; with it, tau**2 times an acceleration stays finite.
MAX_TAU = MAX_POSITION / MAX_SPEED  # s
# RssParams bounds that keep the kernel finite: accelerations and limits up to
# MAX_ACCEL, and every divisor (braking rates, limits) at least MIN_ACCEL.
MAX_ACCEL = 1e3   # m/s^2
MIN_ACCEL = 1e-3  # m/s^2
# Broad-phase domain and margins (see the module docstring).
HEADING_BOUND = 1.5                   # |heading| of a certified row (rad), < pi / 2
TRIG_TOL = 1e-12                      # on cos and sin of a row's heading
LON_SLACK = 2.0 ** -40 * MAX_POSITION  # on the front's braking terms, ~9e-6 m


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi].

    Python floats take a ``math`` path (the simulator wraps one heading per
    agent per step); it matches the numpy path bit for bit, because both
    take the floored remainder of the same sum.  An array whose sums all lie
    in [0, 2 pi) skips ``np.mod``: there the remainder is the sum itself.
    Rounding is monotone, so no sum maps to -pi if the smallest one does not.
    """
    if isinstance(theta, float):
        w = (float(theta) + math.pi) % TWO_PI - math.pi
        return math.pi if w == -math.pi else w
    s = np.asarray(theta, dtype=float) + math.pi
    lo = s.min() if s.size else math.nan
    if not (lo >= 0.0 and s.max() < TWO_PI):  # NaN fails too
        s, lo = np.mod(s, TWO_PI), 0.0
    w = s - math.pi
    if lo - math.pi == -math.pi:
        w = np.where(w == -math.pi, math.pi, w)
    if np.ndim(theta) == 0:
        return float(w)
    return w


class ConfigError(ValueError):
    """Input rejected; the message names the offending field."""


def integral(name: str, value) -> int:
    """``value`` as an int; a bool, a string, a fraction or a non-finite
    number raises ConfigError naming ``name``."""
    if isinstance(value, (float, np.floating)) and math.isfinite(value) \
            and float(value).is_integer():
        return int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a finite float; a bool, a non-number, NaN, an infinity or
    an integer beyond the float range raises ConfigError naming ``name``."""
    if type(value) is float and math.isfinite(value):  # the usual case
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def sequence(name: str, value) -> tuple:
    """``value`` as a tuple if it is a sequence (a list, a tuple or a 1-D
    array), not a string; anything else raises ConfigError naming ``name``."""
    if isinstance(value, str) or not (isinstance(value, Sequence)
                                      or isinstance(value, np.ndarray) and value.ndim == 1):
        raise ConfigError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def bounded(default, lo, hi, low_open=False):
    """A dataclass field that ``check_bounds`` keeps in [lo, hi] ((lo, hi] if ``low_open``)."""
    return field(default=default, metadata={"bounds": (lo, hi, low_open)})


@functools.cache
def _bounds(cls) -> tuple:  # (name, int or float, admits None, lo, hi, low_open) per field
    return tuple((f.name, int if f.type == "int" else float, f.type.endswith("| None"),
                  *f.metadata["bounds"]) for f in fields(cls) if "bounds" in f.metadata)


def check_bounds(params) -> None:
    """Raise ConfigError naming the first field that breaks its declaration:
    an ``int`` field takes an integer (an integral float is stored as the
    int), any other field a real number, stored as a float (``real``), or
    None where its annotation admits it, and a number lies in its range:
    NaN and the infinities never fit (an infinite end is open)."""
    for name, kind, optional, lo, hi, low_open in _bounds(type(params)):
        v = getattr(params, name)
        if type(v) is not kind:  # skips these tests for the usual int or float
            if v is None and optional:
                continue
            v = (integral if kind is int else real)(name, v)
            object.__setattr__(params, name, v)
        if v == math.inf or not (lo < v <= hi if low_open else lo <= v <= hi):
            raise ConfigError(f"{name} must be in {'[('[low_open]}{lo:g}, {hi:g}"
                              f"{'])'[hi == math.inf]}, got {v}")


def check_order(params, *pairs) -> None:
    """Raise ValueError naming the first ``(lo, hi)`` pair of fields of
    ``params`` with lo above hi."""
    for lo, hi in pairs:
        if getattr(params, lo) > getattr(params, hi):
            raise ValueError(f"{lo} must not exceed {hi}")


@dataclass(frozen=True)
class AgentState:
    """Kinematic state of one vehicle in the road-aligned frame."""

    x: float      # longitudinal position (m)
    y: float      # lateral position (m), +y toward the left lane
    theta: float  # heading (rad), 0 = road direction, in (-pi, pi]
    v: float      # speed along heading (m/s), >= 0

    def __post_init__(self):
        for name in ("x", "y"):  # NaN fails the comparison too
            if not abs(getattr(self, name)) <= MAX_POSITION:
                raise ValueError(f"{name} must be finite with |{name}| <= {MAX_POSITION:g} m, "
                                 f"got {getattr(self, name)}")
        if not (0.0 <= self.v <= MAX_SPEED):
            raise ValueError(f"v must be finite and in [0, {MAX_SPEED:g}] m/s, got {self.v}")
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

    rho: float = bounded(0.05, 0.0, MAX_TAU, low_open=True)  # response time (s)
    a_max_accel_lon: float = bounded(1.0, 0.0, MAX_ACCEL)  # rear accel during response (m/s^2)
    b_min_brake_lon: float = bounded(4.0, MIN_ACCEL, MAX_ACCEL)  # rear's sure braking (m/s^2)
    b_max_brake_lon: float = bounded(8.0, MIN_ACCEL, MAX_ACCEL)  # front's hardest braking (m/s^2)
    a_max_accel_lat: float = bounded(0.2, 0.0, MAX_ACCEL)  # lateral accel in response (m/s^2)
    b_min_brake_lat: float = bounded(4.0, MIN_ACCEL, MAX_ACCEL)  # sure lateral braking (m/s^2)
    mu_lat: float = bounded(0.1, 0.0, MAX_POSITION)  # lateral fluctuation margin (m)
    a_lon_limit: float = bounded(8.0, MIN_ACCEL, MAX_ACCEL)  # physical |a_lon| bound (m/s^2)
    a_lat_limit: float = bounded(4.0, MIN_ACCEL, MAX_ACCEL)  # physical |a_lat| bound (m/s^2)
    length: float = bounded(4.7, 0.0, MAX_POSITION, low_open=True)  # vehicle box length (m)
    width: float = bounded(1.8, 0.0, MAX_POSITION, low_open=True)  # vehicle box width (m)

    def __post_init__(self):
        check_bounds(self)
        check_order(self, ("b_min_brake_lon", "b_max_brake_lon"))


class Envelope(NamedTuple):
    """Acceleration-limit box: [a_lon_min, a_lon_max] x [a_lat_min, a_lat_max],
    a tuple of its four bounds in ``COMPONENTS`` order.

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
    path (one simulated agent) that matches the array path bit for bit, and
    a float ``v0`` stays a float on the array path."""
    if isinstance(v0, float) and isinstance(a, float):
        if a < 0.0 and v0 + a * t < 0.0:
            return -v0 * v0 / (2.0 * a), 0.0
        return v0 * t + 0.5 * a * t * t, v0 + a * t
    if not isinstance(v0, float):
        v0 = np.asarray(v0, dtype=float)
    a = np.asarray(a, dtype=float)
    v1 = v0 + a * t
    d = v0 * t + 0.5 * a * t * t
    stops = (a < 0.0) & (v1 < 0.0)
    if stops.any():
        denom = np.where(stops, a, -1.0)  # placeholder where not stopping
        d = np.where(stops, -v0 * v0 / (2.0 * denom), d)
        v1 = np.where(stops, 0.0, v1)
    return d, v1


def braking_travel(v0, rate, t):
    """Displacement and final speed when braking toward standstill at
    ``rate`` for ``t`` seconds, valid for either sign of ``v0``."""
    speed, sign = np.abs(v0), np.sign(v0)
    dur = np.minimum(speed / rate, t)
    return sign * (speed * dur - 0.5 * rate * dur * dur), sign * (speed - rate * dur)


# The safe distances take floats or arrays: floats stay Python floats (no
# 0-d arrays), anything else becomes an array.  The kernel evaluates their
# parts separately, in the same operation order as the whole.

def _nonneg(v):
    """``max(v, 0)``: an array for an array (or a list), a float otherwise."""
    if not isinstance(v, float):
        v = np.asarray(v, dtype=float)
        if v.ndim:
            return np.maximum(v, 0.0)
    return max(float(v), 0.0)


def _rear_lon(v, p: RssParams):
    """The rear vehicle's part of ``safe_distance_lon`` at speed v >= 0."""
    v_resp = v + p.rho * p.a_max_accel_lon
    return (v * p.rho + 0.5 * p.a_max_accel_lon * p.rho * p.rho
            + v_resp * v_resp / (2.0 * p.b_min_brake_lon))


def _front_lon(v, p: RssParams):
    """The front vehicle's part of ``safe_distance_lon`` at speed v >= 0."""
    return v * v / (2.0 * p.b_max_brake_lon)


def _side_lat(v, p: RssParams):
    """One side's (travel, braking) terms of ``safe_distance_lat`` at
    closing speed v >= 0."""
    v_resp = v + p.rho * p.a_max_accel_lat
    return v_resp * p.rho, v_resp * v_resp / (2.0 * p.b_min_brake_lat)


def _head_lat(v1_toward, p: RssParams):
    """mu_lat plus the first side's terms: ``safe_distance_lat`` up to the
    second side's two terms, which are added in that order."""
    travel, braking = _side_lat(_nonneg(v1_toward), p)
    return p.mu_lat + travel + braking


def safe_distance_lon(v_rear, v_front, params: RssParams):
    """Minimum longitudinal gap the rear vehicle must keep (m), clamped at 0.

    Worst case: the rear vehicle accelerates at a_max for rho seconds, then
    brakes at b_min; the front vehicle brakes at b_max.
    """
    return _nonneg(_rear_lon(_nonneg(v_rear), params) - _front_lon(_nonneg(v_front), params))


def safe_distance_lat(v1_toward, v2_toward, params: RssParams):
    """Minimum lateral gap between two vehicles (m).

    Velocities are measured toward the other vehicle (positive = closing) and
    clamped at 0.  Each side worst-case accelerates toward the other for rho
    seconds and then brakes laterally at b_min_brake_lat; mu_lat is a flat
    fluctuation margin, so the result is always >= mu_lat.
    """
    travel, braking = _side_lat(_nonneg(v2_toward), params)
    return _head_lat(v1_toward, params) + travel + braking


# Steps of the bisection whose grid the bound solver snaps onto.
BISECTION_STEPS = 40


def _solve_largest(cond, root, lo: float, hi: float, ok_hi) -> np.ndarray:
    """Largest grid point lo + k * h, h = (hi - lo) / 2**BISECTION_STEPS, in
    [lo, hi] where the monotone-decreasing boolean condition holds; lo where
    even cond(lo) fails.

    ``ok_hi`` is cond(hi) of every row, evaluated by the caller (which also
    needs it for the robustness check); a row that needs no solve passes
    True and keeps hi.  ``cond(values, rows)`` evaluates the condition at
    ``values``, a float or one value per row, for the given row subset;
    ``root(rows)`` approximates its boundary.  The root is snapped down onto
    the grid index k and accepted where cond holds at lo + k * h and fails at
    lo + (k + 1) * h, both checked in one evaluation; that is exactly the
    point the bisection of k converges to.  Rows where no snapped point or
    grid neighbour passes (rounding can move the root by many grid steps when
    tau is small) run that bisection."""
    out = np.where(ok_hi, hi, lo)
    rows = (~ok_hi).nonzero()[0]
    if rows.size:  # the bound lies inside where cond(lo) holds
        rows = rows[cond(lo, rows)]
    if rows.size == 0:
        return out
    n, h = 2.0 ** BISECTION_STEPS, (hi - lo) / 2.0 ** BISECTION_STEPS
    with np.errstate(all="ignore"):  # the root is a guess that the check confirms
        k = np.floor((root(rows) - lo) / h)
    k = np.where(np.isfinite(k), k, 0.0)  # no real root: start from lo
    for off in (0, -1, 1):  # the snapped index, then its grid neighbours
        j = np.minimum(np.maximum(k + off, 0.0), n - 1.0)
        g = lo + np.concatenate((j, j + 1.0)) * h  # each point and the one above
        ok = cond(g, np.concatenate((rows, rows)))
        hit = ok[:rows.size] & ~ok[rows.size:]
        out[rows[hit]] = g[:rows.size][hit]
        rows, k = rows[~hit], k[~hit]
        if rows.size == 0:
            return out
    a, b = np.zeros(rows.size), np.full(rows.size, n)
    for _ in range(BISECTION_STEPS):  # the guess missed: bisect the grid index
        mid = 0.5 * (a + b)  # an integer: b - a is a power of two, at least 2
        ok = cond(lo + mid * h, rows)
        a, b = np.where(ok, mid, a), np.where(ok, b, mid)
    out[rows] = lo + a * h
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
        self.u_lon = ego.v_lon
        self.u_lat = ego.v_lat
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
        # Lateral closing speeds, signed toward the other vehicle: the ego's
        # is u_lat toward a left other and -u_lat toward a right one, so its
        # terms are two floats.
        self.oth_toward = np.where(self.other_left, -self.w_lat, self.w_lat)
        travel, braking = _side_lat(np.maximum(self.oth_toward, 0.0), p)
        self.d_lat = (np.where(self.other_left, _head_lat(self.u_lat, p),
                               _head_lat(-self.u_lat, p)) + travel + braking)
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
        front = _front_lon(np.maximum(wf2, 0.0), p)  # the front's part of the safe distance

        def cond(a, rows=None):
            de, ue2 = advance_speed_clamped(u, a, tau)
            m, f = (margin, front) if rows is None else (margin[rows], front[rows])
            return m - de >= _nonneg(_rear_lon(_nonneg(ue2), p) - f)

        def root(rows):
            # Without a stop (post-tau speed v = u + a tau >= 0) the ego
            # travels (u + v) tau / 2.  The gap must stay >= 0 (linear in a)
            # and >= the unclamped safe distance, a quadratic in the response
            # speed s = v + rho a_max.
            m, f = margin[rows], front[rows]
            rho, a_r, b_r = p.rho, p.a_max_accel_lon, p.b_min_brake_lon
            c = -0.5 * a_r * rho * rho - f - m + 0.5 * (u - rho * a_r) * tau
            s = _response_speed_root(b_r, rho + 0.5 * tau, c)
            a_gap = 2.0 * (m - u * tau) / tau / tau  # tau**2 would underflow
            a_run = np.minimum(a_gap, (s - rho * a_r - u) / tau)
            runs = a_run >= -u / tau
            if runs.all():
                return a_run
            # Stopping inside tau (a < -u / tau): the ego travels u^2 / (2|a|)
            # and ends at rest, so the gap must cover the rest safe distance.
            slack = m - _nonneg(_rear_lon(0.0, p) - f)
            room = slack > 0.0
            a_stop = np.where(room, -u * u / (2.0 * np.where(room, slack, 1.0)), -np.inf)
            return np.where(runs, a_run, a_stop)

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
        left = self.other_left[idx]
        oth = self.oth_toward[idx]
        # The other's part of the safe distance at its post-tau closing speed.
        travel, braking = _side_lat(np.maximum(oth + p.a_max_accel_lat * tau, 0.0), p)
        margin = self.gap_lat[idx] - (oth * tau + 0.5 * p.a_max_accel_lat * tau * tau)

        def toward(l):  # the ego's lateral speed toward the other
            return np.where(l, self.u_lat, -self.u_lat)

        def cond(b, rows=None):
            if rows is None:
                m, o1, o2, l = margin, travel, braking, left
            else:
                m, o1, o2, l = margin[rows], travel[rows], braking[rows], left[rows]

            def ego(q):  # the ego's travel and its part of the safe distance
                return q * tau + 0.5 * b * tau * tau, _head_lat(q + b * tau, p)

            if isinstance(b, float):  # on the two floats of q
                ego_travel, ego_head = (np.where(l, x, y)
                                        for x, y in zip(ego(self.u_lat), ego(-self.u_lat)))
            else:
                ego_travel, ego_head = ego(toward(l))
            return m - ego_travel >= ego_head + o1 + o2

        def root(rows):
            # The ego travels (q + v) tau / 2 toward the other, v = q + b tau.
            # For v >= 0 the safe distance is quadratic in the response speed
            # s = v + rho a_max; below it is the constant at v = 0.
            q_, m = toward(left[rows]), margin[rows]
            rho, a_r, b_r = p.rho, p.a_max_accel_lat, p.b_min_brake_lat
            d_rest = _head_lat(0.0, p) + travel[rows] + braking[rows]
            s_rest = rho * a_r
            c = (d_rest - s_rest * rho - s_rest * s_rest / (2.0 * b_r)
                 - m + 0.5 * (q_ - s_rest) * tau)
            s = _response_speed_root(b_r, rho + 0.5 * tau, c)
            b_closing = (s - s_rest - q_) / tau
            closes = b_closing >= -q_ / tau
            if closes.all():
                return b_closing
            b_opening = 2.0 * (m - d_rest - q_ * tau) / tau / tau
            return np.where(closes, b_closing, b_opening)

        return cond, root


def pair_analysis_batch(ego: AgentState, ox, oy, ov, otheta,
                        params: RssParams, tau: float):
    """Per-pair envelopes and violation flags of the ego against n others.

    Returns (a_lon_max, a_lat_min, a_lat_max, violated) arrays; a_lon_min is
    never restricted (braking responsibility lies with the rear vehicle).
    """
    if not 0.0 < tau <= MAX_TAU:  # NaN fails too
        raise ValueError(f"tau must be in (0, {MAX_TAU:g}], got {tau}")
    p = params
    g = _PairGeometry(ego, ox, oy, ov, otheta, params)
    n = g.n
    both_safe = g.lon_safe & g.lat_safe
    danger = g.violation()

    # Robustness of each direction under full ego dynamics for tau; a robust
    # direction keeps the pair non-dangerous without any restriction.  Each
    # condition is built once over the rows that need its robustness check
    # (both distances safe) or its bound solve (see below), and evaluated
    # once at its physical limit, which serves both.
    robust = np.zeros(n, dtype=bool)
    lon_rows = (g.other_ahead & (g.lon_safe | ~g.lat_safe)).nonzero()[0]
    if lon_rows.size:
        lon = g._lon_cond_rear(tau, lon_rows)
        lon_ok = lon[0](p.a_lon_limit)
        robust[lon_rows] = lon_ok
    idx_front = (both_safe & ~g.other_ahead).nonzero()[0]
    if idx_front.size:
        robust[idx_front] = g._lon_robust_front(tau, idx_front)
    lat_rows = (g.lat_safe | ~g.lon_safe).nonzero()[0]
    if lat_rows.size:
        lat = g._lat_cond(tau, lat_rows)
        lat_ok = lat[0](p.a_lat_limit)
        robust[lat_rows] |= lat_ok
    relaxed = both_safe & robust

    # Restrict longitudinally when the ego is the rear vehicle and the
    # longitudinal distance is the one being preserved (or in danger, as a
    # best effort): every lon row that is not relaxed.  Restrict laterally
    # when the lateral distance carries the pair, when a contested (both
    # safe, not relaxed) ego-front pair must hold its lane, or in danger:
    # every lat row but the relaxed and the both-safe ego-rear ones.
    a_lon_max = np.full(n, p.a_lon_limit)
    if lon_rows.size:
        a_lon_max[lon_rows] = _solve_largest(*lon, -p.a_lon_limit, p.a_lon_limit,
                                             lon_ok | relaxed[lon_rows])
    lat_toward_max = np.full(n, p.a_lat_limit)
    if lat_rows.size:
        lat_toward_max[lat_rows] = _solve_largest(
            *lat, -p.a_lat_limit, p.a_lat_limit,
            lat_ok | (relaxed | (both_safe & g.other_ahead))[lat_rows])

    a_lat_max = np.where(g.other_left, lat_toward_max, p.a_lat_limit)
    a_lat_min = np.where(g.other_left, -p.a_lat_limit, -lat_toward_max)
    return a_lon_max, a_lat_min, a_lat_max, danger


class BroadPhase:
    """Sufficient tests of the pair kernel over a box of rows of one agent,
    with the ego's terms computed once (see the module docstring).  ``lo``
    and ``hi`` are the per-column (x, y, v, theta) bounds of the deviations
    that perturb ``state``, as floats.  Without a ``tau`` in (0, MAX_TAU],
    nothing is free."""

    def __init__(self, ego: AgentState, params: RssParams, tau: float | None = None):
        p = self.params = params
        self.x, self.y, self.tau = ego.x, ego.y, tau
        u, q = ego.v_lon, ego.v_lat
        self.rear, self.front = _rear_lon(_nonneg(u), p), _front_lon(_nonneg(u), p)
        self.head = (_head_lat(q, p), _head_lat(-q, p))  # toward a left, a right agent
        self.timed = tau is not None and 0.0 < tau <= MAX_TAU  # NaN fails too
        if self.timed:  # the conditions at the physical limits
            self.de, ue2 = advance_speed_clamped(u, p.a_lon_limit, tau)
            self.rear2 = _rear_lon(_nonneg(ue2), p)
            b, a = p.a_lat_limit, p.a_max_accel_lat
            self.lat_ego = tuple((s * tau + 0.5 * b * tau * tau, _head_lat(s + b * tau, p))
                                 for s in (q, -q))
            self.lat_other = (a * tau, 0.5 * a * tau * tau)

    def free(self, state: AgentState, lo, hi) -> bool:
        """True if ``pair_analysis_batch`` gives every row of the box
        (a_lon_limit, -a_lat_limit, a_lat_limit, False)."""
        b = self.timed and self._bounds(state, lo, hi)
        return bool(b) and (self._lon(b, True) or self._lat(b, True))

    def unviolated(self, state: AgentState, lo, hi) -> bool:
        """True if ``violation_batch`` gives False on every row of the box."""
        b = self._bounds(state, lo, hi)
        return bool(b) and (self._lon(b, False) or self._lat(b, False))

    def _bounds(self, s, lo, hi):
        """(dx, dy, w_lon, w_lat) as (lowest, highest) over the box's rows,
        or None outside the domain."""
        (x0, y0, v0, t0), (x1, y1, v1, t1) = lo, hi
        t0, t1, v0, v1 = s.theta + t0, s.theta + t1, s.v + v0, s.v + v1
        if not (-HEADING_BOUND <= t0 <= t1 <= HEADING_BOUND and v0 <= v1 <= MAX_SPEED):
            return None  # NaN fails too
        v0, v1 = (v0 if v0 > 0.0 else 0.0), (v1 if v1 > 0.0 else 0.0)  # as the stacking clamps
        s0, s1 = math.sin(t0) - TRIG_TOL, math.sin(t1) + TRIG_TOL
        return ((s.x + x0) - self.x, (s.x + x1) - self.x,
                (s.y + y0) - self.y, (s.y + y1) - self.y,
                v0 * (math.cos(t1 if t1 > -t0 else -t0) - TRIG_TOL),  # at the largest |theta|
                v1 * (math.cos(t0 if t0 > 0.0 else -t1 if t1 < 0.0 else 0.0) + TRIG_TOL),
                (v0 if s0 >= 0.0 else v1) * s0, (v1 if s1 >= 0.0 else v0) * s1)

    def _lon(self, b, free: bool) -> bool:
        p = self.params
        dx_lo, dx_hi, _, _, w_lo, w_hi, _, _ = b
        if dx_hi < 0.0:  # behind on every row: the ego is the front vehicle
            return not free and -dx_hi - p.length >= _nonneg(_rear_lon(w_hi, p) - self.front)
        gap = dx_lo - p.length
        if not (dx_lo >= 0.0  # ahead on every row: the ego is the rear vehicle
                and gap >= _nonneg(self.rear - _front_lon(w_lo, p))):
            return False
        if not free:
            return True
        rate = p.b_max_brake_lon
        dur = min(w_lo / rate, self.tau)
        df, wf2 = w_lo * dur - 0.5 * rate * dur * dur, w_lo - rate * dur
        front = _front_lon(max(wf2, 0.0), p) - LON_SLACK
        return (gap + (df - LON_SLACK)) - self.de >= _nonneg(self.rear2 - front)

    def _lat(self, b, free: bool) -> bool:
        p = self.params
        _, _, dy_lo, dy_hi, _, _, wl_lo, wl_hi = b
        if dy_lo >= 0.0:  # left of the ego on every row
            side, gap, closing = 0, dy_lo - p.width, -wl_lo
        elif dy_hi < 0.0:
            side, gap, closing = 1, -dy_hi - p.width, wl_hi
        else:
            return False
        travel, braking = _side_lat(max(closing, 0.0), p)
        if not (gap >= self.head[side] + travel + braking):
            return False
        if not free:
            return True
        travel, braking = _side_lat(max(closing + self.lat_other[0], 0.0), p)
        ego_travel, ego_head = self.lat_ego[side]
        return (gap - (closing * self.tau + self.lat_other[1]) - ego_travel
                >= ego_head + travel + braking)


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
