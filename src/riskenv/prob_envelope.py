"""Risk-bounded envelopes over uncertain observations.

The contour samples of a covariance are built once
(``uncertainty.contour_samples``): the deviations on every confidence
contour, stacked, with each contour carrying mass p_k - p_{k-1}.  One pass
of the pair kernel over the perturbed states of several agents
(``analyze_step``) yields each agent's discrete distribution of worst-case
envelopes, one per contour, and its violation expectation; the mass outside
the outermost contour goes to a most-restrictive sentinel and counts as
violated, so that mass never understates risk.  The claim covers only the
residual mass: contour k's envelope is the worst case over the angle grid's
points on the k-th ellipsoid, sampled, not certified.  A state inside the
ellipsoid can get a more restrictive envelope where a smooth bound peaks
between grid points, or where a row that every grid point leaves relaxed
becomes restricted between them.  At zero covariance
(``EXACT_SAMPLES``) the same pass gives each agent's deterministic envelope
and violation flag.  The Simplex family's ``mean_violations`` take the same
(state, SampleSet) pairs: all the stacking of agents into kernel rows is
here.  The combined envelope is solved component-wise so that the
probability of the true envelope being strictly more restrictive stays
below the requested risk level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .rss import (
    AgentState,
    BroadPhase,
    COMPONENTS,
    ConfigError,
    Envelope,
    RssParams,
    pair_analysis_batch,
    real,
    restrictive_sentinel,
    unrestricted_envelope,
    violation_batch,
    wrap_angle,
)
from .uncertainty import (
    EXACT_SAMPLES,
    EigenBasis,
    SampleSet,
    UncertaintySpec,
    contour_samples,
)

MASS_TOL = 1e-12


@dataclass(frozen=True)
class EnvelopeDistribution:
    """Discrete distribution over worst-case envelopes for one agent.

    Contour k carries mass ``masses[k]`` (p_k - p_{k-1}) and worst-case
    envelope ``envelopes[k]``; the residual mass (beyond the outermost
    contour) maps to the sentinel.
    """

    agent_id: int
    masses: tuple[float, ...]
    envelopes: tuple[Envelope, ...]
    residual_mass: float

    def __post_init__(self):
        if len(self.masses) != len(self.envelopes):
            raise ValueError(f"{len(self.masses)} masses for "
                             f"{len(self.envelopes)} envelopes")
        total = sum(self.masses) + self.residual_mass
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"envelope distribution mass is {total}, expected 1")
        if self.residual_mass < 0.0:
            raise ValueError("residual mass must be >= 0")


def perturbed_state_arrays(obs: AgentState, deviations: np.ndarray):
    """``stacked_states`` of one observed state and its (n, 4) deviations."""
    return stacked_states([(obs, deviations)])


# Most kernel rows in one pass of analyze_step: consecutive agents share a
# pass up to this many rows, which keeps the kernel's temporaries small.
ROW_BUDGET = 4096


def stacked_states(pairs):
    """(x, y, v, theta) arrays of each state plus its (n, 4) deviations, stacked
    in pair order, with speeds clamped at 0 and headings wrapped."""
    states, devs = zip(*pairs)
    d = np.concatenate(devs)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError(f"deviations must have shape (n, 4), got {d.shape}")
    table = np.array([(s.x, s.y, s.v, s.theta) for s in states], dtype=float)
    p = np.repeat(table, [len(x) for x in devs], axis=0)
    p += d
    return p[:, 0], p[:, 1], np.maximum(p[:, 2], 0.0), wrap_angle(p[:, 3])


def analyze_step(ego: AgentState, observed, samples: SampleSet, exact, params: RssParams,
                 tau: float):
    """Everything one decision needs, from one stacked analysis of all the
    agents: the distribution (agent_id = its index) and violation expectation
    of each ``observed`` agent under ``samples``, a ``SampleSet`` as
    ``contour_samples`` returns it, and the worst-case envelope of the
    ``exact`` agents at zero covariance (the unrestricted envelope when there
    are none), from the same contours if ``exact is observed`` and samples is
    EXACT_SAMPLES.

    The perturbed states of consecutive agents share one kernel pass of at
    most ``ROW_BUDGET`` rows (an agent with more rows runs alone).  A contour
    counts as violated if any of its perturbed states breaks both safe
    distances; the residual mass counts as violated.
    """
    if min(samples[2]) < 1:
        raise ValueError("every contour needs at least one sample")
    once = exact is observed and samples is EXACT_SAMPLES
    agents = [(s, samples) for s in observed]
    agents += [] if once else [(s, EXACT_SAMPLES) for s in exact]
    contours = _contours(ego, agents, params, tau)
    levels, masses = samples[0], samples.masses
    dists, expectations = [], []
    for j in range(len(observed)):
        own = contours[j * len(levels):(j + 1) * len(levels)]
        expectation = 1.0 - levels[-1]
        for mass, (_, _, _, hit) in zip(masses, own):
            if hit:
                expectation += mass
        dists.append(EnvelopeDistribution(
            j, masses, tuple(Envelope(-params.a_lon_limit, *c[:3]) for c in own),
            1.0 - levels[-1]))
        expectations.append(expectation)
    # Each exact agent has one contour, after those of the observed agents or,
    # once, its own; the worst case is the component-wise most restrictive one.
    tail = contours if once else contours[len(observed) * len(levels):]
    if not tail:
        return dists, expectations, unrestricted_envelope(params)
    lon_max, lat_min, lat_max, _ = zip(*tail)
    return dists, expectations, Envelope(-params.a_lon_limit, min(lon_max), max(lat_min),
                                         min(lat_max))


def _contours(ego, agents, params, tau):
    """(a_lon_max, a_lat_min, a_lat_max, violated) of every contour of
    ``agents``, (state, samples) pairs, in stacking order, each the worst case
    over the contour's perturbed states.  Contours that ``BroadPhase`` finds
    free get the kernel's unrestricted contours without rows: all of an
    agent's if its whole box is, else its leading ones, each tried with the
    box of it and the inner contours, from the innermost up to the first
    that is not free (the outermost's box is the whole box).  The remaining
    rows share passes of at most ``ROW_BUDGET`` rows."""
    lon, lat = params.a_lon_limit, params.a_lat_limit
    broad = BroadPhase(ego, params, tau)
    out, analysed, chunk, rows = [], [], [], 0
    for state, samples in agents:
        levels, deviations, counts = samples
        if broad.free(state, *samples.box):
            out += [(lon, -lat, lat, False)] * len(counts)
            continue
        free = 0
        while free < len(counts) - 1 and broad.free(state, *samples.boxes[free]):
            free += 1
        if free:  # the kernel analyses the contours left
            out += [(lon, -lat, lat, False)] * free
            samples = levels[free:], deviations[sum(counts[:free]):], counts[free:]
        out += [None] * len(samples[2])
        if chunk and rows + samples[1].shape[0] > ROW_BUDGET:
            analysed += _analyze_pass(ego, chunk, params, tau)
            chunk, rows = [], 0
        chunk.append((state, samples))
        rows += samples[1].shape[0]
    analysed = iter(analysed + (_analyze_pass(ego, chunk, params, tau) if chunk else []))
    return [c or next(analysed) for c in out]


def _analyze_pass(ego, agents, params, tau):
    counts = [m for _, (_, _, agent_counts) in agents for m in agent_counts]
    ox, oy, ov, ot = stacked_states((state, samples[1]) for state, samples in agents)
    lon_max, lat_min, lat_max, violated = pair_analysis_batch(
        ego, ox, oy, ov, ot, params, tau)
    if len(counts) == len(ox):  # one row per contour: the rows are the contours
        return list(zip(lon_max.tolist(), lat_min.tolist(), lat_max.tolist(),
                        violated.tolist()))
    starts = np.array([0, *accumulate(counts[:-1])])  # each contour's first row
    return list(zip(np.minimum.reduceat(lon_max, starts).tolist(),
                    np.maximum.reduceat(lat_min, starts).tolist(),
                    np.minimum.reduceat(lat_max, starts).tolist(),
                    np.logical_or.reduceat(violated, starts).tolist()))


def mean_violations(ego: AgentState, agents, params: RssParams) -> np.ndarray:
    """Each agent's mean violation over its samples' rows, for (state,
    samples) pairs as ``_contours`` takes them.  Agents that ``BroadPhase``
    finds unviolated get 0.0 without rows; the others share one
    ``violation_batch`` call."""
    broad = BroadPhase(ego, params)
    rest = [j for j, (state, samples) in enumerate(agents)
            if not broad.unviolated(state, *samples.box)]
    means = np.zeros(len(agents))
    if rest:
        pairs = [(agents[j][0], agents[j][1][1]) for j in rest]
        sizes = [len(deviations) for _, deviations in pairs]
        starts = [0, *accumulate(sizes[:-1])]  # each agent's first row
        violated = violation_batch(ego, *stacked_states(pairs), params)
        means[rest] = np.add.reduceat(violated, starts, dtype=float) / sizes
    return means


def envelope_distribution(ego: AgentState, obs: AgentState, spec: UncertaintySpec,
                          basis: EigenBasis, params: RssParams, tau: float,
                          agent_id: int = 0) -> EnvelopeDistribution:
    """Per-agent random envelope over the confidence contours."""
    [dist], _, _ = analyze_step(ego, [obs], contour_samples(basis, spec), (), params, tau)
    return replace(dist, agent_id=agent_id)


def check_beta(beta: float, where: str = "beta") -> float:
    """``beta`` as a float (``real``) if it is a risk level in [0, 1]; errors name ``where``."""
    beta = real(where, beta)
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"{where} {beta} outside [0, 1]")
    return beta


def risk_bounded_envelope(distributions, beta: float, params: RssParams) -> Envelope:
    """Least restrictive envelope whose probability of being less restrictive
    than the combined worst-case envelope stays within ``beta``.

    Solved per component: walk candidate values from most to least
    restrictive, accumulating per-agent mass strictly more restrictive than
    the candidate; the combined probability 1 - prod_j(1 - P_j) must not
    exceed beta.  With no distributions, the unrestricted envelope.

    Two cases close without the walk, with its bits.  Point masses (every
    agent has masses (1.0,) and no residual) give the component-wise most
    restrictive envelope: the walk stops at its first candidate, where some
    agent holds mass 1, and, as ``min`` and ``max``, keeps the first of equal
    values in agent order.  A component where every contour of every agent
    holds one value v0, with the sentinel sorting before it, gives v0 if
    1 - prod_j(1 - r_j) <= beta (and the product is positive), else the
    sentinel: the walk's one step discards exactly the residual masses r_j.
    """
    check_beta(beta)
    distributions = list(distributions)
    if not distributions:
        return unrestricted_envelope(params)
    if all(d.masses == (1.0,) and d.residual_mass == 0.0 for d in distributions):
        lon_min, lon_max, lat_min, lat_max = zip(*(d.envelopes[0] for d in distributions))
        return Envelope(max(lon_min), min(lon_max), max(lat_min), min(lat_max))
    sentinel = restrictive_sentinel(params)
    inside = math.prod([1.0 - d.residual_mass for d in distributions])  # in agent order
    columns = [tuple(zip(*d.envelopes)) or ((),) * len(COMPONENTS) for d in distributions]
    values = []
    for k, (_, orientation) in enumerate(COMPONENTS):
        shared = {v for agent in columns for v in agent[k]}  # keeps the first of equal values
        if len(shared) == 1 and orientation * sentinel[k] < orientation * (v0 := min(shared)):
            values.append(v0 if 1.0 - inside <= beta and inside > 0.0 else sentinel[k])
            continue
        component = []  # each agent's value -> mass
        for dist, agent in zip(distributions, columns):
            support = {sentinel[k]: dist.residual_mass} if dist.residual_mass > 0.0 else {}
            for mass, v in zip(dist.masses, agent[k]):
                support[v] = support.get(v, 0.0) + mass
            component.append(support)
        candidates = sorted({v for s in component for v in s}, reverse=orientation < 0.0)
        best, cum = candidates[0], [0.0] * len(component)
        for prev, v in zip(candidates, candidates[1:]):  # nothing to discard before the first
            cum = [c + s.get(prev, 0.0) for c, s in zip(cum, component)]
            survive = math.prod([1.0 - c for c in cum])  # multiplied in agent order
            # Mass that is certain to be more restrictive is never discarded,
            # so beta = 1 still respects any agent's full support.
            if not (1.0 - survive <= beta and survive > 0.0):
                break
            best = v
        values.append(best)
    return Envelope(*values)


def should_switch(expectations, beta: float) -> bool:
    """Probabilistic switch: some agent's expected violation strictly exceeds
    beta, once ``check_beta`` accepts it."""
    beta = check_beta(beta)
    return any(e > beta for e in expectations)
