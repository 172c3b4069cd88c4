"""Risk-bounded envelopes over uncertain observations.

The contour samples of a covariance are built once (``contour_samples``):
the deviations on every confidence contour, stacked, with each contour
carrying mass p_k - p_{k-1}.  One pass of the pair kernel over an agent's
perturbed states (``analyze_agent``) yields both its discrete distribution
of worst-case envelopes, one per contour, and its violation expectation; the
mass outside the outermost contour goes to a most-restrictive sentinel and
counts as violated, so risk is never understated.  The combined envelope is
solved component-wise so that the probability of the true envelope being
strictly more restrictive stays below the requested risk level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_beta
from .rss import (
    AgentState,
    COMPONENTS,
    Envelope,
    RssParams,
    pair_analysis_batch,
    restrictive_sentinel,
    wrap_angle,
)
from .uncertainty import EigenBasis, UncertaintySpec, sample_contour

MASS_TOL = 1e-12


@dataclass(frozen=True)
class ContourEnvelope:
    """Worst-case envelope over one confidence contour of one agent."""

    agent_id: int
    contour_index: int
    probability_mass: float  # p_k - p_{k-1}
    envelope: Envelope


@dataclass(frozen=True)
class EnvelopeDistribution:
    """Discrete distribution over worst-case envelopes for one agent.

    The residual mass (beyond the outermost contour) maps to the sentinel.
    """

    agent_id: int
    entries: tuple[ContourEnvelope, ...]
    residual_mass: float

    def __post_init__(self):
        total = sum(e.probability_mass for e in self.entries) + self.residual_mass
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"envelope distribution mass is {total}, expected 1")
        if self.residual_mass < 0.0:
            raise ValueError("residual mass must be >= 0")


def perturbed_state_arrays(obs: AgentState, deviations: np.ndarray):
    """Observed state plus deviations, with speeds clamped at 0 and headings
    wrapped.  ``deviations`` is an (n, 4) array of (dx, dy, dv, dtheta)."""
    d = np.asarray(deviations, dtype=float)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError(f"deviations must have shape (n, 4), got {d.shape}")
    ox = obs.x + d[:, 0]
    oy = obs.y + d[:, 1]
    ov = np.maximum(obs.v + d[:, 2], 0.0)
    ot = wrap_angle(obs.theta + d[:, 3])
    return ox, oy, ov, ot


def contour_samples(basis: EigenBasis, spec: UncertaintySpec):
    """Deviation samples of every contour, built once per covariance.

    Returns (levels, deviations, counts): the contour levels, the stacked
    (n, 4) deviations of all contours in level order, and the number of rows
    of each contour.  Each contour holds the distinct points of the angle
    grid (``sample_contour``), the same unit directions scaled to its
    radius, so no point is evaluated twice.  Zero covariance collapses every
    contour onto the observation itself: one zero deviation carrying all the
    mass, so the sentinel is bypassed and the expectation is the plain
    violation indicator.
    """
    if basis.max_eigenvalue <= 0.0:
        return (1.0,), np.zeros((1, 4)), (1,)
    sets = [sample_contour(basis, p, spec.n_phi) for p in spec.contour_levels]
    return spec.contour_levels, np.concatenate(sets), tuple(d.shape[0] for d in sets)


def analyze_agent(ego: AgentState, obs: AgentState, samples, params: RssParams,
                  tau: float, agent_id: int = 0) -> tuple[EnvelopeDistribution, float]:
    """Envelope distribution and violation expectation of one agent in a
    single pass over the contour samples of ``contour_samples``.

    A contour counts as violated if any of its perturbed states breaks both
    safe distances; the residual mass counts as violated.
    """
    levels, deviations, counts = samples
    ox, oy, ov, ot = perturbed_state_arrays(obs, deviations)
    lon_max, lat_min, lat_max, violated = pair_analysis_batch(
        ego, ox, oy, ov, ot, params, tau)
    entries = []
    expectation = 1.0 - levels[-1]
    prev = 0.0
    start = 0
    for k, (p_k, m) in enumerate(zip(levels, counts)):
        sl = slice(start, start + m)
        start += m
        env = Envelope(-params.a_lon_limit, float(lon_max[sl].min()),
                       float(lat_min[sl].max()), float(lat_max[sl].min()))
        entries.append(ContourEnvelope(agent_id, k, p_k - prev, env))
        if violated[sl].any():
            expectation += p_k - prev
        prev = p_k
    return EnvelopeDistribution(agent_id, tuple(entries), 1.0 - prev), expectation


def envelope_distribution(ego: AgentState, obs: AgentState, spec: UncertaintySpec,
                          basis: EigenBasis, params: RssParams, tau: float,
                          agent_id: int = 0) -> EnvelopeDistribution:
    """Per-agent random envelope over the confidence contours."""
    return analyze_agent(ego, obs, contour_samples(basis, spec), params, tau,
                         agent_id=agent_id)[0]


def risk_bounded_envelope(distributions, beta: float, params: RssParams) -> Envelope:
    """Least restrictive envelope whose probability of being less restrictive
    than the combined worst-case envelope stays within ``beta``.

    Solved per component: walk candidate values from most to least
    restrictive, accumulating per-agent mass strictly more restrictive than
    the candidate; the combined probability 1 - prod_j(1 - P_j) must not
    exceed beta.
    """
    distributions = list(distributions)
    if not distributions:
        raise ValueError("at least one envelope distribution is required")
    check_beta(beta)
    sentinel = restrictive_sentinel(params)
    values = {}
    for name, orientation in COMPONENTS:
        # Per-agent support: value -> mass, including the sentinel residual.
        supports = []
        for dist in distributions:
            support: dict[float, float] = {}
            if dist.residual_mass > 0.0:
                support[getattr(sentinel, name)] = dist.residual_mass
            for entry in dist.entries:
                v = getattr(entry.envelope, name)
                support[v] = support.get(v, 0.0) + entry.probability_mass
            supports.append(support)
        candidates = sorted({v for s in supports for v in s},
                            key=lambda v: orientation * v)
        cum = [0.0] * len(supports)
        best = candidates[0]
        for v in candidates:
            survive = 1.0
            for c in cum:
                survive *= 1.0 - c
            # Mass that is certain to be more restrictive is never discarded,
            # so beta = 1 still respects any agent's full support.
            if 1.0 - survive <= beta and survive > 0.0:
                best = v
            else:
                break
            for j, s in enumerate(supports):
                cum[j] += s.get(v, 0.0)
        values[name] = best
    return Envelope(**values)


def agent_analyses(ego: AgentState, observations, samples, params: RssParams,
                   tau: float):
    """analyze_agent over a list of observed agents, one kernel call each;
    returns (distributions, expectations)."""
    dists = []
    expectations = []
    for j, obs in enumerate(observations):
        dist, exp = analyze_agent(ego, obs, samples, params, tau, agent_id=j)
        dists.append(dist)
        expectations.append(exp)
    return dists, expectations


def should_switch(expectations, beta: float) -> bool:
    """Probabilistic switch: some agent's expected violation strictly exceeds beta."""
    return any(e > beta for e in expectations)
