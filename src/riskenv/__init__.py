"""Risk-bounded safety envelopes under Gaussian perception uncertainty."""

from .rss import (
    AgentState,
    Envelope,
    RssParams,
    pairwise_envelope,
    safe_distance_lat,
    safe_distance_lon,
    safety_envelope,
    safety_violated,
    unrestricted_envelope,
    worst_of,
)
from .uncertainty import (
    EigenBasis,
    UncertaintySpec,
    chi2_cdf_4,
    chi2_quantile_4,
    draw_noise,
    eigendecompose,
    sample_contour,
)
from .prob_envelope import (
    ContourEnvelope,
    EnvelopeDistribution,
    envelope_distribution,
    risk_bounded_envelope,
    should_switch,
)
from .config import RunConfig, load_config

__all__ = [
    "AgentState", "Envelope", "RssParams", "pairwise_envelope",
    "safe_distance_lat", "safe_distance_lon", "safety_envelope",
    "safety_violated", "unrestricted_envelope", "worst_of",
    "EigenBasis", "UncertaintySpec", "chi2_cdf_4", "chi2_quantile_4",
    "draw_noise", "eigendecompose", "sample_contour",
    "ContourEnvelope", "EnvelopeDistribution", "envelope_distribution",
    "risk_bounded_envelope", "should_switch",
    "RunConfig", "load_config",
]

__version__ = "0.1.0"
