"""Risk-bounded safety envelopes under Gaussian perception uncertainty."""

from .rss import (
    AgentState,
    Envelope,
    RssParams,
    safe_distance_lat,
    safe_distance_lon,
    safety_envelope,
    unrestricted_envelope,
)
from .uncertainty import (
    EigenBasis,
    UncertaintySpec,
    chi2_cdf_4,
    chi2_quantile_4,
    draw_noise,
    eigendecompose,
)
from .prob_envelope import (
    EnvelopeDistribution,
    envelope_distribution,
    risk_bounded_envelope,
    should_switch,
)
from .config import RunConfig, load_config

__all__ = [
    "AgentState", "Envelope", "RssParams",
    "safe_distance_lat", "safe_distance_lon", "safety_envelope",
    "unrestricted_envelope",
    "EigenBasis", "UncertaintySpec", "chi2_cdf_4", "chi2_quantile_4",
    "draw_noise", "eigendecompose",
    "EnvelopeDistribution", "envelope_distribution", "risk_bounded_envelope",
    "should_switch",
    "RunConfig", "load_config",
]

__version__ = "0.1.0"
