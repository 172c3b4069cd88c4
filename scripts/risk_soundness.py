#!/usr/bin/env python3
"""Monte Carlo check of the envelope risk bound, with angular-sampling sweep.

For fixed two-agent configurations, draws true-state deviations, recomputes
the true envelope for each draw, and reports how often the applied
probabilistic envelope was less restrictive in any component.  The sweep over
n_phi shows how the finite angular sampling affects the empirical rate.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from riskenv.config import RunConfig
from riskenv.prob_envelope import (
    envelope_distribution,
    perturbed_state_arrays,
    risk_bounded_envelope,
)
from riskenv.rss import AgentState, RssParams, pairwise_envelope_batch
from riskenv.uncertainty import UncertaintySpec

CONFIGS = (
    ("following", AgentState(0, 0, 0, 17),
     (AgentState(30, 0, 0, 15.5), AgentState(45, 3.5, 0, 16))),
    ("abreast", AgentState(0, 0, 0, 17),
     (AgentState(5, 3.5, 0, 18), AgentState(50, 3.5, 0, 16))),
    ("mid-merge", AgentState(0, 1.2, 0.12, 17),
     (AgentState(8, 3.5, 0, 17.5), AgentState(-20, 3.5, 0, 19))),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--n-phi", type=int, nargs="+", default=[4, 6, 8, 12])
    parser.add_argument("--betas", type=float, nargs="+", default=[0.05, 0.2, 0.5])
    parser.add_argument("--seed", type=int, default=555)
    args = parser.parse_args()

    params = RssParams()
    cfg = RunConfig()
    base = cfg.uncertainty["small"]
    tau = cfg.tau
    n = args.samples

    print(f"{'config':<10}{'n_phi':>6}{'beta':>6} {'rate':>8} {'bound':>8}")
    for n_phi in args.n_phi:
        spec = UncertaintySpec(base.sigma, base.contour_levels, n_phi)
        basis = spec.basis
        scale = np.sqrt(basis.eigenvalues)
        rng = np.random.default_rng(args.seed)
        for name, ego, others in CONFIGS:
            true_lon = np.full(n, np.inf)
            true_lat_min = np.full(n, -np.inf)
            true_lat_max = np.full(n, np.inf)
            for o in others:
                deltas = (rng.standard_normal((n, 4)) * scale) @ basis.eigenvectors.T
                ox, oy, ov, ot = perturbed_state_arrays(o, deltas)
                lon, lat_min, lat_max = pairwise_envelope_batch(
                    ego, ox, oy, ov, ot, params, tau)
                np.minimum(true_lon, lon, out=true_lon)
                np.maximum(true_lat_min, lat_min, out=true_lat_min)
                np.minimum(true_lat_max, lat_max, out=true_lat_max)
            for beta in args.betas:
                dists = [envelope_distribution(ego, o, spec, basis, params, tau,
                                               agent_id=j)
                         for j, o in enumerate(others)]
                ep = risk_bounded_envelope(dists, beta, params)
                viol = ((true_lon < ep.a_lon_max)
                        | (true_lat_max < ep.a_lat_max)
                        | (true_lat_min > ep.a_lat_min))
                rate = float(viol.mean())
                bound = beta + 3.0 * math.sqrt(beta / n)
                print(f"{name:<10}{n_phi:>6}{beta:>6.2f} {rate:>8.4f} {bound:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
