#!/usr/bin/env python3
"""Run the full four-policy benchmark and print the headline rates.

Equivalent to `riskenv benchmark` plus a compact console table; use --quick
for a 20-scenario smoke run.  The sha256 of the written rates.csv is printed
so that two versions of the program can be checked for identical rates.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from riskenv import bench
from riskenv.config import COVARIANCE_CASES, RunConfig, load_config

QUICK_SCENARIOS = 20


def rates(cfg: RunConfig, n: int = QUICK_SCENARIOS) -> list[bench.RateRow]:
    """The benchmark's rate rows: n scenarios (the quick sweep's 20 by
    default) x cfg.policies x every covariance case x cfg.betas."""
    scenarios = bench.generate_scenarios(n, cfg.seed, cfg)
    return bench.sweep(scenarios, list(COVARIANCE_CASES), cfg)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="results")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SCENARIOS} scenarios instead of the configured count")
    args = parser.parse_args()

    cfg = load_config(args.config)
    n = QUICK_SCENARIOS if args.quick else cfg.scenario.n_scenarios
    rows = rates(cfg, n)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "rates.csv"
    csv_path.write_text(bench.rows_to_csv(rows))
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    print(f"wrote {csv_path} ({len(rows)} cells, {n} scenarios each)")
    print(f"sha256 {digest}  {csv_path}\n")

    print(f"{'policy':<34}{'case':<7}{'beta':>5} {'succ':>6} {'coll':>6} {'tout':>6}")
    for r in rows:
        print(f"{r.policy:<34}{r.covariance_case:<7}{r.beta:>5.2f} "
              f"{r.success_rate:>6.2f} {r.collision_rate:>6.2f} "
              f"{r.timeout_rate:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
