"""Command-line interface.

Subcommands: ``envelope`` (one-shot envelope computation from a JSON state
file), ``simulate`` (one episode with a JSON-lines trace), ``benchmark``
(full rate sweep to CSV + JSON) and ``validate`` (config check).

Exit codes: 0 success, 1 runtime error, 2 usage or configuration error.
The RISKENV_LOG environment variable ({error, info, debug}) sets verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import multiprocessing
import os
import sys
from pathlib import Path

from . import bench
from .config import (
    COVARIANCE_CASES,
    POLICY_NAMES,
    ConfigError,
    check_beta,
    envelope_input,
    load_config,
    read_json,
)
from .prob_envelope import (
    agent_analyses,
    contour_samples,
    risk_bounded_envelope,
    should_switch,
)
from .rss import safety_envelope, unrestricted_envelope
from .uncertainty import eigendecompose

log = logging.getLogger("riskenv")

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _setup_logging() -> None:
    level = os.environ.get("RISKENV_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _envelope_dict(env) -> dict:
    return {"a_lon_min": env.a_lon_min, "a_lon_max": env.a_lon_max,
            "a_lat_min": env.a_lat_min, "a_lat_max": env.a_lat_max}


def cmd_envelope(args) -> int:
    cfg = load_config(args.config)
    ego, agents, spec, beta, tau = envelope_input(read_json(args.input), cfg, args.beta)
    basis = eigendecompose(spec.sigma)
    det_env = safety_envelope(ego, agents, cfg.rss, tau)
    if agents:
        dists, expectations = agent_analyses(ego, agents, contour_samples(basis, spec),
                                             cfg.rss, tau)
        prob_env = risk_bounded_envelope(dists, beta, cfg.rss)
    else:
        prob_env = unrestricted_envelope(cfg.rss)
        expectations = []
    out = {
        "deterministic_envelope": _envelope_dict(det_env),
        "probabilistic_envelope": _envelope_dict(prob_env),
        "per_agent_violation_expectation": expectations,
        "switch_decision": should_switch(expectations, beta),
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _record_to_json(rec) -> dict:
    def state(s):
        return {"x": s.x, "y": s.y, "theta": s.theta, "v": s.v}

    return {
        "t": rec.t,
        "ego": state(rec.ego),
        "obs": [state(s) for s in rec.observations],
        "envelope": None if rec.envelope is None else _envelope_dict(rec.envelope),
        "cmd": {"a_lon": rec.a_lon, "a_lat": rec.a_lat},
        "mode": rec.mode,
        "flags": {"collision": rec.collision, "success": rec.success,
                  "env_violated": rec.env_violated},
    }


def cmd_simulate(args) -> int:
    check_beta(args.beta)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    scenarios = bench.generate_scenarios(cfg.scenario.n_scenarios, cfg.seed, cfg)
    if not (0 <= args.scenario < len(scenarios)):
        raise ConfigError(f"scenario index {args.scenario} outside "
                          f"[0, {len(scenarios) - 1}]")
    result = bench.run_episode(scenarios[args.scenario], args.policy, args.beta,
                               args.covariance, cfg, collect_trace=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / (f"trace_{args.policy}_{args.covariance}"
                            f"_beta{args.beta}_s{args.scenario}.jsonl")
    with open(trace_path, "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(_record_to_json(rec), sort_keys=True))
            fh.write("\n")
    print(f"{result.outcome} steps={result.steps} trace={trace_path}")
    return 0


def cmd_benchmark(args) -> int:
    overrides = {"seed": args.seed, "policies": args.policies, "betas": args.betas}
    cfg = dataclasses.replace(load_config(args.config),
                              **{k: v for k, v in overrides.items() if v is not None})
    cases = [args.covariance] if args.covariance else list(COVARIANCE_CASES)
    scenarios = bench.generate_scenarios(cfg.scenario.n_scenarios, cfg.seed, cfg)
    log.info("benchmark: %d scenarios, %d policies, %d cases, %d betas",
             len(scenarios), len(cfg.policies), len(cases), len(cfg.betas))
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            rows = bench.sweep(scenarios, cfg.policies, cases, cfg.betas, cfg, pool=pool)
    else:
        rows = bench.sweep(scenarios, cfg.policies, cases, cfg.betas, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "rates.csv"
    json_path = out_dir / "results.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(bench.rows_to_csv(rows))
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(bench.rows_to_json(rows), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(args) -> int:
    load_config(args.config)
    print("config ok")
    return 0


def risk_levels(text: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list; RunConfig checks their range."""
    return tuple(float(b) for b in text.split(","))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="riskenv",
        description="Risk-bounded safety envelopes and the 2-lane highway benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="compute envelopes for one observed state")
    p.add_argument("--input", required=True, help="JSON file: ego, agents, sigma, beta")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--beta", type=float, default=0.1,
                   help="risk level when the input file has none")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("simulate", help="run one episode and write its trace")
    p.add_argument("--config", default=None)
    p.add_argument("--scenario", type=int, default=0, help="scenario index")
    p.add_argument("--policy", default="ProbabilisticEnvelopeRestriction",
                   choices=POLICY_NAMES)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--covariance", default="small", choices=COVARIANCE_CASES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="run the full rate sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="results")
    p.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policies", type=lambda text: tuple(text.split(",")),
                   default=None, help="comma-separated policy names")
    p.add_argument("--betas", type=risk_levels, default=None,
                   help="comma-separated risk levels")
    p.add_argument("--covariance", default=None, choices=COVARIANCE_CASES,
                   help="restrict to one covariance case")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
