#!/usr/bin/env python3
"""riskenv benchmark launcher.

    python3 perfbench/run.py --workload sweep-contours --seed 7 --seconds 20 --trace 0

Runs one workload (see workloads.py) in a fresh single-threaded worker
process and prints a report followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones from a traced run.

Set-up time is measured SETUP_SAMPLES times, in separate processes that
each set up, warm up and exit, and the median is reported, because one
process start is too noisy to compare.  Each set-up process follows a run of
setup_probe.py, whose time scales that set-up to the reference machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sweep-contours", "sweep-baselines", "envelope-queries")
SETUP_SAMPLES = 7          # the measuring worker is one of them
# The machine this was built on runs set-up 1.3-1.8x slower, for minutes at a
# time, when its neighbours are busy: the median set-up time of two sets of
# runs of the same code moved by 32 %.  So a fixed set-up-like probe
# (setup_probe.py: interpreter start, numpy import, small-array work; no
# riskenv) is timed as a process of its own right before each set-up process,
# each set-up time is scaled by SETUP_PROBE_REFERENCE_S / (its probe's time),
# and the median of the scaled times is reported.
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_PROBE_REFERENCE_S = 0.25
TIME_LIMIT_S = 170.0       # the whole command must end within 180 s

# One thread per numeric library, so the numbers measure the program rather
# than the scheduler on a small shared machine.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = {
    "rss.kernel.calls": "count", "rss.kernel.rows": "count",
    "rss.kernel.us_per_row": "us", "rss.kernel.us_per_call": "us",
    "rss.advance_speed_clamped.calls": "count",
    "rss.violation_batch.rows": "count", "rss.violation_batch.us_per_row": "us",
    "rss.safety_envelope.us_per_call": "us",
    "uncertainty.sample_contour.calls": "count",
    "uncertainty.sample_contour.rows": "count",
    "uncertainty.sample_contour.us_per_row": "us",
    "uncertainty.distinct_row_frac": "ratio",
    "uncertainty.eigendecompose.us_per_call": "us",
    "uncertainty.draw_noise.us_per_call": "us",
    "prob_envelope.analyze_agent.ms_per_agent": "ms",
    "prob_envelope.geometry_evals_per_sample": "ratio",
    "prob_envelope.sample_sets_per_agent": "ratio",
    "prob_envelope.risk_bounded_envelope.us_per_call": "us",
    "sim.steps": "count",
    "sim.observe.us_per_step": "us", "sim.idm_step_others.us_per_step": "us",
    "sim.integrate_ego.us_per_step": "us", "sim.classify_outcome.us_per_step": "us",
    "sim.self_us_per_step": "us",
    "bench.policy.us_per_step": "us", "bench.contour_step_frac": "ratio",
    "bench.audit.us_per_step": "us", "bench.cell_cost_max_over_mean": "ratio",
    "config.load_config.us_per_call": "us", "cli.self_ms_per_query": "ms",
    "layer.rss.self_frac": "ratio", "layer.uncertainty.self_frac": "ratio",
    "layer.prob_envelope.self_frac": "ratio", "layer.sim.self_frac": "ratio",
    "layer.bench.self_frac": "ratio", "layer.config.self_frac": "ratio",
    "layer.cli.self_frac": "ratio", "layer.sim.self_frac.simplex_cells": "ratio",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def run_worker(args, extra, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    spawned_at = time.perf_counter()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise BenchmarkError("no time left to start a worker")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed nothing")
    return json.loads(lines[-1])


def time_setup_probe(deadline: float) -> float:
    """Wall seconds of one setup_probe.py process."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(deadline - t0, 0.1))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("set-up probe timed out") from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe exited {proc.returncode}:\n{proc.stderr.strip()}")
    return elapsed


def scaled_setup(setups: list[float], probes: list[float]) -> float:
    """Median set-up time at the reference machine speed.

    Each set-up is scaled by the probe run right before it: over 62 pairs per
    workload a probe correlated with its set-up at 0.5-0.9, and the median of
    seven scaled set-ups varied 2-4 % between groups where the raw median
    varied 12-13 %.
    """
    return statistics.median(s * SETUP_PROBE_REFERENCE_S / p for s, p in zip(setups, probes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "riskenv", "__init__.py")):
        print(f"error: no riskenv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        probes, setups = [], []
        for _ in range(SETUP_SAMPLES - 1):
            probes.append(time_setup_probe(deadline))
            setups.append(run_worker(args, ["--setup-only"], deadline))
        for s in setups:
            if s["warm_up_failure"] is not None:
                raise BenchmarkError(f"warm-up op failed: {s['warm_up_failure']}")
        probes.append(time_setup_probe(deadline))
        report = run_worker(args, [], deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [s["setup_s"] for s in setups] + [report["setup_s"]]
    report["setup_s"] = scaled_setup(setup_samples, probes)
    report["raw_setup_s"] = statistics.median(setup_samples)
    report["setup_samples_s"] = setup_samples
    report["setup_probes_s"] = probes

    if args.trace:
        metrics = {name: {"value": 0.0 if v is None else v, "unit": PER_LAYER_UNITS[name]}
                   for name, v in report["layers"].items()}
        absent = sorted(name for name, v in report["layers"].items() if v is None)
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
        absent = []
    print_report(args, report, metrics, absent)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics, "absent": absent}, fh,
                  indent=2, sort_keys=True)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def print_report(args, report, metrics, absent) -> None:
    print(f"riskenv benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("context " + json.dumps(report["context"], sort_keys=True))
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in report['setup_samples_s'])}; "
          f"probes before them (s): {', '.join(f'{s:.3f}' for s in report['setup_probes_s'])}; "
          f"raw median {report['raw_setup_s']:.4f} s, scaled to the reference machine "
          f"speed {report['setup_s']:.4f} s")
    err = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    if not args.trace:
        # Workload-level names: steps_per_s on the sweeps, queries_per_s and
        # the query latency percentiles on envelope-queries.
        rate_name = "steps_per_s" if report["unit"] == "steps" else "queries_per_s"
        op = "episode" if report["unit"] == "steps" else "query"
        rows = [
            ("setup_s", report["setup_s"], "s"),
            (rate_name, report["ops_per_s"], "1/s"),
            (f"{op}_ms_p50", report["op_ms_p50"], "ms"),
            (f"{op}_ms_p99", report["op_ms_p99"], "ms"),
            ("peak_rss_mb", report["peak_rss_mb"], "MB"),
            ("error_frac", err, "ratio"),
        ]
        for name, value, unit in rows:
            print(f"  {name:<28} {value:>14.6g} {unit}")
        print(f"  ({report['attempted']} ops, {report['units']} {report['unit']} in "
              f"{report['busy_s']:.3f} s of op time.  Rates and latencies are scaled to "
              f"the reference machine speed; the median probe took "
              f"{report['probe_median_s'] * 1e3:.3f} ms and the raw rate was "
              f"{report['raw_ops_per_s']:.6g}/s)")
    else:
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        print(f"  error_frac {err:.6g} ({report['failed']}/{report['attempted']}); "
              f"{report['spans']} spans")
        if absent:
            print(f"  absent or idle in this workload (reported as 0): {', '.join(absent)}")
        if report["missing_targets"]:
            print(f"  traced functions not found: {', '.join(report['missing_targets'])}")
    for why in report["failures"]:
        print(f"  FAILED {why}")


if __name__ == "__main__":
    sys.exit(main())
