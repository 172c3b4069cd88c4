"""One workload process: set up, warm up, measure, check, report.

Started by run.py with the thread counts of the numeric libraries pinned to
1.  It prints its report and, as its last line, one JSON object that run.py
reads.  With ``--setup-only`` it stops after the warm-up op and reports only
its set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from run import THREAD_PINS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def import_riskenv():
    """riskenv from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import riskenv
    from riskenv import bench, cli, config, prob_envelope, rss, sim, uncertainty  # noqa: F401
    if os.path.dirname(os.path.dirname(os.path.abspath(riskenv.__file__))) != SRC:
        raise ImportError(f"riskenv resolved to {riskenv.__file__}, not under {SRC}")
    return riskenv


def run_context(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "riskenv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINS},
        "machine": platform.machine(),
    }


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolated percentile of an ascending list, q in [0, 1]."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


# The machine this was built on runs 1.5-1.8x slower, for seconds to whole
# runs at a time, when its neighbours are busy; raw steps/s moved ~20 %
# between runs.  So a short fixed probe, independent of the program, is
# timed before every op, and each op's latency is scaled by
# PROBE_REFERENCE_S / (median probe time of the PROBE_WINDOW ops around it).
# The rates are then those of a machine on which the probe takes
# PROBE_REFERENCE_S (this machine uncontended); the raw rates are reported
# beside them.  Scaling cut the spread of five runs from 18-21 % to 6-11 %.
# Set-up time is scaled by run.py instead: probes taken here, after set-up,
# did not track the contention during it.
PROBE_REFERENCE_S = 3.0e-4
PROBE_WINDOW = 21
_PROBE_X = np.linspace(0.0, 1.0, 64)


def probe_machine() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(600):
        s += i * 0.5
    y = _PROBE_X
    for _ in range(80):
        y = np.where(y > 0.5, np.sqrt(y + 1.0), y * 1.01)
    return time.perf_counter() - t0


class Phase:
    """Latencies, units and failures of one pass over the op stream."""

    def __init__(self):
        self.latencies: list[float] = []
        self.units: list[int] = []
        self.probes: list[float] = []   # one before each op and one after the last
        self.failures: list[str] = []
        self.outputs: list = []
        self.ops: list = []    # (cell, latency, first span, end span) when traced

    def scaled_latencies(self) -> list[float]:
        """Op latencies at the reference machine speed."""
        half = PROBE_WINDOW // 2
        out = []
        for k, lat in enumerate(self.latencies):
            window = sorted(self.probes[max(0, k - half):k + half + 2])
            out.append(lat * PROBE_REFERENCE_S / window[len(window) // 2])
        return out

    def rate(self) -> float:
        """Units per second of op time, at the reference machine speed."""
        busy = sum(self.scaled_latencies())
        return sum(self.units) / busy if busy > 0 else 0.0

    def raw_rate(self) -> float:
        busy = sum(self.latencies)
        return sum(self.units) / busy if busy > 0 else 0.0


def run_phase(wl, start: int, *, deadline: float | None = None,
              n_ops: int | None = None, tracer=None, expect=None) -> Phase:
    """Run ops start, start+1, ... until the deadline passes or n_ops ran.

    Only the op itself is timed; staging its input and the correctness
    check run between ops.
    With ``expect``, the outputs of an earlier phase over the same ops, an
    op whose output differs from its earlier run fails: runs must be
    deterministic.
    """
    ph = Phase()
    perf = time.perf_counter
    k = start
    while True:
        ph.probes.append(probe_machine())
        if n_ops is not None and len(ph.latencies) >= n_ops:
            break
        if deadline is not None and perf() >= deadline:
            break
        wl.stage(k)
        first = len(tracer.spans) if tracer is not None else 0
        t0 = perf()
        res = wl.run_op(k)
        t1 = perf()
        ph.latencies.append(t1 - t0)
        ph.units.append(res.units)
        if tracer is not None:
            ph.ops.append((wl.cell_of(k), t1 - t0, first, len(tracer.spans)))
        why = wl.check(k, res)
        i = k - start
        if why is None and expect is not None and res.output != expect[i]:
            why = f"op {k}: output differs from an earlier run of the same op"
        if why is not None:
            ph.failures.append(why)
        if expect is None:
            ph.outputs.append(res.output)
        k += 1
    return ph


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter reading of the launcher at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    riskenv = import_riskenv()
    sys.path.insert(0, HERE)
    import workloads

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.make_workload(args.workload, args.seed, riskenv, work_dir)
    try:
        warm = wl.warm_up()
        warm_failure = wl.check(wl.op_count() - 1, warm)
        setup_s = time.perf_counter() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "warm_up_failure": warm_failure}))
            return 0
        report = measure(wl, args, riskenv)
    finally:
        wl.close()
    report["setup_s"] = setup_s
    if warm_failure is not None:
        report["failures"].insert(0, f"warm-up: {warm_failure}")
        report["attempted"] += 1
        report["failed"] += 1
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["context"] = run_context(args.workload, args.seed)
    print(json.dumps(report))
    return 0


def measure(wl, args, riskenv) -> dict:
    perf = time.perf_counter
    if not args.trace:
        ph = run_phase(wl, 0, deadline=perf() + args.seconds)
        lat = sorted(ph.scaled_latencies())
        return {
            "attempted": len(lat), "failed": len(ph.failures),
            "failures": ph.failures[:20], "unit": wl.unit,
            "ops_per_s": ph.rate(), "raw_ops_per_s": ph.raw_rate(),
            "units": sum(ph.units), "busy_s": sum(ph.latencies),
            "probe_median_s": statistics.median(ph.probes),
            "op_ms_p50": percentile(lat, 0.5) * 1e3,
            "op_ms_p99": percentile(lat, 0.99) * 1e3,
        }

    # Traced run: the first half of the budget runs untraced, then the same
    # ops run again traced, so the two rates differ only by the tracing.
    import tracing

    plain = run_phase(wl, 0, deadline=perf() + args.seconds / 2.0)
    tracer = tracing.Tracer(riskenv)
    tracer.install()
    try:
        traced = run_phase(wl, 0, n_ops=len(plain.latencies), tracer=tracer,
                           expect=plain.outputs)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
    steps = sum(traced.units) if wl.unit == "steps" else 0
    queries = sum(traced.units) if wl.unit == "queries" else 0
    layers = tracing.layer_metrics(tracer, traced.ops, steps, queries, wl.contour_levels)
    layers["trace.untraced_ops_per_s"] = plain.rate()
    layers["trace.traced_ops_per_s"] = traced.rate()
    layers["trace.overhead_frac"] = 1.0 - traced.rate() / plain.rate()
    missing = sorted({f"{m}.{p}" for m, p, _ in tracing.TARGETS} - tracer.present)
    failures = plain.failures + traced.failures
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": len(failures), "failures": failures[:20], "unit": wl.unit,
        "layers": layers, "missing_targets": missing, "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
