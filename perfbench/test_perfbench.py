"""Tests of the benchmark itself: repeatable counts and a gate that bites.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import OUT_DIR, import_riskenv, run_phase  # noqa: E402

riskenv = import_riskenv()

# Counts that depend only on the inputs, never on timing.
EXACT_COUNTS = ("rss.kernel.rows", "rss.advance_speed_clamped.calls",
                "uncertainty.sample_contour.rows", "uncertainty.distinct_row_frac",
                "sim.steps", "bench.contour_step_frac")
SHORT_RUN = {"sweep-contours": 12, "sweep-baselines": 20, "envelope-queries": 16}


def make(name, seed, tag):
    return workloads.make_workload(name, seed, riskenv,
                                   os.path.join(OUT_DIR, f"test-{tag}-{os.getpid()}"))


def traced_counts(name: str, seed: int, tag: str) -> dict:
    wl = make(name, seed, tag)
    tracer = tracing.Tracer(riskenv)
    tracer.install()
    try:
        ph = run_phase(wl, 0, n_ops=SHORT_RUN[name], tracer=tracer)
    finally:
        tracer.uninstall()
        wl.close()
    assert ph.failures == []
    steps = sum(ph.units) if wl.unit == "steps" else 0
    queries = sum(ph.units) if wl.unit == "queries" else 0
    m = tracing.layer_metrics(tracer, ph.ops, steps, queries, wl.contour_levels)
    return {k: m[k] for k in EXACT_COUNTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(name):
    first = traced_counts(name, 5, "a")
    second = traced_counts(name, 5, "b")
    assert first == second
    assert first["rss.kernel.rows"] > 0


def test_distinct_rows_match_the_contour_grid():
    # n_phi = 8 emits 512 rows per contour, of which 80 are distinct.
    counts = traced_counts("sweep-contours", 5, "c")
    assert counts["uncertainty.distinct_row_frac"] == pytest.approx(80 / 512)


def test_metric_lists_agree():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    wl = make("sweep-baselines", 5, "m")
    tracer = tracing.Tracer(riskenv)
    tracer.install()
    try:
        ph = run_phase(wl, 0, n_ops=2, tracer=tracer)
    finally:
        tracer.uninstall()
    names = set(tracing.layer_metrics(tracer, ph.ops, sum(ph.units), 0, wl.contour_levels))
    trace_names = {n for n in run.PER_LAYER_UNITS if n.startswith("trace.")}
    assert names | trace_names == set(run.PER_LAYER_UNITS)


def test_setup_scaling_follows_the_probes():
    import run

    ref = run.SETUP_PROBE_REFERENCE_S
    # A set-up that took twice as long next to a probe that also took twice
    # as long counts the same.
    assert run.scaled_setup([1.0, 1.2, 5.0], [ref, ref, 9.0]) == pytest.approx(1.0)
    assert run.scaled_setup([1.2, 2.0, 2.4], [ref, 2 * ref, 2 * ref]) == pytest.approx(1.2)
    assert run.time_setup_probe(time.perf_counter() + 60) > 0


def test_tracer_restores_the_library():
    before = riskenv.rss.pair_analysis_batch, riskenv.bench.Policy.__call__
    tracer = tracing.Tracer(riskenv)
    tracer.install()
    assert riskenv.prob_envelope.pair_analysis_batch is not before[0]
    tracer.uninstall()
    assert (riskenv.rss.pair_analysis_batch, riskenv.bench.Policy.__call__) == before
    assert riskenv.prob_envelope.pair_analysis_batch is before[0]


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("prob_envelope", "no_such_function", "span"),))
    monkeypatch.delattr(riskenv.uncertainty, "draw_noise", raising=True)
    monkeypatch.delattr(riskenv.sim, "draw_noise", raising=True)
    tracer = tracing.Tracer(riskenv)
    tracer.install()
    tracer.uninstall()
    assert "prob_envelope.no_such_function" not in tracer.present
    assert "uncertainty.draw_noise" not in tracer.present
    m = tracing.layer_metrics(tracer, [], 0, 0, 6)
    assert m["uncertainty.draw_noise.us_per_call"] is None


def test_gate_flags_perturbed_query_output():
    wl = make("envelope-queries", workloads.REFERENCE_SEEDS[0], "q")
    try:
        wl.stage(0)
        res = wl.run_op(0)
        assert wl.check(0, res) is None
        out = res.output

        # A nudge toward zero keeps the value within the physical limits, so
        # only the comparison with the reference can catch it.
        env = out["probabilistic_envelope"]
        saved = env["a_lon_max"]
        env["a_lon_max"] = saved - math.copysign(1e-6, saved)
        assert "reference" in wl.check(0, res)
        env["a_lon_max"] = saved
        assert wl.check(0, res) is None

        out["switch_decision"] = not out["switch_decision"]
        assert wl.check(0, res) is not None
        out["switch_decision"] = not out["switch_decision"]

        saved = out["deterministic_envelope"]["a_lat_max"]
        out["deterministic_envelope"]["a_lat_max"] = math.nan
        assert "non-finite" in wl.check(0, res)
        out["deterministic_envelope"]["a_lat_max"] = 9.0
        assert "outside" in wl.check(0, res)
        out["deterministic_envelope"]["a_lat_max"] = saved
        assert wl.check(0, res) is None
    finally:
        wl.close()


def test_gate_flags_perturbed_episode():
    wl = make("sweep-baselines", workloads.REFERENCE_SEEDS[0], "s")
    res = wl.run_op(0)
    assert wl.check(0, res) is None
    outcome, steps, env_steps, env_viol = res.output
    res.output = (outcome, steps + 1, env_steps, env_viol)
    assert "reference" in wl.check(0, res)
    res.output = ("Crashed", steps, env_steps, env_viol)
    assert "outcome" in wl.check(0, res)
    res.output = (outcome, steps, steps + 1, env_viol)
    assert "envelope counts" in wl.check(0, res)
    # Past the reference prefix only the invariants apply.
    far = workloads.REFERENCE_OPS["sweep-baselines"] + 3
    assert wl.check(far, wl.run_op(far)) is None


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT_DIR, f"test-bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "sweep-contours", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
