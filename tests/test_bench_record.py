import importlib.util
import itertools
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_parent_commit_is_never_null(tmp_path):
    # A parent that is no git checkout (a `git archive` copy) needs the
    # commit given; record() refuses before it reads any result.
    with pytest.raises(SystemExit, match="--parent-commit"):
        bench_record.record(tmp_path, tmp_path, "title", 30.0)


def test_quick_sweeps_alternate_and_agree(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = []

    def quick_sweep(checkout):
        runs.append(checkout.name)
        return float(len(runs)), f"{checkout.name}-digest"

    monkeypatch.setattr(bench_record, "quick_sweep", quick_sweep)
    assert bench_record.SWEEP_PAIRS == 3
    rec = bench_record.quick_sweeps(parent, change)
    assert runs == ["parent", "change", "change", "parent", "parent", "change"]
    assert rec["quick_sweep_sha256"] == {"parent": "parent-digest", "change": "change-digest"}
    assert rec["quick_sweep_identical"] is False
    assert rec["quick_sweep_wall_s"]["parent"] == [1.0, 4.0, 5.0]
    assert rec["quick_sweep_wall_s"]["change"] == [2.0, 3.0, 6.0]
    digests = itertools.count()  # each run of a side gives another digest
    monkeypatch.setattr(bench_record, "quick_sweep", lambda checkout: (1.0, str(next(digests))))
    with pytest.raises(SystemExit, match="vary"):
        bench_record.quick_sweeps(parent, change)


def test_quick_sweeps_identical_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "quick_sweep", lambda checkout: (1.0, "digest"))
    rec = bench_record.quick_sweeps(tmp_path / "parent", tmp_path / "change")
    assert rec["quick_sweep_sha256"] == {"parent": "digest", "change": "digest"}
    assert rec["quick_sweep_identical"] is True


def test_traced_counts_span_calls_per_step(tmp_path):
    dump = tmp_path / ".perfbench" / "spans-sweep-baselines-seed7.csv"
    dump.parent.mkdir()
    dump.write_text("index,name,start,end,parent\n"
                    "0,bench.run_episode,0.0,1.0,-1\n"
                    "1,uncertainty.draw_noise,0.1,0.2,0\n"
                    "2,sim.observe,0.2,0.3,0\n"
                    "3,uncertainty.draw_noise,0.4,0.5,0\n"
                    "4,sim.idm_step_others,0.5,0.6,0\n"
                    "5,sim.classify_outcome,0.6,0.7,0\n"
                    "6,sim.classify_outcome,0.7,0.8,0\n")
    calls = bench_record.span_calls(tmp_path, "sweep-baselines", 7)
    assert calls == {"uncertainty.draw_noise.calls": 2, "sim.observe.calls": 1,
                     "sim.idm_step_others.calls": 1, "sim.classify_outcome.calls": 2}
    assert bench_record.span_calls(tmp_path, "sweep-baselines", 8) == {}
    data = {"metrics": {"sim.steps": {"value": 4}, "rss.kernel.calls": {"value": 8}},
            "absent": []}
    metrics = bench_record.traced(data, calls)
    assert metrics["uncertainty.draw_noise.calls_per_steps"] == 0.5
    assert metrics["sim.observe.calls_per_steps"] == 0.25
    assert metrics["sim.idm_step_others.calls_per_steps"] == 0.25
    assert metrics["sim.classify_outcome.calls_per_steps"] == 0.5
    assert metrics["rss.kernel.calls_per_steps"] == 2.0
    # Without a span dump the counts are left out, not failed on.
    assert "sim.observe.calls_per_steps" not in bench_record.traced(data, {})
