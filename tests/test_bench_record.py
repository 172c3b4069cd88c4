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
    assert rec["quick_sweep_wall_s"]["parent"] == [1.0, 4.0, 5.0]
    assert rec["quick_sweep_wall_s"]["change"] == [2.0, 3.0, 6.0]
    digests = itertools.count()  # each run of a side gives another digest
    monkeypatch.setattr(bench_record, "quick_sweep", lambda checkout: (1.0, str(next(digests))))
    with pytest.raises(SystemExit, match="vary"):
        bench_record.quick_sweeps(parent, change)
