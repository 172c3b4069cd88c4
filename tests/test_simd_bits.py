"""The pinned bits hold at lower SIMD levels of numpy's dispatch.

numpy picks a SIMD loop for each ufunc at run time, by the host's CPU
features, and some loops (``exp``, ``log``, ``arctan2``, ``power``, ``tanh``)
give other bits at other levels.  The kernel golden rows and the envelope
digest must not depend on the level, so each is rerun in a child process
with ``NPY_DISABLE_CPU_FEATURES`` set, first with AVX-512 disabled, then
with AVX2 (X86_V3) disabled as well.  Both pin rounded outputs (the bound
solver snaps onto a grid), so a last-bit change upstream can pass them; the
child also hashes, for the digest's specs, the contour rows, the stacked
rows of a few agent states under them and the kernel's unsnapped safe
distances to those rows, which must match this process's bit for bit.  The
child also runs the quick sweep of ``scripts/run_benchmark.py --quick``,
whose rates.csv and results.json must keep their pinned sha256.

numpy 2.x warns and ignores a name that is not among its dispatch targets,
and refuses to disable a feature that is part of its baseline; a feature
that the host lacks is off anyway.  So the child gets only the names that
this host's numpy dispatches and the host supports, and the test checks that
the child reports each of them off.  On a host without AVX-512 the first
run is the parent's level; on a host without x86 dispatch both are.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskenv.prob_envelope import stacked_states
from riskenv.rss import AgentState, RssParams, _PairGeometry
from riskenv.uncertainty import UncertaintySpec
import test_bench
from test_envelope_digest import ENVELOPE_SHA256, LARGE, SMALL

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"
SCRIPTS = TESTS.parent / "scripts"

LEVELS = {
    "no-avx512": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "no-avx2": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}

CHILD = r"""
import hashlib, json, sys
from pathlib import Path
from test_simd_bits import cpu_module
import run_benchmark
from riskenv import bench
from riskenv.config import load_config
from riskenv.rss import AgentState, RssParams, pair_analysis_batch
from test_envelope_digest import envelope_digest
from test_simd_bits import bits_digests

golden = json.loads((Path(sys.argv[1]) / "kernel_golden.json").read_text())
rows_ok = True
for case in golden["cases"]:
    o = case["others"]
    got = pair_analysis_batch(AgentState(**case["ego"]), o["x"], o["y"], o["v"],
                              o["theta"], RssParams(**case["params"]), case["tau"])
    for name, values in zip(("a_lon_max", "a_lat_min", "a_lat_max", "violated"), got):
        rows_ok &= values.tolist() == case[name]
rows = run_benchmark.rates(load_config(None))
sweep = {"rates": bench.rows_to_csv(rows),
         "results": json.dumps(bench.rows_to_json(rows), indent=2, sort_keys=True) + "\n"}
print(json.dumps({"features": cpu_module().__cpu_features__, "rows_ok": rows_ok,
                  "digest": envelope_digest(), **bits_digests(),
                  **{name: hashlib.sha256(text.encode()).hexdigest()
                     for name, text in sweep.items()}}))
"""


EGO = AgentState(x=0.0, y=0.1, theta=0.01, v=18.0)
# Ahead, behind and beside the ego; the last drives against the road, so its
# perturbed headings wrap at pi.
AGENTS = (AgentState(x=22.0, y=3.4, theta=-0.02, v=15.0),
          AgentState(x=-14.0, y=3.6, theta=0.03, v=24.0),
          AgentState(x=2.5, y=3.5, theta=math.pi - 0.01, v=19.0))


def bits_digests() -> dict:
    """sha256 of each stage upstream of the snap, over every diagonal spec
    the digest uses: its contour rows, the ``stacked_states`` rows of AGENTS
    under them, and the kernel's d_lon and d_lat from EGO to those rows."""
    stages = {name: hashlib.sha256() for name in ("contour_rows", "stacked_rows",
                                                  "safe_distances")}
    for variances in (SMALL, LARGE):
        for levels in ((0.25, 0.5, 0.75, 0.93, 0.97, 0.999), (0.3, 0.6, 0.9, 0.99)):
            for n_phi in (6, 8, 12):
                rows = UncertaintySpec.from_diagonal(variances, levels, n_phi).samples[1]
                stacked = stacked_states([(agent, rows) for agent in AGENTS])
                geometry = _PairGeometry(EGO, *stacked, RssParams())
                stages["contour_rows"].update(rows.tobytes())
                for array in stacked:
                    stages["stacked_rows"].update(array.tobytes())
                for array in (geometry.d_lon, geometry.d_lat):
                    stages["safe_distances"].update(array.tobytes())
    return {name: digest.hexdigest() for name, digest in stages.items()}


def cpu_module():
    """numpy's module that reports its CPU dispatch (numpy 2.x, else 1.x)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def dispatched_features() -> set:
    """The dispatch targets of this numpy that the host supports."""
    umath = cpu_module()
    return {name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)}


@pytest.mark.parametrize("level", LEVELS)
def test_pinned_bits_hold_without(level):
    disabled = sorted(set(LEVELS[level]) & dispatched_features())
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS), str(SCRIPTS))))
    run = subprocess.run([sys.executable, "-c", CHILD, str(TESTS)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    out = json.loads(run.stdout)
    assert [name for name in disabled if out["features"][name]] == []
    assert out["rows_ok"]
    assert out["digest"] == ENVELOPE_SHA256
    pinned = test_bench.TestQuickSweepDigest
    assert (out["rates"], out["results"]) == (pinned.RATES_SHA256, pinned.RESULTS_SHA256)
    here = bits_digests()
    assert {name: out[name] for name in here} == here
