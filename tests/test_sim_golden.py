"""Golden episode traces: every policy on every covariance case, pinned bit for bit.

``sim_golden.json`` holds, per seeded episode, the outcome and for each step
the true ego state, the commanded accelerations, the mode, the applied
envelope and the audit flag, with floats written by ``float.hex``.  Replaying
the episodes must reproduce every bit, so a change to the simulator step (the
noise draws, the car-following update, the integration) that moves any float
fails here, not only in the benchmark's reference outputs.

Re-record (only after a deliberate behaviour change) with
``PYTHONPATH=src python tests/test_sim_golden.py``.
"""

import json
from pathlib import Path

import pytest

from riskenv import bench
from riskenv.config import COVARIANCE_CASES, POLICY_NAMES, RunConfig

GOLDEN = Path(__file__).parent / "sim_golden.json"
SCENARIOS = (8, 55)
BETA = 0.1


def _hex(x) -> str:
    return float(x).hex()


CFG = RunConfig()
SCENES = bench.generate_scenarios(max(SCENARIOS) + 1, CFG.seed, CFG)


def episode_trace(scenario: int, policy: str, case: str) -> dict:
    """One episode in the golden format."""
    result = bench.run_episode(SCENES[scenario], policy, BETA, case, CFG,
                               collect_trace=True)
    steps = []
    for rec in result.records:
        env = rec.envelope
        steps.append([
            _hex(rec.t), [_hex(v) for v in (rec.ego.x, rec.ego.y, rec.ego.theta, rec.ego.v)],
            _hex(rec.a_lon), _hex(rec.a_lat), rec.mode,
            None if env is None else [_hex(v) for v in (env.a_lon_min, env.a_lon_max,
                                                        env.a_lat_min, env.a_lat_max)],
            None if rec.env_violated is None else bool(rec.env_violated),
        ])
    return {"scenario": scenario, "policy": policy, "case": case,
            "outcome": result.outcome, "steps": steps}


CELLS = [(s, p, c) for s in SCENARIOS for p in POLICY_NAMES for c in COVARIANCE_CASES]


@pytest.fixture(scope="module")
def golden() -> dict:
    episodes = json.loads(GOLDEN.read_text())["episodes"]
    return {(e["scenario"], e["policy"], e["case"]): e for e in episodes}


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("scenario,policy,case", CELLS)
def test_episode_replays_exactly(golden, scenario, policy, case):
    assert episode_trace(scenario, policy, case) == golden[(scenario, policy, case)]


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(episode_trace(*cell), separators=(",", ":"))
                       for cell in CELLS)
    GOLDEN.write_text(f'{{"beta": {BETA}, "episodes": [\n{lines}\n]}}\n')
    print(f"wrote {GOLDEN} ({len(CELLS)} episodes, {GOLDEN.stat().st_size} bytes)")
