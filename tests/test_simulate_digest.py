"""The bytes ``riskenv simulate --out`` writes, pinned by one sha256 per trace.

``TRACES`` are four episodes of the default config: one that stays on the
nominal controller to the goal, two that latch the safety maneuver early
and time out, one from each Simplex policy, and one that latches and is
hit on the latched path.  Each trace file must hash to its
digest, so a change that moves any written bit (a state, an observation, an
envelope bound, a command, a mode, a flag, the JSON layout) fails here.

Print the digests of the current program with
``PYTHONPATH=src python tests/test_simulate_digest.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from riskenv import cli

# (policy, covariance, beta, scenario) -> sha256 of the trace file.
TRACES = {
    ("ProbabilisticEnvelopeRestriction", "small", 0.1, 0):
        "edd1c6d16053989f792cb9a5e39281a8dcebf840ea724e34caf88c44172dc143",
    ("Simplex", "large", 0.1, 3):
        "6a1d0ec8ce7d5f3af9d6065e5de83e0eab1d6c87dc2c03df236839842731a4c6",
    ("ProbabilisticSimplex", "large", 0.05, 5):
        "82fef3a15464b9425280e99306e5df4c57f299d658d9a1f10da7372f55f30f6f",
    ("Simplex", "small", 0.1, 55):
        "98d1a73fa53ce7b1be9b9371a11bd4be08c3918dd1cc930399ada94b3e56d97d",
}
# What each trace shows: (outcome, steps, steps in safety mode).
SHAPES = {
    ("ProbabilisticEnvelopeRestriction", "small", 0.1, 0): ("Success", 28, 0),
    ("Simplex", "large", 0.1, 3): ("Timeout", 40, 37),
    ("ProbabilisticSimplex", "large", 0.05, 5): ("Timeout", 40, 38),
    ("Simplex", "small", 0.1, 55): ("Collision", 6, 2),
}


def trace_bytes(policy: str, case: str, beta: float, scenario: int) -> tuple[str, bytes]:
    """(stdout, trace file bytes) of one ``riskenv simulate`` run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["simulate", "--policy", policy, "--covariance", case,
                             "--beta", str(beta), "--scenario", str(scenario), "--out", tmp])
        if code != 0:
            raise AssertionError(f"exit {code} on {policy} {case} {beta} s{scenario}")
        [name] = os.listdir(tmp)
        with open(os.path.join(tmp, name), "rb") as fh:
            return out.getvalue(), fh.read()


@pytest.mark.parametrize("trace", TRACES)
def test_trace_shows_its_case(trace):
    # A digest means something only if its trace shows what it is meant to.
    stdout, data = trace_bytes(*trace)
    outcome, steps, latched = SHAPES[trace]
    modes = [json.loads(line)["mode"] for line in data.decode().splitlines()]
    assert stdout.startswith(f"{outcome} steps={steps} ")
    assert (len(modes), modes.count("safety")) == (steps, latched)


@pytest.mark.parametrize("trace", TRACES)
def test_trace_bytes_unchanged(trace):
    assert hashlib.sha256(trace_bytes(*trace)[1]).hexdigest() == TRACES[trace]


if __name__ == "__main__":
    for trace in TRACES:
        print(hashlib.sha256(trace_bytes(*trace)[1]).hexdigest(), *trace)
