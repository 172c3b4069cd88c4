"""The bytes ``riskenv envelope`` prints, pinned by one sha256.

``QUERIES`` is a fixed set of diagonal-covariance queries: 0-8 agents ahead
of, behind and beside the ego, n_phi 6, 8 and 12, the small and large
variances, several risk levels.  Their stdout, concatenated in order, must
hash to ``ENVELOPE_SHA256``, so a change that moves any printed bit (an
envelope bound, an expectation, the switch decision, the JSON layout) fails
here.  Correlated covariances stay out: their eigenvectors come from LAPACK,
whose bits may differ between machines.

Print the digest of the current program with
``PYTHONPATH=src python tests/test_envelope_digest.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

from riskenv import cli

ENVELOPE_SHA256 = "11ec270830200f0e9f262a56121169b6c77b59af812cef6194a0669ba7ebd642"

SMALL = (0.04, 0.04, 0.04, 1e-4)
LARGE = (0.16, 0.16, 0.16, 4e-4)
BETAS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0)


def _agent(rng: random.Random, ego_lane: int) -> dict:
    where = rng.randrange(3)  # ahead, behind, beside
    dx = (rng.uniform(5.0, 40.0), -rng.uniform(5.0, 40.0), rng.uniform(-5.0, 5.0))[where]
    lane = 1 - ego_lane if where == 2 else rng.randrange(2)
    return {"x": dx, "y": 3.5 * lane + rng.uniform(-0.3, 0.3),
            "theta": rng.uniform(-0.04, 0.04), "v": rng.uniform(6.0, 28.0)}


def queries() -> list[dict]:
    """Two queries per (agents, n_phi, variances), with seeded geometry and
    beta; every third one names its contour levels, every fifth its tau."""
    rng = random.Random(20261019)
    out = []
    for n_agents in range(9):
        for n_phi in (6, 8, 12):
            for variances in (SMALL, LARGE):
                for _ in range(2):
                    ego_lane = rng.randrange(2)
                    query = {"ego": {"x": 0.0, "y": 3.5 * ego_lane + rng.uniform(-0.2, 0.2),
                                     "theta": rng.uniform(-0.03, 0.03),
                                     "v": rng.uniform(10.0, 26.0)},
                             "agents": [_agent(rng, ego_lane) for _ in range(n_agents)],
                             "sigma": list(variances), "n_phi": n_phi,
                             "beta": BETAS[rng.randrange(len(BETAS))]}
                    if len(out) % 3 == 0:
                        query["contour_levels"] = [0.3, 0.6, 0.9, 0.99]
                    if len(out) % 5 == 0:
                        query["tau"] = rng.choice((0.1, 0.2, 0.5))
                    out.append(query)
    return out


QUERIES = queries()


def envelope_digest() -> str:
    """sha256 of the stdout of ``riskenv envelope`` on every query, in order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "query.json")
        for query in QUERIES:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(query, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["envelope", "--input", path])
            if code != 0:
                raise AssertionError(f"exit {code} on {query}")
            digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_queries_cover_restrictions_and_switches():
    # The digest means something only if the queries restrict and switch.
    restricted = switched = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "query.json")
        for query in QUERIES:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(query, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["envelope", "--input", path]) == 0
            result = json.loads(out.getvalue())
            env = result["probabilistic_envelope"]
            restricted += env["a_lon_max"] < 8.0 or env["a_lat_max"] < 4.0 \
                or env["a_lat_min"] > -4.0
            switched += result["switch_decision"]
    assert len(QUERIES) == 108
    assert 20 < restricted < len(QUERIES)
    assert 5 < switched < len(QUERIES)


def test_envelope_bytes_unchanged():
    assert envelope_digest() == ENVELOPE_SHA256


if __name__ == "__main__":
    print(envelope_digest())
