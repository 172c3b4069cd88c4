#!/usr/bin/env python3
"""Where one ``riskenv envelope`` query spends its time, part by part.

Runs perfbench's envelope-queries inputs of one seed through ``cli.main``
in process, as the workload does, with a timer around each part in
``PARTS``, and reports the mean inclusive µs per query of each part.  A
part absent from a checkout is reported as None.  With ``--parent`` and
``--change`` it measures both checkouts, alternating, each ``--rounds``
times, keeps each part's smallest mean (the run least disturbed by the
host), and with ``--into`` adds the table to a ``BENCH_<pr>.json`` record
under "query_parts".

With ``--fresh`` it times instead the call as a user makes it: one
``python -m riskenv.cli envelope`` process on the seed's first query, per
checkout and round, alternating, after one untimed run per checkout that
fills its own bytecode cache.  It checks that every run prints the same
bytes, and sums the ``-X importtime`` self-times of the ``riskenv`` modules
and of the stdlib modules in ``CLI_STDLIB`` (with their submodules) from one
more process per round.  It reports each side's median wall time and
median self-time sums, and the pairs the change ran faster; ``--into`` adds
them under "fresh_process".

    python3 scripts/query_parts.py --parent ../parent --change . --into BENCH_21.json
    python3 scripts/query_parts.py --fresh --parent ../parent --rounds 30 --into BENCH_32.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (label, module, attribute): the attribute is wrapped in the module that
# defines it and in every riskenv module that imported it by name.
PARTS = (
    ("cli.main", "riskenv.cli", "main"),
    ("argparse", "argparse", "ArgumentParser.parse_args"),
    ("load_config", "riskenv.config", "load_config"),
    ("default_uncertainty", "riskenv.config", "default_uncertainty"),
    ("envelope_input", "riskenv.config", "envelope_input"),
    ("eigendecompose", "riskenv.uncertainty", "eigendecompose"),
    ("analyze_step", "riskenv.prob_envelope", "analyze_step"),
    ("contour_samples", "riskenv.uncertainty", "contour_samples"),
    ("chi2_quantile_4", "riskenv.uncertainty", "chi2_quantile_4"),
    ("stacked_states", "riskenv.prob_envelope", "stacked_states"),
    ("pair_analysis_batch", "riskenv.prob_envelope", "pair_analysis_batch"),
    ("risk_bounded_envelope", "riskenv.prob_envelope", "risk_bounded_envelope"),
    ("json output", "json", "dump"),
    ("json output", "json", "dumps"),
)

# One thread per numeric library, as perfbench's workers run.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The stdlib modules that riskenv.cli imports, at its top or in a command: one
# fixed list, so that both checkouts are summed over the same modules.
CLI_STDLIB = ("argparse", "dataclasses", "functools", "json", "logging", "multiprocessing",
              "os", "pathlib", "sys")

# Runs in a child process with the checkout's src/ and perfbench/ on the path.
CHILD = r"""
import contextlib, importlib, io, json, os, sys, tempfile, time
from workloads import query_inputs
parts, seed = json.loads(sys.argv[1]), int(sys.argv[2])
inputs, dumps = query_inputs(seed), json.dumps
totals = {}

def timed(label, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[label] = totals.get(label, 0.0) + time.perf_counter() - start
    return wrapper

import riskenv.cli  # noqa: E402 - imports the modules an envelope query runs
for label, module, attr in parts:
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for step in path:
        owner = getattr(owner, step)
    fn = getattr(owner, name, None)
    if fn is None:
        continue
    totals.setdefault(label, 0.0)
    wrapped = timed(label, fn)
    setattr(owner, name, wrapped)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("riskenv") and \
                getattr(mod, name, None) is fn:
            setattr(mod, name, wrapped)
with tempfile.TemporaryDirectory() as tmp:
    config, query = os.path.join(tmp, "config.json"), os.path.join(tmp, "query.json")
    with open(config, "w") as fh:
        fh.write(dumps({"tau": 0.2}))
    argv = ["envelope", "--input", query, "--config", config]
    for data in inputs:
        with open(query, "w") as fh:
            fh.write(dumps(data))
        with contextlib.redirect_stdout(io.StringIO()):
            assert riskenv.cli.main(argv) == 0
print(dumps({k: v / len(inputs) * 1e6 for k, v in totals.items()}))
"""


def measure(checkout: Path, seed: int) -> dict:
    """Mean µs per query of each part in one run over ``checkout``."""
    env = {"PYTHONPATH": f"{checkout / 'src'}:{checkout / 'perfbench'}", "PATH": "",
           **THREAD_PINS}
    labels = [[label, module, attr] for label, module, attr in PARTS]
    run = subprocess.run([sys.executable, "-c", CHILD, json.dumps(labels), str(seed)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(run.stdout)


def fresh_run(checkout: Path, query: str, cache: str, importtime=False):
    """(wall seconds, stdout bytes, stderr text) of one ``riskenv envelope``
    process over ``checkout``, its bytecode cached under ``cache``."""
    env = {"PYTHONPATH": str(checkout / "src"), "PATH": "", "PYTHONPYCACHEPREFIX": cache,
           **THREAD_PINS}
    argv = [sys.executable, *(("-X", "importtime") if importtime else ()),
            "-m", "riskenv.cli", "envelope", "--input", query]
    start = time.perf_counter()
    run = subprocess.run(argv, capture_output=True, check=True, env=env)
    return time.perf_counter() - start, run.stdout, run.stderr.decode()


def import_self_us(stderr: str) -> dict:
    """Summed ``-X importtime`` self-times (µs) of the riskenv modules and of
    the CLI_STDLIB modules."""
    sums = {"riskenv": 0, "stdlib": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        group = "riskenv" if top == "riskenv" else "stdlib" if top in CLI_STDLIB else None
        if group:
            sums[group] += int(self_us)
    return sums


def fresh(sides: dict, seed: int, rounds: int) -> dict:
    """Fresh-process timings and import self-times of each side, alternating."""
    sys.path.insert(0, str(sides["change"].resolve() / "perfbench"))
    from workloads import query_inputs

    runs = {name: {"ms": [], "riskenv": [], "stdlib": []} for name in sides}
    outputs = set()
    with tempfile.TemporaryDirectory() as tmp:
        query = os.path.join(tmp, "query.json")
        with open(query, "w", encoding="utf-8") as fh:
            json.dump(query_inputs(seed)[0], fh)
        caches = {name: os.path.join(tmp, f"pycache-{name}") for name in sides}
        for name, checkout in sides.items():  # fills the bytecode caches
            outputs.add(fresh_run(checkout.resolve(), query, caches[name])[1])
        for i in range(rounds):
            for name in (sides if i % 2 == 0 else reversed(list(sides))):
                checkout = sides[name].resolve()
                seconds, out, _ = fresh_run(checkout, query, caches[name])
                _, _, stderr = fresh_run(checkout, query, caches[name], importtime=True)
                outputs.add(out)
                runs[name]["ms"].append(round(seconds * 1e3, 2))
                for group, us in import_self_us(stderr).items():
                    runs[name][group].append(us)
    if len(outputs) != 1:
        raise SystemExit("error: the envelope processes printed different outputs")
    result = {"command": f"python3 scripts/query_parts.py --fresh --seed {seed} "
                         f"--rounds {rounds}",
              "method": "python -m riskenv.cli envelope on the seed's first query, one "
                        "process per side and round, alternating, bytecode cached, BLAS "
                        "pinned to one thread; wall ms, and -X importtime self µs summed "
                        f"over riskenv.* and over {', '.join(CLI_STDLIB)} (with submodules)",
              "stdout_identical": True}
    for name, r in runs.items():
        result[name] = {"median_ms": statistics.median(r["ms"]), "runs_ms": r["ms"],
                        "riskenv_self_us": statistics.median(r["riskenv"]),
                        "stdlib_self_us": statistics.median(r["stdlib"])}
    if "parent" in runs:
        wins = sum(c < p for p, c in zip(runs["parent"]["ms"], runs["change"]["ms"]))
        result["change_faster"] = f"{wins}/{rounds}"
    return result


def table(runs: list[dict]) -> dict:
    """Each part's smallest mean over ``runs``, rounded to 0.1 µs."""
    labels = dict.fromkeys(label for label, _, _ in PARTS)
    return {label: (round(min(r[label] for r in runs), 1) if label in runs[0] else None)
            for label in labels}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout to measure")
    parser.add_argument("--parent", type=Path, default=None, help="checkout to compare with")
    parser.add_argument("--seed", type=int, default=3, help="perfbench query seed")
    parser.add_argument("--rounds", type=int, default=3, help="runs per checkout")
    parser.add_argument("--into", type=Path, default=None, help="BENCH_<pr>.json to extend")
    parser.add_argument("--fresh", action="store_true",
                        help="time fresh riskenv envelope processes instead")
    args = parser.parse_args()
    sides = {"parent": args.parent, "change": args.change} if args.parent else \
        {"change": args.change}
    if args.fresh:
        return report(fresh(sides, args.seed, args.rounds), args.into, "fresh_process")
    runs = {name: [] for name in sides}
    for i in range(args.rounds):
        for name in (sides if i % 2 == 0 else reversed(list(sides))):
            runs[name].append(measure(sides[name].resolve(), args.seed))
    result = {"command": f"python3 scripts/query_parts.py --seed {args.seed} "
                         f"--rounds {args.rounds}",
              "unit": "mean inclusive µs per query, smallest over the rounds",
              **{name: table(r) for name, r in runs.items()}}
    return report(result, args.into, "query_parts")


def report(result: dict, into: Path | None, key: str) -> int:
    """Print ``result`` and, with ``into``, store it under ``key`` there."""
    print(json.dumps(result, indent=1))
    if into:
        record = json.loads(into.read_text())
        record[key] = result
        into.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
