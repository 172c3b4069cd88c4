#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

For every workload and every seed in workloads.REFERENCE_SEEDS, runs the
first REFERENCE_OPS ops with the riskenv sources of this checkout and writes
perfbench/reference/<workload>.json.  Run it only when the program's outputs
are meant to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import OUT_DIR, import_riskenv  # noqa: E402

SEEDS = workloads.REFERENCE_SEEDS


def record(name: str, seed: int, riskenv) -> list:
    work_dir = os.path.join(OUT_DIR, f"record-{name}-{os.getpid()}")
    wl = workloads.make_workload(name, seed, riskenv, work_dir)
    rows = []
    try:
        for k in range(workloads.REFERENCE_OPS[name]):
            wl.stage(k)
            res = wl.run_op(k)
            why = wl.check(k, res)
            if why is not None:
                raise SystemExit(f"{name} seed {seed}: {why}")
            if name == "envelope-queries":
                vals = [float(f"{v:.12g}") for v in workloads.query_values(res.output)]
                rows.append([vals, bool(res.output["switch_decision"])])
            else:
                rows.append(list(res.output))
    finally:
        wl.close()
    return rows


def main() -> int:
    riskenv = import_riskenv()
    # Record without comparing against the files being replaced.
    workloads.REFERENCE_SEEDS = ()
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        data = {str(seed): record(name, seed, riskenv) for seed in SEEDS}
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
