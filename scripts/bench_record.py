#!/usr/bin/env python3
"""Write a BENCH_<pr>.json perf record from two checkouts' perfbench results.

Run ``perfbench/run.py`` in a checkout of the parent and in one of the
change, in alternating order and with the same seeds; each run leaves
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json`` in its checkout.
This script pairs the results by workload and seed and writes, per workload,
every pair (which side ran first is read from the file times), each side's
median and quartiles of the end-to-end metrics, the change's wins and the
gap against the parent's spread; traced runs (``--trace 1``) of one seed on
both sides go to the "trace" section, with the run totals also per
simulated step, and with the calls of ``SPAN_CALLS`` counted from the
run's span dump (``.perfbench/spans-<workload>-seed<seed>.csv``).  It
then runs ``scripts/run_benchmark.py --quick`` in each checkout,
alternating, ``SWEEP_PAIRS`` times, and records each side's
wall times and the sha256 of its rates.csv (they must agree across runs),
and whether the two sides' digests are identical.
The parent commit is read with ``git rev-parse``; where the parent is no
git checkout (a ``git archive`` copy), pass it as ``--parent-commit``.

    python3 scripts/bench_record.py --parent ../parent --change . --pr 11 \\
        --title "Fewer array passes per contour-analysis step"
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

END_TO_END = {"ops_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
SWEEP_PAIRS = 3  # alternating quick-sweep runs per side
# Functions whose calls in a traced run are counted from its span dump.
SPAN_CALLS = ("uncertainty.draw_noise", "sim.observe", "sim.idm_step_others",
              "sim.classify_outcome")
# Run totals of a traced run, reported per simulated step (or per call).
PER_STEP = (("rss.kernel.calls", "sim.steps"), ("rss.kernel.rows", "rss.kernel.calls"),
            ("rss.advance_speed_clamped.calls", "sim.steps"),
            *((f"{name}.calls", "sim.steps") for name in SPAN_CALLS))
METHOD = ("alternating pairs, each in its own checkout of the parent and of the change; "
          "'first' is the side whose result was written first; 'wins' counts pairs "
          "where the change is better, ties counting for neither")


def load_results(checkout: Path) -> dict:
    """{(workload, seed, trace): (result, mtime)} of one checkout."""
    out = {}
    for path in sorted((checkout / ".perfbench" / "results").glob("*-seed*-trace*.json")):
        data = json.loads(path.read_text())
        ctx = data["report"]["context"]
        trace = int(path.stem.rsplit("-trace", 1)[1])
        out[(ctx["workload"], ctx["seed"], trace)] = (data, path.stat().st_mtime)
    return out


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def side(data: dict) -> dict:
    report = data["report"]
    values = {name: data["metrics"][name]["value"] for name in END_TO_END}
    return {**values, "correct": report["failed"] == 0,  # as run.py prints it
            "failed": report["failed"], "attempted": report["attempted"]}


def summary(pairs) -> dict:
    out = {}
    for name, better in END_TO_END.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {"better": better, "parent": qp, "change": qc,
                     "change_wins": f"{wins}/{len(pairs)}",
                     "median_ratio": qc["median"] / qp["median"],
                     "parent_iqr": qp["q3"] - qp["q1"],
                     "median_gap": qc["median"] - qp["median"]}
    return out


def span_calls(checkout: Path, workload: str, seed) -> dict:
    """{"<name>.calls": count} for each of ``SPAN_CALLS`` in the span dump
    of ``checkout``'s traced run, or {} where there is none."""
    path = checkout / ".perfbench" / f"spans-{workload}-seed{seed}.csv"
    if not path.exists():
        return {}
    counts = dict.fromkeys(SPAN_CALLS, 0)
    with path.open(encoding="utf-8") as fh:
        next(fh)  # header: index,name,start,end,parent
        for line in fh:
            name = line.split(",", 2)[1]
            if name in counts:
                counts[name] += 1
    return {f"{name}.calls": n for name, n in counts.items()}


def traced(data: dict, calls: dict) -> dict:
    metrics = {k: m["value"] for k, m in data["metrics"].items() if k not in data["absent"]}
    metrics.update(calls)
    for total, per in PER_STEP:
        if total in metrics and metrics.get(per):
            metrics[f"{total}_per_{per.rsplit('.', 1)[1]}"] = metrics[total] / metrics[per]
    return metrics


def git_head(checkout: Path) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def quick_sweep(checkout: Path) -> tuple[float, str]:
    """Wall time and rates.csv sha256 of one ``run_benchmark.py --quick``
    run in ``checkout``."""
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "scripts/run_benchmark.py", "--quick",
                              "--out", out], cwd=checkout, capture_output=True, text=True,
                             check=True)
        wall = time.perf_counter() - start
    return wall, re.search(r"^sha256 ([0-9a-f]{64}) ", run.stdout, re.M).group(1)


def quick_sweeps(parent_dir: Path, change_dir: Path) -> dict:
    """``SWEEP_PAIRS`` alternating quick sweeps per side: wall times and digest."""
    runs = {"parent": [], "change": []}
    for i in range(SWEEP_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(quick_sweep(parent_dir if name == "parent" else change_dir))
    digests = {name: sorted({d for _, d in r}) for name, r in runs.items()}
    if any(len(d) != 1 for d in digests.values()):
        raise SystemExit(f"quick sweep digests vary between runs: {digests}")
    return {"quick_sweep_sha256": {name: d[0] for name, d in digests.items()},
            "quick_sweep_identical": digests["parent"] == digests["change"],
            "quick_sweep_wall_s": {"command": "python3 scripts/run_benchmark.py --quick",
                                   "order": "alternating, parent first",
                                   **{name: [round(w, 3) for w, _ in r]
                                      for name, r in runs.items()}}}


def record(parent_dir: Path, change_dir: Path, title: str, seconds: float,
           parent_commit: str | None = None) -> dict:
    parent_commit = git_head(parent_dir) or parent_commit
    if not parent_commit:
        raise SystemExit(f"{parent_dir} is no git checkout: pass --parent-commit")
    parent, change = load_results(parent_dir), load_results(change_dir)
    keys = sorted(set(parent) & set(change))
    if not any(trace == 0 for _, _, trace in keys):
        raise SystemExit("no workload and seed has --trace 0 results on both sides")
    workloads, trace, sha = {}, {}, {"parent": set(), "change": set()}
    for workload, seed, t in keys:
        (p, p_time), (c, c_time) = parent[(workload, seed, t)], change[(workload, seed, t)]
        sha["parent"].add(p["report"]["context"]["src_sha256"])
        sha["change"].add(c["report"]["context"]["src_sha256"])
        if t:
            trace[f"{workload} seed {seed}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                           f"--seconds {seconds:g} --trace 1",
                "parent": traced(p, span_calls(parent_dir, workload, seed)),
                "change": traced(c, span_calls(change_dir, workload, seed))}
            continue
        workloads.setdefault(workload, {"pairs": []})["pairs"].append({
            "seed": seed, "first": "parent" if p_time <= c_time else "change",
            "parent": side(p), "change": side(c)})
    for entry in workloads.values():
        entry["summary"] = summary(entry["pairs"])
    context = dict(change[keys[0]][0]["report"]["context"])
    for key in ("seed", "workload", "commit", "src_sha256"):
        context.pop(key, None)
    return {
        "change": title,
        "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "method": METHOD,
        "context": context,
        "src_sha256": {k: sorted(v)[0] if len(v) == 1 else sorted(v) for k, v in sha.items()},
        "workloads": workloads,
        "trace": trace,
        **quick_sweeps(parent_dir, change_dir),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--pr", required=True, help="number in the file name BENCH_<pr>.json")
    parser.add_argument("--title", required=True, help="one line naming the change")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="the --seconds every run used (recorded in the commands)")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--parent-commit", default=None,
                        help="the parent's commit, where --parent is no git checkout")
    args = parser.parse_args()
    rec = record(args.parent, args.change, args.title, args.seconds, args.parent_commit)
    path = args.out_dir / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    for workload, entry in rec["workloads"].items():
        s = entry["summary"]["ops_per_s"]
        print(f"{workload}: ops_per_s {s['parent']['median']:.1f} -> "
              f"{s['change']['median']:.1f} ({s['median_ratio']:.3f}x, "
              f"wins {s['change_wins']}, gap {s['median_gap']:.1f} vs parent IQR "
              f"{s['parent_iqr']:.1f})")
    digests = rec["quick_sweep_sha256"]
    print(f"quick sweep sha256: parent {digests['parent']}, change {digests['change']}, "
          f"identical {str(rec['quick_sweep_identical']).lower()}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
