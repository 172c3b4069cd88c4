"""Refactor-tolerant tracing of the riskenv layers, and the per-layer metrics.

The tracer wraps library functions from outside.  Each target is resolved by
name when tracing starts and replaced under every ``riskenv`` module name
that refers to it (``rss.pair_analysis_batch`` is also
``prob_envelope.pair_analysis_batch``), so calls through any of those names
are seen.  A target that no longer exists is skipped, and the metrics that
need it are reported absent instead of failing the run.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  A span's self time is its duration minus that of its child spans.
``advance_speed_clamped`` runs dozens of times per kernel call, so it is
only counted.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

MODULES = ("rss", "uncertainty", "prob_envelope", "sim", "bench", "config", "cli")

# (module, attribute path, kind).  "span" records a span; "count" only counts.
TARGETS = (
    ("rss", "pair_analysis_batch", "span"),
    ("rss", "violation_batch", "span"),
    ("rss", "safety_envelope", "span"),
    ("rss", "safety_violated", "span"),
    ("rss", "less_restrictive_any", "span"),
    ("rss", "advance_speed_clamped", "count"),
    ("uncertainty", "sample_contour", "span"),
    ("uncertainty", "eigendecompose", "span"),
    ("uncertainty", "draw_noise", "span"),
    ("prob_envelope", "analyze_agent", "span"),
    ("prob_envelope", "envelope_distribution", "span"),
    ("prob_envelope", "violation_expectation", "span"),
    ("prob_envelope", "risk_bounded_envelope", "span"),
    ("sim", "simulate", "span"),
    ("sim", "observe", "span"),
    ("sim", "idm_step_others", "span"),
    ("sim", "integrate_ego", "span"),
    ("sim", "classify_outcome", "span"),
    ("sim", "nominal_lane_change", "span"),
    ("sim", "safety_maneuver", "span"),
    ("bench", "run_episode", "span"),
    ("bench", "Policy.__call__", "span"),
    ("bench", "Policy._decide", "span"),
    ("config", "load_config", "span"),
    ("cli", "main", "span"),
    ("cli", "cmd_envelope", "span"),
)

KERNEL = "rss.pair_analysis_batch"
VIOLATION = "rss.violation_batch"
SAMPLE = "uncertainty.sample_contour"
ANALYZE = "prob_envelope.analyze_agent"
POLICY = "bench.Policy.__call__"
AUDIT = ("rss.safety_envelope", "rss.less_restrictive_any")


class Tracer:
    """Installs wrappers around the TARGETS and records what they see."""

    def __init__(self, riskenv):
        self.riskenv = riskenv
        self.names: list[str] = []
        self.spans: list = []          # (name id, start, end, parent index)
        self.rows: dict[int, int] = {}  # span index -> rows processed
        self.distinct: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._distinct_memo: dict[bytes, int] = {}
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.riskenv, m, None) for m in MODULES] + [self.riskenv]
        modules = [m for m in modules if m is not None]
        for mod_name, path, kind in TARGETS:
            owner = getattr(self.riskenv, mod_name, None)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            name = f"{mod_name}.{path}"
            self.present.add(name)
            wrapper = (self._counter(name, fn) if kind == "count"
                       else self._span(name, fn))
            if "." in path:
                self._replace(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._replace(mod, attr, fn, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _replace(self, owner, attr, fn, wrapper) -> None:
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, rows = self.spans, self._stack, self.rows
        perf = time.perf_counter
        measure_rows = name in (KERNEL, VIOLATION, SAMPLE)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if measure_rows:
                first = result[0] if isinstance(result, tuple) else result
                rows[idx] = int(np.shape(first)[0])
                if name == SAMPLE:
                    self.distinct[idx] = self._distinct_rows(args, kwargs, result)
            return result

        return traced

    def _distinct_rows(self, args, kwargs, result) -> int:
        # The output depends only on the arguments, so the count is memoised
        # on their pickled form; np.unique on every call would distort the
        # callers' timings.
        try:
            key = pickle.dumps((args, sorted(kwargs.items())))
        except (pickle.PicklingError, TypeError, AttributeError):
            key = None
        if key is not None and key in self._distinct_memo:
            return self._distinct_memo[key]
        # Rows equal up to rounding (sin(pi) is 1e-16, not 0) are one row.
        rows = np.asarray(result, dtype=float)
        scale = float(np.abs(rows).max()) if rows.size else 0.0
        if scale > 0.0:
            rows = np.round(rows / scale * 1e9)
        n = int(np.unique(rows, axis=0).shape[0])
        if key is not None:
            self._distinct_memo[key] = n
        return n

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0!r},{t1!r},{parent}\n")


class SpanTable:
    """Per-span arrays derived from a Tracer: durations, self times, names."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.tracer = tracer
        self.names = tracer.names
        n = len(spans)
        self.nid = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
        start = np.fromiter((s[1] for s in spans), dtype=float, count=n)
        end = np.fromiter((s[2] for s in spans), dtype=float, count=n)
        self.parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
        self.dur = end - start
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.module = np.array([nm.split(".", 1)[0] for nm in self.names])

    def ids(self, name: str):
        if name not in self.names:
            return None
        return self.names.index(name)

    def mask(self, name: str):
        i = self.ids(name)
        if i is None:
            return None
        return self.nid == i

    def indices(self, name: str):
        m = self.mask(name)
        return [] if m is None else np.flatnonzero(m).tolist()

    def self_total(self, name: str) -> float | None:
        m = self.mask(name)
        return None if m is None else float(self.self_time[m].sum())

    def total(self, name: str) -> float | None:
        m = self.mask(name)
        return None if m is None else float(self.dur[m].sum())

    def calls(self, name: str) -> int | None:
        m = self.mask(name)
        return None if m is None else int(m.sum())

    def rows(self, name: str, under_module: str | None = None) -> int | None:
        if self.ids(name) is None:
            return None
        idx = self.indices(name)
        if under_module is not None:
            idx = [i for i in idx if self.has_ancestor_module(i, under_module)]
        return sum(self.tracer.rows.get(i, 0) for i in idx)

    def has_ancestor_module(self, i: int, module: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.module[self.nid[p]] == module:
                return True
            p = self.parent[p]
        return False

    def self_by_module(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        sl = slice(lo, hi)
        out = {}
        mods = self.module[self.nid[sl]]
        st = self.self_time[sl]
        for m in MODULES:
            out[m] = float(st[mods == m].sum())
        return out


def _per(a, b, scale=1.0):
    if a is None or b is None or b == 0:
        return None
    return a / b * scale


def layer_metrics(tracer: Tracer, ops, steps: int, queries: int,
                  contour_levels: int) -> dict:
    """Every per-layer metric, or None where the layer is absent or idle.

    ``ops`` lists (cell, latency, first span, end span) for each traced op;
    ``steps`` and ``queries`` count the simulation steps and envelope
    queries of those ops; ``contour_levels`` is the number of contour levels
    in the inputs.
    """
    t = SpanTable(tracer)
    m: dict[str, float | None] = {}
    k_calls, k_rows, k_time = t.calls(KERNEL), t.rows(KERNEL), t.total(KERNEL)
    m["rss.kernel.calls"] = k_calls
    m["rss.kernel.rows"] = k_rows
    m["rss.kernel.us_per_row"] = _per(k_time, k_rows, 1e6)
    m["rss.kernel.us_per_call"] = _per(k_time, k_calls, 1e6)
    m["rss.advance_speed_clamped.calls"] = tracer.counts.get("rss.advance_speed_clamped")
    v_rows = t.rows(VIOLATION)
    m["rss.violation_batch.rows"] = v_rows
    m["rss.violation_batch.us_per_row"] = _per(t.total(VIOLATION), v_rows, 1e6)
    m["rss.safety_envelope.us_per_call"] = _per(t.total("rss.safety_envelope"),
                                                t.calls("rss.safety_envelope"), 1e6)

    s_calls, s_rows = t.calls(SAMPLE), t.rows(SAMPLE)
    m["uncertainty.sample_contour.calls"] = s_calls
    m["uncertainty.sample_contour.rows"] = s_rows
    m["uncertainty.sample_contour.us_per_row"] = _per(t.total(SAMPLE), s_rows, 1e6)
    m["uncertainty.distinct_row_frac"] = _per(
        sum(tracer.distinct.values()) if s_rows is not None else None, s_rows)
    for fn in ("eigendecompose", "draw_noise"):
        name = f"uncertainty.{fn}"
        m[f"{name}.us_per_call"] = _per(t.total(name), t.calls(name), 1e6)

    a_calls = t.calls(ANALYZE)
    m["prob_envelope.analyze_agent.ms_per_agent"] = _per(t.total(ANALYZE), a_calls, 1e3)
    samples = _analyzed_samples(t) if a_calls else None
    geometry = None
    if samples:
        geometry = (t.rows(KERNEL, under_module="prob_envelope")
                    + (t.rows(VIOLATION, under_module="prob_envelope") or 0))
    m["prob_envelope.geometry_evals_per_sample"] = _per(geometry, samples)
    m["prob_envelope.sample_sets_per_agent"] = _per(s_calls, (a_calls or 0) * contour_levels)
    m["prob_envelope.risk_bounded_envelope.us_per_call"] = _per(
        t.total("prob_envelope.risk_bounded_envelope"),
        t.calls("prob_envelope.risk_bounded_envelope"), 1e6)

    m["sim.steps"] = steps or None
    for fn in ("observe", "idm_step_others", "integrate_ego", "classify_outcome"):
        m[f"sim.{fn}.us_per_step"] = _per(t.total(f"sim.{fn}"), steps, 1e6)
    m["sim.self_us_per_step"] = _per(t.self_total("sim.simulate"), steps, 1e6)

    policy = t.mask(POLICY)
    if policy is not None and steps:
        policy_idx = set(np.flatnonzero(policy).tolist())
        audit = sum(float(t.dur[i]) for name in AUDIT
                    for i in t.indices(name) if int(t.parent[i]) in policy_idx)
        m["bench.policy.us_per_step"] = (float(t.dur[policy].sum()) - audit) / steps * 1e6
        m["bench.audit.us_per_step"] = audit / steps * 1e6
        contour_steps = set()
        for i in t.indices(ANALYZE):
            p = int(t.parent[i])
            while p >= 0 and p not in policy_idx:
                p = int(t.parent[p])
            contour_steps.add(p)
        contour_steps.discard(-1)
        m["bench.contour_step_frac"] = len(contour_steps) / steps
    else:
        m["bench.policy.us_per_step"] = None
        m["bench.audit.us_per_step"] = None
        m["bench.contour_step_frac"] = None
    cell_times: dict = {}
    for cell, latency, _, _ in ops:
        cell_times[cell] = cell_times.get(cell, 0.0) + latency
    m["bench.cell_cost_max_over_mean"] = (
        max(cell_times.values()) * len(cell_times) / sum(cell_times.values())
        if steps and cell_times else None)

    m["config.load_config.us_per_call"] = _per(t.total("config.load_config"),
                                               t.calls("config.load_config"), 1e6)
    cli_self = [v for v in (t.self_total("cli.main"), t.self_total("cli.cmd_envelope"))
                if v is not None]
    m["cli.self_ms_per_query"] = _per(sum(cli_self) if cli_self else None, queries, 1e3)

    op_time = sum(latency for _, latency, _, _ in ops)
    for mod, v in t.self_by_module().items():
        m[f"layer.{mod}.self_frac"] = _per(v, op_time)
    simplex = [(lo, hi, latency) for cell, latency, lo, hi in ops
               if cell is not None and cell[0] == "Simplex"]
    if simplex:
        sim_self = sum(t.self_by_module(lo, hi)["sim"] for lo, hi, _ in simplex)
        m["layer.sim.self_frac.simplex_cells"] = sim_self / sum(x[2] for x in simplex)
    else:
        m["layer.sim.self_frac.simplex_cells"] = None
    return m


def _analyzed_samples(t: SpanTable) -> int:
    """Contour samples analysed: kernel rows whose nearest prob_envelope
    ancestor is an analyze_agent span."""
    aid = t.ids(ANALYZE)
    total = 0
    for i in t.indices(KERNEL):
        p = int(t.parent[i])
        while p >= 0 and t.module[t.nid[p]] != "prob_envelope":
            p = int(t.parent[p])
        if p >= 0 and t.nid[p] == aid:
            total += t.tracer.rows.get(int(i), 0)
    return total
