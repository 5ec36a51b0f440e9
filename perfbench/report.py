"""Turn request records, daemon counters and spans into metrics.

End-to-end metrics come from the untraced pass's request records.
Per-layer metrics come from the traced pass: spans (self time, calls),
``stats``/``metrics`` snapshots taken before and after each phase
(counter deltas → ratios), and the counters responses already carry.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np
from scipy.stats.mstats import hdquantiles

import spans as spanlib

#: Layers that get a self-time share, in the order the request meets them.
LAYERS = ("client", "protocol", "router", "wfq", "server", "fingerprint", "cache",
          "pool", "core", "profiler", "simulator", "session", "sweep")

#: Latency reported for a failed request: it misses every limit and
#: drags a percentile up instead of vanishing from it.
FAILED_LATENCY_S = 1e9


def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile, Harrell–Davis estimate: a Beta-weighted
    mean of all order statistics, steadier than one order statistic at
    ~100 samples per op."""
    vals = np.asarray(list(values), dtype=float)
    if len(vals) < 2:
        return float(vals[0]) if len(vals) else 0.0
    return float(hdquantiles(vals, prob=[q / 100.0])[0])


def _lat(reqs: Iterable[Any]) -> List[float]:
    return [r.latency_s if r.ok else FAILED_LATENCY_S for r in reqs]


def ungated_latencies(records: List[Any]) -> Dict[str, float]:
    """Latencies too noisy on a small shared VM to gate a change.

    On a 2-vCPU VM, the run-to-run spread of these latencies follows
    hypervisor steal. Across ten seeds it was 0.3-0.45 of the median for
    the per-op p90s. For the whatif and session-delta medians, the light
    tenant's p90 and the sweep on the fleet, it was 0.21-0.29. No bound
    may exceed 0.25, so a traced run reports them, from its untraced
    pass, beside the per-layer metrics.
    """
    def ms(kind: str, q: float) -> float:
        return pct(_lat(r for r in records if r.kind == kind), q) * 1000.0

    out = {f"interactive.{kind}_p90_ms": ms(kind, 90)
           for kind in ("plan_hit", "whatif", "session_delta")}
    out["interactive.whatif_p50_ms"] = ms("whatif", 50)
    out["interactive.session_delta_p50_ms"] = ms("session_delta", 50)
    light = [r for r in records if r.phase == "interactive" and r.tenant == "light"]
    out["interactive.light_tenant_p90_ms"] = pct(_lat(light), 90) * 1000.0
    out["sweep.request_s"] = ms("sweep", 50) / 1000.0
    return out


def end_to_end(records: List[Any], setups: List[float], rss_mb: float,
               limits_ms: Dict[str, float]) -> Dict[str, float]:
    """The ``end_to_end`` metrics of one untraced pass."""
    by_kind: Dict[str, List[Any]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    first = by_kind["plan_first"][0]
    misses = by_kind.get("plan_miss", []) + by_kind.get("batch_miss", [])
    cold_misses = by_kind.get("plan_miss", [])
    span_s = max(r.done for r in cold_misses) - min(r.sent for r in cold_misses)
    cold_plans = [first] + cold_misses
    utilities = [r.result["utility"] for r in cold_plans if r.ok]
    within = [r for r in records
              if r.ok and r.latency_s * 1000.0 <= limits_ms[r.kind]]

    return {
        "setup_s": statistics.median(setups),
        "daemon_rss_mb": rss_mb,
        "served_frac": sum(r.ok for r in records) / len(records),
        "first_plan_s": _lat([first])[0],
        "plan_miss_p50_s": pct(_lat(misses), 50),
        "plans_per_min": sum(r.ok for r in cold_misses) / span_s * 60.0,
        "plan_utility": math.exp(statistics.fmean(math.log(u) for u in utilities)),
        "plan_hit_p50_ms": pct(_lat(by_kind["plan_hit"]), 50) * 1000.0,
        "within_limit_frac": len(within) / len(records),
    }


# ---------------------------------------------------------------------------
# Daemon counters
# ---------------------------------------------------------------------------


def _series(snapshot: Dict[str, Any], name: str, where: Callable[[Dict], bool]):
    metric = snapshot["metrics"].get(name)
    for item in (metric or {}).get("values", []):
        if where(item["labels"]):
            yield item


def counter(snapshot: Dict[str, Any], name: str, where: Callable[[Dict], bool],
            **match: str) -> float:
    return sum(
        item["value"] for item in _series(snapshot, name, where)
        if all(item["labels"].get(k) == v for k, v in match.items())
    )


def delta(before: Dict, after: Dict, name: str, where: Callable[[Dict], bool],
          **match: str) -> float:
    return counter(after, name, where, **match) - counter(before, name, where, **match)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hit_ratio(before: Dict, after: Dict, name: str,
              where: Callable[[Dict], bool]) -> float:
    """hits / (hits + misses) of an ``event``-labelled cache counter."""
    hits = delta(before, after, name, where, event="hit")
    return ratio(hits, hits + delta(before, after, name, where, event="miss"))


def histogram_p50_ms(before: Dict, after: Dict, name: str,
                     where: Callable[[Dict], bool], **match: str) -> float:
    """Median of the observations made between two snapshots,
    interpolated inside the histogram bucket that holds it."""
    buckets = (after["metrics"].get(name) or {}).get("buckets")
    if not buckets:
        return 0.0

    def counts(snap: Dict) -> np.ndarray:
        total = np.zeros(len(buckets) + 1)
        for item in _series(snap, name, where):
            if all(item["labels"].get(k) == v for k, v in match.items()):
                total += np.asarray(item["value"]["counts"], dtype=float)
        return total

    c = counts(after) - counts(before)
    n = c.sum()
    if n <= 0:
        return 0.0
    cum = np.cumsum(c)
    i = int(np.searchsorted(cum, n / 2.0))
    lo = buckets[i - 1] if i > 0 else 0.0
    hi = buckets[i] if i < len(buckets) else buckets[-1]
    prev = cum[i - 1] if i > 0 else 0.0
    frac = (n / 2.0 - prev) / c[i] if c[i] else 0.0
    return (lo + (hi - lo) * frac) * 1000.0


def _is_router(labels: Dict) -> bool:
    return labels.get("shard") == "router"


def _is_planner(labels: Dict) -> bool:
    return labels.get("shard") != "router"


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(records: List[Any], snaps: Dict[str, Dict], all_spans: List[Dict],
              fleet: bool) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced pass."""
    by_id, children, roots, _ = spanlib.build_forest(all_spans)
    phase_of_root = {r: by_id[r]["attrs"].get("phase") for r in roots}

    def under(*phases: str) -> List[Dict]:
        return spanlib.descendants(
            by_id, children, [r for r in roots if phase_of_root[r] in phases]
        )

    def light(s: Dict) -> bool:
        return s["attrs"].get("tenant") == "light"

    cold = under("cold", "sweep")
    every_inter = under("interactive")
    inter = spanlib.descendants(
        by_id, children,
        [r for r in roots if phase_of_root[r] == "interactive" and light(by_id[r])])
    out: Dict[str, float] = {}

    # profiler: a build that simulated anything actually profiled.
    def builds(spans_: List[Dict]) -> List[Dict]:
        return [s for s in spans_ if s["name"] == "profiler.build_matrix"
                and any(by_id[c]["name"] == "simulator.job"
                        for c in children.get(s["sid"], ()))]

    cold_builds = builds(cold)
    out["profiler.matrix_builds"] = len(cold_builds)
    out["profiler.matrix_build_s"] = sum(s["t1"] - s["t0"] for s in cold_builds)
    out["profiler.calibration_sims"] = sum(
        1 for b in cold_builds for c in children.get(b["sid"], ())
        if by_id[c]["name"] == "simulator.job")
    out["profiler.matrix_builds_interactive"] = len(builds(inter))

    # simulator (whatif path, interactive phase)
    sims = [s for s in inter if s["name"].startswith("simulator.")]
    outer = [s for s in sims
             if not by_id.get(s["parent"] or "", {}).get("name", "").startswith("simulator.")]
    out["simulator.job_calls"] = sum(
        s["attrs"].get("items", 1) if s["name"] == "simulator.batch" else 1 for s in outer)
    out["simulator.job_s"] = sum(s["t1"] - s["t0"] for s in outer)
    b, a = snaps["interactive_before"], snaps["interactive_after"]
    out["simulator.cache_hit_ratio"] = hit_ratio(b, a, "cast_sim_cache_events_total",
                                                  _is_planner)
    fast = delta(b, a, "cast_sim_fastpath_total", _is_planner)
    out["simulator.analytic_ratio"] = ratio(
        fast, fast + delta(b, a, "cast_sim_fastpath_fallbacks_total", _is_planner))

    # core + pool (cold phase; the sweep solves in-thread, not on the pool)
    cold_only = under("cold")
    solves = [s for s in cold_only if s["name"] == "core.cast_solve"]
    solve_time = sum(s["t1"] - s["t0"] for s in solves)
    out["core.solve_s"] = solve_time / len(solves) if solves else 0.0
    cb, ca = snaps["cold_before"], snaps["sweep_before"]
    solved = [r.result for r in records if r.ok and r.phase == "cold" and not r.cached]
    out["core.iters_per_s"] = ratio(
        sum(p["iterations"] * p.get("restarts", 1) for p in solved), solve_time)
    ev = [p.get("evaluator") or {} for p in solved]
    hits = sum(e.get("cache_hits", 0) for e in ev)
    out["core.evaluator_hit_ratio"] = ratio(
        hits, hits + sum(e.get("cache_misses", 0) for e in ev))
    out["pool.tasks"] = delta(cb, ca, "cast_pool_tasks_total", _is_planner,
                              stage="completed")
    pool_solves = [s for s in cold_only if s["name"] == "pool.solve"]
    out["pool.solve_s"] = (statistics.fmean(s["t1"] - s["t0"] for s in pool_solves)
                           if pool_solves else 0.0)
    spreads = []
    for p in pool_solves:
        durs = [by_id[c]["t1"] - by_id[c]["t0"] for c in children.get(p["sid"], ())
                if by_id[c]["name"] == "pool.restart"]
        if durs:
            spreads.append(max(durs) - statistics.median(durs))
    out["pool.restart_spread_s"] = statistics.fmean(spreads) if spreads else 0.0

    # server / cache / fingerprint (interactive phase)
    front = _is_router if fleet else _is_planner
    for op in ("plan", "whatif", "session_delta"):
        out[f"server.op_p50_ms.{op}"] = histogram_p50_ms(
            b, a, "cast_op_latency_seconds", front, op=op)
    out["server.cache_hit_ratio"] = hit_ratio(b, a, "cast_plan_cache_events_total",
                                              _is_planner)
    first, last = snaps["cold_before"], snaps["interactive_after"]
    out["server.dedup_joins"] = delta(first, last, "cast_service_events_total",
                                      _is_planner, event="dedup_joined")
    fps = [s["t1"] - s["t0"] for s in inter if s["name"] == "fingerprint.request"]
    out["fingerprint.ms"] = statistics.fmean(fps) * 1000.0 if fps else 0.0

    # protocol / client wire (interactive phase)
    inter_roots = [by_id[r] for r in roots
                   if phase_of_root[r] == "interactive" and light(by_id[r])]
    n_inter = max(1, len(inter_roots))
    out["protocol.encode_ms"] = 1000.0 * sum(
        s["t1"] - s["t0"] for s in inter
        if s["name"] == "protocol.encode" and s["pid"] != os.getpid()) / n_inter
    out["protocol.decode_ms"] = 1000.0 * sum(
        s["t1"] - s["t0"] for s in inter if s["name"] == "protocol.decode") / n_inter
    inter_recs = [r for r in records
                  if r.phase == "interactive" and r.tenant == "light" and r.ok]
    out["protocol.response_bytes"] = (statistics.fmean(r.response_bytes for r in inter_recs)
                                      if inter_recs else 0.0)
    wire = []
    for root in inter_roots:
        served = [by_id[c] for c in children.get(root["sid"], ())
                  if by_id[c]["name"] in ("server.dispatch", "router.dispatch")]
        if served:
            wire.append((root["t1"] - root["t0"])
                        - sum(s["t1"] - s["t0"] for s in served))
    out["client.wire_ms"] = statistics.fmean(wire) * 1000.0 if wire else 0.0

    # session (interactive phase, from the responses)
    deltas = [r.result for r in inter_recs if r.op == "session_delta"]
    replans = [p for d in deltas for p in d.get("replans", [])]
    out["session.replan_ms"] = (statistics.fmean(d["replan_s"] for d in deltas) * 1000.0
                                if deltas else 0.0)
    out["session.warm_ratio"] = ratio(sum(p["mode"] == "warm" for p in replans),
                                      len(replans))
    out["session.escalations"] = sum(bool(p.get("escalated")) for p in replans)

    # sweep (the response carries the point modes)
    sweeps = [r.result for r in records if r.ok and r.op == "sweep"]
    modes: Dict[str, int] = {}
    for sw in sweeps:
        for mode, n in sw.get("modes", {}).items():
            modes[mode] = modes.get(mode, 0) + n
    for mode in ("cold", "warm", "fallback"):
        out[f"sweep.points_{mode}"] = modes.get(mode, 0)
    out["sweep.transfer_win_ratio"] = ratio(
        modes.get("warm", 0), modes.get("warm", 0) + modes.get("fallback", 0))
    points = [p for sw in sweeps for p in sw["points"]]
    out["sweep.point_s"] = statistics.fmean(p["solve_s"] for p in points) if points else 0.0

    # fleet: router L1, forwarding, WFQ, ring balance
    out["router.l1_hit_ratio"] = hit_ratio(b, a, "cast_plan_cache_events_total",
                                           _is_router)
    fwd = [s["t1"] - s["t0"] for s in inter if s["name"] == "router.forward"]
    out["router.forward_ms"] = statistics.fmean(fwd) * 1000.0 if fwd else 0.0
    for tenant in ("light", "batch"):
        waits = [s["t1"] - s["t0"] for s in every_inter
                 if s["name"] == "wfq.acquire" and s["attrs"].get("tenant") == tenant]
        out[f"wfq.wait_ms.{tenant}"] = statistics.fmean(waits) * 1000.0 if waits else 0.0
    routed_before = first["stats"].get("routed") or {}
    routed_after = last["stats"].get("routed") or {}
    routed = [routed_after[k] - routed_before.get(k, 0) for k in routed_after]
    out["hashring.max_shard_share"] = ratio(max(routed, default=0), sum(routed))

    # benchmark health
    lags = [(r.queued - r.due) * 1000.0 for r in records if r.phase == "interactive"]
    out["loadgen.lag_p90_ms"] = pct(lags, 90)

    # self time per layer, as a share of the phase's client wall time
    for phase, accept in (
        ("cold", lambda s: s["attrs"].get("phase") in ("cold", "sweep")),
        ("interactive", lambda s: s["attrs"].get("phase") == "interactive" and light(s)),
    ):
        st = spanlib.self_times(all_spans, accept)
        for layer in LAYERS:
            out[f"self_frac.{phase}.{layer}"] = ratio(st["layers"].get(layer, 0.0),
                                                      st["wall_s"])
    return out


def self_time_check(all_spans: List[Dict]) -> Dict[str, float]:
    """Layer self times vs measured wall time over every timed request.

    Self times split each request's wall time among its spans, so the
    sum misses only where a child ran outside its parent or a linked
    span lost its parent; :func:`link_check` covers spans that never
    arrived at all.
    """
    st = spanlib.self_times(
        all_spans, lambda s: s["attrs"].get("phase") in ("cold", "sweep", "interactive"))
    return {
        "wall_s": st["wall_s"],
        "self_sum_s": st["self_sum_s"],
        "err_frac": ratio(abs(st["self_sum_s"] - st["wall_s"]), st["wall_s"]),
    }


#: Span every answered request of an op must have below its client span.
_OP_SPANS = {"sweep": ("sweep.run",),
             "session_delta": ("session.add_jobs", "session.remove_jobs")}


def link_check(records: List[Any], all_spans: List[Dict], fleet: bool) -> List[str]:
    """Check that the spans each timed request must cause reached home.

    Every timed request needs its client span with exactly one daemon
    dispatch under it; on the fleet every shard forward needs the
    shard's dispatch; every solved plan needs as many ``pool.restart``
    spans from the pool workers as the response reports restarts;
    sweeps and session deltas need their layer's span; and no span that
    carries a cross-process key may be left without its parent.
    """
    by_id, children, roots, orphans = spanlib.build_forest(all_spans)
    root_of = {by_id[r]["attrs"].get("sent"): r for r in roots}
    dispatch = "router.dispatch" if fleet else "server.dispatch"
    errors: List[str] = []

    def kids(sid: str, name: str) -> List[Dict]:
        return [by_id[c] for c in children.get(sid, ()) if by_id[c]["name"] == name]

    for r in records:
        if r.phase not in ("cold", "sweep", "interactive"):
            continue
        label = f"{r.kind} #{r.index}"
        root = root_of.get(r.rid)
        if root is None:
            errors.append(f"{label}: no client span")
            continue
        if len(kids(root, dispatch)) != 1:
            errors.append(f"{label}: {len(kids(root, dispatch))} {dispatch} spans, want 1")
        if not r.ok:
            continue
        below = spanlib.descendants(by_id, children, [root])
        names = [s["name"] for s in below]
        if r.op == "plan" and not r.cached:
            want = r.result.get("restarts", 0)
            got = names.count("pool.restart")
            if "pool.solve" not in names or got != want:
                errors.append(f"{label}: {got} pool.restart spans for {want} restarts")
        need = _OP_SPANS.get(r.op, ())
        if need and not any(n in names for n in need):
            errors.append(f"{label}: no {' or '.join(need)} span")
        if fleet:
            for fwd in (s for s in below if s["name"] == "router.forward"):
                if len(kids(fwd["sid"], "server.dispatch")) != 1:
                    errors.append(f"{label}: a shard forward has no shard dispatch")
    lost = [by_id[o]["name"] for o in orphans if spanlib.should_link(by_id[o])]
    if lost:
        errors.append(f"{len(lost)} spans lost their cross-process parent "
                      f"({', '.join(sorted(set(lost)))})")
    return errors


def trace_overhead(untraced: List[Any], traced: List[Any]) -> Dict[str, float]:
    """Paired latency gap, the same requests traced vs untraced: the
    median of the per-request ratios minus 1, per phase, so the
    seconds-long cold requests cannot drown the interactive ones."""
    def key(r: Any) -> Optional[tuple]:
        return (r.phase, r.kind, r.index) if r.ok else None

    base = {key(r): r.latency_s for r in untraced if key(r) is not None}

    def gap(phases: Iterable[str]) -> float:
        ratios = [r.latency_s / base[key(r)] for r in traced
                  if r.phase in phases and r.tenant == "light" and key(r) in base]
        return statistics.median(ratios) - 1.0 if ratios else 0.0

    return {"obs.trace_overhead_frac": gap(("interactive",)),
            "obs.trace_overhead_frac.cold": gap(("cold", "sweep"))}
