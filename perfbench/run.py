#!/usr/bin/env python3
"""End-to-end request benchmark for the planner daemons.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solo --seed 1 --seconds 15 --trace 0

Starts a real ``cast-plan serve`` (workload ``solo``) or
``cast-plan fleet --shards 2`` (workload ``fleet_2shard``) and drives it
from this one process over at most two connections:

1. set-up: launch the daemon ``setup_launches`` times (fresh HOME, TMPDIR
   and cwd each), time launch → first answered ``ping``, keep the last;
2. ``cold``: the first ``plan`` alone, then unique 100-job ``plan``
   misses in a closed loop over tenant ``light``'s connections
   (``connections`` in ``config.json``: two on ``solo``, one on the
   fleet, whose other connection belongs to tenant ``batch``);
3. ``sweep``: one cross-catalog ``sweep``;
4. ``prep`` (untimed): open a planning session with ~1,000 jobs;
5. ``interactive``: ``--seconds`` of an open-loop mix of ``plan`` cache
   hits, mostly-unique ``whatif``s and 1–2-job ``session_delta``s as
   tenant ``light``, at a rate well below the mix's closed-loop capacity;
   on the fleet, tenant ``batch`` sends unique ``plan`` misses at the
   same time on the other connection;
6. stop the daemon, then run the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same inputs twice, untraced and then with span wrappers installed in
every daemon process, checks that every span a request must cause
reached home, and prints the per-layer metrics (the gap between the two
passes is ``obs.trace_overhead_frac``).  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--probe`` runs the interactive stream closed-loop for ``--seconds``
instead and prints its capacity in requests/s and the share of it that
``rate_per_s`` is.  Details: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(HERE, "hook")
RUNS = os.path.join(HERE, ".runs")

WORKLOADS = {"solo": "serve", "fleet_2shard": "fleet"}

#: Size of the probe's interactive stream, requests per ``--seconds``:
#: above the mix's capacity on either workload, so the closed loop runs
#: out of time, not of requests.
PROBE_RATE_PER_S = 60


def load_config(smoke: bool) -> Dict[str, Any]:
    with open(os.path.join(HERE, "config.json")) as fh:
        cfg = json.load(fh)
    if smoke:
        for key, value in cfg["smoke"].items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


async def _snapshot(conn: Any, fleet: bool) -> Dict[str, Any]:
    stats = await conn.request("stats")
    params = {"format": "json"}
    if fleet:
        params["scope"] = "fleet"
    metrics = await conn.request("metrics", params)
    return {"stats": stats, "metrics": metrics["metrics"]}


async def drive(address: Tuple[str, int], inputs: Any, cfg: Dict[str, Any],
                workload: str, seconds: float, traced: bool, probe: bool = False
                ) -> Tuple[List[Any], Dict[str, Dict]]:
    """Phases 2–5 against a ready daemon; returns records and snapshots.

    With ``probe`` the interactive stream runs closed-loop for
    ``seconds`` instead, and requests it did not reach are dropped.
    """
    from loadgen import Connection, Req, closed_loop, open_loop

    fleet = workload == "fleet_2shard"
    # Tenant light's connections; on the fleet, batch has the other one.
    n_light = cfg["connections"][workload]

    conns = [await Connection(*address, traced).open() for _ in range(2)]
    records: List[Any] = []
    snaps: Dict[str, Dict] = {}

    def req(kind: str, op: str, params: Dict, phase: str, i: int) -> Any:
        r = Req(kind=kind, op=op, params=params, phase=phase, index=i,
                tenant=params.get("tenant", "default"))
        records.append(r)
        return r

    try:
        snaps["cold_before"] = await _snapshot(conns[0], fleet)
        first = req("plan_first", "plan", inputs.plans[0], "cold", 0)
        await conns[0].call(first)
        misses = [req("plan_miss", "plan", p, "cold", i)
                  for i, p in enumerate(inputs.plans[1:], start=1)]
        await closed_loop(conns[:n_light], misses)
        snaps["sweep_before"] = await _snapshot(conns[0], fleet)
        await conns[0].call(req("sweep", "sweep", inputs.sweep, "sweep", 0))
        snaps["sweep_after"] = await _snapshot(conns[0], fleet)

        opened = await conns[0].request("session_open", inputs.session_open, "prep")
        served = [r.result["plan"] if r.ok else None for r in [first] + misses]
        light = []
        for i, item in enumerate(inputs.mix):
            params = dict(item["params"])
            if "plan_of" in params:
                plan = served[params.pop("plan_of")]
                if plan is None:
                    params["tier"] = "objStore"
                else:
                    params["plan"] = plan
            if item["op"] == "session_delta":
                params["session_id"] = opened["session_id"]
            light.append(req(item["kind"], item["op"], params, "interactive", i))
        batch = [req("batch_miss", "plan", p, "interactive", i)
                 for i, p in enumerate(inputs.batch)] if fleet else []

        snaps["interactive_before"] = await _snapshot(conns[0], fleet)
        start = time.monotonic() + 0.05
        if probe:
            stream = closed_loop(conns[:n_light], light, deadline=start + seconds)
        else:
            stream = open_loop(conns[:n_light], light, inputs.mix_offsets, start)
        spacing = seconds / max(1, len(batch))
        await asyncio.gather(
            stream,
            open_loop(conns[n_light:], batch, [i * spacing for i in range(len(batch))],
                      start),
        )
        snaps["interactive_after"] = await _snapshot(conns[0], fleet)
    finally:
        for c in conns:
            await c.close()
    if probe:
        records = [r for r in records if r.sent]
    return records, snaps


def _cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of the host so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_pass(cfg: Dict[str, Any], workload: str, seed: int, seconds: float,
             traced: bool, launches: int, rundir: str,
             probe: bool = False) -> Dict[str, Any]:
    """One full pass: set-up, phases, teardown.  No gate."""
    from daemon import Daemon
    from loadgen import make_inputs

    kind = WORKLOADS[workload]
    args = list(cfg["daemon_args"][workload])
    span_dir = os.path.join(rundir, "spans") if traced else None
    if span_dir:
        os.makedirs(span_dir, exist_ok=True)
    rate = PROBE_RATE_PER_S if probe else cfg["interactive"]["rate_per_s"]
    inputs = make_inputs(cfg, seed, seconds, rate)
    setups: List[float] = []
    daemon = None
    steal0, total0 = _cpu_jiffies()
    started = time.monotonic()
    try:
        for i in range(launches):
            daemon = Daemon(kind, SRC, os.path.join(rundir, f"daemon{i}"), args,
                            hook_dir=HOOK if traced else None, span_dir=span_dir)
            setups.append(daemon.start())
            if i < launches - 1:
                daemon.stop()
        records, snaps = asyncio.run(
            drive(daemon.address, inputs, cfg, workload, seconds, traced, probe))
        rss = daemon.rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    steal1, total1 = _cpu_jiffies()
    out: Dict[str, Any] = {"records": records, "snaps": snaps, "setups": setups,
                           "rss_mb": rss,
                           "steal_frac": (steal1 - steal0) / max(1, total1 - total0)}
    print(f"perfbench: {workload} pass (traced={traced}) took "
          f"{time.monotonic() - started:.1f}s, set-up {sum(setups):.1f}s, "
          f"host steal {out['steal_frac']:.1%} of CPU time", file=sys.stderr)
    if traced:
        import spans

        out["spans"] = spans.collected() + spans.load_dir(span_dir)
    return out


def report_probe(records: List[Any], cfg: Dict[str, Any], workload: str,
                 errors: List[str]) -> int:
    """Print the interactive mix's closed-loop capacity and what share of
    it the configured ``rate_per_s`` is."""
    light = [r for r in records if r.phase == "interactive" and r.tenant == "light"]
    elapsed = max(r.done for r in light) - min(r.sent for r in light)
    capacity = sum(r.ok for r in light) / elapsed
    service_ms = {}
    for kind in sorted({r.kind for r in light}):
        times = [r.done - r.sent for r in light if r.kind == kind]
        service_ms[kind] = 1000.0 * sum(times) / len(times)
    for err in errors:
        print(f"perfbench: MISMATCH {err}", file=sys.stderr)
    print(json.dumps({
        "workload": workload, "correct": not errors, "requests": len(light),
        "failed": sum(not r.ok for r in light), "elapsed_s": elapsed,
        "capacity_per_s": capacity, "mean_service_ms": service_ms,
        "utilisation_at_configured_rate": cfg["interactive"]["rate_per_s"] / capacity,
    }))
    return 1 if errors else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (for perfbench/smoke.py)")
    parser.add_argument("--probe", action="store_true",
                        help="measure the closed-loop capacity of the interactive mix")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no planner sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Byte-compile once, so daemon set-up times imports, not compilation.
    compileall.compile_dir(SRC, quiet=1)

    import gate
    import report

    cfg = load_config(args.smoke)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    fleet = args.workload == "fleet_2shard"
    rundir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if args.probe:
            result = run_pass(cfg, args.workload, args.seed, args.seconds, False, 1,
                              rundir, probe=True)
            errors = gate.check(result["records"], cfg, args.seed, fleet)
            return report_probe(result["records"], cfg, args.workload, errors)
        if args.trace:
            base = run_pass(cfg, args.workload, args.seed, args.seconds, False, 1,
                            os.path.join(rundir, "untraced"))
            result = run_pass(cfg, args.workload, args.seed, args.seconds, True, 1,
                              os.path.join(rundir, "traced"))
        else:
            result = run_pass(cfg, args.workload, args.seed, args.seconds, False,
                              cfg["setup_launches"], rundir)
        records = result["records"]
        started = time.monotonic()
        errors = gate.check(records, cfg, args.seed, fleet)
        print(f"perfbench: gate {time.monotonic() - started:.1f}s", file=sys.stderr)
        if args.trace:
            check = report.self_time_check(result["spans"])
            if check["err_frac"] > cfg["self_time_tolerance_frac"]:
                errors.append(
                    f"layer self times sum to {check['self_sum_s']:.3f}s but the "
                    f"requests took {check['wall_s']:.3f}s")
            errors.extend(report.link_check(records, result["spans"], fleet))
            metrics = report.per_layer(records, result["snaps"], result["spans"], fleet)
            metrics.update(report.trace_overhead(base["records"], result["records"]))
            metrics.update(report.ungated_latencies(base["records"]))
            metrics["trace.self_sum_err_frac"] = check["err_frac"]
            metrics["host.steal_frac"] = result["steal_frac"]
            declared = bench["per_layer"]
        else:
            metrics = report.end_to_end(records, result["setups"], result["rss_mb"],
                                        cfg["limits_ms"])
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared}
    for err in errors:
        print(f"perfbench: MISMATCH {err}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
