"""Seeded inputs and the single-process load generator.

Inputs
    Every plan workload is the paper's 100-job SWIM mix (Table 4 bins in
    the canonical order), with each job's map count jittered and the
    15 % reuse groups redrawn from the benchmark seed.  The jitter makes
    every request unique (a real cache miss) while keeping the size mix,
    and with it solve cost and plan utility, comparable across seeds.

Load generator
    One asyncio process, at most two TCP connections.  Each request is a
    :class:`Req` record; the connection worker stamps when it was sent
    and answered.  Latency is measured from ``due``: for the open loop
    the scheduled arrival time (so a stall also charges the requests
    queued behind it), for the closed loop the send time.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import math
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.service.protocol import (
    MAX_LINE_BYTES,
    encode_message,
    make_request,
    parse_response,
)
from repro.workloads.io import job_to_dict, workload_to_dict
from repro.workloads.spec import ReuseLifetime, WorkloadSpec
from repro.workloads.swim import _build_reuse_sets, synthesize_facebook_workload

import spans

TIERS = ("ephSSD", "persSSD", "persHDD", "objStore")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _jittered_jobs(rng: np.random.Generator, n_jobs: int, jitter: float,
                   prefix: str = "", pick: Optional[List[int]] = None) -> list:
    """The first ``n_jobs`` canonical SWIM jobs (or those at ``pick``),
    map counts scaled by a uniform factor in ``1 ± jitter``."""
    base = synthesize_facebook_workload(None).jobs
    base = [base[i] for i in pick] if pick is not None else base[:n_jobs]
    jobs = []
    for job in base:
        maps = max(1, int(round(job.n_maps * rng.uniform(1 - jitter, 1 + jitter))))
        jobs.append(dataclasses.replace(
            job, job_id=prefix + job.job_id, n_maps=maps, input_gb=float(maps)
        ))
    return jobs


def plan_workload(gen: Dict[str, Any], rng: np.random.Generator, name: str,
                  prefix: str = "") -> WorkloadSpec:
    """One jittered SWIM workload."""
    jobs = _jittered_jobs(rng, gen["jobs"], gen["map_jitter"], prefix)
    sets = _build_reuse_sets(jobs, gen["reuse_fraction"], ReuseLifetime.SHORT, rng)
    return WorkloadSpec(jobs=tuple(jobs), reuse_sets=tuple(sets), name=name)


@dataclasses.dataclass
class Inputs:
    """Everything a run sends, drawn from the seed up front."""

    plans: List[Dict[str, Any]]          # plan params, cold phase order
    batch: List[Dict[str, Any]]          # fleet tenant ``batch`` plan params
    sweep: Dict[str, Any]                # sweep params
    session_open: Dict[str, Any]         # session_open params (no id yet)
    mix: List[Dict[str, Any]]            # interactive stream, in order
    mix_offsets: List[float]             # its arrival times, s from phase start


def make_inputs(cfg: Dict[str, Any], seed: int, seconds: float, rate: float) -> Inputs:
    """Draw every request of a run from ``seed``; the interactive stream
    holds ``rate`` × ``seconds`` requests.  All requests are sent as
    tenant ``light``, except the fleet's background ``batch`` plans."""
    gen = cfg["generator"]
    rng = np.random.default_rng([seed, 2015])
    knobs = {"provider": gen["provider"], "n_vms": gen["n_vms"],
             "iterations": gen["iterations"], "tenant": "light"}

    def plan_params(i: int, label: str, tenant: str) -> Dict[str, Any]:
        w = plan_workload(gen, rng, f"bench-{seed}-{label}{i}")
        return dict(knobs, spec=workload_to_dict(w), seed=int(rng.integers(1 << 31)),
                    tenant=tenant)

    plans = [plan_params(i, "p", "light") for i in range(gen["cold_plans"])]
    batch = [plan_params(i, "b", "batch") for i in range(cfg["fleet"]["batch_plans"])]
    sweep = {
        "specs": [p["spec"] for p in plans[: gen["sweep_workloads"]]],
        "providers": list(gen["sweep_providers"]),
        "n_vms": gen["n_vms"], "iterations": gen["iterations"],
        "seed": int(rng.integers(1 << 31)), "tenant": "light",
    }

    resident = []
    resident_sets = []
    for k in range(gen["session_windows"]):
        w = plan_workload(gen, rng, f"s{k}", prefix=f"s{k}-")
        resident.extend(w.jobs)
        resident_sets.extend(w.reuse_sets)
    session = WorkloadSpec(jobs=tuple(resident), reuse_sets=tuple(resident_sets),
                           name=f"bench-{seed}-session")
    session_open = {
        "session_id": f"bench-{seed}",  # a fleet routes the session by its id
        "spec": workload_to_dict(session),
        "provider": gen["provider"], "n_vms": gen["n_vms"],
        "iterations": gen["session_iterations"], "seed": int(rng.integers(1 << 31)),
        "tenant": "light",
    }

    inter = cfg["interactive"]
    n_req = max(3, int(round(rate * seconds)))
    # Equal thirds, shuffled within each block of three: the order is
    # seeded, but no seed can bunch the slow kinds into a burst.
    kinds: List[str] = []
    while len(kinds) < n_req:
        block = ["plan_hit", "whatif", "session_delta"]
        rng.shuffle(block)
        kinds.extend(block)
    kinds = kinds[:n_req]
    n_deltas = 0
    removable = [j.job_id for j in resident]
    rng.shuffle(removable)
    mix: List[Dict[str, Any]] = []
    for i, kind in enumerate(kinds):
        if kind == "plan_hit":
            mix.append({"kind": kind, "op": "plan",
                        "params": plans[int(rng.integers(len(plans)))]})
        elif kind == "whatif":
            src = int(rng.integers(len(plans)))
            params = {"spec": plans[src]["spec"], "provider": gen["provider"],
                      "n_vms": int(rng.integers(inter["whatif_vms"][0],
                                                inter["whatif_vms"][1] + 1))}
            if rng.random() < inter["whatif_plan_share"]:
                params["plan_of"] = src  # filled with the served plan later
            else:
                params["tier"] = TIERS[int(rng.integers(len(TIERS)))]
            params["tenant"] = "light"
            mix.append({"kind": kind, "op": "whatif", "params": params})
        else:
            # Churn alternates arrivals and departures, so the session
            # stays near its opening size and each delta is one re-plan.
            # Departures only take jobs of the opening workload: two
            # deltas in flight on two connections may reach the session
            # in either order, so neither may depend on the other.
            k = int(rng.integers(1, inter["churn_jobs_max"] + 1))
            if n_deltas % 2:
                params = {"remove": [removable.pop() for _ in range(k)]}
            else:
                pick = [int(x) for x in rng.choice(gen["jobs"], size=k, replace=False)]
                jobs = _jittered_jobs(rng, k, gen["map_jitter"], f"c{i}-", pick)
                params = {"add": {"jobs": [job_to_dict(j) for j in jobs]}}
            params["tenant"] = "light"
            n_deltas += 1
            mix.append({"kind": kind, "op": "session_delta", "params": params})
    # Uniform spacing: with Poisson arrivals the open-loop queue on this
    # 2-vCPU host amplifies every burst of hypervisor steal into a
    # latency tail, and run-to-run spread tracks the host, not the code.
    offsets = [i * seconds / len(mix) for i in range(len(mix))]
    return Inputs(plans=plans, batch=batch, sweep=sweep, session_open=session_open,
                  mix=mix, mix_offsets=offsets)


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Req:
    kind: str                     # plan_first/plan_miss/plan_hit/whatif/...
    op: str
    params: Dict[str, Any]
    phase: str
    index: int = 0
    tenant: str = "default"
    due: float = 0.0
    queued: float = 0.0           # when the generator released it
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    cached: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    response_bytes: int = 0
    rid: str = ""                 # request id on the wire

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class Connection:
    """One persistent request/response connection."""

    _ids = itertools.count(1)

    def __init__(self, host: str, port: int, traced: bool) -> None:
        self.host, self.port, self.traced = host, port, traced
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    def _span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Any:
        return spans.span(name, attrs) if self.traced else contextlib.nullcontext()

    async def call(self, req: Req) -> Req:
        """Send ``req`` and fill in its outcome (never raises on a
        failed request; a failure is recorded on the record)."""
        rid = req.rid = f"pb-{next(self._ids)}"
        req.sent = time.monotonic()
        if req.due == 0.0:
            req.due = req.sent
        attrs = {"sent": rid, "op": req.op, "kind": req.kind, "phase": req.phase,
                 "tenant": req.tenant}
        try:
            with self._span("client.request", attrs):
                with self._span("protocol.encode"):
                    line = encode_message(make_request(req.op, req.params, req_id=rid))
                self.writer.write(line)
                await self.writer.drain()
                raw = await self.reader.readline()
                if not raw:
                    raise ConnectionError("daemon closed the connection")
                with self._span("protocol.decode"):
                    resp = parse_response(raw)
            req.response_bytes = len(raw)
            req.ok = bool(resp["ok"])
            if req.ok:
                req.result = resp["result"]
                req.cached = bool(resp.get("cached", False))
            else:
                req.error = f"{resp['error'].get('type')}: {resp['error'].get('message')}"
        except (ConnectionError, OSError, ValueError) as exc:
            req.ok = False
            req.error = repr(exc)
        req.done = time.monotonic()
        return req

    async def request(self, op: str, params: Optional[Dict[str, Any]] = None,
                      phase: str = "control") -> Dict[str, Any]:
        """Untimed helper for control ops; raises on failure."""
        req = await self.call(Req(kind=op, op=op, params=dict(params or {}), phase=phase))
        if not req.ok:
            raise RuntimeError(f"{op} failed: {req.error}")
        return req.result


async def closed_loop(conns: List[Connection], reqs: List[Req],
                      deadline: float = math.inf) -> None:
    """Each connection sends its next request when the previous answered,
    until ``reqs`` or the time run out (``deadline``, monotonic seconds);
    requests left unsent keep ``sent == 0``."""
    pending = list(reversed(reqs))

    async def worker(conn: Connection) -> None:
        while pending and time.monotonic() < deadline:
            await conn.call(pending.pop())

    await asyncio.gather(*(worker(c) for c in conns))


async def open_loop(conns: List[Connection], reqs: List[Req], offsets: List[float],
                    start: float) -> None:
    """Release request ``i`` at ``start + offsets[i]``; idle connections
    take released requests in order."""
    q: "asyncio.Queue[Optional[Req]]" = asyncio.Queue()

    async def producer() -> None:
        for req, offset in zip(reqs, offsets):
            req.due = start + offset
            delay = req.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            req.queued = time.monotonic()
            q.put_nowait(req)
        for _ in conns:
            q.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            req = await q.get()
            if req is None:
                return
            await conn.call(req)

    await asyncio.gather(producer(), *(worker(c) for c in conns))
