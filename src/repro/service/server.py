"""The planner daemon: an asyncio TCP server over the solver pool.

Requests walk the shared front end (:mod:`repro.service.frontend`):
parse, dispatch, fingerprint cache and single-flight.  What the daemon
adds is how a cache miss is computed:

* ``plan`` / ``plan_workflow``: an admission check (reject with
  ServiceBusyError when inflight + queued > the limits), then a
  multi-start solve on the pool under a per-request timeout;
* ``whatif`` / ``sweep``: one simulation pass or sweep grid on a worker
  thread, never through the pool and never shed;

plus its own state: the solver pool and the streaming sessions.

Single-flight dedup means a burst of identical requests — the common
shape for a planning service, since tenants re-submit recurring
workloads — costs exactly one solve; everyone else awaits the leader's
future.

The server is one asyncio loop; all heavy work happens in the pool's
worker processes, so the loop stays responsive for ``ping``/``stats``
even while solves run.  ``stop()`` drains: no new connections, inflight
solves finish, then the pool shuts down.

Observability: every server owns a :class:`~repro.obs.metrics.MetricsRegistry`
into which all its moving parts report — service request/event counters,
a solve-latency histogram, the plan cache, the solver pool (including
deltas shipped home by process workers), the simulation cache and the
evaluator totals.  The ``metrics`` op exposes it (Prometheus text or
JSON); the legacy ``stats`` payload is now *derived* from the registry,
byte-compatible with the old hand-rolled dicts.  Each request runs
inside a ``service.request`` span and every response carries its
``trace_id``.  The operational layer (per-op latency, flight recorder,
SLO engine, page dumps, ``profile``, ``debug_dump``) is the front
end's.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Dict, Mapping, Optional, Sequence

from ..cloud import resolve_provider
from ..errors import (
    ProtocolError,
    ServiceBusyError,
    ServiceError,
    ServiceTimeoutError,
)
from ..obs.metrics import MetricsRegistry
from ..obs.slo import BurnPolicy, Objective
from ..obs.tracing import span
from ..simulator.cache import register_metrics as register_sim_cache_metrics
from ..simulator.vectorized import register_fastpath_metrics
from .frontend import RequestFrontEnd
from .pool import SolverPool
from .sessions import SessionManager

__all__ = ["PlannerServer"]

logger = logging.getLogger(__name__)

#: Event-counter keys, in the order the legacy ``stats`` payload listed
#: them (after ``requests``, which is a separate unlabeled counter).
_EVENT_KEYS = (
    "bad_requests",
    "dedup_joined",
    "solves_ok",
    "solve_errors",
    "timeouts",
    "rejected",
)


def _run_sweep(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Solve the sweep grid (blocking; runs on a worker thread).

    The engine does its own fan-out: with ``workers`` set, waves go
    through a process-pool :class:`~repro.experiments.runner.ExperimentRunner`
    owned by the engine, so the solves never touch the server's solver
    pool — a sweep is one worker-thread unit of work.
    """
    from ..errors import WorkloadError
    from ..sweep import SweepConfig, SweepEngine
    from ..workloads.io import workload_from_dict

    workloads = []
    for spec in request["specs"]:
        if spec.get("kind") != "workload":
            raise WorkloadError("sweep wants workload specs (kind='workload')")
        workloads.append(workload_from_dict(dict(spec)))
    if request["reps"] < 1:
        raise WorkloadError(f"sweep reps must be >= 1, got {request['reps']}")
    engine = SweepEngine(
        request["providers"],
        workloads,
        knobs=[{"rep": r} for r in range(request["reps"])],
        config=SweepConfig(
            n_vms=request["n_vms"],
            iterations=request["iterations"],
            seed=request["seed"],
            use_castpp=request["use_castpp"],
            backend=request["backend"],
            replicas=request["replicas"],
            warm=request["warm"],
        ),
        workers=request["workers"],
    )
    return engine.run().to_dict()


def _run_whatif(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure the requested tiering on the simulator (blocking).

    Runs on a worker thread via :func:`asyncio.to_thread` — the
    measurement is simulation-bound (milliseconds on the fast path,
    seconds on the exact engine), not solver-bound, so it never goes
    through the solver pool.
    """
    from ..cloud.storage import Tier
    from ..cloud.vm import ClusterSpec
    from ..core.plan import TieringPlan
    from ..errors import WorkloadError
    from ..experiments.measure import measure_plan
    from ..experiments.runner import ExperimentRunner
    from ..workloads.io import workload_from_dict

    spec = request["spec"]
    if spec.get("kind") != "workload":
        raise WorkloadError("whatif wants a workload spec (kind='workload')")
    workload = workload_from_dict(dict(spec))
    prov = resolve_provider(request["provider"])
    cluster = ClusterSpec(n_vms=request["n_vms"])
    if request["plan"] is not None:
        plan = TieringPlan.from_dict(dict(request["plan"]))
    else:
        try:
            tier = Tier(request["tier"])
        except ValueError:
            raise WorkloadError(f"unknown tier {request['tier']!r}") from None
        plan = TieringPlan.uniform(workload, tier)
    fast = bool(request["fast"])
    with ExperimentRunner(0, fast_path=fast) as runner:
        measured = measure_plan(
            workload, plan, cluster, prov, runner=runner if fast else None
        )
    return {
        "makespan_s": measured.makespan_s,
        "makespan_min": measured.makespan_min,
        "cost_total_usd": measured.cost.total_usd,
        "cost_vm_usd": measured.cost.vm_usd,
        "cost_storage_usd": measured.cost.storage_usd,
        "utility": measured.utility,
        "n_jobs": workload.n_jobs,
        "fast": fast,
        "per_job": {
            job_id: {
                "download_s": r.download_s,
                "map_s": r.map_s,
                "reduce_s": r.reduce_s,
                "upload_s": r.upload_s,
                "total_s": r.total_s,
            }
            for job_id, r in measured.per_job.items()
        },
    }


class PlannerServer(RequestFrontEnd):
    """Long-lived planning daemon with caching and single-flight dedup.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    pool:
        A :class:`SolverPool`; built from ``pool_processes``/``restarts``
        when omitted.
    cache_size:
        LRU plan-cache capacity (entries).
    max_inflight:
        Solves running on the pool concurrently; further solves queue.
    max_queue:
        Queued solves beyond ``max_inflight`` before new unique requests
        are shed with :class:`ServiceBusyError` (dedup'd and cached
        requests are never shed — they cost no solver work).
    request_timeout_s:
        Per-solve deadline; breaches answer :class:`ServiceTimeoutError`.
    solver_fn:
        Test seam: ``async (request_dict) -> result_dict`` replacing the
        pool solve.
    registry:
        Metrics registry to report into; each server gets its own fresh
        one when omitted, so per-server counters always start at zero.
    """

    _METRICS = {
        "requests": ("cast_service_requests_total", "Request lines received"),
        "ops": ("cast_service_ops_total", "Requests by op"),
        "events": ("cast_service_events_total", "Service lifecycle events by kind"),
        "tenants": ("cast_service_tenant_requests_total", "Solve requests by tenant"),
    }
    # Defined in this class body: perfbench/spans.py wraps each role's own.
    _dispatch = RequestFrontEnd._dispatch

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool: Optional[SolverPool] = None,
        pool_processes: Optional[int] = None,
        restarts: Optional[int] = None,
        cache_size: int = 128,
        max_inflight: int = 4,
        max_queue: int = 64,
        request_timeout_s: float = 600.0,
        solver_fn: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
        slo_objectives: Optional[Sequence[Objective]] = None,
        slo_policy: Optional[BurnPolicy] = None,
        slo_clock: Optional[Any] = None,
        slo_eval_interval_s: float = 5.0,
        dump_dir: Optional[str] = None,
        flight_capacity: int = 512,
        flight_exemplars: int = 8,
    ) -> None:
        if max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {max_inflight}")
        super().__init__(
            host, port, cache_size=cache_size, registry=registry,
            slo_objectives=slo_objectives, slo_policy=slo_policy,
            slo_clock=slo_clock, slo_eval_interval_s=slo_eval_interval_s,
            dump_dir=dump_dir, flight_capacity=flight_capacity,
            flight_exemplars=flight_exemplars,
        )
        if pool is None:
            kwargs: Dict[str, Any] = {"processes": pool_processes}
            if restarts is not None:
                kwargs["restarts"] = restarts
            pool = SolverPool(**kwargs)
        self.pool = pool
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.request_timeout_s = float(request_timeout_s)
        self._solver_fn = solver_fn
        self._solve_sem = asyncio.Semaphore(self.max_inflight)
        self._admitted = 0  # solves admitted but not yet finished
        self._evaluator_events = self.metrics.counter(
            "cast_evaluator_events_total",
            "Incremental-evaluator cache counters, summed over solves",
            labelnames=("counter",),
        )
        self._solve_seconds = self.metrics.histogram(
            "cast_service_solve_seconds",
            "End-to-end wall time of non-cached solves",
        )
        self.sessions = SessionManager(registry=self.metrics)
        self.pool.bind_metrics(self.metrics)
        register_sim_cache_metrics(self.metrics)
        register_fastpath_metrics(self.metrics)
        self._reset_stats()

    def _reset_stats(self) -> None:
        """Zero the uptime clock and every service counter.

        Registry reset clears the service-owned series; the mirrored
        caches/pool keep their own ints and simply re-publish on the
        next exposition.
        """
        self._started_at = time.monotonic()
        self.metrics.reset()

    @property
    def default_restarts(self) -> int:
        """Restart count of solves that don't specify one (the pool's)."""
        return self.pool.restarts

    async def start(self) -> None:
        """Bind and start accepting connections, counters zeroed."""
        await super().start()
        self._reset_stats()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain solves, close the pool."""
        await super().stop()
        self.pool.shutdown(wait=True)

    # -- ops -------------------------------------------------------------------

    async def _op_metrics(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``metrics`` op: the registry in Prometheus text or JSON.

        The JSON exposition carries the flight recorder's slowest-K
        exemplars on each per-op latency series — a p99 spike arrives
        with trace ids attached.
        """
        fmt = str(params.get("format", "prometheus")).lower()
        if fmt == "prometheus":
            return {"format": "prometheus", "body": self.metrics.to_prometheus()}
        if fmt == "json":
            return {
                "format": "json",
                "metrics": self.recorder.attach_exemplars(
                    self.metrics.to_json()
                ),
            }
        raise ProtocolError(
            f"unknown metrics format {fmt!r} (expected 'prometheus' or 'json')"
        )

    async def _op_slo(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``slo`` op: evaluate the engine on a fresh snapshot.

        Transitions fire synchronously here (the same path the
        background tick uses), so a ``page`` entered during this very
        evaluation has already written its dump by the time the
        response leaves.
        """
        return self.slo.evaluate(registry=self.metrics)

    async def _op_register(
        self, params: Mapping[str, Any], op: str = "register"
    ) -> Dict[str, Any]:
        raise ProtocolError(
            f"op {op!r} is served by the fleet router, not a planner "
            f"shard — point the registration at 'cast-plan fleet'"
        )

    async def _op_deregister(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self._op_register(params, op="deregister")

    async def _op_session_open(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.open(params)

    async def _op_session_delta(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.delta(params)

    async def _op_session_close(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.close(params)

    def _config_payload(self) -> Dict[str, Any]:
        return {
            "role": "server",
            "host": self.host,
            "port": self.port,
            "limits": {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "request_timeout_s": self.request_timeout_s,
            },
            "pool": {
                "processes": self.pool.processes,
                "restarts": self.pool.restarts,
            },
            "cache_capacity": self.cache.capacity,
            "slo": self.slo.config(),
            "dump_dir": self.dump_dir,
        }

    # -- cache misses ------------------------------------------------------------

    def _admit(self, op: str) -> None:
        # Only solves hold the pool; whatif and sweep run on worker
        # threads and are never shed.
        if op not in ("plan", "plan_workflow"):
            return
        if self._admitted >= self.max_inflight + self.max_queue:
            self._events.inc(event="rejected")
            logger.warning(
                "shedding %s request: %d solves admitted "
                "(limit %d inflight + %d queued)",
                op, self._admitted, self.max_inflight, self.max_queue,
            )
            raise ServiceBusyError(
                f"server at capacity ({self._admitted} solves admitted, "
                f"limit {self.max_inflight} inflight + {self.max_queue} queued)"
            )

    async def _compute(
        self, op: str, normalized: Dict[str, Any], fingerprint: str
    ) -> Dict[str, Any]:
        return await getattr(self, f"_compute_{op}")(op, normalized)

    async def _compute_plan(
        self, op: str, normalized: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Multi-start solve on the pool (or ``solver_fn``), admitted."""
        del normalized["tenant"]
        restarts = normalized.pop("restarts")
        self._admitted += 1
        try:
            async with self._solve_sem:
                started = time.monotonic()
                with span(
                    "service.solve", attrs={"op": op, "restarts": restarts}
                ) as solve_span:
                    try:
                        result = await asyncio.wait_for(
                            self._run_solver(normalized, restarts),
                            timeout=self.request_timeout_s,
                        )
                    except asyncio.TimeoutError:
                        self._events.inc(event="timeouts")
                        logger.warning(
                            "%s solve exceeded %.0fs deadline",
                            op, self.request_timeout_s,
                        )
                        raise ServiceTimeoutError(
                            f"solve exceeded {self.request_timeout_s:.0f}s deadline"
                        ) from None
        finally:
            self._admitted -= 1
        elapsed = time.monotonic() - started
        result = dict(result, solve_seconds=elapsed, trace_id=solve_span.trace_id)
        self._solve_seconds.observe(elapsed)
        self._events.inc(event="solves_ok")
        ev = result.get("evaluator")
        if isinstance(ev, dict):
            for key, value in ev.items():
                self._evaluator_events.inc(int(value), counter=key)
        return result

    _compute_plan_workflow = _compute_plan

    async def _compute_whatif(
        self, op: str, normalized: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Measure a fixed tiering on a worker thread — one simulation
        pass, cheap enough to run while the loop stays live."""
        return await self._off_loop(
            _run_whatif, normalized, "service.whatif",
            {"fast": normalized["fast"]}, "measure_seconds", "whatifs_ok",
        )

    async def _compute_sweep(
        self, op: str, normalized: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run the whole grid as one worker-thread unit: the engine owns
        its own process-pool fan-out (the ``workers`` knob), so the
        server's solver pool stays free for interactive solves."""
        attrs = {
            "catalogs": len(normalized["providers"]),
            "workloads": len(normalized["specs"]),
        }
        return await self._off_loop(
            _run_sweep, normalized, "service.sweep", attrs,
            "sweep_seconds", "sweeps_ok",
        )

    async def _off_loop(
        self, fn: Any, normalized: Dict[str, Any], span_name: str,
        attrs: Dict[str, Any], seconds_key: str, event: str,
    ) -> Dict[str, Any]:
        started = time.monotonic()
        with span(span_name, attrs=attrs) as sp:
            result = await asyncio.to_thread(fn, normalized)
        self._events.inc(event=event)
        return dict(
            result, **{seconds_key: time.monotonic() - started},
            trace_id=sp.trace_id,
        )

    async def _run_solver(
        self, request: Dict[str, Any], restarts: int
    ) -> Dict[str, Any]:
        if self._solver_fn is not None:
            return await self._solver_fn(dict(request, restarts=restarts))
        return await self.pool.solve(request, restarts=restarts)

    # -- introspection ---------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Legacy counters dict, derived from the metrics registry.

        Same keys and ordering as the pre-registry hand-rolled dict;
        kept as a read-only view for the ``stats`` payload and tests.
        """
        out = {"requests": int(self._requests_total.value())}
        for event in _EVENT_KEYS:
            out[event] = int(self._events.value(event=event))
        return out

    @property
    def evaluator_totals(self) -> Dict[str, int]:
        """Incremental-evaluator cache counters, summed over every solve
        this server completed (cache hits/misses, jobs skipped, ...)."""
        return {
            labels["counter"]: int(value)
            for labels, value in self._evaluator_events.samples()
        }

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload."""
        return {
            "uptime_s": self.uptime_s,
            "requests": self.op_counts,
            "counters": self.counters,
            "evaluator": self.evaluator_totals,
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "sessions": self.sessions.stats(),
            "flight_recorder": self.recorder.stats(),
            "slo": self.slo.states,
            "inflight": len(self._inflight),
            "limits": {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "request_timeout_s": self.request_timeout_s,
            },
        }
