"""The request front end shared by the planner daemon and the fleet router.

:class:`~repro.service.server.PlannerServer` and
:class:`~repro.fleet.router.FleetRouter` speak one wire protocol and
walk every request through the same steps; this module is the one copy
of those steps.  A role only supplies how a cacheable result is
*computed* (the daemon solves, measures or sweeps; the router fair-
queues and forwards to a shard) plus its role-specific ops.

Request lifecycle::

    read line → parse → _dispatch (one span, latency + outcome metrics,
                                   one flight-recorder record)
      cacheable op (CACHEABLE_OPS: plan, plan_workflow, whatif, sweep):
        normalize params → fingerprint
          → cache hit?                  → answer from the LRU
          → identical request inflight? → await it (single-flight dedup)
          → role admission              → ServiceBusyError when shed
          → role compute                → cache + fan out to every waiter
      any other op: the ``_op_<name>`` handler of the role

Failures propagate to all single-flight waiters but are *not* cached,
so a transient failure never poisons a fingerprint.

The op table keeps, per cacheable op, the params normalizer and the
fingerprint key.  Keys call the fingerprint functions through this
module's globals at call time, so instrumentation that rebinds those
names sees every call.
"""

from __future__ import annotations

import asyncio
import logging
import math
import os
import time
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..cloud import resolve_provider
from ..errors import CastError, ProtocolError, ServiceError
from ..obs.flightrec import FlightRecorder, build_bundle, dump_bundle
from ..obs.metrics import MetricsRegistry
from ..obs.sampler import SamplingProfiler
from ..obs.slo import BurnPolicy, Objective, SLOEngine, Transition
from ..obs.tracing import current_trace_id, span
from .cache import PlanCache
from .fingerprint import request_fingerprint, sweep_fingerprint, whatif_fingerprint
from .protocol import (
    MAX_LINE_BYTES,
    error_response,
    ok_response,
    parse_request,
    read_message,
    send_message,
)

__all__ = ["CACHEABLE_OPS", "CacheableOp", "RequestFrontEnd"]

logger = logging.getLogger(__name__)

#: Ops excluded from the flight-recorder ring: monitoring traffic (a
#: dashboard polling every 2 s) must not evict the solve records a
#: postmortem actually needs.  Their latencies still land in
#: ``cast_op_latency_seconds`` like everyone else's.
_UNRECORDED_OPS = frozenset(
    ("ping", "stats", "metrics", "slo", "profile", "debug_dump")
)

#: ``profile`` op duration ceiling — the op blocks a worker thread for
#: its whole duration, so an unbounded request would be a free DoS.
_MAX_PROFILE_S = 30.0

#: How long a connection dropped for an oversized frame waits for its
#: peer to close before closing anyway.
_LINGER_S = 2.0


# -- op table -----------------------------------------------------------------


def _normalize_solve_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Fill knob defaults and type-check the envelope-level fields.

    Spec-level validation (job records, DAG shape...) happens inside
    fingerprinting/solving and raises ``WorkloadError`` on its own.
    """
    spec = params.get("spec")
    if not isinstance(spec, Mapping):
        raise ProtocolError(f"{op} params need a 'spec' object (a workload/workflow dict)")
    try:
        return {
            "op": op,
            "spec": dict(spec),
            "tenant": str(params.get("tenant", "default")),
            "provider": str(params.get("provider", "google")),
            "n_vms": int(params.get("n_vms", 25)),
            "iterations": int(params.get("iterations", 3000)),
            "seed": int(params.get("seed", 42)),
            "use_castpp": bool(params.get("use_castpp", True)),
            "backend": str(params.get("backend", "anneal")),
            "replicas": int(params.get("replicas", 8)),
            "restarts": (
                None if params.get("restarts") is None else int(params["restarts"])
            ),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad solver knob in {op} params: {exc}") from None


def _normalize_whatif_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate the ``whatif`` envelope: a spec plus exactly one tiering."""
    spec = params.get("spec")
    if not isinstance(spec, Mapping):
        raise ProtocolError("whatif params need a 'spec' object (a workload dict)")
    plan = params.get("plan")
    tier = params.get("tier")
    if (plan is None) == (tier is None):
        raise ProtocolError(
            "whatif params need exactly one of 'plan' (a tiering-plan dict) "
            "or 'tier' (a uniform tier name)"
        )
    if plan is not None and not isinstance(plan, Mapping):
        raise ProtocolError("whatif 'plan' must be an object")
    try:
        return {
            "spec": dict(spec),
            "plan": None if plan is None else dict(plan),
            "tier": None if tier is None else str(tier),
            "tenant": str(params.get("tenant", "default")),
            "provider": str(params.get("provider", "google")),
            "n_vms": int(params.get("n_vms", 25)),
            "fast": bool(params.get("fast", True)),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad knob in whatif params: {exc}") from None


def _normalize_sweep_params(op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate the ``sweep`` envelope: workload spec(s) plus axes."""
    specs = params.get("specs")
    if specs is None:
        spec = params.get("spec")
        specs = None if spec is None else [spec]
    if (
        not isinstance(specs, (list, tuple))
        or not specs
        or not all(isinstance(s, Mapping) for s in specs)
    ):
        raise ProtocolError(
            "sweep params need 'specs' (a non-empty list of workload "
            "dicts) or 'spec' (a single workload dict)"
        )
    providers = params.get("providers", ["google"])
    if (
        not isinstance(providers, (list, tuple))
        or not providers
        or not all(isinstance(p, str) for p in providers)
    ):
        raise ProtocolError(
            "sweep 'providers' must be a non-empty list of catalog names"
        )
    try:
        return {
            "specs": [dict(s) for s in specs],
            "providers": [str(p) for p in providers],
            "tenant": str(params.get("tenant", "default")),
            "reps": int(params.get("reps", 1)),
            "n_vms": int(params.get("n_vms", 25)),
            "iterations": int(params.get("iterations", 3000)),
            "seed": int(params.get("seed", 42)),
            "use_castpp": bool(params.get("use_castpp", True)),
            "backend": str(params.get("backend", "anneal")),
            "replicas": int(params.get("replicas", 8)),
            "warm": bool(params.get("warm", True)),
            "workers": (
                None if params.get("workers") is None else int(params["workers"])
            ),
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad knob in sweep params: {exc}") from None


def _solve_key(op: str, n: Dict[str, Any], default_restarts: int) -> str:
    """Fingerprint a solve, pinning the resolved restart count into
    ``n`` so a shard's key (and cache) agrees with the router's."""
    n["restarts"] = n["restarts"] or default_restarts
    return request_fingerprint(
        op, n["spec"], provider=n["provider"], n_vms=n["n_vms"],
        iterations=n["iterations"], seed=n["seed"], use_castpp=n["use_castpp"],
        restarts=n["restarts"], backend=n["backend"], replicas=n["replicas"],
    )


def _whatif_key(op: str, n: Dict[str, Any], default_restarts: int) -> str:
    return whatif_fingerprint(
        n["spec"], plan=n["plan"], tier=n["tier"], provider=n["provider"],
        n_vms=n["n_vms"], fast=n["fast"],
    )


def _sweep_key(op: str, n: Dict[str, Any], default_restarts: int) -> str:
    return sweep_fingerprint(
        n["specs"], n["providers"], reps=n["reps"], n_vms=n["n_vms"],
        iterations=n["iterations"], seed=n["seed"], use_castpp=n["use_castpp"],
        backend=n["backend"], replicas=n["replicas"], warm=n["warm"],
    )


class CacheableOp(NamedTuple):
    """One op-table row: ``normalize(op, params) -> dict`` (always with
    a ``tenant``) and ``key(op, normalized, default_restarts) -> str``."""

    normalize: Callable[[str, Mapping[str, Any]], Dict[str, Any]]
    key: Callable[[str, Dict[str, Any], int], str]


#: Ops answered through the fingerprint cache and single-flight.
CACHEABLE_OPS: Dict[str, CacheableOp] = {
    "plan": CacheableOp(_normalize_solve_params, _solve_key),
    "plan_workflow": CacheableOp(_normalize_solve_params, _solve_key),
    "whatif": CacheableOp(_normalize_whatif_params, _whatif_key),
    "sweep": CacheableOp(_normalize_sweep_params, _sweep_key),
}


async def _linger(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then discard input until the peer closes (bounded).

    Closing a socket with unread input resets the connection, and a
    reset can destroy the reply still in flight to the peer.
    """
    writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), timeout=_LINGER_S)
    except asyncio.TimeoutError:
        pass


# -- the shared front end -------------------------------------------------------


class RequestFrontEnd:
    """Connection loop, dispatch, caching and operational ops of a role.

    A role subclass sets the class attributes below, then implements
    ``_compute`` (a cache miss), ``default_restarts``, ``_config_payload``,
    ``stats`` and the ``_op_<name>`` handlers the front end does not
    share.  Each role must define ``_dispatch`` in its own class body
    (``_dispatch = RequestFrontEnd._dispatch``): ``perfbench/spans.py``
    wraps ``cls.__dict__["_dispatch"]`` per role.
    """

    #: ``name -> (metric name, help)`` for the role's request, op,
    #: event and tenant counters.
    _METRICS: Dict[str, Tuple[str, str]] = {}
    _label = "planner daemon"  # for log lines
    _request_span = "service.request"
    _internal_error: type = ServiceError
    _internal_error_event = "solve_errors"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cache_size: int,
        registry: Optional[MetricsRegistry],
        slo_objectives: Optional[Sequence[Objective]],
        slo_policy: Optional[BurnPolicy],
        slo_clock: Optional[Any],
        slo_eval_interval_s: float,
        dump_dir: Optional[str],
        flight_capacity: int,
        flight_exemplars: int,
    ) -> None:
        self.host = host
        self.port = port
        self.cache = PlanCache(capacity=cache_size)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        # Loops started by start() and cancelled by stop().
        self._background: List["asyncio.Task[None]"] = []
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._requests_total = self.metrics.counter(*self._METRICS["requests"])
        self._ops = self.metrics.counter(*self._METRICS["ops"], labelnames=("op",))
        self._events = self.metrics.counter(
            *self._METRICS["events"], labelnames=("event",)
        )
        self._tenant_requests = self.metrics.counter(
            *self._METRICS["tenants"], labelnames=("tenant",)
        )
        self._op_latency = self.metrics.histogram(
            "cast_op_latency_seconds",
            "Wire-level request latency by op",
            labelnames=("op",),
        )
        self._op_requests = self.metrics.counter(
            "cast_op_requests_total",
            "Wire-level requests by op and outcome",
            labelnames=("op", "outcome"),
        )
        self.cache.bind_metrics(self.metrics)
        self.recorder = FlightRecorder(
            capacity=flight_capacity, exemplars=flight_exemplars
        )
        self.recorder.bind_metrics(self.metrics)
        self.dump_dir = dump_dir
        self.slo_eval_interval_s = float(slo_eval_interval_s)
        self.slo = SLOEngine(slo_objectives, policy=slo_policy, clock=slo_clock)
        self.slo.bind_metrics(self.metrics)
        self.slo.on_transition(self._on_slo_transition)
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.slo_eval_interval_s > 0:
            self._background.append(asyncio.create_task(self._slo_loop()))
        logger.info("%s listening on %s:%d", self._label, self.host, self.port)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved after :meth:`start`."""
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop`-ped."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, let inflight work finish, close connections."""
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        self._background.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        for writer in list(self._connections):
            writer.close()
        logger.info("%s stopped", self._label)

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start`."""
        return time.monotonic() - self._started_at

    @property
    def op_counts(self) -> Dict[str, int]:
        """Requests per op, from the role's ops counter."""
        return {
            labels["op"]: int(value) for labels, value in self._ops.samples()
        }

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await read_message(reader)
                except ProtocolError as exc:
                    # An oversized frame: the rest of the line is still
                    # in flight, so the framing can no longer be trusted.
                    await self._reject_line(writer, exc)
                    await _linger(reader, writer)
                    break
                if line is None:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_request(line)
                except ProtocolError as exc:
                    # The line framing is intact: answer a typed error
                    # and keep the session.
                    await self._reject_line(writer, exc)
                    continue
                self._requests_total.inc()
                response = await self._dispatch(request)
                await send_message(writer, response)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this handler mid-read; the socket
            # closes below — nothing to propagate to the loop.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _reject_line(
        self, writer: asyncio.StreamWriter, exc: ProtocolError
    ) -> None:
        self._requests_total.inc()
        self._events.inc(event="bad_requests")
        logger.debug("bad request line: %s", exc)
        await send_message(writer, error_response(None, exc))

    async def _dispatch(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        req_id = request.get("id")
        params = request["params"]
        self._ops.inc(op=op)
        with span(self._request_span, attrs={"op": op}) as sp:
            started = time.monotonic()
            try:
                if op in CACHEABLE_OPS:
                    result, cached = await self._cached_op(op, params)
                    response = ok_response(req_id, result, cached=cached)
                else:
                    handler = getattr(self, f"_op_{op}")
                    response = ok_response(req_id, await handler(params))
            except asyncio.CancelledError:
                raise
            except CastError as exc:
                response = error_response(req_id, exc)
            except Exception as exc:  # the daemon must outlive any request
                self._events.inc(event=self._internal_error_event)
                logger.exception("internal error handling op %r", op)
                response = error_response(
                    req_id, self._internal_error(f"internal error: {exc!r}")
                )
            response["trace_id"] = sp.trace_id
            self._record_request(
                op, params, response, time.monotonic() - started, sp.trace_id
            )
            return response

    def _record_request(
        self,
        op: str,
        params: Mapping[str, Any],
        response: Mapping[str, Any],
        latency_s: float,
        trace_id: Optional[str],
    ) -> None:
        """Per-op latency/outcome metrics + one flight-recorder record
        (with the serving shard when a router forwarded the request)."""
        ok = bool(response.get("ok"))
        self._op_latency.observe(latency_s, op=op)
        self._op_requests.inc(op=op, outcome="ok" if ok else "error")
        if op in _UNRECORDED_OPS:
            return
        error = None
        if not ok:
            error = str(response.get("error", {}).get("type", "error"))
        shard = None
        result = response.get("result")
        if isinstance(result, dict):
            shard = result.get("shard")
        tenant = params.get("tenant")
        self.recorder.record(
            op=op,
            latency_s=latency_s,
            ok=ok,
            cached=bool(response.get("cached", False)),
            tenant=str(tenant) if tenant is not None else None,
            shard=str(shard) if shard is not None else None,
            error=error,
            trace_id=trace_id,
        )

    # -- cacheable ops -----------------------------------------------------------

    async def _cached_op(
        self, op: str, params: Mapping[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        """Fingerprint → cache → single-flight → admit → compute → cache."""
        entry = CACHEABLE_OPS[op]
        normalized = entry.normalize(op, params)
        self._tenant_requests.inc(tenant=normalized["tenant"])
        fingerprint = entry.key(op, normalized, self.default_restarts)

        cached = self.cache.get(fingerprint)
        if cached is not None:
            # Re-stamp with *this* request's trace id — the cached dict
            # remembers the trace that originally computed it.
            return dict(
                cached, fingerprint=fingerprint, trace_id=current_trace_id()
            ), True

        leader = self._inflight.get(fingerprint)
        if leader is not None:
            # Single-flight: an identical request is already running.
            self._events.inc(event="dedup_joined")
            result = await asyncio.shield(leader)
            return dict(
                result, fingerprint=fingerprint, trace_id=current_trace_id()
            ), False

        self._admit(op)
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[fingerprint] = future
        try:
            result = await self._compute(op, normalized, fingerprint)
            self.cache.put(fingerprint, result)
            future.set_result(result)
        except BaseException as exc:
            if isinstance(exc, CastError):
                self._events.inc(event="solve_errors")
            future.set_exception(exc)
            # The dedup waiters consume the exception; don't warn when
            # nobody else was waiting.
            future.exception()
            raise
        finally:
            self._inflight.pop(fingerprint, None)
        return dict(result, fingerprint=fingerprint), False

    def _admit(self, op: str) -> None:
        """Shed a cache miss before it starts (raise ServiceBusyError)."""

    # -- shared ops ----------------------------------------------------------------

    async def _op_ping(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "uptime_s": self.uptime_s}

    async def _op_stats(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return self.stats()

    async def _op_catalog(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        provider = resolve_provider(str(params.get("provider", "google")))
        tiers = []
        for tier in provider.tiers:
            svc = provider.service(tier)
            tiers.append(
                {
                    "tier": tier.value,
                    "persistent": bool(svc.persistent),
                    "price_gb_month": svc.price_gb_month,
                    "price_gb_hr": provider.storage_price_gb_hr(tier),
                }
            )
        return {
            "provider": provider.name,
            "tiers": tiers,
            "vm": {
                "name": provider.default_vm.name,
                "price_per_hour_usd": provider.prices.vm_price_per_min * 60,
            },
        }

    async def _op_profile(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``profile`` op: sample *this* process, return the profile.

        Against a router, shard solver time never shows up here — point
        ``cast-plan profile`` at a shard's own port for that.
        """
        try:
            duration_s = float(params.get("duration_s", 1.0))
            interval_s = float(params.get("interval_s", 0.005))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad profile params: {exc}") from None
        if not math.isfinite(duration_s) or not math.isfinite(interval_s):
            raise ProtocolError(
                f"profile duration_s and interval_s must be finite, "
                f"got {duration_s} and {interval_s}"
            )
        if not 0.0 < duration_s <= _MAX_PROFILE_S:
            raise ProtocolError(
                f"profile duration_s must be in (0, {_MAX_PROFILE_S:g}], "
                f"got {duration_s}"
            )
        if not 0.0 < interval_s <= duration_s:
            raise ProtocolError(
                f"profile interval_s must be in (0, duration_s], got {interval_s}"
            )
        profiler = SamplingProfiler(interval_s=interval_s)
        # The sampler sleeps for the whole duration — park it on a
        # worker thread so the event loop keeps serving (and shows up
        # in its own samples).
        return await asyncio.to_thread(profiler.run_for, duration_s)

    async def _op_debug_dump(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``debug_dump`` op: one postmortem bundle, over the wire."""
        return self._build_bundle(reason=str(params.get("reason", "request")))

    def _build_bundle(self, reason: str) -> Dict[str, Any]:
        return build_bundle(
            registry=self.metrics,
            recorder=self.recorder,
            slo_report=self.slo.last_report,
            config=self._config_payload(),
            reason=reason,
        )

    def _on_slo_transition(self, edge: Transition) -> None:
        """Engine callback: auto-dump a bundle on every page entry."""
        logger.warning("SLO %s: %s -> %s", edge.op, edge.old, edge.new)
        if edge.new != "page":
            return
        path = self._write_dump(reason=f"page-{edge.op}")
        if path is not None:
            logger.warning("SLO page on %s: wrote debug dump %s", edge.op, path)

    def _write_dump(self, reason: str) -> Optional[str]:
        """Write one bundle into ``dump_dir`` (None = dumping disabled)."""
        if not self.dump_dir:
            return None
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            stamp = int(time.time() * 1000)
            path = os.path.join(
                self.dump_dir, f"castdump-{stamp}-{reason}.jsonl"
            )
            dump_bundle(path, self._build_bundle(reason=reason))
            self._events.inc(event="debug_dumps")
            return path
        except OSError:
            logger.exception("failed to write debug dump; continuing")
            return None

    async def _slo_loop(self) -> None:
        """Background tick: evaluate the SLO engine even when idle —
        states must decay back to ``ok`` without traffic forcing an
        evaluation."""
        while True:
            await asyncio.sleep(self.slo_eval_interval_s)
            try:
                self.slo.evaluate(registry=self.metrics)
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                logger.exception("SLO evaluation failed; continuing")
