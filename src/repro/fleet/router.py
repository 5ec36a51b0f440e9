"""The fleet orchestrator: a consistent-hashing router over planner shards.

Topology::

    clients ──▶ FleetRouter ──▶ shard planner-1 (PlannerServer)
                   │       └──▶ shard planner-2
                   │       └──▶ shard planner-N
                   └── health checks, failover, fleet metrics roll-up

The router speaks the same JSON-lines protocol as a single
:class:`~repro.service.server.PlannerServer`, so every existing client
(``cast-plan submit``, :class:`~repro.service.client.PlannerClient`)
works against a fleet unchanged.  Requests walk the same front end as
a shard (:mod:`repro.service.frontend`), so per cacheable request it:

1. normalizes the params and computes the canonical request
   fingerprint — routing never perturbs the solve inputs, so fleet
   results are bit-identical to a single server's;
2. answers from the **router L1 plan cache** if any shard ever solved
   this fingerprint through us — a hit on any shard serves the fleet;
3. joins the **router-level single-flight**: identical requests
   arriving on any connection while one is being forwarded collapse to
   one shard solve, fleet-wide;

and on a miss, its own compute step:

4. waits for a forward slot under **per-tenant weighted fair
   queueing** (:class:`~repro.fleet.tenancy.WeightedFairScheduler`) —
   a saturating tenant queues behind itself, not in front of others;
5. routes the fingerprint on the **consistent hash ring** of healthy
   shards and forwards over a pooled connection.  A connection-level
   failure marks the shard down, rebalances the ring, and fails over
   to the next ring successor — the retried solve is byte-identical
   (deterministic + fingerprint-cached), so mid-solve shard death
   costs one extra solve, never a wrong answer.

Shard membership is dynamic: the ``register``/``deregister`` ops (used
by :class:`~repro.fleet.supervisor.FleetSupervisor`) add and remove
shards at runtime, and a background health checker pings every
registered shard, taking it out of the ring after
``health_failures`` consecutive misses and restoring it on recovery.

Streaming sessions (``session_open``/``session_delta``/``session_close``)
are *stateful*, so they bypass the L1 cache, single-flight and fair
queueing and instead pin to a shard by hashing ``session:<id>`` on the
same ring.  The router keeps a per-session event log (the open params
plus every delta); when the pinned shard dies — or ring churn moves the
session's key — the log replays against the new owner before the
current request forwards, rebuilding the session's state there.
Replayed re-plans are deterministic, so the rebuilt incumbent is the
plan the dead shard held.

Observability: the ``metrics`` op gains a ``scope`` param.
``scope="router"`` exposes the router's own registry;
``scope="fleet"`` (the default here) scrapes every healthy shard's
registry and merges them — stamped with a ``shard`` label — into one
exposition, so fleet-wide totals are one scrape and per-shard
breakdowns are one label away.

The router carries the front end's operational layer
(:mod:`repro.obs.slo` / :mod:`repro.obs.flightrec` /
:mod:`repro.obs.sampler`): the dispatch loop times every request and
feeds a flight recorder that also remembers which shard served it,
the ``slo`` op evaluates the router's own engine and rolls every
shard's report up (worst shard state wins, per op), a ``page``
transition auto-writes a postmortem bundle into ``dump_dir``, and
``profile``/``debug_dump`` work exactly as on a shard.
"""

from __future__ import annotations

import asyncio
import logging
import time
import uuid
from typing import (
    Any, Awaitable, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..errors import (
    FleetError,
    NoHealthyShardsError,
    ProtocolError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from ..obs.metrics import MetricsRegistry
from ..obs.slo import BurnPolicy, Objective, rollup_reports
from ..obs.tracing import span
from ..service.frontend import RequestFrontEnd
from ..service.pool import DEFAULT_RESTARTS
from ..service.protocol import (
    MAX_LINE_BYTES,
    exception_from_payload,
    make_request,
    parse_response,
    read_message,
    send_message,
)
from ..service.sessions import normalize_delta_params, normalize_open_params
from .hashring import ConsistentHashRing
from .tenancy import WeightedFairScheduler

__all__ = ["FleetRouter", "ShardInfo"]

logger = logging.getLogger(__name__)


class ShardInfo:
    """One registered shard: address plus live health state."""

    __slots__ = (
        "shard_id", "host", "port", "healthy", "consecutive_failures",
        "registered_at",
    )

    def __init__(self, shard_id: str, host: str, port: int) -> None:
        self.shard_id = str(shard_id)
        self.host = str(host)
        self.port = int(port)
        self.healthy = True
        self.consecutive_failures = 0
        self.registered_at = time.monotonic()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
        }


class _ShardLink:
    """A small pool of persistent connections to one shard.

    The protocol is strict request/response per connection, so a
    connection serves one forward at a time; concurrent forwards to the
    same shard each take (or open) their own connection and return it
    to the free list afterwards.  Any transport error closes the
    connection — a socket that failed mid-exchange carries unknowable
    framing state.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._free: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._busy: Set[asyncio.StreamWriter] = set()

    async def request(
        self, payload: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """One request/response round-trip, pooled."""
        if self._free:
            reader, writer = self._free.pop()
        else:
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        self._busy.add(writer)
        try:
            await send_message(writer, payload)
            line = await asyncio.wait_for(read_message(reader), timeout=timeout)
            if line is None:
                raise ServiceUnavailableError(
                    f"shard {self.host}:{self.port} closed the connection "
                    f"mid-request"
                )
            response = parse_response(line)
        except BaseException:
            writer.close()
            raise
        finally:
            self._busy.discard(writer)
        self._free.append((reader, writer))
        return response

    def close(self) -> None:
        """Abort every connection, in-flight forwards included.

        Closing a busy connection feeds EOF to its pending read, so a
        forward stuck on a shard that died without ever sending a FIN
        (SIGKILL with the socket fd leaked into a forked solver worker,
        a vanished VM, a dropped network) fails over as soon as the
        health checker marks the shard down, instead of hanging until
        ``forward_timeout_s``.
        """
        for _, writer in self._free:
            writer.close()
        self._free.clear()
        for writer in list(self._busy):
            writer.close()
        self._busy.clear()


class FleetRouter(RequestFrontEnd):
    """Orchestrator/router tier in front of N planner shards.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    cache_size:
        Router L1 plan-cache capacity (fingerprint → result).
    max_inflight / max_queue_per_tenant / tenant_weights:
        The :class:`WeightedFairScheduler` admission knobs.
    default_restarts:
        Restart count pinned onto forwarded solves that don't specify
        one — must match the shards' configured default so the
        router-side fingerprint equals the shard-side one.
    health_interval_s / health_timeout_s / health_failures:
        Background ping cadence, per-ping deadline, and how many
        consecutive misses take a shard out of the ring.
    forward_timeout_s:
        Deadline for one forwarded request (should exceed the shards'
        own ``request_timeout_s`` so shard timeouts surface typed).
    registry:
        Metrics registry; a fresh one per router when omitted.
    """

    _METRICS = {
        "requests": ("cast_fleet_requests_total", "Request lines received by the router"),
        "ops": ("cast_fleet_ops_total", "Router requests by op"),
        "events": ("cast_fleet_events_total", "Router lifecycle events by kind"),
        "tenants": (
            "cast_fleet_tenant_requests_total",
            "Solve requests through the router by tenant",
        ),
    }
    _label = "fleet router"
    _request_span = "fleet.request"
    _internal_error = FleetError
    _internal_error_event = "internal_errors"
    # Defined in this class body: perfbench/spans.py wraps each role's own.
    _dispatch = RequestFrontEnd._dispatch

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = 256,
        max_inflight: int = 16,
        max_queue_per_tenant: int = 64,
        tenant_weights: Optional[Mapping[str, float]] = None,
        default_restarts: int = DEFAULT_RESTARTS,
        vnodes: int = 64,
        health_interval_s: float = 1.0,
        health_timeout_s: float = 2.0,
        health_failures: int = 2,
        forward_timeout_s: float = 660.0,
        registry: Optional[MetricsRegistry] = None,
        slo_objectives: Optional[Sequence[Objective]] = None,
        slo_policy: Optional[BurnPolicy] = None,
        slo_clock: Optional[Any] = None,
        slo_eval_interval_s: float = 5.0,
        dump_dir: Optional[str] = None,
        flight_capacity: int = 512,
        flight_exemplars: int = 8,
    ) -> None:
        super().__init__(
            host, port, cache_size=cache_size, registry=registry,
            slo_objectives=slo_objectives, slo_policy=slo_policy,
            slo_clock=slo_clock, slo_eval_interval_s=slo_eval_interval_s,
            dump_dir=dump_dir, flight_capacity=flight_capacity,
            flight_exemplars=flight_exemplars,
        )
        self.scheduler = WeightedFairScheduler(
            max_inflight=max_inflight,
            max_queue_per_tenant=max_queue_per_tenant,
            weights=tenant_weights,
        )
        self.default_restarts = int(default_restarts)
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.health_interval_s = float(health_interval_s)
        self.health_timeout_s = float(health_timeout_s)
        self.health_failures = int(health_failures)
        self.forward_timeout_s = float(forward_timeout_s)
        self._shards: Dict[str, ShardInfo] = {}
        self._links: Dict[str, _ShardLink] = {}
        self._next_forward_id = 0
        # Streaming-session state: per-session replay log
        # ({"open": params, "deltas": [params...], "home": shard_id})
        # and a lock serializing ops per session.
        self._session_logs: Dict[str, Dict[str, Any]] = {}
        self._session_locks: Dict[str, asyncio.Lock] = {}
        self._routed = self.metrics.counter(
            "cast_fleet_routed_total",
            "Solves forwarded per shard",
            labelnames=("shard",),
        )
        self._solve_seconds = self.metrics.histogram(
            "cast_fleet_solve_seconds",
            "End-to-end router wall time of non-L1-cached solves",
        )
        self.scheduler.bind_metrics(self.metrics)
        self.metrics.register_collector("fleet_shards", self._mirror_shards)

    def _mirror_shards(self, reg: MetricsRegistry) -> None:
        states = reg.gauge(
            "cast_fleet_shards", "Registered shards by health state",
            labelnames=("state",),
        )
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        states.set(healthy, state="healthy")
        states.set(len(self._shards) - healthy, state="down")

    # -- membership ----------------------------------------------------------

    def add_shard(self, shard_id: str, host: str, port: int) -> ShardInfo:
        """Register (or re-register) a shard and put it in the ring.

        Re-registering an existing id updates the address and restores
        it to the ring — the supervisor's restart path.
        """
        shard_id = str(shard_id)
        existing = self._shards.get(shard_id)
        if existing is not None and (existing.host, existing.port) != (host, int(port)):
            # Address changed: drop the stale connection pool.
            link = self._links.pop(shard_id, None)
            if link is not None:
                link.close()
        info = ShardInfo(shard_id, host, port)
        self._shards[shard_id] = info
        self.ring.add(shard_id)
        self._events.inc(event="shard_registered")
        logger.info("shard %s registered at %s:%d", shard_id, info.host, info.port)
        return info

    def remove_shard(self, shard_id: str) -> bool:
        """Deregister a shard entirely (ring, registry, connections)."""
        shard_id = str(shard_id)
        info = self._shards.pop(shard_id, None)
        self.ring.remove(shard_id)
        link = self._links.pop(shard_id, None)
        if link is not None:
            link.close()
        if info is not None:
            self._events.inc(event="shard_deregistered")
            logger.info("shard %s deregistered", shard_id)
        return info is not None

    def _mark_down(self, shard_id: str, reason: str) -> None:
        info = self._shards.get(shard_id)
        if info is None or not info.healthy:
            return
        info.healthy = False
        self.ring.remove(shard_id)
        link = self._links.pop(shard_id, None)
        if link is not None:
            link.close()
        self._events.inc(event="shard_down")
        logger.warning(
            "shard %s marked down (%s); ring now %s",
            shard_id, reason, self.ring.shards(),
        )

    def _mark_up(self, shard_id: str) -> None:
        info = self._shards.get(shard_id)
        if info is None:
            return
        info.consecutive_failures = 0
        if info.healthy:
            return
        info.healthy = True
        self.ring.add(shard_id)
        self._events.inc(event="shard_up")
        logger.info("shard %s back up; ring now %s", shard_id, self.ring.shards())

    def _link(self, shard_id: str) -> _ShardLink:
        link = self._links.get(shard_id)
        if link is None:
            info = self._shards[shard_id]
            link = self._links[shard_id] = _ShardLink(info.host, info.port)
        return link

    @property
    def healthy_shards(self) -> List[str]:
        """Ids of shards currently in the ring."""
        return self.ring.shards()

    # -- health checking -----------------------------------------------------

    async def _probe(self, info: ShardInfo) -> bool:
        """One ping round-trip on a throwaway connection."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(info.host, info.port),
                timeout=self.health_timeout_s,
            )
            try:
                await send_message(writer, make_request("ping", req_id="hc"))
                line = await asyncio.wait_for(
                    read_message(reader), timeout=self.health_timeout_s
                )
                if line is None:
                    return False
                return bool(parse_response(line).get("ok"))
            finally:
                writer.close()
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return False

    async def check_health(self) -> None:
        """Probe every registered shard once, updating ring membership."""
        for info in list(self._shards.values()):
            alive = await self._probe(info)
            if alive:
                self._mark_up(info.shard_id)
            else:
                info.consecutive_failures += 1
                if info.healthy and info.consecutive_failures >= self.health_failures:
                    self._mark_down(
                        info.shard_id,
                        f"{info.consecutive_failures} failed health checks",
                    )

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            try:
                await self.check_health()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                logger.exception("health sweep failed; continuing")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting connections, start the health loop."""
        await super().start()
        if self.health_interval_s > 0:
            self._background.append(asyncio.create_task(self._health_loop()))

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain forwards, drop links."""
        await super().stop()
        for link in self._links.values():
            link.close()
        self._links.clear()

    # -- router ops ----------------------------------------------------------

    async def _op_register(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        shard_id = params.get("shard_id")
        host = params.get("host")
        port = params.get("port")
        if not shard_id or not host or port is None:
            raise ProtocolError(
                "register params need shard_id, host and port"
            )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ProtocolError(f"register port must be an int, got {port!r}") from None
        info = self.add_shard(str(shard_id), str(host), port)
        return {"shard": info.to_dict(), "ring": self.ring.shards()}

    async def _op_deregister(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        shard_id = str(params.get("shard_id", ""))
        return {"shard_id": shard_id, "removed": self.remove_shard(shard_id)}

    async def _op_metrics(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        fmt = str(params.get("format", "prometheus")).lower()
        scope = str(params.get("scope", "fleet")).lower()
        if fmt not in ("prometheus", "json"):
            raise ProtocolError(
                f"unknown metrics format {fmt!r} (expected 'prometheus' or 'json')"
            )
        if scope == "router":
            registry = self.metrics
        elif scope == "fleet":
            registry = await self._fleet_registry()
        else:
            raise ProtocolError(
                f"unknown metrics scope {scope!r} (expected 'fleet' or 'router')"
            )
        if fmt == "prometheus":
            return {
                "format": "prometheus", "scope": scope,
                "body": registry.to_prometheus(),
            }
        body = registry.to_json()
        if scope == "router":
            # Fleet-scope series carry shard labels the router's
            # exemplars don't know about; only the router's own
            # latency series get exemplars stamped.
            self.recorder.attach_exemplars(body)
        return {"format": "json", "scope": scope, "metrics": body}

    async def _fleet_registry(self) -> MetricsRegistry:
        """Scrape every healthy shard and roll the registries up.

        Each shard's snapshot merges with a ``shard=<id>`` label (the
        router's own series merge as ``shard="router"``), so the
        exposition carries per-shard series whose sum over the label is
        the fleet-wide total.  A shard failing its scrape is skipped —
        a dying shard must not take the fleet scrape down with it.
        """
        fleet = MetricsRegistry()
        fleet.merge(self.metrics.snapshot(), extra_labels={"shard": "router"})
        scraped = await self._scrape("metrics", {"format": "json"}, "scrape")
        for shard_id, result in scraped.items():
            fleet.merge(result["metrics"], extra_labels={"shard": shard_id})
        return fleet

    async def _scrape(
        self, op: str, params: Mapping[str, Any], req_id: str
    ) -> Dict[str, Dict[str, Any]]:
        """``op`` on every healthy shard at once: ``{shard: result}`` for
        the shards that answered ok; a failed scrape is counted and
        skipped."""
        results: Dict[str, Dict[str, Any]] = {}

        async def scrape(shard_id: str) -> None:
            try:
                response = await self._link(shard_id).request(
                    make_request(op, params, req_id=req_id),
                    timeout=self.health_timeout_s,
                )
            except (OSError, asyncio.TimeoutError, ProtocolError):
                self._events.inc(event="scrape_failed")
                return
            if response.get("ok"):
                results[shard_id] = response["result"]

        await asyncio.gather(*(scrape(s) for s in self.healthy_shards))
        return results

    async def _op_slo(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The fleet ``slo`` op: worst-shard roll-up.

        Evaluates the router's own engine (over its wire-level
        counters) and scrapes every healthy shard's ``slo`` op, then
        combines the reports pessimistically — per op, the fleet state
        is the **worst shard state**.  ``scope="router"`` skips the
        scrape and answers with the router's own report only.
        """
        scope = str(params.get("scope", "fleet")).lower()
        own = self.slo.evaluate(registry=self.metrics)
        if scope == "router":
            return dict(own, scope="router")
        if scope != "fleet":
            raise ProtocolError(
                f"unknown slo scope {scope!r} (expected 'fleet' or 'router')"
            )
        reports: Dict[str, Mapping[str, Any]] = {"router": own}
        reports.update(await self._scrape("slo", {}, "slo-scrape"))
        rollup = rollup_reports(reports)
        rollup["policy"] = self.slo.policy.to_dict()
        return rollup

    def _config_payload(self) -> Dict[str, Any]:
        return {
            "role": "fleet-router",
            "host": self.host,
            "port": self.port,
            "shards": [s.to_dict() for s in self._shards.values()],
            "limits": {
                "forward_timeout_s": self.forward_timeout_s,
                "health_interval_s": self.health_interval_s,
                "health_failures": self.health_failures,
            },
            "cache_capacity": self.cache.capacity,
            "slo": self.slo.config(),
            "dump_dir": self.dump_dir,
        }

    # -- the forward path ----------------------------------------------------

    async def _compute(
        self, op: str, normalized: Dict[str, Any], fingerprint: str
    ) -> Dict[str, Any]:
        """A cache miss: wait for a fair-queue slot, then forward to the
        fingerprint's ring owner.  A sweep is deliberately NOT split
        across shards — its amortization (shared catalog tensors,
        warm-start donors) lives inside one engine."""
        tenant = normalized["tenant"]
        params = {k: v for k, v in normalized.items() if k != "op"}
        await self.scheduler.acquire(tenant)
        try:
            started = time.monotonic()
            result = await self._forward(op, params, fingerprint)
            self._solve_seconds.observe(time.monotonic() - started)
        finally:
            self.scheduler.release(tenant)
        self._events.inc(event="solves_ok")
        return result

    async def _forward(
        self,
        op: str,
        params: Mapping[str, Any],
        key: str,
        before: Optional[Callable[[str], Awaitable[None]]] = None,
    ) -> Dict[str, Any]:
        """Forward to ``ring.route(key)``, walking successors on shard death.

        ``before(shard_id)`` runs first on each attempt, inside the same
        failover net (session replay onto a new owner).  Only
        *transport* failures fail over — a typed error response (bad
        workload, shard busy, solve timeout) is an answer about this
        request, deterministic on any shard, and propagates as-is.
        """
        attempts = 0
        max_attempts = max(1, len(self._shards))
        while True:
            if len(self.ring) == 0:
                raise NoHealthyShardsError(
                    f"no healthy shards to route {op!r} "
                    f"({len(self._shards)} registered, all down)"
                )
            shard_id = self.ring.route(key)
            self._next_forward_id += 1
            payload = make_request(op, params, req_id=f"f{self._next_forward_id}")
            with span(
                "fleet.forward", attrs={"op": op, "shard": shard_id}
            ):
                try:
                    if before is not None:
                        await before(shard_id)
                    response = await self._link(shard_id).request(
                        payload, timeout=self.forward_timeout_s
                    )
                except asyncio.TimeoutError:
                    raise ServiceTimeoutError(
                        f"forward to shard {shard_id} exceeded "
                        f"{self.forward_timeout_s:.0f}s"
                    ) from None
                except (ConnectionError, OSError) as exc:
                    attempts += 1
                    self._mark_down(shard_id, f"forward failed: {exc!r}")
                    self._events.inc(event="failovers")
                    if attempts >= max_attempts:
                        raise NoHealthyShardsError(
                            f"every shard failed while routing {op!r} "
                            f"(last: {shard_id}: {exc!r})"
                        ) from exc
                    continue
            self._routed.inc(shard=shard_id)
            if response.get("ok"):
                result = dict(response["result"])
                result["shard"] = shard_id
                return result
            raise exception_from_payload(response["error"])

    # -- streaming sessions --------------------------------------------------
    #
    # Sessions bypass the L1 cache / single-flight / fair queue: a delta
    # is stateful, milliseconds of shard work, and never equivalent to
    # another request.

    def _session_lock(self, session_id: str) -> asyncio.Lock:
        lock = self._session_locks.get(session_id)
        if lock is None:
            lock = self._session_locks[session_id] = asyncio.Lock()
        return lock

    async def _op_session_open(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        normalized = normalize_open_params(params)
        session_id = (
            normalized["session_id"] or f"session-{uuid.uuid4().hex[:12]}"
        )
        forward = {k: v for k, v in normalized.items() if v is not None}
        forward["session_id"] = session_id
        async with self._session_lock(session_id):
            # Opening an existing id replaces the session — start a
            # fresh log either way.
            log = {"open": dict(forward), "deltas": [], "home": None}
            self._session_logs[session_id] = log
            return await self._forward_session("session_open", forward, session_id)

    async def _op_session_delta(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        normalized = normalize_delta_params(params)
        session_id = normalized["session_id"]
        forward = {k: v for k, v in normalized.items() if v is not None}
        async with self._session_lock(session_id):
            log = self._session_logs.get(session_id)
            result = await self._forward_session("session_delta", forward, session_id)
            if log is not None:
                log["deltas"].append(dict(forward))
        return result

    async def _op_session_close(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        session_id = str(params.get("session_id") or "")
        if not session_id:
            raise ProtocolError("session_close params need a 'session_id'")
        async with self._session_lock(session_id):
            result = await self._forward_session(
                "session_close", {"session_id": session_id}, session_id
            )
            self._session_logs.pop(session_id, None)
        self._session_locks.pop(session_id, None)
        return result

    async def _replay_session(
        self, shard_id: str, session_id: str, log: Mapping[str, Any]
    ) -> None:
        """Rebuild a session on ``shard_id`` from the router's log.

        Raises transport errors (``ConnectionError``/``OSError``) to the
        failover loop; typed shard errors propagate to the caller — a
        delta the old shard accepted cannot fail on a replay, so a typed
        error here means the log itself is bad.
        """
        self._events.inc(event="session_replays")
        link = self._link(shard_id)
        steps = [("session_open", dict(log["open"]))]
        steps.extend(("session_delta", dict(d)) for d in log["deltas"])
        for step_op, step_params in steps:
            step_params["include_plan"] = False
            self._next_forward_id += 1
            response = await link.request(
                make_request(
                    step_op, step_params, req_id=f"r{self._next_forward_id}"
                ),
                timeout=self.forward_timeout_s,
            )
            if not response.get("ok"):
                raise exception_from_payload(response["error"])
        logger.info(
            "session %s replayed onto shard %s (%d deltas)",
            session_id, shard_id, len(log["deltas"]),
        )

    async def _forward_session(
        self, op: str, params: Mapping[str, Any], session_id: str
    ) -> Dict[str, Any]:
        """Forward one session op to ``ring.route("session:<id>")``.

        When the ring owner is not the shard holding the session's
        state (first contact after a failover or ring churn), the
        session log replays there first.
        """

        async def replay_if_moved(shard_id: str) -> None:
            log = self._session_logs.get(session_id)
            if log is not None and op != "session_open" and log["home"] != shard_id:
                await self._replay_session(shard_id, session_id, log)

        result = await self._forward(
            op, params, f"session:{session_id}", before=replay_if_moved
        )
        log = self._session_logs.get(session_id)
        if log is not None:
            log["home"] = result["shard"]
        return result

    # -- introspection -------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Router event counters, from ``cast_fleet_events_total``."""
        return {
            labels["event"]: int(value)
            for labels, value in self._events.samples()
        }

    def stats(self) -> Dict[str, Any]:
        """The router's ``stats`` op payload."""
        return {
            "role": "fleet-router",
            "uptime_s": self.uptime_s,
            "requests": self.op_counts,
            "counters": self.counters,
            "cache": self.cache.stats(),
            "tenancy": self.scheduler.stats(),
            "shards": [s.to_dict() for s in self._shards.values()],
            "ring": self.ring.describe(),
            "routed": {
                labels["shard"]: int(value)
                for labels, value in self._routed.samples()
            },
            "flight_recorder": self.recorder.stats(),
            "slo": self.slo.states,
            "inflight": len(self._inflight),
            "sessions": {
                sid: {
                    "home": log.get("home"),
                    "deltas_logged": len(log["deltas"]),
                }
                for sid, log in self._session_logs.items()
            },
            "limits": {
                "forward_timeout_s": self.forward_timeout_s,
                "health_interval_s": self.health_interval_s,
                "health_failures": self.health_failures,
            },
        }
