"""The planner service wire protocol (version 1).

JSON lines over a byte stream: every message is one JSON object on one
``\\n``-terminated line, so the framing survives any transport that
preserves bytes and both ends can be debugged with ``nc``.

Request::

    {"v": 1, "id": "req-1", "op": "plan", "params": {...}}

``op`` is one of :data:`OPS`.  ``params`` for the solve ops carries the
workload/workflow dict (the :mod:`repro.workloads.io` schema) plus the
solver knobs; ``catalog`` takes ``{"provider": name}``; ``stats`` and
``ping`` take nothing.

Response::

    {"v": 1, "id": "req-1", "ok": true,  "cached": false, "result": {...}}
    {"v": 1, "id": "req-1", "ok": false, "error": {"type": "WorkloadError",
                                                   "message": "..."}}

Error payloads are *typed*: ``type`` names the
:class:`~repro.errors.CastError` subclass the server raised, and
:func:`exception_from_payload` reconstructs it client-side so callers
can ``except WorkloadError`` across the wire exactly as they would
in-process.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional

from .. import errors as _errors
from ..errors import CastError, ProtocolError, ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "MAX_LINE_BYTES",
    "make_request",
    "parse_request",
    "ok_response",
    "error_response",
    "parse_response",
    "exception_from_payload",
    "encode_message",
    "send_message",
    "read_message",
]

PROTOCOL_VERSION = 1

#: Operations the protocol knows.  ``metrics`` exposes the server's
#: observability registry (Prometheus text or JSON) — see
#: :mod:`repro.obs.metrics`.  ``register``/``deregister`` are the shard
#: membership ops served by the fleet router
#: (:mod:`repro.fleet.router`); a plain :class:`PlannerServer` answers
#: them with a typed error.  ``whatif`` measures a fixed tiering (a
#: plan dict or a uniform tier) on the simulated cluster — no solver —
#: over the vectorized fast path by default.  Solve params may carry a
#: ``tenant`` string (default ``"default"``) — it never enters the
#: request fingerprint (plans are tenant-independent) but drives the
#: router's per-tenant fair queueing and the per-tenant metric labels.
#: ``session_open``/``session_delta``/``session_close`` drive streaming
#: planning sessions (:mod:`repro.session`): stateful warm-start
#: re-plans keyed by ``session_id``, so they bypass the plan cache,
#: single-flight dedup and admission control entirely — a delta is
#: milliseconds of work and never equivalent to another request.
#: The operational ops: ``slo`` evaluates the server's SLO engine
#: (:mod:`repro.obs.slo`; against a fleet router it rolls every
#: shard's report up, worst state wins), ``profile`` runs the sampling
#: profiler for ``duration_s`` seconds (:mod:`repro.obs.sampler`), and
#: ``debug_dump`` returns a flight-recorder postmortem bundle
#: (:mod:`repro.obs.flightrec`).
OPS = (
    "plan",
    "plan_workflow",
    "whatif",
    "sweep",
    "catalog",
    "stats",
    "metrics",
    "slo",
    "profile",
    "debug_dump",
    "ping",
    "register",
    "deregister",
    "session_open",
    "session_delta",
    "session_close",
)

#: Stream limit for one message — generous headroom over the largest
#: synthetic workload (~100 jobs ≈ 10 KB) without letting one client
#: buffer unbounded garbage.
MAX_LINE_BYTES = 8 * 1024 * 1024


def make_request(
    op: str, params: Optional[Mapping[str, Any]] = None, req_id: Any = None
) -> Dict[str, Any]:
    """Build a v1 request envelope (validating the op client-side)."""
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {list(OPS)}")
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "op": op,
        "params": dict(params or {}),
    }


def _parse_object(line: Any, what: str) -> Dict[str, Any]:
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(data).__name__}")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (supported: {PROTOCOL_VERSION})"
        )
    return data


def parse_request(line: Any) -> Dict[str, Any]:
    """Validate one request line into its envelope dict."""
    data = _parse_object(line, "request")
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {list(OPS)}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    data["params"] = params
    return data


def ok_response(
    req_id: Any, result: Mapping[str, Any], cached: bool = False
) -> Dict[str, Any]:
    """Success envelope."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": True,
        "cached": bool(cached),
        "result": dict(result),
    }


def error_response(req_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Failure envelope with a typed error payload."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def parse_response(line: Any) -> Dict[str, Any]:
    """Validate one response line into its envelope dict."""
    data = _parse_object(line, "response")
    if "ok" not in data:
        raise ProtocolError("response missing 'ok' field")
    if data["ok"] and not isinstance(data.get("result"), dict):
        raise ProtocolError("ok response missing 'result' object")
    if not data["ok"] and not isinstance(data.get("error"), dict):
        raise ProtocolError("error response missing 'error' object")
    return data


def exception_from_payload(payload: Mapping[str, Any]) -> CastError:
    """Rebuild the server-side exception from its wire payload.

    Unknown or non-:class:`CastError` type names degrade to
    :class:`ServiceError` — the client never executes arbitrary names.
    """
    name = str(payload.get("type", "ServiceError"))
    message = str(payload.get("message", "unknown service error"))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, CastError):
        return cls(message)
    return ServiceError(f"{name}: {message}")


def encode_message(obj: Mapping[str, Any]) -> bytes:
    """One message → one compact JSON line."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


async def send_message(writer: asyncio.StreamWriter, obj: Mapping[str, Any]) -> None:
    """Write one message and flush it."""
    writer.write(encode_message(obj))
    await writer.drain()


async def read_message(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one raw message line; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` for a line over the reader's limit.
    """
    try:
        line = await reader.readline()
    except ValueError:
        # readline() reports the stream's LimitOverrunError as a bare
        # ValueError; the rest of the line is still unread, so the
        # caller must drop the connection.
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes") from None
    if not line:
        return None
    return line
