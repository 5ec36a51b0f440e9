"""Span recording around the planner's public layer functions.

The benchmark measures layers from outside the program: it wraps the
public functions each layer exposes, records one span per call, and
works out per-layer self time afterwards.  Nothing under ``src/`` knows
about it.

Recording
    :func:`span` opens a span whose parent is the innermost span open in
    the same context (a ``ContextVar``, so asyncio tasks and
    ``asyncio.to_thread`` workers nest correctly).  Every process keeps
    its finished spans in memory and appends them to
    ``<PERFBENCH_SPANS>/<pid>.jsonl`` whenever a root span of that
    process closes.  Forked solver-pool workers inherit the wrappers and
    write their own file, so their spans reach home even though the
    worker never returns them.

Linking across processes
    A span that receives work from another process carries the key the
    sender stamped: ``recv`` = the request id a ``sent`` span put on the
    wire (client → daemon, router → shard), or ``link_otid`` = the
    daemon trace id a ``pool.solve`` span ran under (pool → worker).
    :func:`build_forest` resolves these into parent links; all processes
    run on one host, so ``time.monotonic`` is one clock for all of them.

Install the wrappers with :func:`install` (daemon side; the
``hook/sitecustomize.py`` shim does it at interpreter start-up, before
any pool forks).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ENV_DIR = "PERFBENCH_SPANS"

_PARENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_COUNTER = itertools.count(1)
_LOCK = threading.Lock()
_BUFFER: List[Dict[str, Any]] = []


def _after_fork_in_child() -> None:
    # A forked worker starts with a copy of its parent's unflushed spans,
    # and with the lock in whatever state another parent thread left it.
    global _LOCK
    _LOCK = threading.Lock()
    _BUFFER.clear()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _flush() -> None:
    out_dir = os.environ.get(ENV_DIR)
    if not out_dir:
        return  # in-memory only: the client reads them with collected()
    with _LOCK:
        batch = list(_BUFFER)
        _BUFFER.clear()
    if not batch:
        return
    path = os.path.join(out_dir, f"{os.getpid()}.jsonl")
    with open(path, "a") as fh:
        fh.write("".join(json.dumps(s, separators=(",", ":")) + "\n" for s in batch))


class _Span:
    __slots__ = ("record", "_token")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]]) -> None:
        pid = os.getpid()
        parent = _PARENT.get()
        if parent is not None and not parent.startswith(f"{pid}:"):
            # A forked worker inherits the forking thread's context; a
            # parent from another process is linked by key, not by id.
            parent = None
        self.record = {
            "name": name,
            "sid": f"{pid}:{next(_COUNTER)}",
            "parent": parent,
            "pid": pid,
            "attrs": dict(attrs or {}),
        }

    def __enter__(self) -> "_Span":
        self._token = _PARENT.set(self.record["sid"])
        self.record["t0"] = time.monotonic()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.record["t1"] = time.monotonic()
        _PARENT.reset(self._token)
        with _LOCK:
            _BUFFER.append(self.record)
        if self.record["parent"] is None:
            _flush()


def span(name: str, attrs: Optional[Dict[str, Any]] = None) -> _Span:
    """Open a span (use as a context manager)."""
    return _Span(name, attrs)


def collected() -> List[Dict[str, Any]]:
    """Spans finished in this process and not yet flushed (client side)."""
    with _LOCK:
        return list(_BUFFER)


def _wrap(name: str, fn: Callable, attrs_fn: Optional[Callable] = None) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            with span(name, attrs):
                return await fn(*args, **kwargs)

        async_wrapper.__perfbench__ = True  # type: ignore[attr-defined]
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
        with span(name, attrs):
            return fn(*args, **kwargs)

    wrapper.__perfbench__ = True  # type: ignore[attr-defined]
    return wrapper


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapped`` (``from x import f`` copies the reference)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _patch_function(module: Any, attr: str, name: str,
                    attrs_fn: Optional[Callable] = None) -> None:
    original = getattr(module, attr)
    if getattr(original, "__perfbench__", False):
        return
    _rebind(original, _wrap(name, original, attrs_fn))


def _patch_method(cls: type, attr: str, name: str,
                  attrs_fn: Optional[Callable] = None) -> None:
    original = cls.__dict__[attr]
    if getattr(original, "__perfbench__", False):
        return
    setattr(cls, attr, _wrap(name, original, attrs_fn))


def _request_attrs(self: Any, request: Any) -> Dict[str, Any]:
    return {"recv": request.get("id"), "op": request.get("op")}


def _pool_solve_attrs(self: Any, request: Any, restarts: Any = None) -> Dict[str, Any]:
    from repro.obs import tracing

    return {"otid": tracing.current_trace_id()}


def _restart_attrs(task: Any) -> Dict[str, Any]:
    ctx = task.get("_trace") or {}
    return {"link_otid": ctx.get("trace_id")}


def _forward_attrs(self: Any, payload: Any, timeout: Any = None) -> Dict[str, Any]:
    return {"sent": payload.get("id"), "op": payload.get("op")}


def _message_attrs(obj: Any) -> Dict[str, Any]:
    # A response is encoded after the dispatch span closed; its id links
    # it to the span that sent the request.
    return {"recv": obj.get("id")}


def _batch_attrs(items: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"items": len(items)}


def _tenant_attrs(self: Any, tenant: str = "default") -> Dict[str, Any]:
    return {"tenant": str(tenant)}


def install() -> None:
    """Wrap the layer entry points of every module a daemon loads.

    Idempotent.  Call before the solver pool starts so forked workers
    inherit the wrapped functions.
    """
    import repro.core.solver as solver
    import repro.fleet.router as router
    import repro.fleet.tenancy as tenancy
    import repro.profiler.profiler as profiler
    import repro.service.cache as cache
    import repro.service.fingerprint as fingerprint
    import repro.service.pool as pool
    import repro.service.protocol as protocol
    import repro.service.server as server
    import repro.session.session as session
    import repro.simulator.engine as engine
    import repro.sweep.engine as sweep
    import repro.experiments.runner  # noqa: F401  (binds simulate_batch)

    _patch_function(fingerprint, "request_fingerprint", "fingerprint.request")
    _patch_function(protocol, "encode_message", "protocol.encode", _message_attrs)
    _patch_function(pool, "solve_restart", "pool.restart", _restart_attrs)
    _patch_function(solver, "solve_workload_request", "core.solve_request")
    _patch_function(profiler, "build_model_matrix", "profiler.build_matrix")
    _patch_function(engine, "simulate_batch", "simulator.batch", _batch_attrs)
    _patch_function(engine, "simulate_job", "simulator.job")
    _patch_method(cache.PlanCache, "get", "cache.get")
    _patch_method(cache.PlanCache, "put", "cache.put")
    _patch_method(pool.SolverPool, "solve", "pool.solve", _pool_solve_attrs)
    _patch_method(solver.CastSolver, "solve", "core.cast_solve")
    _patch_method(session.PlanningSession, "add_jobs", "session.add_jobs")
    _patch_method(session.PlanningSession, "remove_jobs", "session.remove_jobs")
    _patch_method(sweep.SweepEngine, "run", "sweep.run")
    _patch_method(server.PlannerServer, "_dispatch", "server.dispatch", _request_attrs)
    _patch_method(router.FleetRouter, "_dispatch", "router.dispatch", _request_attrs)
    _patch_method(router._ShardLink, "request", "router.forward", _forward_attrs)
    _patch_method(tenancy.WeightedFairScheduler, "acquire", "wfq.acquire", _tenant_attrs)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def load_dir(path: str) -> List[Dict[str, Any]]:
    """Every span the daemons (and their workers) wrote under ``path``."""
    spans: List[Dict[str, Any]] = []
    for fname in sorted(os.listdir(path)):
        if fname.endswith(".jsonl"):
            with open(os.path.join(path, fname)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def layer_of(name: str) -> str:
    """``"pool.solve"`` → ``"pool"``."""
    return name.split(".", 1)[0]


def build_forest(spans: Iterable[Dict[str, Any]]) -> Tuple[
    Dict[str, Dict[str, Any]], Dict[str, List[str]], List[str], List[str]
]:
    """Resolve parents (in-process and cross-process links).

    Returns ``(by_id, children, roots, orphans)``: roots are parentless
    ``client.*`` spans; orphans are spans whose parent could not be
    found (a lost link shows up as an orphan, never silently).
    """
    by_id = {s["sid"]: s for s in spans}
    by_sent = {s["attrs"]["sent"]: s["sid"] for s in by_id.values()
               if s["attrs"].get("sent") is not None}
    by_otid = {s["attrs"]["otid"]: s["sid"] for s in by_id.values()
               if s["name"] == "pool.solve" and s["attrs"].get("otid")}
    children: Dict[str, List[str]] = {}
    roots: List[str] = []
    orphans: List[str] = []
    for sid, s in by_id.items():
        parent = s["parent"]
        if parent is None:
            attrs = s["attrs"]
            if attrs.get("recv") is not None:
                parent = by_sent.get(attrs["recv"])
            elif attrs.get("link_otid"):
                parent = by_otid.get(attrs["link_otid"])
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(sid)
        elif s["name"].startswith("client."):
            roots.append(sid)
        else:
            orphans.append(sid)
    return by_id, children, roots, orphans


def attribute(by_id: Dict[str, Dict[str, Any]], children: Dict[str, List[str]],
              root: str, into: Dict[str, float]) -> None:
    """Add each layer's self time under ``root`` to ``into`` (seconds).

    A span's self time is its duration minus the part its children
    cover.  Where children run in parallel (solver restarts on two pool
    processes) each instant is shared equally among the children active
    then, so the self times of one tree sum to the root's wall time.
    """
    stack: List[Tuple[str, List[Tuple[float, float, float]]]] = []
    s = by_id[root]
    stack.append((root, [(s["t0"], s["t1"], 1.0)]))
    while stack:
        sid, pieces = stack.pop()
        s = by_id[sid]
        layer = layer_of(s["name"])
        kids = [by_id[c] for c in children.get(sid, ())]
        child_pieces: Dict[str, List[Tuple[float, float, float]]] = {
            k["sid"]: [] for k in kids
        }
        for a, b, w in pieces:
            cuts = {a, b}
            for k in kids:
                for t in (k["t0"], k["t1"]):
                    if a < t < b:
                        cuts.add(t)
            edges = sorted(cuts)
            for lo, hi in zip(edges, edges[1:]):
                active = [k for k in kids if k["t0"] <= lo and k["t1"] >= hi]
                if not active:
                    into[layer] = into.get(layer, 0.0) + (hi - lo) * w
                    continue
                share = w / len(active)
                for k in active:
                    child_pieces[k["sid"]].append((lo, hi, share))
        for k in kids:
            if child_pieces[k["sid"]]:
                stack.append((k["sid"], child_pieces[k["sid"]]))


def should_link(s: Dict[str, Any]) -> bool:
    """True for a parentless span that carries a key this benchmark
    stamps (client request ids, router forward ids, pool trace ids)."""
    recv = s["attrs"].get("recv")
    if isinstance(recv, str) and (recv.startswith("pb-")
                                  or (recv[:1] in "fr" and recv[1:].isdigit())):
        return True
    return bool(s["attrs"].get("link_otid"))


def self_times(spans: List[Dict[str, Any]],
               root_filter: Callable[[Dict[str, Any]], bool]) -> Dict[str, Any]:
    """Per-layer self time over the client roots ``root_filter`` accepts.

    Returns ``{"layers": {layer: s}, "wall_s": Σ root durations,
    "self_sum_s": Σ layer self times + time spent outside a parent +
    time of spans whose link was lost}``.  ``self_sum_s`` equals
    ``wall_s`` when every span that arrived found its parent and nested
    inside it.  A span that never arrived does not show here; its time
    counts as its parent's self time.
    """
    by_id, children, roots, orphans = build_forest(spans)
    layers: Dict[str, float] = {}
    wall = 0.0
    chosen = [r for r in roots if root_filter(by_id[r])]
    for r in chosen:
        s = by_id[r]
        wall += s["t1"] - s["t0"]
        attribute(by_id, children, r, layers)
    outside = 0.0
    for p in descendants(by_id, children, chosen):
        for c in children.get(p["sid"], ()):
            k = by_id[c]
            outside += max(0.0, p["t0"] - k["t0"]) + max(0.0, k["t1"] - p["t1"])
    lost = [by_id[o] for o in orphans if should_link(by_id[o])]
    return {
        "layers": layers,
        "wall_s": wall,
        "self_sum_s": sum(layers.values()) + outside
        + sum(s["t1"] - s["t0"] for s in lost),
    }


def descendants(by_id: Dict[str, Dict[str, Any]], children: Dict[str, List[str]],
                roots: Iterable[str]) -> List[Dict[str, Any]]:
    """Every span under ``roots`` (roots included)."""
    out: List[Dict[str, Any]] = []
    stack = list(roots)
    while stack:
        sid = stack.pop()
        out.append(by_id[sid])
        stack.extend(children.get(sid, ()))
    return out
