"""Asyncio HTTP/JSON front end of the prediction service.

Stdlib only: ``asyncio.start_server`` plus a small HTTP/1.1
keep-alive parser — no web framework, so the service runs anywhere the
reproduction runs.  The event loop owns parsing and routing, and it
answers every request whose answer needs no computation: a repeat
predict/compare/sweep is found in the server's parse memo and the
engine's result LRU, answered with the body encoded when computed, and
a result-cache miss whose profile and prediction memos are resident
(a predict or sweep at a new core count) is built right there
(:meth:`~repro.service.engine.PredictionEngine.resident_body`).  Only
computations leave the loop: they enter the
:class:`~repro.service.batching.Coalescer`, which deduplicates
identical in-flight requests (single-flight) and runs each distinct
one as its own job on the engine's thread pool; ``/v1/profiles``
lists the store on the same pool.

Overload safety (the serving plane degrades, it does not collapse):

* **Admission control** — a bounded queue in front of the coalescer
  (``max_queue`` distinct computations admitted at once).  Overflow is
  shed immediately with ``429 Too Many Requests`` plus a
  ``Retry-After`` header derived from the coalescer's EWMA service
  time, so clients back off instead of piling on.  An answer the loop
  gives never enters the queue, so it is never shed.
* **Deadlines** — every computation carries a deadline (server
  default ``deadline_ms``, tightened per request via an
  ``X-Deadline-Ms`` header).  Expiry returns ``503`` with the
  deadline echoed; a queued job whose last waiter timed out is
  cancelled before it ever reaches the engine.  A malformed header is a
  ``400`` whether or not the answer is cached.
* **Disconnect cancellation** — a client hanging up while its
  computation is in flight cancels the wait (and the queued work, if
  nobody else shares it via single-flight).
* **Framing** — only ``Content-Length`` bodies are read: a request
  carrying ``Transfer-Encoding`` gets ``501`` and a closed connection,
  so a chunked body is never parsed as a second request.
* **Graceful drain** — shutdown stops the listener first, lets
  admitted work finish for up to ``drain_timeout`` seconds (new
  compute requests, cached or not, are refused with 503 while
  draining), then closes connections.

Observability (see :mod:`repro.obs`): every response carries an
``X-Request-Id`` (the client's if it is 1-128 visible ASCII
characters, else generated); each request records a span trace (none
under ``REPRO_OBS=off``), put in a FIFO ring before its response
drains, which ``/v1/debug/trace/<id>`` reads while the ring holds it;
admission counters live in a per-service metrics registry
(``/healthz`` is derived from it — no counter is double-sourced), and
``/metrics`` renders the merged process + service registries in
Prometheus text format.
Startup/drain messages go through the structured logger.

Endpoints::

    GET  /healthz                         liveness + engine/admission
                                          stats + error budget
    GET  /metrics                         Prometheus text exposition
    GET  /v1/profiles                     resident + persisted profiles
    GET|POST /v1/predict                  RPPM prediction
    GET|POST /v1/compare                  prediction vs. simulation
    GET|POST /v1/sweep                    one profile, many design points
    GET  /v1/debug/trace/<id>             span breakdown of a recent
                                          request (ring buffer)

Parameters come from the query string or a JSON body (body wins):
``benchmark`` (required), ``config`` (default ``base``), ``cores``
(default 4), ``scale`` (default 1.0) and, for sweep, ``configs`` (comma
list / JSON array; default: all Table IV points).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import math
import os
import re
import signal
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import files
from repro.lru import LRUCache
from repro.obs import get_logger, span
from repro.obs.logging import ensure_configured
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    MetricsRegistry,
    render_registries,
    set_gauges,
)
from repro.obs.tracing import (
    TRACE_RING,
    close_route,
    current_trace,
    enabled as obs_enabled,
    new_request_id,
    open_route,
)
from repro.service.batching import Coalescer
from repro.service.engine import (
    PredictionEngine,
    ServiceRequest,
    encode_json,
    error_budget,
)
from repro.testing.faults import FAULTS

_log = get_logger("repro.service")

#: Upper bound on request head + body sizes (this is a compute service,
#: not a file store).
_MAX_HEAD = 64 * 1024
_MAX_BODY = 1024 * 1024
#: Parameter guards: a single request must not be able to commission an
#: arbitrarily large workload expansion on an engine worker.
_MAX_CORES = 1024
_MAX_SCALE = 100.0
#: How often the connection handler polls for a client disconnect
#: while a computation is in flight.
_DISCONNECT_POLL_S = 0.05
#: Retry-After is clamped to [1, 60] seconds — long enough to matter,
#: short enough that honest clients come back.
_MAX_RETRY_AFTER_S = 60
#: Parse memo bounds: distinct parses kept, and the largest body kept.
PARSE_MEMO_ENTRIES = 1024
PARSE_MEMO_MAX_BODY = 4096
#: Fleet heartbeat cadence: each worker rewrites its
#: ``fleet/worker-<id>.json`` this often; the aggregate ``/healthz``
#: treats a file older than three beats as a dead worker.
FLEET_HEARTBEAT_S = 1.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}

#: Routes that may appear as a metrics label.  Unknown paths collapse
#: to "other" so a client scanning for endpoints cannot blow up the
#: label cardinality of ``repro_http_requests_total``.
_COMPUTE_ROUTES = {f"/v1/{k}": k for k in ("predict", "compare", "sweep")}
_KNOWN_ROUTES = {*_COMPUTE_ROUTES, "/healthz", "/metrics", "/v1/profiles"}
_DEBUG_TRACE_PREFIX = "/v1/debug/trace"
#: A client's ``X-Request-Id`` is echoed as a response header, so only
#: 1-128 visible ASCII characters are taken; anything else (a CR, LF or
#: NUL could inject header lines) gets a fresh id.
_REQUEST_ID = re.compile(r"[\x21-\x7e]{1,128}")


class PredictionService:
    """One engine + coalescer + asyncio HTTP server."""

    def __init__(
        self,
        engine: Optional[PredictionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 8000,
        workers: int = 2,
        max_queue: int = 64,
        deadline_ms: Optional[float] = None,
        drain_timeout: float = 5.0,
        worker_id: int = 0,
        reuse_port: bool = False,
        sock: Optional[socket.socket] = None,
        fleet_state_dir: Optional[Path] = None,
    ) -> None:
        self.engine = engine if engine is not None else PredictionEngine()
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.max_queue = max(1, max_queue)
        self.deadline_ms = deadline_ms
        self.drain_timeout = drain_timeout
        #: Fleet identity: which pre-fork worker this process is.  A
        #: single-process service is worker 0; every response carries
        #: it as ``X-Worker-Id`` so load generators can localize a
        #: slow worker, and ``repro_worker_requests_total{worker=...}``
        #: keys on it.
        self.worker_id = int(worker_id)
        #: Bind with SO_REUSEPORT (Linux kernel-level accept
        #: balancing).  Ignored when ``sock`` is passed.
        self.reuse_port = bool(reuse_port)
        #: A pre-bound listening socket inherited from a fleet parent
        #: (the non-SO_REUSEPORT fallback path).
        self._inherited_sock = sock
        #: Directory of per-worker heartbeat files; when set, a
        #: daemon thread publishes this worker's liveness there and
        #: ``/healthz`` grows a fleet aggregate block.
        self.fleet_state_dir = (
            Path(fleet_state_dir) if fleet_state_dir is not None else None
        )
        self._heartbeat_stop: Optional[threading.Event] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        #: Per-service registry: admission counters live here (not in
        #: the process-global one) so parallel test servers stay
        #: isolated; ``/metrics`` renders both merged.  These counter
        #: objects are the single source — ``/healthz`` reads them.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status",
            labels=("route", "status"),
        )
        self._m_shed = self.metrics.counter(
            "repro_admission_shed_total",
            "Requests shed by admission control (well-formed 429s)",
        )
        self._m_deadline_expired = self.metrics.counter(
            "repro_admission_deadline_expired_total",
            "Requests whose deadline expired while queued or computing",
        )
        self._m_disconnects = self.metrics.counter(
            "repro_disconnects_total",
            "In-flight requests cancelled by a client disconnect",
        )
        self._m_loop_answered = self.metrics.counter(
            "repro_loop_answered_total",
            "Result-cache misses answered on the event loop from "
            "resident profiles and prediction memos",
        )
        self._m_response_failures = self.metrics.counter(
            "repro_response_failures_total",
            "Responses that failed to reach the client",
        )
        self._m_worker_requests = self.metrics.counter(
            "repro_worker_requests_total",
            "HTTP requests served, by fleet worker",
            labels=("worker",),
        )
        # Label children are bound once (route/status ones on first
        # use): a dict lookup per request instead of a ``labels()``
        # call.
        self._worker_label = str(self.worker_id)
        self._m_served_here = self._m_worker_requests.labels(
            worker=self._worker_label
        )
        self._m_requests_by: Dict[Tuple[str, int], Counter] = {}
        self.metrics.register_collector("service", self._collect_metrics)
        #: :meth:`_parsed_request`'s requests by ``(kind, query, body)``.
        self._parsed = LRUCache(PARSE_MEMO_ENTRIES)
        #: True once shutdown began: compute requests get 503.
        self.draining = False
        self._active_requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._coalescer: Optional[Coalescer] = None
        self._connections: set = set()

    # -- registry-derived counters (single source: self.metrics) ------------

    @property
    def requests_served(self) -> int:
        return int(self._m_requests.value())

    @property
    def loop_answered(self) -> int:
        return int(self._m_loop_answered.value())

    def _collect_metrics(self, m: MetricsRegistry) -> None:
        """Scrape-time refresh: project the engine's, the session's,
        the store's and the coalescer's snapshots into gauges.
        Registered as a keyed collector on ``self.metrics``.
        """
        m.gauge(
            "repro_admission_max_queue",
            "Admission bound on distinct in-flight requests",
        ).set(self.max_queue)
        m.gauge(
            "repro_admission_queue_depth",
            "Distinct requests currently admitted",
        ).set(self._coalescer.depth() if self._coalescer else 0)
        m.gauge(
            "repro_service_draining", "1 while graceful drain is underway"
        ).set(1.0 if self.draining else 0.0)
        m.gauge(
            "repro_service_workers", "Engine worker threads"
        ).set(self.workers)
        if self._coalescer is not None:
            stats = self._coalescer.stats()
            ewma_ms = stats.pop("ewma_service_ms")
            set_gauges(m, "repro_coalescer", "Coalescer", stats)
            m.gauge(
                "repro_coalescer_ewma_service_ms",
                "EWMA engine service time per distinct request",
            ).set(ewma_ms)
        health = self.engine.health()
        requests = m.gauge(
            "repro_engine_requests", "Engine requests by kind",
            labels=("kind",),
        )
        for kind, n in health["requests"].items():
            requests.labels(kind=kind).set(n)
        computed = m.gauge(
            "repro_engine_computed",
            "Engine requests computed (result-cache misses) by kind",
            labels=("kind",),
        )
        for kind, n in health["computed"].items():
            computed.labels(kind=kind).set(n)
        set_gauges(m, "repro_engine", "Engine", {
            name: health[name] for name in (
                "errors", "profiles_built", "profiles_from_store",
                "predictions_run", "simulations_run",
            )
        })
        self._collect_cache_metrics(m, health)
        session = health["session"]
        set_gauges(m, "repro_expand", "expand", session["expand_engine"])
        set_gauges(m, "repro_ilp_kernel", "ilp kernel", session["ilp_kernel"])
        store = health.get("store")
        if store is not None:
            set_gauges(m, "repro_store", "Store", store)
            quarantine = m.gauge(
                "repro_store_quarantine",
                "Quarantined artifacts by kind", labels=("kind",),
            )
            for kind, n in store["quarantine"].items():
                quarantine.labels(kind=kind).set(n)

    @staticmethod
    def _collect_cache_metrics(m: MetricsRegistry, health: dict) -> None:
        session = health["session"]
        caches = {
            "result": health["result_cache"],
            "profile": health["profile_cache"],
            "trace": session["trace_cache"],
            "ilp": session["ilp_cache"],
            "branch": session["branch_cache"],
            "prep": session["prep_cache"],
        }
        hits = m.gauge(
            "repro_cache_hits", "Cache hits by cache", labels=("cache",)
        )
        misses = m.gauge(
            "repro_cache_misses", "Cache misses by cache", labels=("cache",)
        )
        entries = m.gauge(
            "repro_cache_entries", "Resident entries by cache",
            labels=("cache",),
        )
        sizes = m.gauge(
            "repro_cache_bytes", "Resident bytes by cache", labels=("cache",)
        )
        for label, stats in caches.items():
            hits.labels(cache=label).set(stats["hits"])
            misses.labels(cache=label).set(stats["misses"])
            entries.labels(cache=label).set(stats["entries"])
            if "bytes" in stats:
                sizes.labels(cache=label).set(stats["bytes"])

    def render_metrics(self) -> str:
        """Merged Prometheus exposition: process + service registries."""
        return render_registries([REGISTRY, self.metrics])

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-engine",
        )
        self._coalescer = Coalescer(
            self.engine.handle,
            self._executor,
            max_workers=self.workers,
        )
        if self._inherited_sock is not None:
            # Fleet fallback path: accept on the parent-bound socket.
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._inherited_sock,
                limit=_MAX_HEAD,
            )
        else:
            kwargs = {}
            if self.reuse_port:
                kwargs["reuse_port"] = True
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=_MAX_HEAD, **kwargs,
            )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.fleet_state_dir is not None:
            self._start_heartbeat()

    async def stop(self, drain: Optional[bool] = True) -> None:
        """Graceful shutdown: refuse, drain, then close.

        The listener closes first (no new connections), ``draining``
        flips so keep-alive connections get 503 for new compute work,
        and admitted work gets up to ``drain_timeout`` seconds to
        finish and flush its responses before connections are torn
        down.  ``drain=False`` skips the wait (abrupt stop — the
        chaos harness's kill switch).
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain and self._coalescer is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_timeout
            while loop.time() < deadline and (
                self._coalescer.depth() > 0 or self._active_requests > 0
            ):
                await asyncio.sleep(0.02)
        # Shake off idle keep-alive connections so their handler tasks
        # exit before the event loop is torn down.
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
        if self._heartbeat_stop is not None:
            self._heartbeat_stop.set()
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=2.0)
            self._heartbeat_thread = None
            self._heartbeat_stop = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # -- fleet heartbeats ----------------------------------------------------

    def _write_heartbeat(self) -> None:
        """Publish this worker's liveness + request count (best effort)."""
        payload = {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "port": self.port,
            "requests_served": self.requests_served,
            "draining": self.draining,
            "ts": time.time(),
        }
        path = self.fleet_state_dir / f"worker-{self.worker_id}.json"
        with contextlib.suppress(OSError):
            files.atomic_write(path, json.dumps(payload).encode())

    def _start_heartbeat(self) -> None:
        self._heartbeat_stop = threading.Event()

        def _beat(stop: threading.Event) -> None:
            while not stop.is_set():
                self._write_heartbeat()
                stop.wait(FLEET_HEARTBEAT_S)
            self._write_heartbeat()  # final beat records the drain

        self._heartbeat_thread = threading.Thread(
            target=_beat, args=(self._heartbeat_stop,),
            name=f"repro-heartbeat-{self.worker_id}", daemon=True,
        )
        self._heartbeat_thread.start()

    def _fleet_health(self) -> Optional[dict]:
        """Aggregate view over every worker's heartbeat file."""
        if self.fleet_state_dir is None:
            return None
        now = time.time()
        workers = []
        for path in files.paths(self.fleet_state_dir, "worker-*.json"):
            try:
                entry = json.loads(path.read_text())
                age = now - path.stat().st_mtime
            except (OSError, ValueError):
                continue
            entry["heartbeat_age_s"] = round(age, 3)
            entry["alive"] = age < 3 * FLEET_HEARTBEAT_S
            workers.append(entry)
        return {
            "workers": workers,
            "alive": sum(1 for w in workers if w["alive"]),
            "requests_served": sum(
                int(w.get("requests_served", 0)) for w in workers
            ),
        }

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def run(self) -> None:
        """Blocking entry point for ``python -m repro serve``.

        SIGINT/SIGTERM trigger a graceful drain instead of tearing the
        loop down mid-request.
        """

        ensure_configured()

        async def _main():
            await self.start()
            loop = asyncio.get_running_loop()
            stopping = asyncio.Event()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(
                    NotImplementedError, RuntimeError, ValueError
                ):
                    loop.add_signal_handler(sig, stopping.set)
            _log.info(
                "service.listening",
                url=f"http://{self.host}:{self.port}",
                workers=self.workers,
                max_queue=self.max_queue,
                deadline_ms=self.deadline_ms,
            )
            serve = asyncio.ensure_future(self._server.serve_forever())
            await stopping.wait()
            _log.info(
                "service.draining",
                drain_timeout_s=round(self.drain_timeout, 1),
            )
            serve.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve
            await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- HTTP ---------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    break
                request = _parse_head(head)
                if request is None:
                    await self._respond(
                        writer, 400, {"error": "malformed request"},
                        close=True,
                    )
                    break
                method, target, headers = request
                if "transfer-encoding" in headers:
                    # Only Content-Length framing is read: a chunked
                    # body left unread would be parsed as the next
                    # request (RFC 9112 section 6.1).
                    await self._respond(
                        writer, 501,
                        {"error": "Transfer-Encoding is not supported"},
                        close=True,
                    )
                    break
                length = _content_length(headers)
                if length is None:
                    await self._respond(
                        writer, 400, {"error": "malformed Content-Length"},
                        close=True,
                    )
                    break
                if length > _MAX_BODY:
                    await self._respond(
                        writer, 413, {"error": "body too large"},
                        close=True,
                    )
                    break
                body = b""
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        break
                parts = urlsplit(target)
                path = parts.path.rstrip("/") or "/"
                request_id = headers.get("x-request-id", "")
                if not _REQUEST_ID.fullmatch(request_id):
                    request_id = new_request_id()
                started = time.perf_counter()
                self._active_requests += 1
                try:
                    # The trace is current until its route span closes,
                    # so a computation's admission task inherits it via
                    # contextvars (ensure_future copies the context).
                    trace = open_route(request_id) if obs_enabled() else None
                    try:
                        routed = await self._dispatch(
                            reader, writer, method, path,
                            parts.query, headers, body,
                        )
                    finally:
                        if trace is not None:
                            close_route(trace, method, path)
                    if routed is None:
                        break  # client went away mid-request
                    status, payload, extra = routed
                    extra = dict(extra)
                    extra.setdefault("X-Request-Id", request_id)
                    extra.setdefault("X-Worker-Id", self._worker_label)
                    self._count_response(path, status)
                    keep = (
                        headers.get("connection", "").lower() != "close"
                    )
                    self._write(
                        writer, status, payload, close=not keep,
                        extra_headers=extra,
                    )
                    # The trace ends as its response reaches the
                    # transport and is in the ring before the loop
                    # serves anything else, so a client that has read
                    # its answer finds it.
                    if trace is not None:
                        trace.finish(status, path, method)
                        TRACE_RING.put(trace)
                    await writer.drain()
                    if _log.debug_enabled():
                        _log.debug(
                            "http.request",
                            request_id=request_id,
                            method=method,
                            route=path,
                            status=status,
                            duration_ms=round(
                                (time.perf_counter() - started) * 1e3, 3
                            ),
                        )
                finally:
                    self._active_requests -= 1
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            self._m_response_failures.inc()
        except asyncio.CancelledError:
            pass  # event-loop teardown mid-request
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError,
            ):
                pass

    def _count_response(self, path: str, status: int) -> None:
        """Count one response by route label, status and worker."""
        route = (
            path if path in _KNOWN_ROUTES
            else _DEBUG_TRACE_PREFIX
            if path.startswith(_DEBUG_TRACE_PREFIX)
            else "other"
        )
        counter = self._m_requests_by.get((route, status))
        if counter is None:
            counter = self._m_requests.labels(
                route=route, status=str(status)
            )
            self._m_requests_by[route, status] = counter
        counter.inc()
        self._m_served_here.inc()

    async def _admit_watched(
        self, reader, writer, request: ServiceRequest,
        deadline_ms: Optional[float],
    ) -> Optional[Tuple[int, dict, Dict[str, str]]]:
        """Admit a computation while watching for a client disconnect.

        Returns ``None`` when the client hung up first — the admitted
        work is cancelled (which also reaps it from the admission
        queue if no other single-flight waiter shares it).
        """
        admit_task = asyncio.ensure_future(
            self._admit(request, deadline_ms)
        )
        try:
            while True:
                done, _ = await asyncio.wait(
                    {admit_task}, timeout=_DISCONNECT_POLL_S
                )
                if done:
                    return admit_task.result()
                if reader.at_eof() or writer.is_closing():
                    self._m_disconnects.inc()
                    admit_task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, Exception
                    ):
                        await admit_task
                    return None
        except asyncio.CancelledError:
            admit_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await admit_task
            raise

    async def _respond(
        self, writer, status: int, payload: Union[dict, str, bytes],
        close: bool, extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._write(writer, status, payload, close, extra_headers)
        await writer.drain()

    @staticmethod
    def _write(
        writer, status: int, payload: Union[dict, str, bytes],
        close: bool, extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, bytes):
            # A JSON body the engine encoded with its answer (see
            # PredictionEngine.cached_body and resident_body).
            body = payload
            content_type = "application/json"
        elif isinstance(payload, str):
            # Raw text body (the /metrics exposition document).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = encode_json(payload)
            content_type = "application/json"
        reason = _REASONS.get(status, "Error")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode()
        # Chaos hook: may raise (simulating a peer reset mid-write) or
        # mutate the wire bytes (exercising client protocol handling).
        writer.write(FAULTS.fire("server.respond", head + body))

    # -- routing ------------------------------------------------------------

    def _retry_after(self) -> int:
        """Seconds a shed client should wait before retrying."""
        estimate = self._coalescer.estimate_wait_s(extra=1)
        return max(1, min(_MAX_RETRY_AFTER_S, math.ceil(estimate)))

    async def _dispatch(
        self, reader, writer, method: str, path: str, query: str,
        headers: dict, body: bytes,
    ) -> Optional[Tuple[int, Union[dict, str, bytes], Dict[str, str]]]:
        """Answer one request; ``None`` if the client hung up first.

        Everything but a computation (the coalescer) and the store
        inventory (the executor) runs to completion right here on the
        event loop: a cached answer, and a miss the engine answers from
        resident state.
        """
        kind = _COMPUTE_ROUTES.get(path)
        if kind is not None:
            if method not in ("GET", "POST"):
                return 405, {"error": "use GET or POST"}, {}
            try:
                request = self._parsed_request(kind, query, body)
                deadline_ms = _deadline_ms(headers, self.deadline_ms)
            except ValueError as exc:
                return 400, {"error": str(exc)}, {}
            if self.draining:
                return 503, {"error": "service is draining"}, {
                    "Retry-After": str(_MAX_RETRY_AFTER_S),
                }
            cached = self.engine.cached_body(request)
            if cached is not None:
                return 200, cached, {}
            built = self.engine.resident_body(request)
            if built is not None:
                self._m_loop_answered.inc()
                # Reading a buffered request and draining below the
                # high-water mark never yield, so without this a
                # pipelined burst of these would hold the loop until
                # its end while other connections wait.
                await asyncio.sleep(0)
                return 200, built, {}
            return await self._admit_watched(
                reader, writer, request, deadline_ms
            )
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self._health(), {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self.render_metrics(), {}
        if path == "/v1/profiles":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            # Listing the store costs more as it grows: off the loop.
            inventory = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.engine.profiles
            )
            return 200, inventory, {}
        if path.startswith(_DEBUG_TRACE_PREFIX):
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            trace_id = path[len(_DEBUG_TRACE_PREFIX):].strip("/")
            if not trace_id:
                return 200, {"traces": TRACE_RING.summaries()}, {}
            trace = TRACE_RING.get(trace_id)
            if trace is None:
                return 404, {
                    "error": f"no recent trace {trace_id!r}",
                    "hint": (
                        "the ring keeps the most recent "
                        f"{TRACE_RING.capacity} requests"
                    ),
                }, {}
            return 200, trace.to_dict(), {}
        return 404, {"error": f"no route for {path}"}, {}

    async def _admit(
        self, request: ServiceRequest, deadline_ms: Optional[float]
    ) -> Tuple[int, dict, Dict[str, str]]:
        """Admission control + deadline around the coalescer."""
        key = request.key()
        # A request identical to one already in flight rides along via
        # single-flight for free — only *distinct* work is bounded.
        if (
            self._coalescer.depth() >= self.max_queue
            and key not in self._coalescer._inflight
        ):
            self._m_shed.inc()
            retry_after = self._retry_after()
            return 429, {
                "error": "service overloaded, retry later",
                "queue_depth": self._coalescer.depth(),
                "max_queue": self.max_queue,
                "retry_after_s": retry_after,
            }, {"Retry-After": str(retry_after)}
        # Carry the current trace across the executor boundary: worker
        # threads do not inherit contextvars, so the engine opens its
        # root span in request.trace in handle().  Single-flight riders
        # share the leader's computation — engine spans land in the
        # leader's trace; riders still record their own coalesce wait
        # here.
        request = dataclasses.replace(request, trace=current_trace())
        submit = self._coalescer.submit(key, request)
        try:
            with span("coalesce", key="/".join(map(str, key))):
                if deadline_ms is not None:
                    status, payload = await asyncio.wait_for(
                        submit, timeout=deadline_ms / 1e3
                    )
                else:
                    status, payload = await submit
        except asyncio.TimeoutError:
            self._m_deadline_expired.inc()
            retry_after = self._retry_after()
            return 503, {
                "error": "deadline exceeded",
                "deadline_ms": deadline_ms,
                "retry_after_s": retry_after,
            }, {"Retry-After": str(retry_after)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # An engine job failing wholesale (injected chaos, engine
            # bug) must degrade to a typed 500, never a hung socket.
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        return status, payload, {}

    def _parsed_request(
        self, kind: str, query: str, body: bytes
    ) -> ServiceRequest:
        """:func:`_build_request`, parsed once per distinct request (hot
        clients repeat a few).  A malformed request raises on every call,
        and a body past :data:`PARSE_MEMO_MAX_BODY` is never kept; headers
        are no part of a parse, so callers read them per request."""
        if len(body) > PARSE_MEMO_MAX_BODY:
            return _build_request(kind, query, body)
        key = (kind, query, body)
        request = self._parsed.get(key)
        if request is None:
            request = _build_request(kind, query, body)
            self._parsed.put(key, request)
        return request

    def _health(self) -> dict:
        engine_health = self.engine.health()
        # Every count here reads the same registry counters /metrics
        # renders — the registry is the single source (asserted by
        # tests/test_service.py::test_healthz_derived_from_registry).
        admission = {
            "max_queue": self.max_queue,
            "queue_depth": (
                self._coalescer.depth()
                if self._coalescer is not None else 0
            ),
            "deadline_ms": self.deadline_ms,
            "shed": int(self._m_shed.value()),
            "deadline_expired": int(self._m_deadline_expired.value()),
            "disconnects": int(self._m_disconnects.value()),
            "response_failures": int(self._m_response_failures.value()),
            "loop_answered": int(self._m_loop_answered.value()),
            "draining": self.draining,
        }
        out = {
            "status": "draining" if self.draining else "ok",
            "workers": self.workers,
            "worker_id": self.worker_id,
            "requests_served": self.requests_served,
            "engine": engine_health,
            "coalescer": (
                self._coalescer.stats()
                if self._coalescer is not None else {}
            ),
            "admission": admission,
            "error_budget": error_budget(engine_health, admission),
        }
        fleet = self._fleet_health()
        if fleet is not None:
            out["fleet"] = fleet
        return out


def _parse_head(head: bytes) -> Optional[Tuple[str, str, dict]]:
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        return None
    headers = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def _content_length(headers: dict) -> Optional[int]:
    """The declared body length; ``None`` unless it is plain digits.

    ``-5`` would reach ``readexactly`` and ``abc`` would fail in
    ``int()``; both are answered 400 instead.
    """
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        return None
    return int(raw)


def _deadline_ms(
    headers: dict, default_ms: Optional[float]
) -> Optional[float]:
    """Effective request deadline: server default, client-tightened.

    A client may *tighten* the server deadline via ``X-Deadline-Ms``
    but never extend it — the server bound is the operator's SLA.
    """
    raw = headers.get("x-deadline-ms")
    if raw is None:
        return default_ms
    try:
        requested = float(raw)
    except ValueError:
        raise ValueError("X-Deadline-Ms must be a number")
    if not requested > 0:
        raise ValueError("X-Deadline-Ms must be positive")
    if default_ms is None:
        return requested
    return min(requested, default_ms)


def _build_request(
    kind: str, query: str, body: bytes
) -> ServiceRequest:
    """Merge query-string and JSON-body parameters into a request.

    Any malformed input raises ValueError, which the caller answers
    with a 400: a body nested past the decoder's recursion limit, a
    JSON ``cores`` that is a float or a bool (never truncated or
    coerced), a JSON ``scale`` that is a bool, or a ``cores`` /
    ``scale`` that ``int()`` / ``float()`` cannot hold (``Infinity``,
    ``1e400``, an integer past float range).
    """
    params = {
        key: values[-1]
        for key, values in parse_qs(query, keep_blank_values=True).items()
    }
    if body:
        try:
            decoded = json.loads(body)
        except RecursionError:
            raise ValueError("JSON body nests too deeply")
        except ValueError:
            raise ValueError("body is not valid JSON")
        if not isinstance(decoded, dict):
            raise ValueError("JSON body must be an object")
        params.update(decoded)
    benchmark = params.get("benchmark")
    if not benchmark or not isinstance(benchmark, str):
        raise ValueError("missing required parameter 'benchmark'")
    cores, scale = params.get("cores", 4), params.get("scale", 1.0)
    try:
        if isinstance(cores, (bool, float)) or isinstance(scale, bool):
            raise TypeError
        cores, scale = int(cores), float(scale)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("'cores' must be an int and 'scale' a float")
    # Bounds double as a resource guard: scale drives workload
    # expansion, so inf/NaN or absurd values must not reach a worker.
    if not 1 <= cores <= _MAX_CORES:
        raise ValueError(f"'cores' must be in [1, {_MAX_CORES}]")
    if not 0.0 < scale <= _MAX_SCALE:  # False for NaN too
        raise ValueError(f"'scale' must be in (0, {_MAX_SCALE}]")
    configs = params.get("configs", ())
    if isinstance(configs, str):
        configs = tuple(c for c in configs.split(",") if c)
    elif isinstance(configs, (list, tuple)):
        configs = tuple(str(c) for c in configs)
    else:
        raise ValueError("'configs' must be a list or comma string")
    return ServiceRequest(
        kind=kind,
        benchmark=benchmark,
        config=str(params.get("config", "base")),
        cores=cores,
        scale=scale,
        configs=configs,
    )


class BackgroundServer:
    """A service on a daemon thread — the harness tests and the load
    generator boot the real server with, on an ephemeral port.

    Usage::

        with BackgroundServer(engine=engine) as server:
            client = ServiceClient(port=server.port)

    ``boot_timeout`` / ``join_timeout`` bound how long :meth:`start`
    waits for the server thread to come up and :meth:`stop` waits for
    it to exit; both raise a :class:`RuntimeError` naming the failure
    instead of silently proceeding.
    """

    def __init__(
        self,
        engine: Optional[PredictionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 64,
        deadline_ms: Optional[float] = None,
        drain_timeout: float = 5.0,
        boot_timeout: float = 30.0,
        join_timeout: float = 10.0,
        worker_id: int = 0,
    ) -> None:
        self.service = PredictionService(
            engine=engine, host=host, port=port, workers=workers,
            max_queue=max_queue, deadline_ms=deadline_ms,
            drain_timeout=drain_timeout, worker_id=worker_id,
        )
        self.boot_timeout = boot_timeout
        self.join_timeout = join_timeout
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._drain_on_stop = True
        self._error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self.boot_timeout):
            raise RuntimeError(
                f"service thread {self._thread.name!r} failed to "
                f"become ready within boot_timeout="
                f"{self.boot_timeout:.1f}s (still "
                f"{'alive' if self._thread.is_alive() else 'dead'})"
            )
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface boot failures to start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self.port = self.service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop(drain=self._drain_on_stop)

    def loop_cpu_s(self) -> float:
        """CPU seconds the event-loop thread has run so far
        (``time.thread_time`` read on that thread)."""
        done: Future = Future()
        self._loop.call_soon_threadsafe(
            lambda: done.set_result(time.thread_time())
        )
        return done.result(timeout=self.join_timeout)

    def stop(self, drain: bool = True) -> None:
        """Stop the server thread (graceful drain unless ``drain=False``)."""
        self._drain_on_stop = drain
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self.join_timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"service thread {self._thread.name!r} failed to "
                    f"stop within join_timeout={self.join_timeout:.1f}s"
                )
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["BackgroundServer", "PredictionService"]
