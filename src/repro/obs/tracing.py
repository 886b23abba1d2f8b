"""Span-based tracing: nested stage timings per request.

``span("stage", **attrs)`` is a context manager that times a pipeline
stage.  Every exit feeds the global ``repro_stage_seconds`` histogram;
when a :class:`Trace` is active (the serving plane activates one per
HTTP request), the span is also recorded into it with parent/child
structure so ``/v1/debug/trace/<id>`` can show where a request's time
went.

Propagation rules:

- within one thread / one asyncio task tree, the active trace flows
  through a :mod:`contextvars` variable (``asyncio.ensure_future``
  copies the context at task creation, so the server's admission task
  for a computation inherits it for free);
- ``loop.run_in_executor`` does *not* carry context into worker
  threads, so the engine carries the trace on the
  ``ServiceRequest.trace`` field and re-activates it explicitly via
  :func:`activate`/:func:`deactivate` around ``handle()``.

Telemetry is best-effort by construction: the emit path fires the
``obs.emit`` chaos fault point first and swallows every exception —
a broken metrics sink increments a drop counter, never fails a
request.  ``REPRO_OBS=off`` (or :func:`set_enabled`) turns ``span``
into a bare ``yield`` for overhead measurement.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.counters import Counters
from repro.lru import LRUCache
from repro.obs.metrics import REGISTRY
from repro.testing.faults import FAULTS

__all__ = [
    "Trace",
    "TraceRing",
    "TRACE_RING",
    "span",
    "new_trace",
    "new_request_id",
    "activate",
    "deactivate",
    "current_trace",
    "current_request_id",
    "enabled",
    "set_enabled",
    "dropped_emits",
]

_OFF_VALUES = {"0", "off", "false", "no"}

_enabled = os.environ.get("REPRO_OBS", "on").strip().lower() not in _OFF_VALUES


def enabled() -> bool:
    """True when spans record; false under ``REPRO_OBS=off``."""
    return _enabled


def set_enabled(value: bool) -> None:
    """In-process toggle (the bench's overhead gate flips this)."""
    global _enabled
    _enabled = bool(value)


#: Stage timings for every instrumented pipeline stage, process-wide.
STAGE_SECONDS = REGISTRY.histogram(
    "repro_stage_seconds",
    "Wall time per instrumented pipeline stage",
    labels=("stage",),
)

_DROPPED = Counters("emits")


def dropped_emits() -> int:
    """Spans whose emit path raised (broken sink, chaos fault)."""
    return _DROPPED.snapshot()["emits"]


def _collect_obs(registry) -> None:
    registry.gauge(
        "repro_obs_dropped_emits",
        "Span emits swallowed because the telemetry sink raised",
    ).set(dropped_emits())
    registry.gauge(
        "repro_obs_enabled", "1 when span instrumentation records"
    ).set(1.0 if _enabled else 0.0)


REGISTRY.register_collector("obs", _collect_obs)


def new_request_id() -> str:
    return uuid.uuid4().hex[:16]


class Trace:
    """Spans recorded for one request, id-addressable in the ring."""

    __slots__ = (
        "trace_id",
        "started_unix_s",
        "_perf0",
        "_lock",
        "_next",
        "spans",
        "status",
        "route",
        "method",
        "duration_ms",
    )

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_request_id()
        self.started_unix_s = time.time()
        self._perf0 = time.perf_counter()
        self._lock = threading.Lock()
        self._next = 0
        self.spans: List[Dict[str, Any]] = []
        self.status: Optional[int] = None
        self.route: Optional[str] = None
        self.method: Optional[str] = None
        self.duration_ms: Optional[float] = None

    def next_span_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def record(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_perf: float,
        duration_s: float,
        attrs: Dict[str, Any],
    ) -> None:
        entry = {
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start_ms": round((start_perf - self._perf0) * 1e3, 3),
            "duration_ms": round(duration_s * 1e3, 3),
        }
        if attrs:
            entry["attrs"] = {
                k: v if isinstance(v, (str, int, float, bool)) else str(v)
                for k, v in attrs.items()
            }
        with self._lock:
            self.spans.append(entry)

    def finish(
        self,
        status: Optional[int] = None,
        route: Optional[str] = None,
        method: Optional[str] = None,
    ) -> None:
        self.status = status
        self.route = route
        self.method = method
        self.duration_ms = round((time.perf_counter() - self._perf0) * 1e3, 3)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s["start_ms"], s["span_id"]))
        return {
            "trace_id": self.trace_id,
            "started_unix_s": self.started_unix_s,
            "status": self.status,
            "route": self.route,
            "method": self.method,
            "duration_ms": self.duration_ms,
            "spans": spans,
        }


class TraceRing:
    """Bounded id->trace map keeping the most recent requests."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._traces = LRUCache(capacity)

    def put(self, trace: Trace) -> None:
        self._traces.put(trace.trace_id, trace)

    def get(self, trace_id: str) -> Optional[Trace]:
        return self._traces.peek(trace_id)

    def __len__(self) -> int:
        return len(self._traces)

    def summaries(self, limit: int = 32) -> List[Dict[str, Any]]:
        recent = [t for _, t in self._traces.items()[-limit:]]
        return [
            {
                "trace_id": t.trace_id,
                "route": t.route,
                "status": t.status,
                "duration_ms": t.duration_ms,
                "spans": len(t.spans),
            }
            for t in reversed(recent)
        ]


#: Ring buffer behind ``/v1/debug/trace/<id>``.
TRACE_RING = TraceRing()

# (trace, parent_span_id) for the current execution context.
_CTX: "contextvars.ContextVar[Optional[Tuple[Trace, Optional[int]]]]" = (
    contextvars.ContextVar("repro_obs_trace", default=None)
)


def new_trace(trace_id: Optional[str] = None) -> Trace:
    return Trace(trace_id)


def activate(trace: Optional[Trace]):
    """Make ``trace`` current; returns a token for :func:`deactivate`."""
    if trace is None:
        return None
    return _CTX.set((trace, None))


def deactivate(token) -> None:
    if token is not None:
        _CTX.reset(token)


def current_trace() -> Optional[Trace]:
    ctx = _CTX.get()
    return ctx[0] if ctx is not None else None


def current_request_id() -> Optional[str]:
    trace = current_trace()
    return trace.trace_id if trace is not None else None


def _emit(
    name: str,
    trace: Optional[Trace],
    span_id: Optional[int],
    parent_id: Optional[int],
    start_perf: float,
    duration_s: float,
    attrs: Dict[str, Any],
) -> None:
    try:
        FAULTS.fire("obs.emit")
        STAGE_SECONDS.labels(stage=name).observe(duration_s)
        if trace is not None and span_id is not None:
            trace.record(span_id, parent_id, name, start_perf, duration_s, attrs)
    except Exception:
        _DROPPED.bump("emits")


@contextmanager
def span(name: str, **attrs: Any):
    """Time a pipeline stage; record to histogram + active trace.

    No-op (bare yield) when instrumentation is disabled.  Never raises
    from the telemetry path itself.
    """
    if not _enabled:
        yield None
        return
    ctx = _CTX.get()
    token = None
    trace: Optional[Trace] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    if ctx is not None:
        trace, parent_id = ctx
        span_id = trace.next_span_id()
        token = _CTX.set((trace, span_id))
    start = time.perf_counter()
    try:
        yield None
    finally:
        duration = time.perf_counter() - start
        if token is not None:
            _CTX.reset(token)
        _emit(name, trace, span_id, parent_id, start, duration, attrs)
