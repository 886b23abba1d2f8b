"""Span-based tracing: nested stage timings per request.

``span("stage", **attrs)`` is a context manager that times a pipeline
stage.  Every exit feeds the global ``repro_stage_seconds`` histogram;
when a :class:`Trace` is current (the server opens one per HTTP
request), the span is also recorded into it with parent/child
structure so ``/v1/debug/trace/<id>`` can show where a request's time
went.

Propagation rules:

- the server makes a request's trace current, with its ``route``
  span as the parent, from :func:`open_route` to :func:`close_route`;
  a thread opens a trace's top-level span with :class:`root_span`
  (the engine's ``engine`` span per computation);
- within one thread / one asyncio task tree, the current span flows
  through a :mod:`contextvars` variable (``asyncio.ensure_future``
  copies the context at task creation, so the server's admission task
  for a computation inherits it for free), and a :class:`span` opened
  under it records into its trace as its child;
- ``loop.run_in_executor`` does *not* carry context into worker
  threads, so the engine carries the trace on the
  ``ServiceRequest.trace`` field and opens its own root span in it.

Recording is split from reading, because nearly every trace is
recorded and almost none is read (the ring keeps the last 256).  A
span exit appends one raw
``(span_id, parent_id, name, start, duration, attrs)`` tuple to its
trace; the rounded, sorted span dicts of ``/v1/debug/trace/<id>`` are
built only by :meth:`Trace.to_dict`.  Attributes that are not
``str``/``int``/``float``/``bool`` are still turned into ``str()`` at
record time, so a trace reads what the stage saw.  A request's
``route`` span is only that tuple, with no span object around it.

A trace is written from the event loop and from engine threads at
once, without a lock: a span id is one ``next()`` on the trace's
``itertools.count`` and a span record one ``list.append``, each a
single C call and so atomic under the GIL, and a reader copies the
list before it walks it.  So ids stay unique and no span is lost or
torn.

Telemetry is best-effort by construction: the emit path fires the
``obs.emit`` chaos fault point first and swallows every exception —
a broken metrics sink increments a drop counter, never fails a
request.  ``REPRO_OBS=off`` (or :func:`set_enabled`) makes ``span``
do nothing and the server build no trace, for overhead measurement.
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.counters import Counters
from repro.obs.metrics import REGISTRY, Histogram
from repro.testing.faults import FAULTS

__all__ = [
    "Trace",
    "TraceRing",
    "TRACE_RING",
    "span",
    "root_span",
    "open_route",
    "close_route",
    "new_request_id",
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

class _Stages(dict):
    """``STAGE_SECONDS`` children by stage name, bound on first use, so
    a span exit is one dict lookup away from its histogram."""

    def __missing__(self, name: str) -> Histogram:
        stage = self[name] = STAGE_SECONDS.labels(stage=name)
        return stage


_STAGES = _Stages()

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
    """A fresh request id: 16 lowercase hex characters."""
    return os.urandom(8).hex()


_time = time.time
_perf_counter = time.perf_counter

#: Attribute types a span records as they are; others become ``str()``.
_SCALARS = (str, int, float, bool)
_SCALAR_TYPES = frozenset(_SCALARS)

#: One recorded span: (span_id, parent_id, name, start, duration, attrs),
#: times in ``perf_counter`` seconds.
SpanRecord = Tuple[int, Optional[int], str, float, float, Dict[str, Any]]


class Trace:
    """Spans recorded for one request, id-addressable in the ring."""

    __slots__ = ("trace_id", "started_unix_s", "_perf0", "_ids", "spans",
                 "status", "route", "method", "_end", "_token")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_request_id()
        self.started_unix_s = _time()
        self._perf0 = _perf_counter()
        self._ids = itertools.count(1)
        #: Raw records in completion order; :meth:`to_dict` formats them.
        self.spans: List[SpanRecord] = []
        self.status: Optional[int] = None
        self.route: Optional[str] = None
        self.method: Optional[str] = None
        self._end: Optional[float] = None

    def finish(self, status: Optional[int] = None, route: Optional[str] = None,
               method: Optional[str] = None) -> None:
        self._end = _perf_counter()
        self.status = status
        self.route = route
        self.method = method

    @property
    def duration_ms(self) -> Optional[float]:
        """Milliseconds from creation to :meth:`finish` (``None`` before)."""
        end = self._end
        return None if end is None else round((end - self._perf0) * 1e3, 3)

    def to_dict(self) -> Dict[str, Any]:
        perf0 = self._perf0
        spans = []
        for span_id, parent_id, name, start, duration, attrs in list(self.spans):
            entry = {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "start_ms": round((start - perf0) * 1e3, 3),
                "duration_ms": round(duration * 1e3, 3),
            }
            if attrs:
                entry["attrs"] = dict(attrs)
            spans.append(entry)
        spans.sort(key=lambda s: (s["start_ms"], s["span_id"]))
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
    """The last ``capacity`` traces put, a FIFO: a trace is put once
    and read almost never, so the ring keeps no recency.  A put is one
    ``deque.append``, atomic under the GIL, so servers' event loops put
    without a lock.  A re-put id is seen at the newest end (its old put
    holds a slot until evicted); :meth:`get` reorders nothing."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._traces = collections.deque(maxlen=capacity)

    def put(self, trace: Trace) -> None:
        self._traces.append(trace)

    def _by_id(self) -> Dict[str, Trace]:
        """The newest put of each held id, oldest first."""
        traces: Dict[str, Trace] = {}
        for trace in list(self._traces):
            traces.pop(trace.trace_id, None)
            traces[trace.trace_id] = trace
        return traces

    def get(self, trace_id: str) -> Optional[Trace]:
        return self._by_id().get(trace_id)

    def __len__(self) -> int:
        return len(self._by_id())

    def summaries(self, limit: int = 32) -> List[Dict[str, Any]]:
        recent = list(self._by_id().values())[-limit:]
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

# (trace, span id) of the innermost open span recording into a trace.
_CTX: "contextvars.ContextVar[Optional[Tuple[Trace, int]]]" = (
    contextvars.ContextVar("repro_obs_span", default=None)
)


def current_trace() -> Optional[Trace]:
    ctx = _CTX.get()
    return ctx[0] if ctx is not None else None


def current_request_id() -> Optional[str]:
    trace = current_trace()
    return trace.trace_id if trace is not None else None


class span:
    """Time a pipeline stage; record to histogram + current trace.

    ``with span("stage", **attrs):`` -- does nothing when
    instrumentation is disabled at entry, and never raises from the
    telemetry path itself.
    """

    __slots__ = ("name", "attrs", "trace", "span_id", "parent_id", "token",
                 "start")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> None:
        if not _enabled:
            self.start = None
            return None
        parent = _CTX.get()
        if parent is None:
            self.trace = None
        else:
            self.trace = trace = parent[0]
            self.parent_id = parent[1]
            self.span_id = span_id = next(trace._ids)
            self.token = _CTX.set((trace, span_id))
        self.start = _perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        start = self.start
        if start is None:
            return False
        duration = _perf_counter() - start
        trace = self.trace
        if trace is not None:
            _CTX.reset(self.token)
        try:
            FAULTS.fire("obs.emit")
            _STAGES[self.name].observe(duration)
            if trace is not None:
                attrs = self.attrs
                if not _SCALAR_TYPES.issuperset(map(type, attrs.values())):
                    attrs = {
                        k: v if isinstance(v, _SCALARS) else str(v)
                        for k, v in attrs.items()
                    }
                trace.spans.append((
                    self.span_id, self.parent_id, self.name, start,
                    duration, attrs,
                ))
        except Exception:
            _DROPPED.bump("emits")
        return False


class root_span(span):
    """``trace``'s top-level span in this thread or task, with
    ``trace`` current for the span's extent, so spans opened inside
    record into it as its children.  A ``None`` trace gives a span
    outside any trace.
    """

    __slots__ = ()

    def __init__(
        self, trace: Optional[Trace], name: str, **attrs: Any
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.trace = trace

    def __enter__(self) -> None:
        if not _enabled:
            self.start = None
            return None
        trace = self.trace
        if trace is not None:
            self.parent_id = None
            self.span_id = span_id = next(trace._ids)
            self.token = _CTX.set((trace, span_id))
        self.start = _perf_counter()
        return None


def open_route(trace_id: str) -> Trace:
    """A new trace, current in this context until :func:`close_route`,
    whose ``route`` span (id 1, no parent) starts now."""
    trace = Trace(trace_id)
    trace._token = _CTX.set((trace, next(trace._ids)))
    return trace


def close_route(trace: Trace, method: str, path: str) -> None:
    """End ``trace``'s ``route`` span and record it as a span exit would."""
    start = trace._perf0
    duration = _perf_counter() - start
    _CTX.reset(trace._token)
    trace._token = None  # the token holds the connection's context
    try:
        FAULTS.fire("obs.emit")
        _STAGES["route"].observe(duration)
        attrs = {"method": method, "path": path}
        trace.spans.append((1, None, "route", start, duration, attrs))
    except Exception:
        _DROPPED.bump("emits")
