"""Unified telemetry plane: metrics registry, spans, structured logs.

Three cooperating layers, stdlib-only and always on:

- :mod:`repro.obs.metrics` — process-wide registry of counters,
  gauges and fixed-bucket histograms with Prometheus text rendering;
  the subsystems' :class:`~repro.counters.Counters` bags and LRU stats
  stay authoritative and are projected in via scrape-time collectors.
- :mod:`repro.obs.tracing` — ``span("stage")`` context manager feeding
  the ``repro_stage_seconds`` histogram and, per served request, a
  trace retrievable from ``/v1/debug/trace/<id>``.
- :mod:`repro.obs.logging` — structured event logging (human or JSON),
  stamped with the active request id.

``REPRO_OBS=off`` disables span recording.  ``bench --check`` gates
what spans cost: at most 5 % of warm profiler-suite CPU, and at most
20 % of the server CPU of a hot ``/v1/predict`` (one trace and its
``route`` span, on a request that does little else).
"""

from repro.obs.logging import StructLogger, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    render_registries,
)
from repro.obs.tracing import (
    TRACE_RING,
    Trace,
    TraceRing,
    current_request_id,
    current_trace,
    dropped_emits,
    enabled,
    new_request_id,
    root_span,
    set_enabled,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "render_registries",
    "StructLogger",
    "configure_logging",
    "get_logger",
    "Trace",
    "TraceRing",
    "TRACE_RING",
    "span",
    "root_span",
    "new_request_id",
    "current_trace",
    "current_request_id",
    "enabled",
    "set_enabled",
    "dropped_emits",
]
