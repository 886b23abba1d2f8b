"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Event counts live where they happen, in :class:`repro.counters.Counters`
bags and :class:`repro.lru.LRUCache` stats; the registry reaches them
through *collectors*: callables registered under a key that refresh
gauges from those snapshots at scrape time (:func:`set_gauges`
projects a flat one).  The bags stay the single source of truth — the
registry never duplicates a count, it projects one.

Design constraints:

- stdlib only, lock-cheap: one ``threading.Lock`` per metric family,
  taken only on write/observe; the hot profiler path observes a
  histogram (one dict lookup + one lock) per pipeline *stage*, never
  per chunk.
- label support with cached children: ``family.labels(stage="replay")``
  resolves through a dict keyed on the label-value tuple.
- Prometheus text exposition format 0.0.4 (``# HELP``/``# TYPE``
  headers, cumulative ``_bucket{le=...}`` plus ``_sum``/``_count`` for
  histograms, backslash/quote/newline escaping in label values).

Two registries cooperate at render time: the module-level ``REGISTRY``
holds process-global series (pipeline-stage histograms, telemetry drop
counters) while each ``PredictionService`` owns a private registry for
its admission counters so parallel test servers do not bleed counts
into each other.  ``render_registries`` concatenates both for the
``/metrics`` endpoint.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "render_registries",
    "set_gauges",
]

_INF = float("inf")

# Latency buckets (seconds) for pipeline stages: the profiler's
# per-stage times span ~0.1 ms (cached expansion) to seconds (full
# Rodinia replay at scale), so the grid is log-ish across that range.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_suffix(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Family:
    """Base for one named metric and its per-labelset children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Family"] = {}
        if not self.label_names:
            self._init_state()

    def _init_state(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **kwargs: object) -> "_Family":
        if tuple(sorted(kwargs)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(kwargs))}"
            )
        key = tuple(str(kwargs[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._child()
                    self._children[key] = child
        return child

    def _child(self) -> "_Family":
        """A fresh unlabelled leaf of this family."""
        return type(self)(self.name, self.help)

    def _samples(self) -> List[Tuple[Tuple[str, ...], "_Family"]]:
        """(label-values, leaf) pairs; the leaf holds the state."""
        if not self.label_names:
            return [((), self)]
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for values, leaf in self._samples():
            lines.extend(leaf._render_sample(self.name, self.label_names, values))
        return lines

    def _render_sample(
        self, name: str, names: Sequence[str], values: Sequence[str]
    ) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def _init_state(self) -> None:
        self._value = 0.0

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self._value += by

    def value(self) -> float:
        if self.label_names:
            return sum(leaf._value for _, leaf in self._samples())
        return self._value

    def _render_sample(self, name, names, values):
        suffix = _label_suffix(names, values)
        return [f"{name}{suffix} {_format_value(self._value)}"]


class Gauge(_Family):
    """Point-in-time value, settable in either direction."""

    kind = "gauge"

    def _init_state(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self._value += by

    def value(self) -> float:
        if self.label_names:
            return sum(leaf._value for _, leaf in self._samples())
        return self._value

    def _render_sample(self, name, names, values):
        suffix = _label_suffix(names, values)
        return [f"{name}{suffix} {_format_value(self._value)}"]


class Histogram(_Family):
    """Fixed-bucket histogram with cumulative Prometheus semantics."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self._buckets: Tuple[float, ...] = tuple(sorted(buckets))
        super().__init__(name, help, labels)

    def _init_state(self) -> None:
        self._counts = [0] * (len(self._buckets) + 1)  # +1 for +Inf
        self._sum = 0.0

    def _child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self._buckets)

    def observe(self, value: float) -> None:
        # The first bucket whose bound is >= value; past the last, +Inf.
        idx = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    def _render_sample(self, name, names, values):
        lines = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
        total = sum(counts)
        bounds = [*self._buckets, _INF]
        for bound, n in zip(bounds, counts):
            cumulative += n
            le = _label_suffix(
                (*names, "le"), (*values, _format_value(bound))
            )
            lines.append(f"{name}_bucket{le} {cumulative}")
        suffix = _label_suffix(names, values)
        lines.append(f"{name}_sum{suffix} {_format_value(total_sum)}")
        lines.append(f"{name}_count{suffix} {total}")
        return lines


class MetricsRegistry:
    """A named collection of metric families plus refresh collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: Dict[str, Callable[["MetricsRegistry"], None]] = {}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labels=labels, **kwargs)
                self._families[name] = family
            elif not isinstance(family, cls) or (
                tuple(labels) != family.label_names
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind} with labels {family.label_names}"
                )
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def register_collector(
        self, key: str, fn: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register (or replace) a scrape-time refresh hook.

        Keyed so a recreated owner (tests build many engines per
        process) replaces its predecessor instead of stacking stale
        closures.
        """
        with self._lock:
            self._collectors[key] = fn

    def collect(self) -> None:
        """Run every collector; a broken one never fails the scrape."""
        with self._lock:
            collectors = list(self._collectors.values())
        for fn in collectors:
            try:
                fn(self)
            except Exception:
                pass  # telemetry is best-effort by construction

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        return render_registries([self])

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every family (``repro obs --json``)."""
        self.collect()
        out: Dict[str, object] = {}
        for family in self.families():
            samples = {}
            for values, leaf in family._samples():
                key = ",".join(values) if values else ""
                if isinstance(leaf, Histogram):
                    samples[key] = {
                        "count": sum(leaf._counts),
                        "sum": leaf._sum,
                        "buckets": dict(
                            zip(
                                (_format_value(b) for b in (*leaf._buckets, _INF)),
                                leaf._counts,
                            )
                        ),
                    }
                else:
                    samples[key] = leaf._value
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        return out


def set_gauges(
    registry: MetricsRegistry,
    prefix: str,
    title: str,
    snapshot: Dict[str, object],
) -> None:
    """Project a counter snapshot into gauges: each number ``name``
    sets ``{prefix}_{name}``, helped as ``{title} {name}`` with spaces
    for underscores; other values (nested blocks) are skipped."""
    for name, value in snapshot.items():
        if isinstance(value, (int, float)):
            registry.gauge(
                f"{prefix}_{name}", f"{title} {name.replace('_', ' ')}"
            ).set(value)


def render_registries(registries: Iterable[MetricsRegistry]) -> str:
    """Merge several registries into one exposition document."""
    lines: List[str] = []
    seen = set()
    for registry in registries:
        registry.collect()
        for family in registry.families():
            if family.name in seen:
                continue  # first registration wins; names are disjoint
            seen.add(family.name)
            lines.extend(family.render())
    return "\n".join(lines) + "\n"


#: Process-global registry: pipeline-stage timings and obs internals.
REGISTRY = MetricsRegistry()
