"""The one store of event counts in :mod:`repro`: :class:`Counters`.

The expansion engine, the fused ILP kernel, the artifact store, the
work queue, the serving engine, every
:class:`~repro.core.session.Session` and the span emitter keep their
event counts in one of these bags, so they count alike and snapshot to
one shape, a flat name -> int dict that ``/healthz`` nests and
:func:`repro.obs.metrics.set_gauges` projects into ``/metrics``.  A map
or queue whose counts change under the lock of the data they describe
(:class:`~repro.lru.LRUCache`, the coalescer, the fault injector, the
metric families) keeps its own.  It imports nothing from
:mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import threading
from typing import Dict


class Counters:
    """Thread-safe bag of named event counts.

    ``names`` appear in every :meth:`snapshot`, at 0 until counted;
    any other name appears once it is counted.
    """

    def __init__(self, *names: str) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(names, 0)

    def bump(self, name: str, by: int = 1) -> None:
        """Count ``by`` more ``name`` events."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def add(self, **deltas: int) -> None:
        """Count several names at once, under one lock acquisition."""
        with self._lock:
            counts = self._counts
            for name, by in deltas.items():
                counts[name] = counts.get(name, 0) + by

    def snapshot(self) -> Dict[str, int]:
        """A copy of every count, in first-counted order."""
        with self._lock:
            return dict(self._counts)


__all__ = ["Counters"]
