"""The one eviction policy of every in-process memo: :class:`LRUCache`.

The serving engine's profile and result maps, the server's parse
memo, the session's trace, ILP-table, branch-statistics, segment-prep
and Eq.-1 memos, the expansion engine's layout and image memos and
StatStack's curve memo are all this class, so they evict alike and
report one :meth:`LRUCache.stats` shape.  It imports nothing from
:mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

_MISSING = object()


class LRUCache:
    """Thread-safe least-recently-used map with event counters.

    ``maxsize`` bounds the entries, and ``max_bytes``, when given, the
    sum of their ``.nbytes``.  A value the bounds cannot hold on its
    own (any value when ``maxsize`` is 0) is not stored and counts as
    one eviction.  ``counters`` names extra event counters a caller
    bumps with :meth:`count`; :meth:`stats` reports them next to
    ``hits``, ``misses`` and ``evictions``.
    """

    def __init__(
        self,
        maxsize: int,
        max_bytes: Optional[int] = None,
        counters: Sequence[str] = (),
    ) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._nbytes = 0
        self._counts = dict.fromkeys(
            ("hits", "misses", "evictions", *counters), 0
        )

    def _size(self, value: Any) -> int:
        return value.nbytes if self.max_bytes is not None else 0

    def get(
        self, key: Hashable, default: Any = None, count_miss: bool = True
    ) -> Any:
        """The value for ``key``, refreshed as most recently used.

        ``count_miss=False`` leaves a miss uncounted: a probe whose miss
        the caller counts itself, or a later ``get`` counts again.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if count_miss:
                    self._counts["misses"] += 1
                return default
            self._data.move_to_end(key)
            self._counts["hits"] += 1
            return value

    def peek(self, key: Hashable) -> Any:
        """The value for ``key`` (or ``None``), counting nothing and
        leaving the recency order as it is."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as most recently used, evicting the least
        recently used entries until the bounds hold."""
        size = self._size(value)
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._nbytes -= self._size(old)
            if self.maxsize == 0 or (
                self.max_bytes is not None and size > self.max_bytes
            ):
                self._counts["evictions"] += 1
                return
            self._data[key] = value
            self._nbytes += size
            while len(self._data) > self.maxsize or (
                self.max_bytes is not None and self._nbytes > self.max_bytes
            ):
                _, evicted = self._data.popitem(last=False)
                self._nbytes -= self._size(evicted)
                self._counts["evictions"] += 1

    def count(self, name: str) -> None:
        """Count one ``name`` event: a hit or miss of a lookup the
        caller answered outside the map, or one of its ``counters``."""
        with self._lock:
            self._counts[name] += 1

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Snapshot, least- to most-recently used."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped.

        Counters survive: invalidation is not amnesia about past
        performance.
        """
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self._nbytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        """Counters, ``entries`` and ``maxsize``, plus ``bytes`` and
        ``max_bytes`` for a byte-bounded map."""
        with self._lock:
            out = dict(self._counts)
            out["entries"] = len(self._data)
            out["maxsize"] = self.maxsize
            if self.max_bytes is not None:
                out["bytes"] = self._nbytes
                out["max_bytes"] = self.max_bytes
            return out


__all__ = ["LRUCache"]
