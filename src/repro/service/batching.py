"""Request coalescing primitives for the prediction service.

Two transport-agnostic pieces:

* :class:`LRUCache` — a thread-safe least-recently-used map with hit /
  miss counters, shared by the engine for profiles, epoch-cost caches
  and finished payloads.
* :class:`Coalescer` — the asyncio front half of the serving data
  path.  Concurrent requests are (a) *deduplicated*: identical keys
  in flight collapse onto one future (single-flight), so a stampede of
  equal requests costs exactly one engine computation; and (b)
  *batched*: distinct pending requests are drained together into one
  executor hop, so the engine amortizes its dispatch overhead and
  serves the whole group from warm caches.

Neither piece knows about HTTP or about the engine's semantics — the
coalescer takes an opaque ``compute_batch`` callable and opaque request
objects keyed by the caller.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Tuple


class LRUCache:
    """Thread-safe LRU map with hit/miss accounting."""

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self, key: Hashable, default: Any = None, count_miss: bool = True
    ) -> Any:
        """The value for ``key``, refreshed as most recently used.

        ``count_miss=False`` leaves a miss uncounted: a probe whose miss
        a later ``get`` on the compute path counts again.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                if count_miss:
                    self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Snapshot, least- to most-recently used."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> int:
        """Drop every entry; returns how many were evicted.

        Hit/miss counters survive — invalidation is not amnesia about
        past performance.
        """
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }


class Coalescer:
    """Single-flight dedup + micro-batching over an executor.

    ``compute_batch`` receives a list of request objects and returns a
    result per request, in order; it runs on ``executor`` (a thread
    pool), never on the event loop.  Up to ``max_workers`` batches run
    concurrently; requests arriving while every worker is busy queue up
    and ship in the next drain, so batch size adapts to load.

    A request whose key equals one already in flight never reaches the
    engine: it awaits the in-flight future (``collapsed`` counts these
    — the single-flight guarantee the concurrency tests pin down).
    """

    def __init__(
        self,
        compute_batch: Callable[[List[Any]], List[Any]],
        executor,
        max_workers: int = 1,
        max_batch: int = 64,
    ) -> None:
        self._compute = compute_batch
        self._executor = executor
        self._max_workers = max(1, max_workers)
        self.max_batch = max(1, max_batch)
        self._pending: List[Tuple[Hashable, Any]] = []
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        #: key -> number of awaiting submitters (single-flight sharers).
        self._waiters: Dict[Hashable, int] = {}
        self._drainers = 0
        #: Requests that collapsed onto an identical in-flight one.
        self.collapsed = 0
        #: Executor round-trips (each serving >= 1 request).
        self.batches = 0
        #: Total requests submitted.
        self.submitted = 0
        #: Queued requests dropped because every waiter went away
        #: (client disconnect / deadline) before the work shipped.
        self.abandoned = 0
        #: EWMA of per-request engine service time — the basis of the
        #: server's ``Retry-After`` estimate under overload.
        self.ewma_service_s = 0.0

    def depth(self) -> int:
        """Distinct requests admitted and not yet resolved."""
        return len(self._inflight)

    def estimate_wait_s(self, extra: int = 0) -> float:
        """Rough time until a request submitted now would finish."""
        per_request = self.ewma_service_s or 0.05
        workers = self._max_workers
        return (self.depth() + extra) * per_request / workers

    async def submit(self, key: Hashable, request: Any) -> Any:
        """Resolve ``request``, sharing work with identical requests.

        Cancellation-aware: if every waiter on a key is cancelled (a
        client disconnected, a deadline fired) while the work is still
        queued, the entry is dropped before it ever reaches the
        engine.  Work already executing cannot be recalled — its
        result simply resolves a future nobody awaits.
        """
        loop = asyncio.get_running_loop()
        self.submitted += 1
        fut = self._inflight.get(key)
        if fut is not None:
            self.collapsed += 1
        else:
            fut = loop.create_future()
            self._inflight[key] = fut
            self._pending.append((key, request))
            if self._drainers < self._max_workers:
                self._drainers += 1
                loop.create_task(self._drain(loop))
        self._waiters[key] = self._waiters.get(key, 0) + 1
        try:
            return await asyncio.shield(fut)
        except asyncio.CancelledError:
            self._abandon(key, fut)
            raise
        finally:
            remaining = self._waiters.get(key, 1) - 1
            if remaining <= 0:
                self._waiters.pop(key, None)
            else:
                self._waiters[key] = remaining

    def _abandon(self, key: Hashable, fut: asyncio.Future) -> None:
        """A waiter was cancelled; reap the work if it was the last."""
        if self._waiters.get(key, 0) > 1:
            return  # other waiters still want the result
        if self._inflight.get(key) is not fut:
            return  # already resolved or superseded
        for i, (pending_key, _) in enumerate(self._pending):
            if pending_key == key:
                del self._pending[i]
                self._inflight.pop(key, None)
                if not fut.done():
                    fut.cancel()
                self.abandoned += 1
                return
        # Not pending: the batch is already on an executor thread.
        # Let it finish; its result resolves an unawaited future.

    async def _drain(self, loop) -> None:
        try:
            while self._pending:
                batch = self._pending[: self.max_batch]
                del self._pending[: len(batch)]
                self.batches += 1
                requests = [request for _, request in batch]
                t0 = loop.time()
                try:
                    results = await loop.run_in_executor(
                        self._executor, self._compute, requests
                    )
                except BaseException as exc:
                    for key, _ in batch:
                        fut = self._inflight.pop(key, None)
                        if fut is not None and not fut.done():
                            fut.set_exception(exc)
                    continue
                per_request = (loop.time() - t0) / len(batch)
                self.ewma_service_s = (
                    per_request if self.ewma_service_s == 0.0
                    else 0.8 * self.ewma_service_s + 0.2 * per_request
                )
                for (key, _), result in zip(batch, results):
                    fut = self._inflight.pop(key, None)
                    if fut is not None and not fut.done():
                        fut.set_result(result)
        finally:
            self._drainers -= 1

    def stats(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "collapsed": self.collapsed,
            "batches": self.batches,
            "abandoned": self.abandoned,
            "inflight": len(self._inflight),
            "pending": len(self._pending),
            "ewma_service_ms": round(self.ewma_service_s * 1e3, 3),
        }


def run_coalesced(
    coalescer: Coalescer,
    items: List[Tuple[Hashable, Any]],
) -> List[Any]:
    """Synchronous helper: resolve many keyed requests on a fresh loop.

    Test/tooling convenience for exercising a :class:`Coalescer`
    outside a running server.
    """

    async def _gather():
        return await asyncio.gather(*[
            coalescer.submit(key, request) for key, request in items
        ])

    return asyncio.run(_gather())


__all__ = ["Coalescer", "LRUCache", "run_coalesced"]
