"""Request coalescing primitives for the prediction service.

:class:`Coalescer` is the asyncio front half of the serving miss path.
Concurrent requests are *deduplicated*: identical keys in flight
collapse onto one executor job (single-flight), so a stampede of equal
requests costs exactly one engine computation, and each distinct key
is one job on the engine's thread pool.

It knows nothing about HTTP or about the engine's semantics: it takes
an opaque ``compute`` callable and opaque request objects keyed by the
caller.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Tuple


@dataclass(eq=False)
class _Flight:
    """One executor job and the submitters waiting on it."""

    job: concurrent.futures.Future
    #: The job as an asyncio future; resolves to (result, seconds).
    result: asyncio.Future
    waiters: int = 0


class Coalescer:
    """Single-flight over an executor: one job per distinct key.

    ``compute`` receives one request object and returns its result; it
    runs on ``executor`` (a thread pool of ``max_workers`` threads),
    never on the event loop.  A request whose key equals one already
    in flight never reaches the executor: it awaits the in-flight job
    (``collapsed`` counts these — the single-flight guarantee the
    concurrency tests pin down).
    """

    def __init__(
        self,
        compute: Callable[[Any], Any],
        executor: concurrent.futures.Executor,
        max_workers: int = 1,
    ) -> None:
        self._compute = compute
        self._executor = executor
        self._max_workers = max(1, max_workers)
        self._inflight: Dict[Hashable, _Flight] = {}
        #: Requests that collapsed onto an identical in-flight one.
        self.collapsed = 0
        #: Executor jobs submitted, one per distinct in-flight key.
        self.batches = 0
        #: Total requests submitted.
        self.submitted = 0
        #: Jobs cancelled before a thread took them, because every
        #: waiter went away (client disconnect / deadline).
        self.abandoned = 0
        #: EWMA of per-job engine service time — the basis of the
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
        client disconnected, a deadline fired) while its job is still
        queued for a thread, the job is cancelled and never reaches
        the engine.  A job already running cannot be recalled — its
        result simply resolves a future nobody awaits.
        """
        self.submitted += 1
        flight = self._inflight.get(key)
        if flight is not None:
            self.collapsed += 1
        else:
            job = self._executor.submit(self._timed, request)
            flight = _Flight(job, asyncio.wrap_future(job))
            flight.result.add_done_callback(
                functools.partial(self._resolved, key, flight)
            )
            self._inflight[key] = flight
            self.batches += 1
        flight.waiters += 1
        try:
            result, _seconds = await asyncio.shield(flight.result)
            return result
        except asyncio.CancelledError:
            if (
                flight.waiters == 1
                and self._inflight.get(key) is flight
                and flight.job.cancel()
            ):
                del self._inflight[key]
                self.abandoned += 1
            raise
        finally:
            flight.waiters -= 1

    def _timed(self, request: Any) -> Tuple[Any, float]:
        """The executor job: compute, timed on the engine thread."""
        start = time.perf_counter()
        result = self._compute(request)
        return result, time.perf_counter() - start

    def _resolved(
        self, key: Hashable, flight: _Flight, fut: asyncio.Future
    ) -> None:
        if self._inflight.get(key) is flight:
            del self._inflight[key]
        if fut.cancelled() or fut.exception() is not None:
            return
        seconds = fut.result()[1]
        self.ewma_service_s = (
            seconds if self.ewma_service_s == 0.0
            else 0.8 * self.ewma_service_s + 0.2 * seconds
        )

    def stats(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "collapsed": self.collapsed,
            "batches": self.batches,
            "abandoned": self.abandoned,
            "inflight": len(self._inflight),
            # Jobs still queued for an engine thread.
            "pending": sum(
                1 for flight in self._inflight.values()
                if not (flight.job.running() or flight.job.done())
            ),
            "ewma_service_ms": round(self.ewma_service_s * 1e3, 3),
        }


__all__ = ["Coalescer"]
