"""Chaos fault-injection points for the store and the serving plane.

Production code declares *fault points* by calling
:meth:`FaultInjector.fire` at the few places where the outside world
can hurt it — store reads and writes, the window between a temp-file
write and its atomic rename, the engine's compute path, the server's
response path.  When nothing is armed (the normal case, including all
of production) ``fire`` is a single dict lookup on an empty dict — it
costs nothing and changes nothing.

Tests (and operator chaos drills) arm a point with :func:`inject`::

    with inject("store.read", error=OSError("disk on fire")):
        ...                       # every store read now raises

    with inject("store.read", mutate=flip_bits, times=1):
        ...                       # the next read sees corrupted bytes

    with inject("engine.compute", delay_s=0.2):
        ...                       # every computed request takes >= 200 ms

A fault can *raise* (``error``: an exception instance or zero-arg
factory), *delay* (``delay_s``), and/or *mutate a payload* (``mutate``:
``bytes -> bytes`` — bit flips, truncation).  ``times`` bounds how
often it fires; armed points nest and are strictly LIFO per point.
Everything is thread-safe: fault points fire from engine worker
threads and the asyncio loop alike.

:class:`SimulatedCrash` deserves a note: it models the process dying
mid-operation, so code that catches exceptions to run *cleanup that a
real crash would also skip* (e.g. unlinking a half-written temp file)
must re-raise it without cleaning up.  :func:`repro.files.atomic_write`
does exactly that, which is what lets the crash-safety tests assert
that recovery — not cleanup — handles the orphan.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union


class SimulatedCrash(BaseException):
    """The process 'dies' here: cleanup handlers must not run.

    Deliberately a ``BaseException`` so that production ``except
    Exception`` / ``except OSError`` recovery paths do not swallow it
    — only the chaos tests that injected it catch it.
    """


@dataclass
class Fault:
    """One armed behaviour at one fault point."""

    point: str
    error: Optional[Union[BaseException, Callable[[], BaseException]]] = None
    delay_s: float = 0.0
    mutate: Optional[Callable[[Any], Any]] = None
    #: Remaining firings; ``None`` = unlimited while armed.
    times: Optional[int] = None
    fired: int = field(default=0)

    def _take(self) -> bool:
        """Consume one firing budget slot; False when exhausted."""
        if self.times is not None:
            if self.times <= 0:
                return False
            self.times -= 1
        self.fired += 1
        return True


class FaultInjector:
    """Thread-safe registry of armed fault points."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: point -> LIFO stack of armed faults (last armed wins).
        self._armed: Dict[str, List[Fault]] = {}
        #: point -> total firings (survives disarm; test observability).
        self.fired: Dict[str, int] = {}

    def arm(self, fault: Fault) -> None:
        with self._lock:
            self._armed.setdefault(fault.point, []).append(fault)

    def disarm(self, fault: Fault) -> None:
        with self._lock:
            stack = self._armed.get(fault.point)
            if stack is not None:
                try:
                    stack.remove(fault)
                except ValueError:
                    pass
                if not stack:
                    del self._armed[fault.point]

    def active(self, point: str) -> bool:
        with self._lock:
            return point in self._armed

    def fire(self, point: str, payload: Any = None) -> Any:
        """Hit ``point``; returns ``payload`` (possibly mutated).

        The armed fault may sleep, transform the payload and/or raise.
        With nothing armed this is a no-op returning ``payload``
        unchanged — the production fast path.
        """
        if not self._armed:  # benign race: worst case is one lock hop
            return payload
        with self._lock:
            stack = self._armed.get(point)
            if not stack:
                return payload
            fault = stack[-1]
            if not fault._take():
                return payload
            self.fired[point] = self.fired.get(point, 0) + 1
        if fault.delay_s > 0.0:
            time.sleep(fault.delay_s)
        if fault.mutate is not None:
            payload = fault.mutate(payload)
        if fault.error is not None:
            exc = fault.error() if callable(fault.error) else fault.error
            raise exc
        return payload

    def reset(self) -> None:
        """Disarm everything and zero the counters (test teardown)."""
        with self._lock:
            self._armed.clear()
            self.fired.clear()


#: The process-wide injector every production fault point fires into.
FAULTS = FaultInjector()


@contextmanager
def inject(
    point: str,
    error: Optional[
        Union[BaseException, Callable[[], BaseException]]
    ] = None,
    delay_s: float = 0.0,
    mutate: Optional[Callable[[Any], Any]] = None,
    times: Optional[int] = None,
):
    """Arm one fault at ``point`` for the duration of the block.

    Yields the :class:`Fault` so the test can assert ``fault.fired``.
    """
    fault = Fault(
        point=point, error=error, delay_s=delay_s, mutate=mutate,
        times=times,
    )
    FAULTS.arm(fault)
    try:
        yield fault
    finally:
        FAULTS.disarm(fault)


def flip_bit(payload: bytes, offset: int = 0, bit: int = 0) -> bytes:
    """Flip one bit of a bytes payload — the canonical corruption."""
    if not payload:
        return payload
    data = bytearray(payload)
    data[offset % len(data)] ^= 1 << (bit & 7)
    return bytes(data)


#: Fault points compiled into the production tree.  Keeping the
#: catalogue here (and testing against it) stops point names drifting.
POINTS = (
    "store.read",        # raises / mutates bytes read from the store
    "store.write",       # raises / mutates bytes about to be written
    "store.crash",       # SimulatedCrash between tmp write and rename
                         # (both: every atomic write under the root)
    "engine.compute",    # delays / raises inside an engine request,
                         # on the compute path only: the server answers
                         # result-cache hits, and misses built from
                         # resident memos, on its event loop
    "server.respond",    # raises while writing an HTTP response
    "obs.emit",          # raises inside telemetry emission (best-effort:
                         # a broken sink must never fail a request)
    "queue.claim",       # delays / raises before a lease-file O_EXCL
                         # create (duplicate-claim race widener)
    "queue.lease",       # delays / raises in the stale-lease takeover
                         # path, between expiry check and steal-rename
    "queue.heartbeat",   # raises inside lease heartbeat renewal — a
                         # failed renewal must abandon the job, never
                         # publish over a new owner
)

__all__ = [
    "FAULTS",
    "Fault",
    "FaultInjector",
    "POINTS",
    "SimulatedCrash",
    "flip_bit",
    "inject",
]
