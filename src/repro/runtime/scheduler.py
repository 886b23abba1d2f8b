"""Discrete-event scheduler over a workload's synchronization structure.

This is the one implementation of the paper's synchronization semantics
(§III-B: thread creation, barriers, critical sections, condition
variables in barrier and producer-consumer idioms, thread joining).
Callers provide an ``execute(tid, segment_index, start_time) -> duration``
callback; the scheduler coordinates the threads:

* the profiler's functional replay passes unit cost per instruction,
* the reference simulator passes cycle-accounting cost,
* RPPM's phase 2 passes *predicted* epoch times — making this scheduler
  literally Algorithm 2 of the paper ("proceed the unblocked thread with
  the shortest time to its next synchronization event").

Events are processed in global event-time order (a classic DES), so
lock-grant and item-consumption ordering is deterministic: FIFO by
arrival time, ties broken by a monotone sequence number.

When every segment duration is known up front (the profiler's unit
costs, RPPM's phase-1 predictions), :func:`run_schedule_batched` runs
this same scheduler with a callback that looks each duration up and
records the execution order the profiler feeds to the batch locality
engine.  It schedules nothing itself; its name stays because
perfbench's traced run wraps it (see its docstring).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.timeline import Timeline
from repro.workloads.ir import SyncKind, SyncOp

#: ``execute(thread_id, segment_index, start_time) -> duration``.
ExecuteFn = Callable[[int, int, float], float]


class DeadlockError(RuntimeError):
    """Raised when no thread can make progress before all have ended."""


@dataclass
class ScheduleResult:
    """Outcome of replaying a workload's synchronization structure."""

    timeline: Timeline
    end_time: float
    active: List[float]
    idle: List[float]


@dataclass
class _ThreadState:
    next_segment: int = 0
    time: float = 0.0
    started: bool = False
    done: bool = False
    #: Set while blocked at an event; (block_time, cause).
    blocked_since: Optional[Tuple[float, str]] = None


class _Scheduler:
    def __init__(self, programs: List[List[SyncOp]], execute: ExecuteFn):
        self.programs = programs
        self.execute = execute
        self.n = len(programs)
        self.threads = [_ThreadState() for _ in range(self.n)]
        self.timeline = Timeline(n_threads=self.n)
        # Event queue holds (event_time, seq, tid) for threads whose next
        # segment has been executed and whose terminating event is pending.
        self.queue: List[Tuple[float, int, int]] = []
        self._seq = 0
        # Synchronization-object state.
        self.barrier_arrivals: Dict[int, List[Tuple[int, float]]] = {}
        self.lock_owner: Dict[int, Optional[int]] = {}
        self.lock_waiters: Dict[int, List[Tuple[float, int, int]]] = {}
        self.items: Dict[int, List[float]] = {}
        self.item_waiters: Dict[int, List[Tuple[float, int, int]]] = {}
        self.join_waiters: Dict[int, List[Tuple[int, float]]] = {}
        self.end_times: Dict[int, float] = {}

    # -- thread progression -------------------------------------------------

    def _start_thread(self, tid: int, time: float) -> None:
        state = self.threads[tid]
        if state.started:
            raise DeadlockError(f"thread {tid} started twice")
        state.started = True
        state.time = time
        self.timeline.created_at[tid] = time
        self._advance(tid)

    def _advance(self, tid: int) -> None:
        """Execute the thread's next segment and queue its event."""
        state = self.threads[tid]
        if state.next_segment >= len(self.programs[tid]):
            raise DeadlockError(f"thread {tid} ran past its last segment")
        start = state.time
        duration = self.execute(tid, state.next_segment, start)
        if duration < 0:
            raise ValueError("segment duration must be non-negative")
        end = start + duration
        self.timeline.record_active(tid, start, end)
        state.time = end
        self._seq += 1
        heapq.heappush(self.queue, (end, self._seq, tid))

    def _resume(self, tid: int, time: float, cause: str) -> None:
        """Unblock ``tid`` at ``time`` (idle from block point to time)."""
        state = self.threads[tid]
        if state.blocked_since is not None:
            since, _ = state.blocked_since
            self.timeline.record_idle(tid, since, time, cause)
            state.blocked_since = None
        state.time = max(state.time, time)
        state.next_segment += 1
        if not state.done:
            self._advance(tid)

    def _block(self, tid: int, time: float, cause: str) -> None:
        self.threads[tid].blocked_since = (time, cause)

    # -- event handlers -----------------------------------------------------

    def _handle(self, tid: int, time: float, event: SyncOp) -> None:
        kind = event.kind
        state = self.threads[tid]
        if kind is SyncKind.NONE:
            state.next_segment += 1
            self._advance(tid)
        elif kind is SyncKind.CREATE:
            self._start_thread(event.obj, time)
            state.next_segment += 1
            self._advance(tid)
        elif kind in (SyncKind.BARRIER, SyncKind.CV_BARRIER):
            self._handle_barrier(tid, time, event)
        elif kind is SyncKind.LOCK:
            self._handle_lock(tid, time, event)
        elif kind is SyncKind.UNLOCK:
            self._handle_unlock(tid, time, event)
        elif kind is SyncKind.PC_PUT:
            self._handle_put(tid, time, event)
        elif kind is SyncKind.PC_GET:
            self._handle_get(tid, time, event)
        elif kind is SyncKind.JOIN:
            self._handle_join(tid, time, event)
        elif kind is SyncKind.END:
            self._handle_end(tid, time)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unhandled sync kind {kind}")

    def _handle_barrier(self, tid: int, time: float, event: SyncOp) -> None:
        cause = event.kind.value
        arrivals = self.barrier_arrivals.setdefault(event.obj, [])
        arrivals.append((tid, time))
        if len(arrivals) < len(event.participants):
            self._block(tid, time, cause)
            return
        # Last arriver releases the barrier: everyone proceeds at ``time``
        # (the paper: the slowest thread determines the epoch's end).
        del self.barrier_arrivals[event.obj]
        for other, arrived in arrivals:
            if other == tid:
                self.threads[tid].next_segment += 1
                self._advance(tid)
            else:
                self._resume(other, time, cause)

    def _handle_lock(self, tid: int, time: float, event: SyncOp) -> None:
        owner = self.lock_owner.get(event.obj)
        if owner is None:
            self.lock_owner[event.obj] = tid
            self.threads[tid].next_segment += 1
            self._advance(tid)
        else:
            self._seq += 1
            heapq.heappush(
                self.lock_waiters.setdefault(event.obj, []),
                (time, self._seq, tid),
            )
            self._block(tid, time, SyncKind.LOCK.value)

    def _handle_unlock(self, tid: int, time: float, event: SyncOp) -> None:
        if self.lock_owner.get(event.obj) != tid:
            raise DeadlockError(
                f"thread {tid} unlocked mutex {event.obj} it does not hold"
            )
        waiters = self.lock_waiters.get(event.obj)
        if waiters:
            _, _, nxt = heapq.heappop(waiters)
            self.lock_owner[event.obj] = nxt
            self._resume(nxt, time, SyncKind.LOCK.value)
        else:
            self.lock_owner[event.obj] = None
        self.threads[tid].next_segment += 1
        self._advance(tid)

    def _handle_put(self, tid: int, time: float, event: SyncOp) -> None:
        queue = self.items.setdefault(event.obj, [])
        queue.extend([time] * event.items)
        waiters = self.item_waiters.get(event.obj)
        while waiters and queue:
            _, _, consumer = heapq.heappop(waiters)
            queue.pop(0)
            self._resume(consumer, time, SyncKind.PC_GET.value)
        self.threads[tid].next_segment += 1
        self._advance(tid)

    def _handle_get(self, tid: int, time: float, event: SyncOp) -> None:
        queue = self.items.setdefault(event.obj, [])
        if queue:
            posted = queue.pop(0)
            state = self.threads[tid]
            state.next_segment += 1
            state.time = max(time, posted)
            if posted > time:
                self.timeline.record_idle(
                    tid, time, posted, SyncKind.PC_GET.value
                )
            self._advance(tid)
        else:
            self._seq += 1
            heapq.heappush(
                self.item_waiters.setdefault(event.obj, []),
                (time, self._seq, tid),
            )
            self._block(tid, time, SyncKind.PC_GET.value)

    def _handle_join(self, tid: int, time: float, event: SyncOp) -> None:
        child = event.obj
        if child in self.end_times:
            state = self.threads[tid]
            end = self.end_times[child]
            state.next_segment += 1
            state.time = max(time, end)
            if end > time:
                self.timeline.record_idle(
                    tid, time, end, SyncKind.JOIN.value
                )
            self._advance(tid)
        else:
            self.join_waiters.setdefault(child, []).append((tid, time))
            self._block(tid, time, SyncKind.JOIN.value)

    def _handle_end(self, tid: int, time: float) -> None:
        state = self.threads[tid]
        state.done = True
        self.end_times[tid] = time
        self.timeline.ended_at[tid] = time
        for waiter, _ in self.join_waiters.pop(tid, []):
            self._resume(waiter, time, SyncKind.JOIN.value)

    # -- main loop ----------------------------------------------------------

    def run(self) -> ScheduleResult:
        self._start_thread(0, 0.0)
        while self.queue:
            time, _, tid = heapq.heappop(self.queue)
            event = self.programs[tid][self.threads[tid].next_segment]
            self._handle(tid, time, event)
        not_done = [t for t, s in enumerate(self.threads)
                    if s.started and not s.done]
        never_started = [t for t, s in enumerate(self.threads)
                         if not s.started]
        if not_done or never_started:
            raise DeadlockError(
                f"execution stalled: blocked threads {not_done}, "
                f"never created {never_started}"
            )
        active = [self.timeline.active_time(t) for t in range(self.n)]
        idle = [self.timeline.idle_time(t) for t in range(self.n)]
        return ScheduleResult(
            timeline=self.timeline,
            end_time=self.timeline.end_time,
            active=active,
            idle=idle,
        )


@dataclass
class BatchedScheduleResult(ScheduleResult):
    """A :class:`ScheduleResult` plus the chunk execution order.

    ``order`` lists maximal strides ``(tid, lo, hi)``: thread ``tid``
    executed segments ``lo..hi-1`` consecutively, with no other
    thread's segment in between.  Flattening the strides gives the
    scheduler's per-segment ``execute`` call order.
    """

    order: List[Tuple[int, int, int]] = field(default_factory=list)


def run_schedule(
    programs: List[List[SyncOp]], execute: ExecuteFn
) -> ScheduleResult:
    """Replay a workload's synchronization structure.

    Parameters
    ----------
    programs:
        Per-thread lists of segment-terminating events (the structure of
        a :class:`~repro.workloads.ir.WorkloadTrace`, or of a profile).
    execute:
        Callback computing each segment's duration; called exactly once
        per segment, in deterministic order.
    """
    return _Scheduler(programs, execute).run()


def run_schedule_batched(
    programs: List[List[SyncOp]],
    durations: Sequence[Sequence[float]],
) -> BatchedScheduleResult:
    """Replay a synchronization structure over precomputed durations.

    This is :func:`run_schedule` with a callback returning
    ``durations[tid][idx]``; the result additionally carries ``order``,
    the segment interleaving, which the profiler feeds to the batch
    locality engine.

    The name stays although the function schedules nothing itself:
    perfbench's traced run times phase 2 by wrapping this name where
    :mod:`repro.core.rppm` and :mod:`repro.profiler.profiler` import
    it, and ``run_schedule`` where the profiler and
    :mod:`repro.simulator.multicore` import it.  Removing or renaming
    any of those imports makes that run fail with ``AttributeError``.
    """
    if len(durations) != len(programs):
        raise ValueError("need one duration list per thread")
    for tid, (prog, durs) in enumerate(zip(programs, durations)):
        if len(durs) != len(prog):
            raise ValueError(
                f"thread {tid}: {len(durs)} durations for "
                f"{len(prog)} segments"
            )
    table = [list(map(float, durs)) for durs in durations]
    order: List[Tuple[int, int, int]] = []

    def execute(tid: int, idx: int, start: float) -> float:
        if order and order[-1][0] == tid and order[-1][2] == idx:
            order[-1] = (tid, order[-1][1], idx + 1)
        else:
            order.append((tid, idx, idx + 1))
        return table[tid][idx]

    result = run_schedule(programs, execute)
    return BatchedScheduleResult(
        timeline=result.timeline,
        end_time=result.end_time,
        active=result.active,
        idle=result.idle,
        order=order,
    )
