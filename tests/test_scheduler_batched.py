"""``run_schedule_batched``, the precomputed-duration wrapper, vs
``run_schedule`` with a per-segment execute callback.

The wrapper runs the same scheduler with a callback that looks each
duration up and merges the execute calls into ``order`` strides.  Its
result must equal the plain call's — same timeline digest, same
per-thread active/idle totals, same end time — and flattening its
``order`` must give the plain call's execute order, across every
synchronization idiom, because the profiler derives chunk
interleavings and RPPM derives idle time from this replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import (
    DeadlockError,
    run_schedule,
    run_schedule_batched,
)
from repro.workloads.ir import SyncKind, SyncOp

END = SyncOp(SyncKind.END)


def spec_run(programs, durations, calls=None):
    def execute(tid, idx, start):
        if calls is not None:
            calls.append((tid, idx))
        return durations[tid][idx]

    return run_schedule(programs, execute)


def assert_equivalent(programs, durations):
    """Wrapper and plain call, identical outcome and execute order;
    returns the wrapper's result."""
    calls = []
    ref = spec_run(programs, durations, calls)
    fast = run_schedule_batched(programs, durations)
    assert fast.end_time == ref.end_time
    assert fast.active == ref.active
    assert fast.idle == ref.idle
    assert fast.timeline.digest() == ref.timeline.digest()
    assert [
        (tid, idx) for tid, lo, hi in fast.order for idx in range(lo, hi)
    ] == calls
    return fast


def N(kind, **kw):
    return SyncOp(kind, **kw)


class TestIdioms:
    def test_single_thread_stride(self):
        programs = [[N(SyncKind.NONE)] * 5 + [END]]
        result = assert_equivalent(programs, [[3, 1, 4, 1, 5, 9]])
        # One stride covers all six segments.
        assert result.order == [(0, 0, 6)]

    def test_create_and_join(self):
        programs = [
            [N(SyncKind.CREATE, obj=1), N(SyncKind.NONE),
             N(SyncKind.JOIN, obj=1), END],
            [N(SyncKind.NONE), N(SyncKind.NONE), END],
        ]
        assert_equivalent(programs, [[2, 5, 0, 1], [3, 4, 2]])

    def test_barrier_strides_bounded_by_pending_events(self):
        bar = N(SyncKind.BARRIER, obj=0, participants=(0, 1))
        programs = [
            [N(SyncKind.CREATE, obj=1), N(SyncKind.NONE), bar,
             N(SyncKind.NONE), END],
            [N(SyncKind.NONE), bar, N(SyncKind.NONE), END],
        ]
        assert_equivalent(
            programs, [[0, 10, 0, 3, 1], [25, 0, 4, 2]]
        )

    def test_cv_barrier(self):
        bar = N(SyncKind.CV_BARRIER, obj=0, participants=(0, 1, 2))
        programs = [
            [N(SyncKind.CREATE, obj=1), N(SyncKind.CREATE, obj=2),
             bar, END],
            [N(SyncKind.NONE), bar, END],
            [bar, N(SyncKind.NONE), END],
        ]
        assert_equivalent(
            programs,
            [[1, 1, 5, 0], [7, 3, 0], [2, 6, 1]],
        )

    def test_lock_critical_sections(self):
        lock, unlock = N(SyncKind.LOCK, obj=9), N(SyncKind.UNLOCK, obj=9)
        programs = [
            [N(SyncKind.CREATE, obj=1), lock, N(SyncKind.NONE),
             unlock, END],
            [lock, N(SyncKind.NONE), unlock, N(SyncKind.NONE), END],
        ]
        assert_equivalent(
            programs, [[0, 1, 10, 0, 2], [1, 8, 0, 3, 1]]
        )

    def test_producer_consumer(self):
        put = N(SyncKind.PC_PUT, obj=4, items=2)
        get = N(SyncKind.PC_GET, obj=4)
        programs = [
            [N(SyncKind.CREATE, obj=1), N(SyncKind.NONE), put,
             N(SyncKind.NONE), put, END],
            [get, N(SyncKind.NONE), get, N(SyncKind.NONE), get, END],
        ]
        assert_equivalent(
            programs,
            [[0, 6, 1, 7, 1, 2], [0, 3, 0, 2, 0, 1]],
        )

    def test_zero_length_epochs(self):
        programs = [[N(SyncKind.NONE)] * 4 + [END]]
        assert_equivalent(programs, [[0, 0, 0, 0, 0]])

    def test_deadlock_detected_identically(self):
        programs = [[END], [END]]  # thread 1 never created
        with pytest.raises(DeadlockError):
            spec_run(programs, [[0], [0]])
        with pytest.raises(DeadlockError):
            run_schedule_batched(programs, [[0], [0]])

    def test_negative_duration_rejected_identically(self):
        programs = [[N(SyncKind.NONE), END]]
        with pytest.raises(ValueError):
            spec_run(programs, [[-1, 0]])
        with pytest.raises(ValueError):
            run_schedule_batched(programs, [[-1, 0]])

    def test_negative_duration_inside_stride_rejected(self):
        # The bad duration sits mid-run of NONE segments; it must
        # raise the scheduler's per-segment ValueError.
        programs = [[N(SyncKind.NONE), N(SyncKind.NONE),
                     N(SyncKind.NONE), END]]
        with pytest.raises(ValueError):
            run_schedule_batched(programs, [[1, -2, 1, 0]])

    def test_shape_validation(self):
        programs = [[END]]
        with pytest.raises(ValueError):
            run_schedule_batched(programs, [])
        with pytest.raises(ValueError):
            run_schedule_batched(programs, [[1, 2]])

    def test_order_covers_every_segment_once(self):
        bar = N(SyncKind.BARRIER, obj=0, participants=(0, 1))
        programs = [
            [N(SyncKind.CREATE, obj=1)] + [N(SyncKind.NONE)] * 3
            + [bar, END],
            [N(SyncKind.NONE)] * 2 + [bar, N(SyncKind.NONE), END],
        ]
        durations = [[1, 2, 3, 4, 0, 1], [5, 6, 0, 7, 2]]
        fast = assert_equivalent(programs, durations)
        seen = [set(), set()]
        for tid, lo, hi in fast.order:
            for idx in range(lo, hi):
                assert idx not in seen[tid]
                seen[tid].add(idx)
        assert seen[0] == set(range(6))
        assert seen[1] == set(range(5))


# -- property-based equivalence across random sync programs ----------------


@st.composite
def sync_programs(draw):
    """Random well-formed multi-thread programs plus durations.

    Thread 0 creates every other thread up front, then all threads mix
    NONE runs with barriers over the full participant set and
    matched LOCK/UNLOCK pairs — the idioms whose handlers wake other
    threads and so interleave the execute order.
    """
    n_threads = draw(st.integers(1, 4))
    n_barriers = draw(st.integers(0, 3))
    participants = tuple(range(n_threads))
    rnd_dur = st.integers(0, 20)

    programs, durations = [], []
    for tid in range(n_threads):
        events, durs = [], []
        if tid == 0:
            for child in range(1, n_threads):
                events.append(N(SyncKind.CREATE, obj=child))
                durs.append(draw(rnd_dur))
        for b in range(n_barriers):
            run_len = draw(st.integers(0, 4))
            for _ in range(run_len):
                events.append(N(SyncKind.NONE))
                durs.append(draw(rnd_dur))
            if draw(st.booleans()):
                events.append(N(SyncKind.LOCK, obj=0))
                durs.append(draw(rnd_dur))
                events.append(N(SyncKind.UNLOCK, obj=0))
                durs.append(draw(rnd_dur))
            events.append(
                N(SyncKind.BARRIER, obj=b, participants=participants)
            )
            durs.append(draw(rnd_dur))
        tail = draw(st.integers(0, 4))
        for _ in range(tail):
            events.append(N(SyncKind.NONE))
            durs.append(draw(rnd_dur))
        events.append(END)
        durs.append(draw(rnd_dur))
        programs.append(events)
        durations.append([float(d) for d in durs])
    return programs, durations


class TestPropertyEquivalence:
    @given(sync_programs())
    @settings(max_examples=120, deadline=None)
    def test_batched_replay_is_bit_identical(self, case):
        programs, durations = case
        assert_equivalent(programs, durations)

    @given(sync_programs())
    @settings(max_examples=60, deadline=None)
    def test_order_is_a_permutation_in_fifo_time(self, case):
        """The recorded order covers each segment exactly once and is
        non-decreasing in each thread's own segment index."""
        programs, durations = case
        fast = run_schedule_batched(programs, durations)
        next_idx = [0] * len(programs)
        for tid, lo, hi in fast.order:
            assert lo == next_idx[tid]
            assert hi > lo
            next_idx[tid] = hi
        assert next_idx == [len(p) for p in programs]
