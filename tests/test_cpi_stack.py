"""Unit tests for CPI stacks, timelines and chunking."""

import pytest

from repro.core.cpi_stack import COMPONENTS, CPIStack
from repro.runtime.chunking import chunk_trace
from repro.runtime.timeline import Interval, Timeline
from repro.workloads.generator import expand
from repro.workloads.ir import SyncKind

from tests.conftest import barrier_workload, make_epoch, single_thread_workload


class TestCPIStack:
    def test_empty(self):
        s = CPIStack()
        assert s.total_cycles == 0.0
        assert s.total_cpi() == 0.0

    def test_total_and_active(self):
        s = CPIStack(base=10, branch=5, icache=2, mem=3, sync=20,
                     instructions=10)
        assert s.total_cycles == 40
        assert s.active_cycles == 20

    def test_cpi_per_component(self):
        s = CPIStack(base=10, mem=30, instructions=20)
        cpi = s.cpi()
        assert cpi["base"] == 0.5
        assert cpi["mem"] == 1.5
        assert cpi["sync"] == 0.0

    def test_add_accumulates(self):
        a = CPIStack(base=1, instructions=5)
        a.add(CPIStack(base=2, mem=3, instructions=7))
        assert a.base == 3
        assert a.mem == 3
        assert a.instructions == 12

    def test_merged(self):
        stacks = [CPIStack(base=i, instructions=1) for i in range(4)]
        merged = CPIStack.merged(stacks)
        assert merged.base == 6
        assert merged.instructions == 4

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            CPIStack(base=-1.0)

    def test_serialization_round_trip(self):
        s = CPIStack(base=1, branch=2, icache=3, mem=4, sync=5,
                     instructions=6)
        assert CPIStack.from_dict(s.to_dict()) == s

    def test_component_order(self):
        assert COMPONENTS == ("base", "branch", "icache", "mem", "sync")


class TestInterval:
    def test_duration(self):
        assert Interval(2.0, 5.0).duration == 3.0

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)


class TestTimeline:
    def test_record_and_totals(self):
        t = Timeline(n_threads=2)
        t.record_active(0, 0, 10)
        t.record_active(0, 15, 20)
        t.record_idle(0, 10, 15, "barrier")
        assert t.active_time(0) == 15
        assert t.idle_time(0) == 5
        assert t.idle_by_cause(0) == {"barrier": 5.0}

    def test_zero_length_intervals_dropped(self):
        t = Timeline(n_threads=1)
        t.record_active(0, 5, 5)
        t.record_idle(0, 5, 5, "lock")
        assert t.active[0] == []
        assert t.idle[0] == []

    def test_end_time(self):
        t = Timeline(n_threads=2)
        t.ended_at[0] = 10.0
        t.ended_at[1] = 25.0
        assert t.end_time == 25.0

    def test_end_time_empty(self):
        assert Timeline(n_threads=1).end_time == 0.0

    def test_events_sorted_unique(self):
        t = Timeline(n_threads=1)
        t.record_active(0, 0, 5)
        t.record_active(0, 5, 9)
        assert t.events() == [0, 5, 9]


class TestLeftToRightTotals:
    """Totals add left to right, so pinned outputs do not depend on the
    interpreter: from Python 3.12 on ``sum()`` compensates rounding and
    would give ``2**53 + 2`` for these terms."""

    TERMS = (2.0**53, 1.0, 1.0)

    def test_timeline_totals(self):
        t = Timeline(n_threads=1)
        for duration in self.TERMS:
            t.record_active(0, 0.0, duration)
            t.record_idle(0, 0.0, duration, "barrier")
        assert t.active_time(0) == 2.0**53
        assert t.idle_time(0) == 2.0**53

    def test_cpi_stack_total(self):
        base, branch, icache = self.TERMS
        s = CPIStack(base=base, branch=branch, icache=icache)
        assert s.total_cycles == 2.0**53


class TestChunking:
    def test_small_blocks_untouched(self):
        trace = expand(single_thread_workload(make_epoch(100)))
        chunked = chunk_trace(trace, 4096)
        assert len(chunked.threads[0].segments) == len(
            trace.threads[0].segments
        )

    def test_large_blocks_split(self):
        trace = expand(single_thread_workload(make_epoch(10_000)))
        chunked = chunk_trace(trace, 4096)
        blocks = [
            s.block.n_instructions
            for s in chunked.threads[0].segments
            if s.block.n_instructions
        ]
        assert max(blocks) <= 4096
        assert sum(blocks) == 10_000

    def test_intermediate_chunks_are_none_events(self):
        trace = expand(single_thread_workload(make_epoch(10_000)))
        chunked = chunk_trace(trace, 2048)
        segs = chunked.threads[0].segments
        pieces = [s for s in segs if s.block.n_instructions]
        assert all(
            s.event.kind is SyncKind.NONE for s in pieces[:-1]
        )

    def test_last_chunk_keeps_event(self):
        trace = expand(single_thread_workload(make_epoch(10_000)))
        original_last = trace.threads[0].segments[0].event
        chunked = chunk_trace(trace, 2048)
        pieces = [
            s for s in chunked.threads[0].segments
            if s.block.n_instructions
        ]
        assert pieces[-1].event == original_last

    def test_epoch_and_label_preserved(self):
        trace = expand(barrier_workload())
        chunked = chunk_trace(trace, 512)
        for t, ct in zip(trace.threads, chunked.threads):
            epochs = {s.epoch for s in t.segments}
            assert {s.epoch for s in ct.segments} == epochs

    def test_instruction_totals_preserved(self):
        trace = expand(barrier_workload())
        assert chunk_trace(trace, 256).n_instructions == (
            trace.n_instructions
        )

    def test_chunks_are_views(self):
        trace = expand(single_thread_workload(make_epoch(10_000)))
        chunked = chunk_trace(trace, 2048)
        piece = chunked.threads[0].segments[0].block
        assert piece.op.base is not None  # a view, not a copy

    def test_rejects_non_positive(self):
        trace = expand(single_thread_workload(make_epoch(10)))
        with pytest.raises(ValueError):
            chunk_trace(trace, 0)
