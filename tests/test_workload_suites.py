"""Tests for the Rodinia/Parsec workload definitions and microbench."""

import numpy as np
import pytest

from repro.workloads.generator import expand
from repro.workloads.ir import SyncKind
from repro.workloads.microbench import barrier_loop_workload
from repro.workloads.parsec import (
    BALANCE_CLASS,
    PAPER_TABLE_III,
    PARSEC,
    parsec_workload,
)
from repro.workloads.rodinia import (
    RODINIA,
    rodinia_workload,
)


class TestRodiniaSuite:
    def test_sixteen_benchmarks(self):
        assert len(RODINIA) == 16

    def test_paper_names_present(self):
        expected = {
            "backprop", "bfs", "cfd", "heartwall", "hotspot", "kmeans",
            "lavaMD", "leukocyte", "lud", "myocyte", "nn", "nw",
            "particlefilter", "pathfinder", "srad", "streamcluster",
        }
        assert set(RODINIA) == expected

    @pytest.mark.parametrize("name", sorted(RODINIA))
    def test_expands_and_validates(self, name):
        trace = expand(rodinia_workload(name))
        trace.validate()
        assert trace.n_threads == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown Rodinia"):
            rodinia_workload("quicksort")

    def test_barrier_only_synchronization(self):
        """Paper §IV: Rodinia uses only barrier synchronization."""
        forbidden = {SyncKind.LOCK, SyncKind.UNLOCK, SyncKind.PC_PUT,
                     SyncKind.PC_GET, SyncKind.CV_BARRIER}
        for name in RODINIA:
            trace = expand(rodinia_workload(name))
            kinds = {
                s.event.kind for t in trace.threads for s in t.segments
            }
            assert not (kinds & forbidden), name

    def test_scale_shrinks_workload(self):
        full = rodinia_workload("hotspot").n_instructions
        half = rodinia_workload("hotspot", scale=0.5).n_instructions
        assert half < full

    def test_thread_count_configurable(self):
        trace = expand(rodinia_workload("srad", threads=2))
        assert trace.n_threads == 2

    def test_deterministic_across_calls(self):
        a = expand(rodinia_workload("bfs"))
        b = expand(rodinia_workload("bfs"))
        assert a.n_instructions == b.n_instructions
        sa = a.threads[1].segments[1].block
        sb = b.threads[1].segments[1].block
        assert np.array_equal(sa.addr, sb.addr)

    def test_rodinia_reasonable_size(self):
        for name in RODINIA:
            n = rodinia_workload(name).n_instructions
            assert 30_000 < n < 1_000_000, name


class TestParsecSuite:
    def test_ten_benchmarks(self):
        assert len(PARSEC) == 10
        assert set(PARSEC) == set(PAPER_TABLE_III)

    @pytest.mark.parametrize("name", sorted(PARSEC))
    def test_expands_and_validates(self, name):
        expand(parsec_workload(name)).validate()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown Parsec"):
            parsec_workload("x264")

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            parsec_workload("vips", scale=0.0)

    def test_balance_classes_cover_suite(self):
        assert set(BALANCE_CLASS) == set(PARSEC)
        assert set(BALANCE_CLASS.values()) == {
            "balanced", "main_works", "imbalanced",
        }

    def test_join_only_benchmarks_have_no_sync_events(self):
        """blackscholes/freqmine/swaptions synchronize only via join."""
        sync_kinds = {SyncKind.LOCK, SyncKind.BARRIER,
                      SyncKind.CV_BARRIER, SyncKind.PC_PUT,
                      SyncKind.PC_GET}
        for name in ("blackscholes", "freqmine", "swaptions"):
            trace = expand(parsec_workload(name))
            kinds = {
                s.event.kind for t in trace.threads for s in t.segments
            }
            assert not (kinds & sync_kinds), name

    def test_fluidanimate_lock_dominated(self):
        trace = expand(parsec_workload("fluidanimate"))
        locks = sum(
            1 for t in trace.threads for s in t.segments
            if s.event.kind is SyncKind.LOCK
        )
        barriers = {
            s.event.obj for t in trace.threads for s in t.segments
            if s.event.kind is SyncKind.BARRIER
        }
        assert locks > 10 * len(barriers)

    def test_streamcluster_barrier_dominated(self):
        trace = expand(parsec_workload("streamcluster"))
        barriers = {
            s.event.obj for t in trace.threads for s in t.segments
            if s.event.kind in (SyncKind.BARRIER, SyncKind.CV_BARRIER)
        }
        locks = sum(
            1 for t in trace.threads for s in t.segments
            if s.event.kind is SyncKind.LOCK
        )
        assert len(barriers) > locks

    def test_vips_uses_producer_consumer(self):
        trace = expand(parsec_workload("vips"))
        kinds = {
            s.event.kind for t in trace.threads for s in t.segments
        }
        assert SyncKind.PC_PUT in kinds
        assert SyncKind.PC_GET in kinds


class TestMicrobench:
    def test_structure(self):
        w = barrier_loop_workload(threads=4, iterations=10)
        trace = expand(w)
        trace.validate()
        barriers = {
            s.event.obj for t in trace.threads for s in t.segments
            if s.event.kind is SyncKind.BARRIER
        }
        assert len(barriers) == 10

    def test_single_thread_allowed(self):
        trace = expand(barrier_loop_workload(threads=1, iterations=5))
        trace.validate()

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            barrier_loop_workload(threads=0)

    def test_equal_work_per_thread(self):
        trace = expand(barrier_loop_workload(threads=4, iterations=8))
        totals = [t.n_instructions for t in trace.threads]
        assert len(set(totals)) == 1
