"""Vectorized profiler fast path vs the per-chunk executable spec.

``profile_workload`` (arena-wide static precompute + batched replay)
and ``profile_workload_reference`` (per-chunk ``_prepare_block`` +
event-at-a-time replay) must produce *identical* profiles — pool for
pool, segment for segment — on every workload and chunk size.  The
comparison goes through ``WorkloadProfile.to_dict()``, which covers
class counts, ILP tables, branch statistics, locality histograms,
fetch statistics, load-chain fractions and the full segment list.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import barrier_workload, make_epoch
import repro.profiler.profiler as profiler_mod
from repro.profiler.profiler import (
    SegmentPrepCache,
    _prepare_block,
    _segment_static,
    profile_workload,
    profile_workload_reference,
)
from repro.workloads import kernels as k
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.engine import (
    default_engine,
    load_trace_arena,
    pack_trace_arena,
)
from repro.workloads.generator import expand as legacy_expand
from repro.workloads.ir import OP_CLASSES, TraceBlock
from repro.workloads.parsec import parsec_workload
from repro.workloads.rodinia import rodinia_workload


def assert_profiles_identical(workload, chunk=4096):
    ref = profile_workload_reference(workload, chunk=chunk)
    fast = profile_workload(workload, chunk=chunk)
    assert fast.to_dict() == ref.to_dict()
    return fast


class TestSuiteEquivalence:
    @pytest.mark.parametrize(
        "suite,name",
        [
            ("rodinia", "hotspot"),
            ("rodinia", "bfs"),
            ("rodinia", "srad"),
            ("rodinia", "streamcluster"),
            ("parsec", "fluidanimate"),
            ("parsec", "bodytrack"),
            ("parsec", "canneal"),
        ],
    )
    def test_real_benchmarks(self, suite, name):
        make = rodinia_workload if suite == "rodinia" else parsec_workload
        assert_profiles_identical(make(name, scale=0.25))

    @pytest.mark.parametrize("chunk", [64, 257, 1024, 100_000])
    def test_chunk_sizes(self, chunk):
        assert_profiles_identical(barrier_workload(seed=77), chunk=chunk)

    def test_profiles_identical_on_second_warm_pass(self):
        """Prep-cache hits must not change results: two fast passes over
        the same trace agree with the spec and with each other."""
        trace = default_engine().expand(barrier_workload(seed=5))
        ref = profile_workload_reference(trace).to_dict()
        assert profile_workload(trace).to_dict() == ref
        assert profile_workload(trace).to_dict() == ref

    def test_store_roundtrip_trace_with_and_without_static_keys(self):
        """Arena round-trips keep static keys; a key-less trace (from
        the legacy generator) bypasses the prep memo but still profiles
        identically."""
        spec = barrier_workload(seed=9)
        _, with_keys = load_trace_arena(
            pack_trace_arena(default_engine().expand(spec))
        )
        _, without_keys = load_trace_arena(
            pack_trace_arena(legacy_expand(spec))
        )
        assert all(
            seg.block.static_key is not None
            for t in with_keys.threads for seg in t.segments
            if seg.block.n_instructions
        )
        assert all(
            seg.block.static_key is None
            for t in without_keys.threads for seg in t.segments
        )
        ref = profile_workload_reference(spec).to_dict()
        assert profile_workload(with_keys).to_dict() == ref
        assert profile_workload(without_keys).to_dict() == ref


class TestZeroLengthSegments:
    def test_prepare_block_initializes_all_slots_when_empty(self):
        """Regression: ``_prepare_block`` used to early-return with
        only ``n``/``key`` set, leaving every other slot an
        AttributeError trap."""
        prep = _prepare_block(TraceBlock.empty())
        assert prep.n == 0
        assert prep.key is None
        assert prep.class_counts.tolist() == [0] * len(OP_CLASSES)
        assert len(prep.mem_addr) == 0
        assert len(prep.mem_store) == 0
        assert prep.branch_pcs is None
        assert prep.branch_taken is None
        assert prep.loads == 0
        assert prep.chained_loads == 0
        assert len(prep.fetch) == 0
        assert prep.ilp_op is None
        assert prep.ilp_dep is None

    def test_pure_sync_workload_profiles_identically(self):
        """Zero-instruction epochs (pure synchronization) flow through
        both pipelines."""
        b = WorkloadBuilder("test.puresync", 3, seed=3)
        b.spawn_workers(make_epoch(0))
        b.barrier_phases(2, make_epoch(0))
        spec = b.join_all(final_spec=make_epoch(300))
        assert_profiles_identical(spec)


class TestSegmentStatic:
    def test_matches_prepare_block_per_chunk(self):
        """The arena-wide static pass agrees with the per-chunk spec on
        keys, class counts, branch PCs and fetch streams."""
        trace = default_engine().expand(barrier_workload(seed=13))
        chunk = 512
        for t in trace.threads:
            for seg in t.segments:
                block = seg.block
                st_ = _segment_static(block, chunk)
                offsets = st_.offsets
                for c in range(st_.n_chunks):
                    lo, hi = int(offsets[c]), int(offsets[c + 1])
                    prep = _prepare_block(block.view(lo, hi))
                    if prep.n == 0:
                        continue
                    assert int(st_.keys[c]) == prep.key
                    b0, b1 = np.searchsorted(st_.br_idx, [lo, hi])
                    if prep.branch_pcs is None:
                        assert b0 == b1
                    else:
                        np.testing.assert_array_equal(
                            st_.branch_pcs[b0:b1], prep.branch_pcs
                        )
                    m0, m1 = np.searchsorted(st_.mem_idx, [lo, hi])
                    np.testing.assert_array_equal(
                        block.addr[st_.mem_idx[m0:m1]], prep.mem_addr
                    )
                    np.testing.assert_array_equal(
                        st_.mem_store[m0:m1], prep.mem_store
                    )

    def test_prep_cache_hits_and_eviction(self, monkeypatch):
        monkeypatch.setattr(profiler_mod, "PREP_MAX_ENTRIES", 2)
        cache = SegmentPrepCache()
        trace = default_engine().expand(barrier_workload(seed=13))
        blocks = [
            seg.block for t in trace.threads for seg in t.segments
            if seg.block.n_instructions and seg.block.static_key
        ]
        a = cache.get(blocks[0], 4096)
        assert cache.get(blocks[0], 4096) is a
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        distinct = {b.static_key for b in blocks}
        for b in blocks:
            cache.get(b, 4096)
        assert cache.stats()["entries"] <= 2
        assert len(distinct) > 2  # eviction actually exercised

    def test_blocks_without_static_key_bypass_the_cache(self):
        cache = SegmentPrepCache()
        trace = default_engine().expand(barrier_workload(seed=13))
        block = next(
            seg.block for t in trace.threads for seg in t.segments
            if seg.block.n_instructions
        )
        bare = block.view(0, block.n_instructions)
        assert bare.static_key is None
        cache.get(bare, 4096)
        stats = cache.stats()
        assert (
            stats["entries"], stats["bytes"], stats["hits"], stats["misses"]
        ) == (0, 0, 0, 0)


@st.composite
def random_workloads(draw):
    """Small random workloads over the builder's sync idioms."""
    threads = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    phases = draw(st.integers(1, 2))
    n = draw(st.sampled_from([0, 50, 700, 5000]))
    b = WorkloadBuilder("test.hyp", threads, seed=seed)
    if threads > 1:
        b.spawn_workers(make_epoch(draw(st.sampled_from([0, 300]))))
    b.barrier_phases(
        phases,
        make_epoch(
            n,
            mix=draw(st.sampled_from([k.GENERIC, k.MEM_STREAM])),
            code_region=draw(st.integers(0, 2)),
        ),
    )
    return b.join_all(final_spec=make_epoch(draw(st.sampled_from([0, 200]))))


class TestPropertyEquivalence:
    @given(random_workloads(), st.sampled_from([128, 1000, 4096]))
    @settings(max_examples=25, deadline=None)
    def test_fast_path_matches_reference(self, spec, chunk):
        assert_profiles_identical(spec, chunk=chunk)
