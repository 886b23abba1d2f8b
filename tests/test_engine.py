"""Equivalence and arena tests for the columnar expansion engine.

The engine (:mod:`repro.workloads.engine`) must be *bit-identical* to
the preserved per-segment spec (:mod:`repro.workloads.generator`):
identical static-code memoization keys would otherwise silently fork
the "binary" every other layer profiles and simulates.  The hypothesis
suite sweeps the spec space — mixes, memory patterns, branch kinds,
thread counts, zero-length epochs — asserting digest-identical traces;
the arena tests pin the zero-copy view contract (blocks share one
buffer per thread, mutating one view never corrupts a neighbour).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.store as store_mod
import repro.workloads.engine as engine_mod
from repro.experiments.store import ProfileStore, TraceCache
from repro.workloads import kernels as k
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.engine import (
    EngineStats,
    ExpansionEngine,
    load_trace_arena,
    pack_trace_arena,
)
from repro.workloads.generator import expand as legacy_expand
from repro.workloads.patterns import region_base
from repro.workloads.rodinia import rodinia_workload
from repro.workloads.spec import BranchSpec, MemPattern, WorkloadSpec

from tests.conftest import barrier_workload, make_epoch


def assert_traces_equal(a, b):
    """Exact array-level equality (stronger diagnostics than digests)."""
    assert a.n_threads == b.n_threads
    for ta, tb in zip(a.threads, b.threads):
        assert len(ta.segments) == len(tb.segments)
        for sa, sb in zip(ta.segments, tb.segments):
            assert sa.event == sb.event
            assert sa.epoch == sb.epoch and sa.label == sb.label
            for name in ("op", "dep", "addr", "taken", "iline"):
                np.testing.assert_array_equal(
                    getattr(sa.block, name), getattr(sb.block, name),
                    err_msg=f"{name} diverged",
                )
    assert a.content_digest() == b.content_digest()


# -- hypothesis strategy over the spec space --------------------------------

_MIXES = [
    k.GENERIC,
    k.MEM_STREAM,
    k.INT_CONTROL,
    k.mix(ialu=0.7, fp=0.3),  # no memory ops, no branches
    k.mix(load=0.5, ialu=0.5),  # loads without stores
    k.mix(branch=0.5, ialu=0.5),  # branch-heavy
]

_MEMS = [
    (k.working_set(256, hot_lines=16),),
    (k.stream(512, reuse=4), k.working_set(64, weight=0.5)),
    (k.pointer_chase(128),),
    # Read-only shared pattern alongside a private store target.
    (
        MemPattern(kind="working_set", lines=64, shared=True,
                   store_ok=False),
        MemPattern(kind="working_set", lines=64, region=1),
    ),
    (MemPattern(kind="stream", lines=32, stride=3, reuse=2,
                shared=True),),
    # Three unequal weights; the read-only member is a pointer chase,
    # so stores draw their own pattern choice.
    (
        k.working_set(128, weight=0.5),
        MemPattern(kind="pointer_chase", lines=96, region=1, weight=0.2,
                   store_ok=False),
        k.stream(64, region=2, weight=1.3),
    ),
    # No cold lines, so no hot/cold draw.
    (k.working_set(64, hot_lines=64),),
    # One line: a zero-width bounded draw.
    (k.working_set(1),),
    # Every access cold, every access hot.
    (k.working_set(128, hot_frac=0.0),
     k.working_set(32, hot_frac=1.0, region=1, weight=0.7)),
]

_BRANCHES = [
    BranchSpec(kind="biased", p_taken=0.95),
    BranchSpec(kind="loop", period=7),
    BranchSpec(kind="periodic", period=12, noise=0.05),
    BranchSpec(kind="periodic", period=2, noise=0.0),
]

epoch_specs = st.builds(
    make_epoch,
    n=st.sampled_from([0, 1, 17, 333, 2000]),
    mix=st.sampled_from(_MIXES),
    mean_dep=st.sampled_from([1.0, 3.0, 9.5]),
    load_chain_frac=st.sampled_from([0.0, 0.4, 1.0]),
    mem=st.sampled_from(_MEMS),
    branch=st.sampled_from(_BRANCHES),
    code_lines=st.sampled_from([1, 8, 64]),
    instrs_per_line=st.sampled_from([1, 4, 16]),
    code_region=st.integers(0, 2),
)


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    threads = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    b = WorkloadBuilder("test.engine", threads, seed=seed)
    b.spawn_workers(draw(epoch_specs))
    for _ in range(draw(st.integers(1, 3))):
        b.barrier_phases(1, draw(epoch_specs))
    return b.join_all(final_spec=draw(epoch_specs))


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(workload_specs())
    def test_digest_identical_across_spec_space(self, spec):
        assert_traces_equal(
            legacy_expand(spec), ExpansionEngine().expand(spec)
        )

    def test_barrier_workload_bit_identical(self):
        spec = barrier_workload()
        assert_traces_equal(
            legacy_expand(spec), ExpansionEngine().expand(spec)
        )

    def test_expand_many_matches_per_workload_expand(self):
        specs = [barrier_workload(seed=s) for s in (1, 2, 3)]
        eng = ExpansionEngine()
        batch = eng.expand_many(specs)
        for spec, trace in zip(specs, batch):
            assert_traces_equal(legacy_expand(spec), trace)

    def test_memo_reuse_is_bit_identical(self):
        # Second expansion runs fully from the static memo.
        spec = barrier_workload(seed=77)
        eng = ExpansionEngine()
        first = eng.expand(spec)
        stats = eng.stats.snapshot()
        assert stats["image_misses"] > 0
        second = eng.expand(spec)
        after = eng.stats.snapshot()
        assert after["image_misses"] == stats["image_misses"]
        assert after["image_hits"] > stats["image_hits"]
        assert_traces_equal(first, second)

    def test_image_memo_byte_budget(self, monkeypatch):
        # An engine whose memo cannot hold anything still expands
        # correctly — it just recomputes images instead of caching.
        monkeypatch.setattr(engine_mod, "MAX_IMAGE_BYTES", 1)
        spec = barrier_workload(seed=55)
        eng = ExpansionEngine(stats=EngineStats())
        assert_traces_equal(legacy_expand(spec), eng.expand(spec))
        stats = eng._images.stats()
        assert stats["bytes"] == 0 and stats["entries"] == 0

    def test_zero_length_epochs(self):
        b = WorkloadBuilder("test.zero", 2, seed=5)
        b.spawn_workers(make_epoch(0))
        b.barrier_phases(1, make_epoch(64))
        spec = b.join_all(final_spec=make_epoch(0))
        assert_traces_equal(
            legacy_expand(spec), ExpansionEngine().expand(spec)
        )

    def test_one_private_spec_on_two_threads(self):
        # Fill recipes are memoized per (spec, thread): one spec object
        # with a private pattern must still put each thread's accesses
        # in that thread's own region.
        pattern = k.working_set(512, hot_lines=32)
        spec = make_epoch(900, mem=(pattern,))
        b = WorkloadBuilder("test.private", 2, seed=13)
        b.spawn_workers()
        b.barrier_phases(3, spec)
        w = b.join_all()
        assert {id(p.spec) for t in w.plans for p in t if p.spec} == {id(spec)}
        trace = ExpansionEngine().expand(w)
        assert_traces_equal(legacy_expand(w), trace)
        for t in trace.threads:
            lo = region_base(pattern, t.thread_id)
            addr = np.concatenate([seg.block.addr for seg in t.segments])
            addr = addr[addr >= 0]
            assert len(addr) > 0
            assert ((addr >= lo) & (addr < lo + pattern.lines)).all()

    def test_same_body_capacity_different_split(self):
        # Same code_lines * instrs_per_line product, different split:
        # identical op layout but different iline mapping — the memo
        # key must separate them.
        eng = ExpansionEngine()
        a = make_epoch(600, code_lines=32, instrs_per_line=8)
        c = make_epoch(600, code_lines=64, instrs_per_line=4)
        for spec in (a, c):
            b = WorkloadBuilder("test.split", 1, seed=9)
            b.compute(0, spec)
            w = b.join_all()
            assert_traces_equal(legacy_expand(w), eng.expand(w))


class TestArena:
    def _trace(self, **kwargs):
        return ExpansionEngine().expand(barrier_workload(**kwargs))

    def test_blocks_are_views_of_one_thread_arena(self):
        trace = self._trace()
        for t in trace.threads:
            bases = {
                seg.block.op.base is not None
                for seg in t.segments if seg.block.n_instructions
            }
            assert bases == {True}
            roots = {
                _root(seg.block.op)
                for seg in t.segments if seg.block.n_instructions
            }
            assert len(roots) == 1  # one contiguous arena per thread

    def test_mutating_a_view_never_corrupts_neighbours(self):
        trace = self._trace(seed=123)
        segments = [
            seg for seg in trace.threads[0].segments
            if seg.block.n_instructions
        ]
        assert len(segments) >= 3
        before = [
            {
                name: getattr(seg.block, name).copy()
                for name in ("op", "dep", "addr", "taken", "iline")
            }
            for seg in segments
        ]
        victim = segments[1].block
        victim.op[:] = 255
        victim.dep[:] = -1
        victim.addr[:] = -7
        victim.taken[:] = 9
        victim.iline[:] = 0
        for i, seg in enumerate(segments):
            if i == 1:
                continue
            for name, copy_ in before[i].items():
                np.testing.assert_array_equal(
                    getattr(seg.block, name), copy_,
                    err_msg=f"neighbour segment {i} {name} corrupted",
                )

    def test_nbytes_accounts_every_column(self):
        trace = self._trace()
        block = next(
            seg.block for seg in trace.threads[0].segments
            if seg.block.n_instructions
        )
        n = block.n_instructions
        assert block.nbytes == n * (1 + 4 + 8 + 1 + 8)
        assert trace.nbytes == sum(
            seg.block.nbytes
            for t in trace.threads for seg in t.segments
        )

    def test_digest_tracks_content(self):
        a = self._trace(seed=42)
        b = self._trace(seed=42)
        c = self._trace(seed=43)
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()
        block = next(
            seg.block for seg in b.threads[0].segments
            if seg.block.n_instructions
        )
        block.op[0] ^= 1
        assert a.content_digest() != b.content_digest()


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return id(arr)


def _arena_roundtrip(trace):
    _, back = load_trace_arena(pack_trace_arena(trace))
    return back


class TestPackUnpack:
    def test_roundtrip_is_bit_identical(self):
        trace = ExpansionEngine().expand(barrier_workload(seed=31))
        assert_traces_equal(trace, _arena_roundtrip(trace))

    def test_roundtrip_of_legacy_trace(self):
        trace = legacy_expand(barrier_workload(seed=32))
        assert_traces_equal(trace, _arena_roundtrip(trace))


class TestTraceCache:
    def test_hit_returns_same_object(self):
        cache = TraceCache()
        spec = barrier_workload()
        first = cache.get(spec)
        assert cache.get(spec) is first
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_content_addressing_across_spec_objects(self):
        cache = TraceCache()
        a = cache.get(barrier_workload(seed=9))
        b = cache.get(barrier_workload(seed=9))
        assert a is b  # equal content, distinct objects -> one entry

    def test_distinct_seeds_distinct_entries(self):
        cache = TraceCache()
        a = cache.get(barrier_workload(seed=1))
        c = cache.get(barrier_workload(seed=2))
        assert a is not c
        assert len(cache) == 2

    def test_lru_eviction_by_count(self, monkeypatch):
        monkeypatch.setattr(store_mod, "MAX_TRACES", 2)
        cache = TraceCache()
        specs = [barrier_workload(seed=s) for s in (1, 2, 3)]
        for spec in specs:
            cache.get(spec)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_byte_budget_evicts(self):
        cache = TraceCache(max_bytes=1)  # nothing fits
        cache.get(barrier_workload(seed=4))
        assert len(cache) == 0 and cache.stats()["evictions"] == 1

    def test_store_roundtrip(self, tmp_path):
        store = ProfileStore(tmp_path)
        spec = barrier_workload(seed=6)
        warm = TraceCache(store=store)
        trace = warm.get(spec)
        assert warm.stats()["store_saves"] == 1
        # A fresh process-like cache over the same store: disk hit,
        # no expansion, bit-identical.
        cold = TraceCache(store=store)
        again = cold.get(barrier_workload(seed=6))
        assert cold.stats()["store_hits"] == 1
        assert_traces_equal(trace, again)

    def test_oversized_traces_stay_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "MAX_PERSIST_BYTES", 1)
        store = ProfileStore(tmp_path)
        cache = TraceCache(store=store)
        cache.get(barrier_workload(seed=7))
        assert cache.stats()["store_saves"] == 0
        assert store.list_keys("traces") == []

    def test_private_engine_and_stats(self):
        eng = ExpansionEngine(stats=EngineStats())
        cache = TraceCache(engine=eng)
        cache.get(barrier_workload(seed=8))
        snap = eng.stats.snapshot()
        assert snap["workloads"] == 1
        assert snap["arena_bytes"] > 0

    def test_stats_publish_the_memo_lookups_once_per_workload(self):
        # expand_many tallies memo lookups locally and publishes them
        # with the workload's totals in one stats.add(); the published
        # lookups are exactly the hits and misses the memos' LRUs saw.
        eng = ExpansionEngine(stats=EngineStats())
        eng.expand(rodinia_workload("hotspot", scale=0.3))
        snap = eng.stats.snapshot()
        assert snap == {
            "workloads": 1, "segments": 90, "instructions": 55500,
            "arena_bytes": 1221000, "layout_hits": 2, "layout_misses": 3,
            "image_hits": 77, "image_misses": 5,
            "memo_hit_rate": pytest.approx(77 / 82),
        }
        for memo, lru in (("layout", eng._layouts), ("image", eng._images)):
            stats = lru.stats()
            assert snap[f"{memo}_hits"] == stats["hits"]
            assert snap[f"{memo}_misses"] == stats["misses"]


class TestSpecValidation:
    def test_instrs_per_line_beyond_pc_slots_rejected(self):
        # Regression: instrs_per_line > PC_SLOTS_PER_LINE used to be
        # accepted silently, clamping PC offsets and aliasing distinct
        # branch sites onto one synthetic PC.
        with pytest.raises(ValueError, match="slots per line"):
            make_epoch(100, instrs_per_line=17)

    def test_pc_slots_boundary_accepted(self):
        spec = make_epoch(100, instrs_per_line=16)
        assert spec.instrs_per_line == 16


class TestHiddenPattern:
    def test_engine_matches_per_segment_pattern_draws(self):
        # Periodic branches across several segments of one code
        # region: the memoized pattern must equal the per-segment
        # re-draws of the legacy path.
        b = WorkloadBuilder("test.periodic", 2, seed=17)
        spec = make_epoch(
            1000, branch=BranchSpec(kind="periodic", period=6,
                                    noise=0.1),
        )
        b.spawn_workers(spec)
        b.barrier_phases(3, spec)
        w = b.join_all()
        assert_traces_equal(legacy_expand(w), ExpansionEngine().expand(w))
