"""Unit tests for the reference simulator (caches, core, multicore)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import CacheConfig
from repro.arch.presets import table_iv_config
from repro.branch.predictors import TournamentPredictor
from repro.core.cpi_stack import COMPONENTS
from repro.core.session import Session
from repro.experiments.bench import QUICK_BENCHMARKS
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.simulator.caches import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEM,
    Cache,
    MemorySystem,
    replay_reference,
)
from repro.simulator.core import CoreSim
from repro.simulator.multicore import simulate
from repro.workloads import kernels as k
from repro.workloads.generator import expand, expand_epoch, _segment_rng
from repro.workloads.ir import (
    OP_BRANCH,
    OP_IALU,
    OP_LOAD,
    OP_STORE,
    TraceBlock,
)

from tests.conftest import (
    barrier_workload,
    make_epoch,
    single_thread_workload,
)


def small_cache(lines=8, assoc=2, latency=1):
    return Cache(CacheConfig(size_bytes=lines * 64, associativity=assoc,
                             latency=latency))


class TestCache:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.access(5)
        assert c.access(5)

    def test_lru_eviction(self):
        c = small_cache(lines=4, assoc=4)  # one set
        for line in (0, 4, 8, 12):
            c.access(line)
        c.access(0)       # refresh 0
        c.access(16)      # evicts LRU = 4
        assert c.contains(0)
        assert not c.contains(4)
        # The set iterates least to most recently used.
        assert list(c.sets[0]) == [8, 12, 0, 16]

    def test_sets_isolate_lines(self):
        c = small_cache(lines=8, assoc=2)  # 4 sets
        # Lines 0 and 1 map to different sets: no conflict.
        c.access(0)
        c.access(1)
        assert c.contains(0) and c.contains(1)

    def test_conflict_within_set(self):
        c = small_cache(lines=8, assoc=2)  # 4 sets, 2 ways
        for line in (0, 4, 8):  # all map to set 0
            c.access(line)
        assert not c.contains(0)

    def test_invalidate(self):
        c = small_cache()
        c.access(3)
        assert c.invalidate(3)
        assert not c.contains(3)
        assert not c.invalidate(3)

    def test_hit_miss_counters(self):
        c = small_cache()
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.misses == 2
        assert c.hits == 1

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            Cache(CacheConfig(size_bytes=3 * 64, associativity=1,
                              latency=1))


class TestMemorySystem:
    def _mem(self):
        return MemorySystem(table_iv_config("base"))

    def test_cold_load_goes_to_memory(self):
        mem = self._mem()
        lat, level = mem.load(0, 1234)
        assert level == LEVEL_MEM
        assert lat > mem.lat_llc

    def test_second_load_hits_l1(self):
        mem = self._mem()
        mem.load(0, 1234)
        lat, level = mem.load(0, 1234)
        assert level == LEVEL_L1
        assert lat == mem.lat_l1d

    def test_sharing_hits_llc(self):
        """A line brought in by core 0 is an LLC hit for core 1."""
        mem = self._mem()
        mem.load(0, 777)
        lat, level = mem.load(1, 777)
        assert level == LEVEL_LLC

    def test_store_invalidates_remote_private_copies(self):
        mem = self._mem()
        mem.load(0, 50)
        mem.load(1, 50)
        before = mem.invalidations
        mem.store(1, 50)
        assert mem.invalidations > before
        # Core 0 must now re-fetch past its private hierarchy.
        lat, level = mem.load(0, 50)
        assert level in (LEVEL_LLC, LEVEL_MEM)

    def test_store_by_owner_does_not_invalidate(self):
        mem = self._mem()
        mem.load(0, 50)
        before = mem.invalidations
        mem.store(0, 50)
        assert mem.invalidations == before

    def test_l2_hit_after_l1_eviction(self):
        cfg = table_iv_config("base")
        mem = MemorySystem(cfg)
        victim_set = 0
        lines = [victim_set + i * cfg.l1d.sets for i in range(6)]
        for line in lines:
            mem.load(0, line)
        # line[0] evicted from 4-way L1 set but still in the bigger L2.
        lat, level = mem.load(0, lines[0])
        assert level == LEVEL_L2

    def test_instruction_fetch_path(self):
        mem = self._mem()
        lat_cold = mem.fetch(0, 999)
        lat_warm = mem.fetch(0, 999)
        assert lat_cold > lat_warm == mem.lat_l1i


def tiny_config(cores=3):
    """Caches of a few lines each, so a small line pool conflicts,
    evicts and invalidates at every level."""
    return dataclasses.replace(
        table_iv_config("base", cores=cores),
        name="tiny",
        l1i=CacheConfig(size_bytes=4 * 64, associativity=2, latency=1),
        l1d=CacheConfig(size_bytes=4 * 64, associativity=2, latency=3),
        l2=CacheConfig(size_bytes=8 * 64, associativity=2, latency=10),
        llc=CacheConfig(size_bytes=16 * 64, associativity=4, latency=30,
                        shared=True),
    )


def make_block(accesses):
    """A block from ``(op, addr, iline)`` triples; an iline of None
    repeats the previous op's line."""
    ilines, line = [], 0
    for _, _, iline in accesses:
        line = line if iline is None else iline
        ilines.append(line)
    n = len(accesses)
    return TraceBlock(
        op=np.array([a[0] for a in accesses], dtype=np.uint8),
        dep=np.zeros(n, dtype=np.int32),
        addr=np.array([a[1] for a in accesses], dtype=np.int64),
        taken=np.zeros(n, dtype=np.uint8),
        iline=np.array(ilines, dtype=np.int64),
    )


ACCESS = st.tuples(
    st.sampled_from((OP_IALU, OP_LOAD, OP_STORE, OP_BRANCH)),
    st.integers(0, 31),
    st.one_of(st.none(), st.integers(0, 31)),
)


class TestReplay:
    """:meth:`MemorySystem.replay` against its per-access spec."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2), st.lists(ACCESS, max_size=40)),
        min_size=1, max_size=12,
    ))
    def test_matches_per_access_spec(self, stream):
        fast = MemorySystem(tiny_config())
        spec = MemorySystem(tiny_config())
        for core, accesses in stream:
            block = make_block(accesses)
            assert fast.replay(core, block) == replay_reference(
                spec, core, block
            )
        assert fast.snapshot() == spec.snapshot()

    def test_per_op_results(self):
        mem = MemorySystem(tiny_config())
        block = make_block([
            (OP_LOAD, 5, 0), (OP_IALU, -1, None), (OP_LOAD, 5, None),
            (OP_STORE, 6, 1), (OP_BRANCH, -1, 0),
        ])
        fetch_extra, load_lat, to_memory = mem.replay(0, block)
        mem_lat = mem.lat_llc + mem.mem_latency
        # Cold line 0 at op 0, line 1 at op 3, then line 0 hits L1-I.
        assert fetch_extra == [mem_lat - mem.lat_l1i, 0, 0,
                               mem_lat - mem.lat_l1i, 0]
        assert load_lat == [mem_lat, 0, mem.lat_l1d, 0, 0]
        assert to_memory == [True, False, False, False, False]


class TestGoldenDigest:
    """Pins every simulated number bit-exactly: a change to caches,
    coherence, the predictor or the timing loop that moves one cycle
    or one counter fails here."""

    GOLDEN = (
        "da63579a48e6bdee2271b2a99e7e09e8"
        "98053588aa7d4d37e2463cd87615135d"
    )

    @staticmethod
    def _record(result):
        return {
            "total_cycles": result.total_cycles,
            "invalidations": result.invalidations,
            "threads": [
                [t.instructions, t.active_cycles, t.idle_cycles,
                 [getattr(t.stack, c) for c in COMPONENTS],
                 t.branch_misses, t.fetch_misses, t.long_loads]
                for t in result.threads
            ],
        }

    def test_golden_digest_pinned(self):
        session = Session.ephemeral()
        records = []
        for name in QUICK_BENCHMARKS:
            spec = build_workload(BenchmarkRef("rodinia", name), 0.25)
            for point in ("smallest", "biggest"):
                for cores in (1, 4):
                    result = simulate(
                        spec, table_iv_config(point, cores=cores),
                        session=session,
                    )
                    records.append(self._record(result))
        digest = hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.GOLDEN


class FakeMemory:
    """Constant-latency memory for isolating the core scoreboard."""

    lat_l1i = 1

    def __init__(self, load_latency=3, level=LEVEL_L1):
        self.load_latency = load_latency
        self.level = level

    def fetch(self, core, line):
        return 1

    def load(self, core, line):
        return (self.load_latency, self.level)

    def store(self, core, line):
        return (1, LEVEL_L1)

    def replay(self, core, block):
        return replay_reference(self, core, block)


def run_core(block, config=None, memory=None):
    cfg = (config or table_iv_config("base")).core
    mem = memory or FakeMemory()
    core = CoreSim(cfg, mem, 0,
                   TournamentPredictor(table_iv_config(
                       "base").branch_predictor))
    return core.run_block(block)


class TestCoreSim:
    def test_empty_block(self):
        from repro.workloads.ir import TraceBlock
        costs = run_core(TraceBlock.empty())
        assert costs.cycles == 0.0

    def test_width_bounds_throughput(self):
        block = expand_epoch(
            make_epoch(4000, mean_dep=32.0,
                       mix=k.mix(ialu=0.95, branch=0.05),
                       branch=k.BR_BIASED),
            0, _segment_rng(1, 0, 0))
        costs = run_core(block)
        # 4-wide: at least n/4 cycles.
        assert costs.cycles >= 1000

    def test_dependences_slow_execution(self):
        serial = expand_epoch(make_epoch(2000, mean_dep=1.0), 0,
                              _segment_rng(1, 0, 0))
        parallel = expand_epoch(make_epoch(2000, mean_dep=12.0), 0,
                                _segment_rng(1, 0, 0))
        assert run_core(serial).cycles > run_core(parallel).cycles

    def test_long_loads_counted(self):
        block = expand_epoch(make_epoch(1000), 0, _segment_rng(1, 0, 0))
        costs = run_core(block, memory=FakeMemory(250, LEVEL_MEM))
        n_loads = int((block.op == OP_LOAD).sum())
        assert costs.long_loads == n_loads

    def test_memory_latency_hurts(self):
        block = expand_epoch(make_epoch(2000), 0, _segment_rng(1, 0, 0))
        fast = run_core(block, memory=FakeMemory(3))
        slow = run_core(block, memory=FakeMemory(100))
        assert slow.cycles > fast.cycles

    def test_component_attribution_sums_to_total(self):
        block = expand_epoch(make_epoch(3000, branch=k.BR_HARD), 0,
                             _segment_rng(1, 0, 0))
        costs = run_core(block, memory=FakeMemory(250, LEVEL_MEM))
        total = costs.base + costs.branch + costs.icache + costs.mem
        assert total == pytest.approx(costs.cycles, rel=1e-9)

    def test_hard_branches_cost_more(self):
        easy_b = expand_epoch(
            make_epoch(4000, branch=k.BR_BIASED), 0, _segment_rng(1, 0, 0)
        )
        hard_b = expand_epoch(
            make_epoch(4000, branch=k.BR_HARD), 0, _segment_rng(1, 0, 0)
        )
        easy = run_core(easy_b)
        hard = run_core(hard_b)
        assert hard.branch_misses > easy.branch_misses
        assert hard.cycles > easy.cycles

    def test_mshr_limits_miss_overlap(self):
        base = table_iv_config("base")
        tight = base.with_core(
            base.core.__class__(**{
                **base.core.__dict__, "mshr_entries": 1,
            }),
            name="tight",
        )
        block = expand_epoch(
            make_epoch(2000, mix=k.mix(ialu=0.5, load=0.5),
                       mean_dep=16.0),
            0, _segment_rng(1, 0, 0))
        many = run_core(block, config=base,
                        memory=FakeMemory(200, LEVEL_MEM))
        one = run_core(block, config=tight,
                       memory=FakeMemory(200, LEVEL_MEM))
        assert one.cycles > many.cycles


class TestMulticoreSimulate:
    def test_single_thread(self, base_config):
        result = simulate(single_thread_workload(make_epoch(3000)),
                          base_config)
        assert result.total_cycles > 0
        assert result.threads[0].idle_cycles == 0

    def test_barrier_workload_all_threads_counted(self, base_config):
        result = simulate(barrier_workload(), base_config)
        assert len(result.threads) == 4
        assert result.n_instructions > 0

    def test_deterministic(self, base_config, small_trace):
        a = simulate(small_trace, base_config)
        b = simulate(small_trace, base_config)
        assert a.total_cycles == b.total_cycles

    def test_sync_time_in_stack(self, base_config):
        result = simulate(barrier_workload(), base_config)
        for t in result.threads:
            assert t.stack.sync == pytest.approx(t.idle_cycles)

    def test_end_time_is_max_thread_end(self, base_config, small_trace):
        result = simulate(small_trace, base_config)
        ends = [e for e in result.timeline.ended_at if e is not None]
        assert result.total_cycles == pytest.approx(max(ends))

    def test_smaller_machine_is_slower(self, small_trace):
        small = simulate(small_trace, table_iv_config("smallest"))
        big = simulate(small_trace, table_iv_config("biggest"))
        # Equal clocks are not modeled here (cycles differ): per-cycle
        # the wider machine needs fewer cycles.
        assert big.total_cycles < small.total_cycles

    def test_average_stack_merges_threads(self, base_config, small_trace):
        result = simulate(small_trace, base_config)
        merged = result.average_stack()
        assert merged.instructions == result.n_instructions

    def test_chunk_size_barely_matters(self, base_config, small_trace):
        a = simulate(small_trace, base_config, chunk=1024)
        b = simulate(small_trace, base_config, chunk=8192)
        assert a.total_cycles == pytest.approx(b.total_cycles, rel=0.05)

    def test_shared_rw_generates_invalidations(self, base_config):
        from repro.workloads.builder import WorkloadBuilder
        b = WorkloadBuilder("coherence", 4, seed=3)
        spec = make_epoch(
            4000,
            mix=k.mix(ialu=0.4, load=0.4, store=0.2),
            mem=(k.shared_rw(64, region=0, hot_frac=1.0),),
        )
        b.spawn_workers()
        b.barrier(spec)
        result = simulate(expand(b.join_all()), base_config)
        assert result.invalidations > 0
