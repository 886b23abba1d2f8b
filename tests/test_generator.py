"""Unit tests for deterministic workload expansion."""

import numpy as np
import pytest

from repro.workloads import kernels as k
from repro.workloads.branches import outcomes
from repro.workloads.generator import (
    _class_counts,
    _segment_rng,
    expand,
    expand_epoch,
)
from repro.workloads.ir import (
    OP_BRANCH,
    OP_CLASSES,
    OP_LOAD,
    OP_STORE,
    instruction_pcs,
)
from repro.workloads.patterns import addresses, code_base, region_base
from repro.workloads.spec import DEFAULT_MIX, BranchSpec, MemPattern

from tests.conftest import barrier_workload, make_epoch


class TestExpandEpoch:
    def test_respects_instruction_count(self):
        block = expand_epoch(make_epoch(1234), 0, _segment_rng(1, 0, 0))
        assert block.n_instructions == 1234

    def test_zero_instructions_gives_empty_block(self):
        block = expand_epoch(make_epoch(0), 0, _segment_rng(1, 0, 0))
        assert block.n_instructions == 0

    def test_mix_is_honoured(self):
        spec = make_epoch(40_000, mix=k.mix(ialu=0.5, load=0.3, branch=0.2))
        block = expand_epoch(spec, 0, _segment_rng(1, 0, 0))
        counts = block.class_counts()
        total = counts.sum()
        assert counts[0] / total == pytest.approx(0.5, abs=0.02)
        assert counts[OP_LOAD] / total == pytest.approx(0.3, abs=0.02)
        assert counts[OP_BRANCH] / total == pytest.approx(0.2, abs=0.02)

    def test_deterministic(self):
        a = expand_epoch(make_epoch(500), 0, _segment_rng(9, 0, 0),
                         layout_seed=5)
        b = expand_epoch(make_epoch(500), 0, _segment_rng(9, 0, 0),
                         layout_seed=5)
        assert np.array_equal(a.op, b.op)
        assert np.array_equal(a.dep, b.dep)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.taken, b.taken)

    def test_different_segment_rng_varies_dynamics(self):
        a = expand_epoch(make_epoch(500), 0, _segment_rng(9, 0, 0))
        b = expand_epoch(make_epoch(500), 0, _segment_rng(9, 0, 1))
        assert not np.array_equal(a.addr, b.addr)

    def test_layout_stable_across_segments(self):
        """Same code region -> same op layout (static code!)."""
        a = expand_epoch(make_epoch(500), 0, _segment_rng(9, 0, 0),
                         layout_seed=5)
        b = expand_epoch(make_epoch(500), 1, _segment_rng(9, 1, 3),
                         layout_seed=5)
        assert np.array_equal(a.op, b.op)
        assert np.array_equal(a.iline, b.iline)

    def test_layout_differs_across_code_regions(self):
        a = expand_epoch(make_epoch(500, code_region=1), 0,
                         _segment_rng(9, 0, 0), layout_seed=5)
        b = expand_epoch(make_epoch(500, code_region=2), 0,
                         _segment_rng(9, 0, 0), layout_seed=5)
        assert not np.array_equal(a.iline, b.iline)

    def test_branch_pcs_repeat_across_iterations(self):
        spec = make_epoch(4000, code_lines=16)
        block = expand_epoch(spec, 0, _segment_rng(9, 0, 0))
        pcs = instruction_pcs(block)[block.branch_indices()]
        # Far fewer static sites than dynamic branches.
        assert len(np.unique(pcs)) < len(pcs) / 10

    def test_dep_distances_within_block(self):
        block = expand_epoch(make_epoch(800), 0, _segment_rng(9, 0, 0))
        positions = np.arange(len(block.dep))
        assert (block.dep <= positions).all()
        assert (block.dep >= 0).all()

    def test_mean_dep_controls_dependences(self):
        tight = expand_epoch(make_epoch(20_000, mean_dep=1.5), 0,
                             _segment_rng(9, 0, 0))
        loose = expand_epoch(make_epoch(20_000, mean_dep=8.0), 0,
                             _segment_rng(9, 0, 0))
        assert tight.dep[100:].mean() < loose.dep[100:].mean()

    def test_load_chain_frac_chains_loads(self):
        spec = make_epoch(
            20_000, mix=k.mix(ialu=0.5, load=0.5), load_chain_frac=1.0
        )
        block = expand_epoch(spec, 0, _segment_rng(9, 0, 0))
        loads = np.flatnonzero(block.op == OP_LOAD)
        producers = loads - block.dep[loads]
        chained = block.op[producers[1:]] == OP_LOAD
        assert chained.mean() > 0.9

    def test_memory_ops_have_addresses(self):
        block = expand_epoch(make_epoch(2000), 0, _segment_rng(9, 0, 0))
        mem = block.memory_indices()
        assert (block.addr[mem] >= 0).all()
        non_mem = np.setdiff1d(np.arange(len(block.op)), mem)
        assert (block.addr[non_mem] == -1).all()

    def test_stores_avoid_read_only_patterns(self):
        ro = MemPattern(kind="working_set", lines=64, store_ok=False,
                        region=0, shared=True)
        rw = MemPattern(kind="working_set", lines=64, region=1)
        spec = make_epoch(20_000, mem=(ro, rw))
        block = expand_epoch(spec, 0, _segment_rng(9, 0, 0))
        stores = np.flatnonzero(block.op == OP_STORE)
        ro_base = region_base(ro, 0)
        in_ro = (block.addr[stores] >= ro_base) & (
            block.addr[stores] < ro_base + 64
        )
        assert not in_ro.any()


class TestClassCounts:
    # EpochSpec accepts a mix within 1e-6 of 1, so the floored counts
    # of a large body can miss its length either way: a mix summing to
    # 1 + 8e-7 used to get 4,194,305 ops for a 4,194,304-op body, and
    # one summing to 1 - 9e-7 more leftover slots than there are classes.
    @pytest.mark.parametrize("mix, n, per_line", [
        (dict(DEFAULT_MIX, ialu=DEFAULT_MIX["ialu"] + 8e-7), 2**22, 4),
        (dict(DEFAULT_MIX, ialu=DEFAULT_MIX["ialu"] - 9e-7), 2**26, 16),
        # Over by two, and most classes hold nothing to take back.
        ({"ialu": 0.9999999, "fp": 9e-7}, 2**22, 4),
        # Short by ~60, and no slot may go to a class outside the mix.
        ({"ialu": 0.5, "load": 0.4999991}, 2**26, 16),
    ])
    def test_counts_fill_the_body_exactly(self, mix, n, per_line):
        spec = make_epoch(n, mix=mix, code_lines=n // per_line,
                          instrs_per_line=per_line)
        counts = _class_counts(n, spec.mix, None)
        assert counts.sum() == n
        assert (counts >= 0).all()
        unused = [i for i, name in enumerate(OP_CLASSES) if name not in mix]
        assert not counts[unused].any()


class TestAddressPatterns:
    def test_private_regions_differ_per_thread(self):
        p = MemPattern(kind="working_set", lines=64)
        assert region_base(p, 0) != region_base(p, 1)

    def test_shared_regions_equal_per_thread(self):
        p = MemPattern(kind="working_set", lines=64, shared=True)
        assert region_base(p, 0) == region_base(p, 3)

    def test_code_regions_disjoint_from_data(self):
        p = MemPattern(kind="working_set", lines=1 << 20)
        assert code_base(0) > region_base(p, 3) + (1 << 20)

    def test_stream_reuses_each_line(self):
        p = MemPattern(kind="stream", lines=1000, reuse=4)
        rng = np.random.default_rng(0)
        addr = addresses(p, 40, rng, 0)
        # Four consecutive accesses per line.
        assert (addr[0:4] == addr[0]).all()
        assert addr[4] != addr[0]

    def test_stream_wraps_at_footprint(self):
        p = MemPattern(kind="stream", lines=10, reuse=1)
        rng = np.random.default_rng(0)
        addr = addresses(p, 25, rng, 0)
        assert addr[0] == addr[10] == addr[20]

    def test_stream_offset_continues(self):
        p = MemPattern(kind="stream", lines=100, reuse=1)
        rng = np.random.default_rng(0)
        first = addresses(p, 10, rng, 0)
        rest = addresses(p, 10, rng, 0, start_offset=10)
        assert rest[0] == first[-1] + 1

    def test_working_set_hot_fraction(self):
        p = MemPattern(kind="working_set", lines=10_000, hot_lines=10,
                       hot_frac=0.9)
        rng = np.random.default_rng(0)
        addr = addresses(p, 20_000, rng, 0)
        base = region_base(p, 0)
        hot = (addr - base) < 10
        assert hot.mean() == pytest.approx(0.9, abs=0.02)

    def test_working_set_all_hot(self):
        p = MemPattern(kind="working_set", lines=16, hot_lines=16,
                       hot_frac=1.0)
        rng = np.random.default_rng(0)
        addr = addresses(p, 1000, rng, 0)
        assert len(np.unique(addr)) <= 16

    def test_pointer_chase_uniform(self):
        p = MemPattern(kind="pointer_chase", lines=4)
        rng = np.random.default_rng(0)
        addr = addresses(p, 4000, rng, 0)
        base = region_base(p, 0)
        counts = np.bincount(addr - base, minlength=4)
        assert (counts > 800).all()

    def test_empty_request(self):
        p = MemPattern(kind="stream", lines=10)
        assert len(addresses(p, 0, np.random.default_rng(0), 0)) == 0


class TestBranchOutcomes:
    def test_biased_rate(self):
        spec = BranchSpec(kind="biased", p_taken=0.8)
        t = outcomes(spec, 50_000, np.random.default_rng(0))
        assert t.mean() == pytest.approx(0.8, abs=0.01)

    def test_loop_pattern(self):
        spec = BranchSpec(kind="loop", period=4)
        t = outcomes(spec, 8, np.random.default_rng(0))
        assert t.tolist() == [1, 1, 1, 0, 1, 1, 1, 0]

    def test_loop_offset_keeps_phase(self):
        spec = BranchSpec(kind="loop", period=4)
        t = outcomes(spec, 4, np.random.default_rng(0), start_offset=2)
        assert t.tolist() == [1, 0, 1, 1]

    def test_periodic_pattern_repeats(self):
        spec = BranchSpec(kind="periodic", period=8, noise=0.0)
        rng = np.random.default_rng(3)
        t = outcomes(spec, 64, rng)
        assert np.array_equal(t[:8], t[8:16])

    def test_periodic_noise_flips(self):
        spec = BranchSpec(kind="periodic", period=8, noise=0.5)
        clean = outcomes(BranchSpec(kind="periodic", period=8, noise=0.0),
                         4000, np.random.default_rng(1),
                         pattern_rng=np.random.default_rng(7))
        noisy = outcomes(spec, 4000, np.random.default_rng(1),
                         pattern_rng=np.random.default_rng(7))
        flips = (clean != noisy).mean()
        assert flips == pytest.approx(0.5, abs=0.05)

    def test_periodic_pattern_never_constant(self):
        spec = BranchSpec(kind="periodic", period=2, noise=0.0)
        for seed in range(20):
            t = outcomes(spec, 16, np.random.default_rng(seed))
            assert 0 < t.mean() < 1

    def test_pattern_rng_controls_pattern(self):
        spec = BranchSpec(kind="periodic", period=16, noise=0.0)
        a = outcomes(spec, 64, np.random.default_rng(0),
                     pattern_rng=np.random.default_rng(42))
        b = outcomes(spec, 64, np.random.default_rng(1),
                     pattern_rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_empty(self):
        assert len(outcomes(BranchSpec(), 0, np.random.default_rng(0))) == 0


class TestExpandWorkload:
    def test_expansion_is_bit_identical(self):
        w = barrier_workload()
        t1, t2 = expand(w), expand(w)
        for a, b in zip(t1.threads, t2.threads):
            for sa, sb in zip(a.segments, b.segments):
                assert np.array_equal(sa.block.op, sb.block.op)
                assert np.array_equal(sa.block.addr, sb.block.addr)

    def test_expansion_validates(self):
        trace = expand(barrier_workload())
        trace.validate()

    def test_thread_count_preserved(self):
        trace = expand(barrier_workload(threads=3))
        assert trace.n_threads == 3

    def test_different_seed_different_trace(self):
        a = expand(barrier_workload(seed=1))
        b = expand(barrier_workload(seed=2))
        sa = a.threads[1].segments[0].block.addr
        sb = b.threads[1].segments[0].block.addr
        assert not np.array_equal(sa, sb)
