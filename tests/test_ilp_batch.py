"""Batch ILP engine vs the scalar executable spec.

The lockstep engine in :mod:`repro.profiler.ilp_batch` must agree
with :func:`repro.profiler.ilp.scoreboard_replay` /
:func:`repro.profiler.ilp.load_parallelism` (the preserved scalar
spec) on every grid point — ILP, branch backward-slice load counts
and load parallelism — including window-boundary dependences, invalid
dependences, empty samples and per-op-latency replays.  Randomized
dependence patterns run through seeded hypothesis strategies.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch.presets import TABLE_IV
from repro.core.session import Session
from repro.experiments.bench import (
    CHECK_FLOORS,
    OBS_PAIRS,
    _paired_cpu_ratios,
    check_bench,
)
from repro.experiments.store import ProfileStore
from repro.profiler import ilp_batch
from repro.profiler.ilp import (
    LOAD_LAT_GRID,
    WINDOW_GRID,
    build_ilp_table,
    hierarchy_ilp,
    load_parallelism,
    scoreboard_replay,
)
from repro.profiler.ilp_batch import (
    ILPTableCache,
    batch_hierarchy_ilp,
    batch_scoreboard,
    build_ilp_tables,
    grid_latencies,
    stack_samples,
)
from repro.profiler.profiler import profile_workload
from repro.workloads.ir import OP_BRANCH, OP_LOAD

from tests.conftest import barrier_workload

#: Windows that exercise interpolation interior plus both boundaries.
TEST_WINDOWS = (1, 2, 16, 64, 512)
TEST_LATS = (2, 30, 250)


def assert_matches_scalar(samples, windows=TEST_WINDOWS,
                          lats=TEST_LATS):
    """Batch output equals the scalar spec on every grid point."""
    op, dep, lengths = stack_samples(samples)
    lat = grid_latencies(op, lats)
    ilp, br_loads, load_par = batch_scoreboard(
        op, dep, lengths, windows, lat
    )
    for s, (ops, deps) in enumerate(samples):
        ops_l = np.asarray(ops).tolist()
        deps_l = np.asarray(deps).tolist()
        for wi, window in enumerate(windows):
            for li, latency in enumerate(lats):
                ref_ilp, ref_loads = scoreboard_replay(
                    ops_l, deps_l, window, latency
                )
                assert ilp[s, wi, li] == pytest.approx(
                    ref_ilp, rel=1e-12
                ), (s, window, latency)
                assert br_loads[s, wi] == pytest.approx(
                    ref_loads, rel=1e-12
                ), (s, window)
            ref_lp = load_parallelism(ops_l, deps_l, window)
            assert load_par[s, wi] == pytest.approx(
                ref_lp, rel=1e-12
            ), (s, window)


@st.composite
def sample_st(draw, max_len=260):
    """One (op, dep) micro-trace with arbitrary dependence distances.

    ``dep`` may exceed the op's position (an invalid producer — the
    spec treats it as chain-starting) and may land exactly on window
    boundaries.
    """
    n = draw(st.integers(min_value=0, max_value=max_len))
    ops = draw(hnp.arrays(
        np.int64, n, elements=st.integers(0, 5)
    ))
    deps = draw(hnp.arrays(
        np.int64, n, elements=st.integers(0, max_len + 8)
    ))
    return ops, deps


class TestRandomizedEquivalence:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(sample_st())
    def test_single_sample_all_grid_points(self, sample):
        assert_matches_scalar([sample])

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.lists(sample_st(max_len=150), min_size=1, max_size=5))
    def test_mixed_length_batches(self, samples):
        assert_matches_scalar(samples, windows=(1, 16, 150),
                              lats=(2, 100))

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(sample_st(max_len=120), st.integers(1, 130))
    def test_arbitrary_window_boundary(self, sample, window):
        assert_matches_scalar([sample], windows=(window,),
                              lats=(10,))

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.lists(sample_st(max_len=140), min_size=0, max_size=4))
    def test_full_table_aggregation(self, samples):
        scalar = build_ilp_table(samples)
        batch = build_ilp_tables([samples])[0]
        np.testing.assert_allclose(batch.ilp, scalar.ilp, rtol=1e-12)
        np.testing.assert_allclose(
            batch.branch_loads, scalar.branch_loads, rtol=1e-12,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            batch.load_par, scalar.load_par, rtol=1e-12
        )


class TestEdgeCases:
    def test_no_samples(self):
        ilp, br, lp = batch_scoreboard(
            np.zeros((0, 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            TEST_WINDOWS,
            np.zeros((0, 0, 1)),
        )
        assert ilp.shape == (0, len(TEST_WINDOWS), 1)

    def test_zero_length_sample_matches_spec(self):
        empty = (np.array([], dtype=np.int64),
                 np.array([], dtype=np.int64))
        assert_matches_scalar([empty], windows=(16,), lats=(2,))

    def test_zero_length_sample_mixed_with_real(self):
        rng = np.random.default_rng(5)
        real = (
            rng.integers(0, 6, size=100),
            np.minimum(rng.geometric(1 / 3.0, size=100),
                       np.arange(100)),
        )
        empty = (np.array([], dtype=np.int64),
                 np.array([], dtype=np.int64))
        assert_matches_scalar([empty, real, empty])

    def test_empty_pool_table(self):
        scalar = build_ilp_table([])
        batch = build_ilp_tables([[]])[0]
        assert np.array_equal(batch.ilp, scalar.ilp)
        assert np.array_equal(batch.branch_loads, scalar.branch_loads)
        assert np.array_equal(batch.load_par, scalar.load_par)

    def test_window_equal_to_length(self):
        ops = np.full(64, OP_LOAD, dtype=np.int64)
        deps = np.ones(64, dtype=np.int64)
        deps[0] = 0
        assert_matches_scalar([(ops, deps)], windows=(63, 64, 65),
                              lats=(30,))

    def test_dep_exactly_at_window_reach(self):
        # A branch whose producer sits exactly ``window`` ops back:
        # the slice-load reach includes d == window but not d == w+1.
        for gap in (15, 16, 17):
            ops = np.zeros(2 * gap + 2, dtype=np.int64)
            ops[0] = OP_LOAD
            ops[gap] = OP_BRANCH
            deps = np.zeros(len(ops), dtype=np.int64)
            deps[gap] = gap
            assert_matches_scalar([(ops, deps)], windows=(16,),
                                  lats=(2,))

    def test_dep_beyond_position_is_chain_start(self):
        ops = np.full(8, OP_LOAD, dtype=np.int64)
        deps = np.full(8, 100, dtype=np.int64)  # all invalid
        assert_matches_scalar([(ops, deps)], windows=(4,), lats=(10,))

    def test_branch_loads_zero_without_branches(self):
        ops = np.full(32, OP_LOAD, dtype=np.int64)
        deps = np.zeros(32, dtype=np.int64)
        table = build_ilp_tables([[(ops, deps)]])[0]
        assert np.all(table.branch_loads == 0.0)


class TestPerOpLatencies:
    def _sample(self, n=200, seed=9):
        rng = np.random.default_rng(seed)
        ops = rng.integers(0, 6, size=n)
        deps = np.minimum(rng.geometric(1 / 3.0, size=n),
                          np.arange(n)).astype(np.int64)
        return ops, deps

    def test_uniform_per_op_matches_scalar_grid(self):
        ops, deps = self._sample()
        lat = np.full(len(ops), 30.0)
        batch = batch_hierarchy_ilp([(ops, deps)], 64, [lat])
        ref, _ = scoreboard_replay(ops.tolist(), deps.tolist(), 64, 30)
        assert batch == pytest.approx(ref, rel=1e-12)

    def test_mixed_per_op_matches_scalar_spec(self):
        ops, deps = self._sample(seed=11)
        rng = np.random.default_rng(13)
        lat = rng.choice([2.0, 30.0, 250.0], size=len(ops))
        batch = batch_hierarchy_ilp([(ops, deps)], 128, [lat])
        ref, _ = scoreboard_replay(
            ops.tolist(), deps.tolist(), 128, lat.tolist()
        )
        assert batch == pytest.approx(ref, rel=1e-12)

    def test_hierarchy_ilp_multiple_samples_harmonic(self):
        samples = [self._sample(seed=s) for s in (1, 2, 3)]
        # hierarchy_ilp assigns per-load latencies by seeded quantile;
        # replicate the scalar path sample by sample.
        result = hierarchy_ilp(
            samples, 128, (0.3, 0.1, 0.05), (3, 10, 30), 200.0
        )
        inv = []
        for si, (op, dep) in enumerate(samples):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([0xA11CE, si])
            ))
            u = rng.random(len(op))
            lat = np.full(len(op), 3.0)
            lat[u < 0.3] = 10
            lat[u < 0.1] = 30
            lat[u < 0.05] = 30 + 200.0
            ilp, _ = scoreboard_replay(
                op.tolist(), dep.tolist(), 128, lat.tolist()
            )
            inv.append(1.0 / ilp)
        assert result == pytest.approx(
            1.0 / float(np.mean(inv)), rel=1e-12
        )


class TestILPTableCache:
    def _pools(self):
        rng = np.random.default_rng(17)
        mk = lambda: (  # noqa: E731 - local test shorthand
            rng.integers(0, 6, size=128),
            np.minimum(rng.geometric(1 / 3.0, size=128),
                       np.arange(128)).astype(np.int64),
        )
        shared = [mk(), mk()]
        return [shared, [mk()], shared]

    def test_memo_dedups_identical_pools(self):
        pools = self._pools()
        cache = ILPTableCache()
        tables = build_ilp_tables(pools, cache=cache)
        # Pools 0 and 2 share content: the duplicate aliases the first
        # without a replay (and without counting as a store miss).
        assert cache.stats()["misses"] == 2
        assert tables[0] is tables[2]
        # A second pass over the same pools is all memo hits.
        again = build_ilp_tables(pools, cache=cache)
        assert cache.stats()["hits"] == len(pools)
        for got, want in zip(again, build_ilp_tables(pools)):
            np.testing.assert_allclose(got.ilp, want.ilp, rtol=1e-12)

    def test_counters_exact_under_thread_contention(self, monkeypatch):
        """The engine's thread pool shares one session: every lookup
        is counted once and the bound holds however threads
        interleave."""
        monkeypatch.setattr(ilp_batch, "MAX_ILP_TABLES", 16)
        cache = ILPTableCache()
        n_threads, n_ops = 8, 2000

        def work(t):
            for i in range(n_ops):
                key = str((t * 7 + i) % 40)
                if cache.get(key) is None:
                    cache.put(key, i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,))
                for t in range(n_threads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == n_threads * n_ops
        assert stats["entries"] <= 16 and stats["evictions"] > 0

    def test_store_persists_across_cache_instances(self, tmp_path):
        pools = self._pools()
        store = ProfileStore(tmp_path)
        first = build_ilp_tables(pools, cache=ILPTableCache(store))
        fresh = ILPTableCache(store)
        second = build_ilp_tables(pools, cache=fresh)
        assert fresh.stats()["hits"] == len(pools)
        assert fresh.stats()["misses"] == 0
        for a, b in zip(first, second):
            np.testing.assert_allclose(a.ilp, b.ilp, rtol=0, atol=0)

    def test_store_round_trip_and_corruption(self, tmp_path):
        store = ProfileStore(tmp_path)
        table = build_ilp_tables([self._pools()[1]])[0]
        store.save_ilp_table("k1", table)
        loaded = store.load_ilp_table("k1")
        np.testing.assert_allclose(loaded.ilp, table.ilp)
        path = store.save_ilp_table("k2", table)
        path.write_text("{not json")
        assert store.load_ilp_table("k2") is None
        assert store.load_ilp_table("missing") is None

    def test_key_sensitive_to_content_and_grids(self):
        pools = self._pools()
        base = ILPTableCache.key(pools[1], WINDOW_GRID, LOAD_LAT_GRID)
        assert base == ILPTableCache.key(
            pools[1], WINDOW_GRID, LOAD_LAT_GRID
        )
        assert base != ILPTableCache.key(
            pools[0], WINDOW_GRID, LOAD_LAT_GRID
        )
        assert base != ILPTableCache.key(
            pools[1], WINDOW_GRID[:-1], LOAD_LAT_GRID
        )


class TestProfilerIntegration:
    def test_profile_identical_with_and_without_cache(self):
        trace_a = profile_workload(barrier_workload(seed=33))
        trace_b = profile_workload(
            barrier_workload(seed=33), session=Session.ephemeral()
        )
        for ta, tb in zip(trace_a.threads, trace_b.threads):
            for key, pool in ta.pools.items():
                other = tb.pools[key]
                np.testing.assert_allclose(
                    pool.ilp.ilp, other.ilp.ilp, rtol=0, atol=0
                )


class TestBenchCheck:
    def _record(self, collector=10.0, ilp=16.0, err=0.0, ips=10e6,
                expand=100.0, mismatches=0, profiler=2.5,
                profile_mismatches=0, memory_replay=1.3, kips=900.0,
                memory_mismatches=0, predict_per_s=1e4,
                predict_mismatches=0, src_lines=1000, key_speedup=10.0,
                key_mismatches=0, schedules=None, cold=1.4):
        profiles = 16
        if schedules is None:
            schedules = profiles * len(TABLE_IV)
        return {
            "collector": {"speedup": collector},
            "ilp": {"speedup": ilp, "max_rel_err": err},
            "expand": {
                "speedup": expand,
                "digest_mismatches": mismatches,
                "key_speedup": key_speedup,
                "key_mismatches": key_mismatches,
                "speedup_cold": cold,
                "cold_pairs": 7,
            },
            "replay": {
                "profiler_speedup": profiler,
                "profile_mismatches": profile_mismatches,
            },
            "suite": {"ips": ips},
            "simulate": {
                "replay_speedup": memory_replay,
                "kinstr_per_s": kips,
                "mismatches": memory_mismatches,
            },
            "predict": {
                "per_s": predict_per_s,
                "mismatches": predict_mismatches,
                "profiles": profiles,
                "schedules": schedules,
            },
            "src_lines": src_lines,
        }

    def test_all_floors_clear(self):
        assert check_bench(self._record()) == []

    def test_each_floor_fires(self):
        assert len(check_bench(self._record(collector=1.0))) == 1
        assert len(check_bench(self._record(ilp=1.0))) == 1
        assert len(check_bench(self._record(ips=0.2e6))) == 1
        assert len(check_bench(self._record(expand=1.0))) == 1
        assert len(check_bench(self._record(profiler=1.0))) == 1
        assert len(check_bench(self._record(memory_replay=0.9))) == 1
        assert len(check_bench(self._record(kips=100.0))) == 1
        assert len(check_bench(self._record(predict_per_s=1.0))) == 1
        assert len(check_bench(self._record(key_speedup=1.0))) == 1
        assert len(check_bench(self._record(cold=0.99))) == 1
        # Phase 2 runs exactly once per (profile, Table IV point), not
        # once per (profile, dse point) as without the memo.
        once = 16 * len(TABLE_IV)
        assert len(check_bench(self._record(schedules=once + 1))) == 1
        assert len(check_bench(self._record(schedules=16 * 20))) == 1
        too_big = CHECK_FLOORS["src_max_lines"] + 1
        assert len(check_bench(self._record(src_lines=too_big))) == 1
        # Bit-identity: any non-zero divergence fires the check — for
        # the ILP tables, the expanded-trace digests, the fast-path
        # profiles and the simulator's memory replay alike.
        assert len(check_bench(self._record(err=1e-15))) == 1
        assert len(check_bench(self._record(mismatches=1))) == 1
        assert len(check_bench(self._record(profile_mismatches=1))) == 1
        assert len(check_bench(self._record(memory_mismatches=1))) == 1
        assert len(check_bench(self._record(predict_mismatches=1))) == 1
        assert len(check_bench(self._record(key_mismatches=1))) == 1
        assert len(check_bench(
            self._record(collector=0.5, ilp=0.5, err=1.0, ips=1.0,
                         expand=0.5, mismatches=2, profiler=1.0,
                         profile_mismatches=1, memory_replay=0.5,
                         kips=1.0, memory_mismatches=1, predict_per_s=1.0,
                         predict_mismatches=1, src_lines=too_big,
                         key_speedup=1.0, key_mismatches=1,
                         schedules=once - 1, cold=0.5)
        )) == 18

    def test_obs_ceiling_gates_the_median_pair_ratio(self):
        record = self._record()
        record["obs"] = {"pairs": OBS_PAIRS, "overhead_frac": 0.04}
        assert check_bench(record) == []
        record["obs"]["overhead_frac"] = 0.06
        assert len(check_bench(record)) == 1
        # Fewer pairs than the gate's median needs fail on their own.
        record["obs"] = {"pairs": OBS_PAIRS - 1, "overhead_frac": 0.0}
        assert len(check_bench(record)) == 1

    def test_paired_ratios_alternate_order_and_time_cpu(self):
        calls = []

        def burn(name: str, n: int) -> None:
            calls.append(name)
            total = 0
            for i in range(n):
                total += i

        ratios, a_s, b_s = _paired_cpu_ratios(
            lambda: burn("a", 600_000), lambda: burn("b", 200_000), 4
        )
        assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
        assert len(ratios) == 4
        # Three times the work reads about 3x, whatever the host does.
        assert 1.8 < float(np.median(ratios)) < 5.0
        assert a_s > b_s > 0

    def test_suite_floor_skipped_at_toy_scales(self):
        # Absolute throughput is only meaningful at the committed
        # scale; probe runs with --scale 0.3 must not fire it.
        record = self._record(ips=0.2e6, kips=1.0, predict_per_s=1.0)
        record["scale"] = 0.3
        assert check_bench(record) == []
        # Code size is counted, not timed: its ceiling holds at every
        # scale.
        record["src_lines"] = CHECK_FLOORS["src_max_lines"] + 1
        assert len(check_bench(record)) == 1
