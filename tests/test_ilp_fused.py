"""Fused flat-grid kernel and suite-wide mega-batching guarantees.

Contracts beyond the scalar-equivalence suite in
``tests/test_ilp_batch.py``:

* the fused kernel performs **zero per-step array allocations** — all
  scratch lives in the thread's reused arena, pinned by an
  allocation-count proxy (every array-constructing ``np.*`` call is
  counted; the count must not scale with the step count);
* **any** partition of pools into width buckets produces bit-identical
  tables (the per-sample grid rows are independent of their
  co-batched neighbours), so the mega-batcher is free to regroup
  suites however it likes;
* :class:`~repro.profiler.ilp_batch.ILPTableCache` keys are pinned by
  a golden digest — tables persisted under the pre-fused engine stay
  valid on disk;
* a thread retains one scratch arena, the size its largest call
  needed, whatever sequence of grid shapes it runs, and a call never
  reads what an earlier, larger call left in it;
* integer latency grids run int32 histories, float per-op latencies
  and integer grids that could reach 2**31 run float64, and all three
  equal the scalar spec bit for bit.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiler import ilp_batch
from repro.profiler.ilp import (
    LOAD_LAT_GRID,
    WINDOW_GRID,
    load_parallelism,
    scoreboard_replay,
)
from repro.profiler.ilp_batch import (
    ILPTableCache,
    KERNEL_STATS,
    _history_dtype,
    batch_hierarchy_ilp,
    batch_scoreboard,
    batch_scoreboard_pools,
    build_ilp_tables,
    default_bucket_width,
    grid_latencies,
    stack_samples,
)
from repro.workloads.ir import OP_LOAD

TEST_WINDOWS = (2, 16, 64)
TEST_LATS = (2, 30)


def _sample(n, seed=0):
    rng = np.random.default_rng(seed)
    ops = rng.integers(0, 6, size=n)
    deps = np.minimum(
        rng.geometric(1 / 3.0, size=n), np.arange(n)
    ).astype(np.int64)
    return ops, deps


class TestStackSamplesEdges:
    def test_empty_sample_list(self):
        op, dep, lengths = stack_samples([])
        assert op.shape == (0, 0) and dep.shape == (0, 0)
        assert lengths.shape == (0,)

    def test_all_zero_length_samples(self):
        empty = (np.array([], dtype=np.int64),
                 np.array([], dtype=np.int64))
        op, dep, lengths = stack_samples([empty, empty])
        assert op.shape == (2, 0)
        assert list(lengths) == [0, 0]

    def test_explicit_width_pads(self):
        op, dep, lengths = stack_samples([_sample(5)], width=12)
        assert op.shape == (1, 12)
        assert list(op[0, 5:]) == [0] * 7  # no-op padding

    def test_width_below_longest_sample_rejected(self):
        with pytest.raises(ValueError, match="below longest sample"):
            stack_samples([_sample(9)], width=8)

    def test_empty_pool_through_legacy_and_fused_paths(self):
        legacy = build_ilp_tables([[]])[0]
        [fused] = batch_scoreboard_pools([[]])
        assert fused.equals_exact(legacy)
        assert np.all(fused.ilp == 1.0)

    def test_single_op_pool_through_both_paths(self):
        # A one-instruction sample: the scalar spec commits one op.
        from repro.profiler.ilp import build_ilp_table

        pool = [(np.array([3]), np.array([0]))]  # one load, no dep
        legacy = build_ilp_table(pool)
        fused = build_ilp_tables([pool])[0]
        [pooled] = batch_scoreboard_pools([pool])
        assert fused.equals_exact(pooled)
        np.testing.assert_allclose(fused.ilp, legacy.ilp, rtol=1e-12)
        np.testing.assert_allclose(
            fused.load_par, legacy.load_par, rtol=1e-12
        )

    def test_zero_length_sample_inside_pool(self):
        empty = (np.array([], dtype=np.int64),
                 np.array([], dtype=np.int64))
        pool = [empty, _sample(40, seed=3), empty]
        fused = build_ilp_tables([pool])[0]
        [pooled] = batch_scoreboard_pools([pool])
        assert fused.equals_exact(pooled)


class TestAuxToggle:
    def test_aux_false_matches_ilp_and_blanks_aux(self):
        samples = [_sample(90, seed=5), _sample(40, seed=6)]
        op, dep, lengths = stack_samples(samples)
        lat = grid_latencies(op, TEST_LATS)
        full = batch_scoreboard(op, dep, lengths, TEST_WINDOWS, lat)
        lean = batch_scoreboard(
            op, dep, lengths, TEST_WINDOWS, lat, aux=False
        )
        assert np.array_equal(full[0], lean[0])
        assert np.all(lean[1] == 0.0) and np.all(lean[2] == 1.0)


class _CountingNumpy:
    """``numpy`` proxy counting calls per function name.

    Functions that *construct* arrays (listed below) are the
    allocation proxy: with all scratch preallocated, their call count
    must be independent of the kernel's step count.
    """

    CONSTRUCTORS = frozenset({
        "zeros", "empty", "ones", "full", "arange", "array",
        "asarray", "ascontiguousarray", "where", "repeat",
        "concatenate", "stack", "copy", "zeros_like", "empty_like",
        "ones_like", "full_like",
    })

    def __init__(self, real):
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "calls", Counter())

    def __getattr__(self, name):
        attr = getattr(self.real, name)
        if callable(attr) and not isinstance(attr, type):
            calls = self.calls

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return attr(*args, **kwargs)

            return wrapped
        return attr

    def constructor_calls(self) -> Counter:
        return Counter({
            name: count for name, count in self.calls.items()
            if name in self.CONSTRUCTORS
        })


class TestZeroPerStepAllocations:
    def _run(self, width, proxy=None):
        samples = [_sample(width, seed=s) for s in range(4)]
        op, dep, lengths = stack_samples(samples, width=width)
        lat = grid_latencies(op, TEST_LATS)
        if proxy is None:
            return batch_scoreboard(
                op, dep, lengths, TEST_WINDOWS, lat
            )
        real = ilp_batch.np
        ilp_batch.np = proxy
        try:
            batch_scoreboard(op, dep, lengths, TEST_WINDOWS, lat)
        finally:
            ilp_batch.np = real
        return proxy.constructor_calls()

    def test_allocation_count_independent_of_width(self):
        """Doubling the step count must not add a single
        array-constructing NumPy call — the regression guard for the
        per-step ``np.zeros(...)`` churn of the pre-fused engine."""
        self._run(128)  # grow the arena to both shapes before counting
        self._run(256)
        small = self._run(128, _CountingNumpy(np))
        big = self._run(256, _CountingNumpy(np))
        assert sum(small.values()) > 0  # the proxy did observe setup
        assert big == small

    def test_no_gather_writes_into_its_source(self, monkeypatch):
        """A ``take`` whose ``out=`` may share memory with the array it
        reads makes NumPy copy through a temporary every step -- an
        allocation the constructor proxy above cannot see.  Every
        gather must land in a buffer of its own."""
        gathers, overlaps = [], []

        class GatherGuard(np.ndarray):
            def take(self, indices, axis=None, out=None, mode="raise"):
                gathers.append(out is not None)
                if out is not None and np.may_share_memory(self, out):
                    overlaps.append(out.shape)
                return np.ndarray.take(
                    self.view(np.ndarray), indices, axis=axis, out=out,
                    mode=mode,
                )

        real = ilp_batch._Workspace
        sources = ("comp_cells", "commit_slabs", "aux_cells")

        def guarded(*args):
            ws = real(*args)
            for name in sources:
                array = getattr(ws, name)
                if array is not None:
                    setattr(ws, name, array.view(GatherGuard))
            return ws

        monkeypatch.setattr(ilp_batch, "_Workspace", guarded)
        got = self._run(128)
        monkeypatch.undo()
        assert len(gathers) == 3 * 128 and all(gathers)
        assert overlaps == []
        want = self._run(128)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_results_unchanged_under_proxy(self):
        want = self._run(128)
        real = ilp_batch.np
        proxy = _CountingNumpy(np)
        samples = [_sample(128, seed=s) for s in range(4)]
        op, dep, lengths = stack_samples(samples, width=128)
        lat = grid_latencies(op, TEST_LATS)
        ilp_batch.np = proxy
        try:
            got = batch_scoreboard(
                op, dep, lengths, TEST_WINDOWS, lat
            )
        finally:
            ilp_batch.np = real
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _call(lengths, width, windows=TEST_WINDOWS, aux=True, seed=0):
    """One kernel call over samples of ``lengths``, stacked to ``width``."""
    samples = [_sample(n, seed=seed + i) for i, n in enumerate(lengths)]
    op, dep, stacked = stack_samples(samples, width=width)
    lat = grid_latencies(op, TEST_LATS)
    return samples, batch_scoreboard(
        op, dep, stacked, windows, lat, aux=aux
    )


def _fresh_thread(fn):
    """``fn()`` in a new thread, which starts with no kernel scratch."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def _retained(fn):
    """Traced bytes the thread running ``fn`` still holds after it."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


@pytest.fixture
def traced():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


#: (sample count, width) grids, all distinct; the largest is in the
#: middle, so calls after it must fit the scratch it left.
ARENA_SHAPES = [
    (2, 64), (5, 96), (1, 256), (7, 192), (8, 256), (3, 160),
    (6, 128), (4, 32), (8, 48),
]
#: What a thread may retain beyond the largest call's scratch: the
#: thread-local slot and interpreter noise, far below any grid here.
RETAINED_SLACK = 16 * 1024


class TestScratchArena:
    def _run(self, shapes):
        for n_samples, width in shapes:
            _call([width] * n_samples, width)

    def test_one_arena_no_larger_than_the_largest_call(self, traced):
        _fresh_thread(lambda: self._run(ARENA_SHAPES))  # warm NumPy
        alone = max(
            _fresh_thread(lambda: _retained(lambda: self._run([shape])))
            for shape in ARENA_SHAPES
        )
        after_all = _fresh_thread(
            lambda: _retained(lambda: self._run(ARENA_SHAPES))
        )
        assert alone > 8 * RETAINED_SLACK  # the grids are not noise
        assert abs(after_all - alone) <= RETAINED_SLACK

    def test_over_budget_grid_pins_nothing(self, traced, monkeypatch):
        def big():
            return _call([200] * 8, 256)[1]

        want = _fresh_thread(big)
        # The 1 x 16 grid fits the budget, the 8 x 256 one (~0.5 MB)
        # does not.
        monkeypatch.setattr(ilp_batch, "_WORKSPACE_MAX_BYTES", 64 * 1024)

        def run():
            self._run([(1, 16)])
            got = []
            return got, _retained(lambda: got.append(big()))

        got, grew = _fresh_thread(run)
        assert grew <= RETAINED_SLACK
        for a, b in zip(got[0], want):
            assert np.array_equal(a, b)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.data())
    def test_big_small_big_matches_fresh_thread_and_spec(self, data):
        """A call after a larger one reads nothing that one left: the
        sentinel and seed rows move with the shape, and every other row
        is written before it is read."""
        def grid(lo, hi, max_samples):
            width = data.draw(st.integers(lo, hi))
            lengths = data.draw(st.lists(
                st.integers(0, width), min_size=1, max_size=max_samples,
            ))
            windows = data.draw(st.sampled_from(
                [TEST_WINDOWS, (1, 512), (7,)]
            ))
            return lengths, width, windows, data.draw(st.booleans())

        calls = [grid(96, 200, 6), grid(1, 40, 3), grid(1, 40, 2),
                 grid(96, 200, 6)]
        seed = data.draw(st.integers(0, 10_000))
        through_one = _fresh_thread(
            lambda: [_call(*c, seed=seed) for c in calls]
        )
        for (lengths, width, windows, aux), (samples, got) in zip(
            calls, through_one
        ):
            _, fresh = _fresh_thread(
                lambda: _call(lengths, width, windows, aux, seed=seed)
            )
            for a, b in zip(got, fresh):
                assert np.array_equal(a, b)
            ilp, branch_loads, load_par = got
            for s, (o, d) in enumerate(samples):
                o, d = o.tolist(), d.tolist()
                for wi, window in enumerate(windows):
                    for li, latency in enumerate(TEST_LATS):
                        want_ilp, want_loads = scoreboard_replay(
                            o, d, window, latency
                        )
                        assert ilp[s, wi, li] == want_ilp
                        if aux:
                            assert branch_loads[s, wi] == want_loads
                    if aux:
                        assert load_par[s, wi] == load_parallelism(
                            o, d, window
                        )


@st.composite
def pools_st(draw):
    n_pools = draw(st.integers(1, 4))
    pools = []
    seed = draw(st.integers(0, 10_000))
    for p in range(n_pools):
        n_samples = draw(st.integers(0, 3))
        pools.append([
            _sample(draw(st.integers(0, 48)), seed=seed + 31 * p + s)
            for s in range(n_samples)
        ])
    return pools


@st.composite
def bucket_fn_st(draw):
    """An arbitrary valid bucketing: any width >= the sample length."""
    kind = draw(st.sampled_from(["exact", "offset", "pow2", "flat"]))
    offset = draw(st.integers(0, 9))
    if kind == "exact":
        return lambda n: max(n, 1)
    if kind == "offset":
        return lambda n: n + offset + 1
    if kind == "flat":
        return lambda n: 64
    return default_bucket_width


class TestBucketingBitIdentity:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(pools_st(), bucket_fn_st())
    def test_any_partition_matches_per_pool_tables(
        self, pools, bucket_fn
    ):
        got = batch_scoreboard_pools(
            pools, TEST_WINDOWS, TEST_LATS, bucket_fn=bucket_fn
        )
        for table, samples in zip(got, pools):
            solo = batch_scoreboard_pools(
                [samples], TEST_WINDOWS, TEST_LATS
            )[0]
            assert table.equals_exact(solo)

    def test_bucket_below_sample_length_rejected(self):
        with pytest.raises(ValueError, match="bucket width"):
            batch_scoreboard_pools(
                [[_sample(40)]], TEST_WINDOWS, TEST_LATS,
                bucket_fn=lambda n: 8,
            )

    def test_default_bucket_width_bounds_padding(self):
        for n in (0, 1, 15, 16, 17, 100, 512):
            bw = default_bucket_width(n)
            assert bw >= max(n, 1)
            assert bw <= max(2 * n, 16)  # waste bounded below 2x


class TestCacheKeyStability:
    """Digest keys must never change: old on-disk "ilptables" entries
    (written by the pre-fused engine) have to stay valid."""

    GOLDEN = (
        "28a3b75d09de33e80c0ce09ea5"
        "8e07687ec9fd499dc314a2a8bc97f61f496b34"
    )

    def _pool(self):
        return [_sample(32, seed=1), _sample(7, seed=2)]

    def test_golden_digest_pinned(self):
        key = ILPTableCache.key(
            self._pool(), WINDOW_GRID, LOAD_LAT_GRID
        )
        assert key == self.GOLDEN

    def test_pre_fused_store_entry_is_hit(self, tmp_path):
        from repro.experiments.store import ProfileStore

        store = ProfileStore(tmp_path)
        pool = self._pool()
        key = ILPTableCache.key(pool, WINDOW_GRID, LOAD_LAT_GRID)
        # Persist a table under the digest, as any previous engine
        # generation would have; a fresh cache must hit it and skip
        # the kernel.
        store.save_ilp_table(key, build_ilp_tables([pool])[0])
        cache = ILPTableCache(store)
        before = KERNEL_STATS.snapshot()
        [table] = build_ilp_tables([pool], cache=cache)
        after = KERNEL_STATS.snapshot()
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert after["batches"] == before["batches"]  # no replay
        assert table.equals_exact(build_ilp_tables([pool])[0])


class TestKernelStats:
    def test_counters_move_and_fill_is_bounded(self):
        pools = [[_sample(48, seed=9)], [_sample(300, seed=10)]]
        before = KERNEL_STATS.snapshot()
        batch_scoreboard_pools(pools, TEST_WINDOWS, TEST_LATS)
        after = KERNEL_STATS.snapshot()
        assert after["pools"] - before["pools"] == 2
        assert after["samples"] - before["samples"] == 2
        # 48 -> bucket 64, 300 -> bucket 512: two grids.
        assert after["buckets"] - before["buckets"] == 2
        assert after["steps"] - before["steps"] == 64 + 512
        assert after["dispatches"] > before["dispatches"]
        occupied = after["occupied_slots"] - before["occupied_slots"]
        grid = after["grid_slots"] - before["grid_slots"]
        assert occupied == 48 + 300
        assert grid == 64 + 512
        assert 0.0 < KERNEL_STATS.snapshot()["bucket_fill"] <= 1.0


@st.composite
def traces_st(draw, max_width=80):
    """Samples of hypothesis-drawn ops and dependences (a dependence
    may reach past the sample's start: it then has no producer), and
    a window grid."""
    width = draw(st.integers(1, max_width))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, width)),
            max_size=width,
        ))
        samples.append((
            np.array([o for o, _ in pairs], dtype=np.int64),
            np.array([d for _, d in pairs], dtype=np.int64),
        ))
    windows = tuple(draw(st.lists(
        st.integers(1, max_width + 8), min_size=1, max_size=4
    )))
    return samples, width, windows


def _assert_grid_matches_spec(samples, width, windows, lats):
    op, dep, lengths = stack_samples(samples, width=width)
    lat = grid_latencies(op, lats)
    ilp, branch_loads, load_par = batch_scoreboard(
        op, dep, lengths, windows, lat
    )
    for s, (o, d) in enumerate(samples):
        o, d = o.tolist(), d.tolist()
        for wi, window in enumerate(windows):
            for li, latency in enumerate(lats):
                want_ilp, want_loads = scoreboard_replay(
                    o, d, window, latency
                )
                assert ilp[s, wi, li] == want_ilp
                assert branch_loads[s, wi] == want_loads
            assert load_par[s, wi] == load_parallelism(o, d, window)
    return lat


class TestIntegerHistories:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(traces_st(), st.lists(st.integers(0, 300), min_size=1,
                                 max_size=3))
    def test_integer_grid_runs_int32_and_matches_spec(self, trace, lats):
        samples, width, windows = trace
        lat = _assert_grid_matches_spec(samples, width, windows, lats)
        assert lat.dtype.kind == "i"
        assert _history_dtype(lat, width) is np.int32

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(traces_st(), st.data())
    def test_float_per_op_latencies_match_spec(self, trace, data):
        samples, _, windows = trace
        window = windows[0]
        per_op = [
            np.array(data.draw(st.lists(
                st.sampled_from([0.5, 2.0, 30.25, 301.7]),
                min_size=len(o), max_size=len(o),
            )))
            for o, _ in samples
        ]
        got = batch_hierarchy_ilp(samples, window, per_op)
        spec = np.array([
            scoreboard_replay(o.tolist(), d.tolist(), window, lat.tolist())[0]
            for (o, d), lat in zip(samples, per_op)
        ])
        assert got == 1.0 / float(np.mean(1.0 / spec))

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(traces_st(max_width=40))
    def test_grid_that_could_reach_2_31_takes_float64(self, trace):
        samples, width, windows = trace
        samples = samples + [(np.array([OP_LOAD]), np.array([0]))]
        big = 2**31 // width + 1  # width * big >= 2**31
        lat = _assert_grid_matches_spec(
            samples, width, windows, (2, big)
        )
        assert _history_dtype(lat, width) is np.float64
        assert _history_dtype(lat[:, :, :1], width) is np.int32

    def test_history_dtype_follows_the_grid(self):
        op = np.array([[3, 0, 3]])
        assert _history_dtype(grid_latencies(op, (2, 30)), 3) is np.int32
        assert _history_dtype(
            grid_latencies(op, (2.0, 30.5)), 3
        ) is np.float64
        edge = 2**31 // 512
        assert _history_dtype(
            grid_latencies(op, (edge - 1,)), 512
        ) is np.int32
        assert _history_dtype(
            grid_latencies(op, (edge,)), 512
        ) is np.float64
