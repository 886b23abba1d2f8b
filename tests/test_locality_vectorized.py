"""Equivalence suite: the batch reuse-distance engine vs its scalar spec.

The whole-trace batch engine (``repro.profiler.batch``) must agree
*bit-for-bit* with the scalar per-access reference
(``repro.profiler.reference``, the preserved seed implementation) on
every statistic: histogram bins, cold, invalidation and access counts.

Randomized multi-thread interleavings cover stores, coherence
invalidations, cold misses, sparse (2^55-range) addresses and
chunk-boundary reuses; hypothesis shrinks any counterexample to a
minimal interleaving.

``replay_data`` takes its temporaries from the thread's scratch arena,
the one the ILP kernel uses: a warmed thread's replay allocates per
chunk and per pool only, and replays and kernel calls of any sizes
interleaved in one thread give what each gives alone.
"""

from __future__ import annotations

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiler.batch import PoolLocality, replay_data, replay_fetch
from repro.profiler.histogram import RDHistogram
from repro.profiler.reference import (
    ScalarFetchLocality,
    ScalarLocalityCollector,
)


def pools_equal(a: PoolLocality, b: PoolLocality) -> bool:
    return (
        np.array_equal(a.priv_counts, b.priv_counts)
        and np.array_equal(a.glob_counts, b.glob_counts)
        and a.priv_cold == b.priv_cold
        and a.priv_inval == b.priv_inval
        and a.glob_cold == b.glob_cold
        and a.n_accesses == b.n_accesses
        and a.n_stores == b.n_stores
    )


def scalar_pools(chunks, n_threads, n_pools):
    """The scalar spec fed the chunk schedule one chunk at a time."""
    ref = ScalarLocalityCollector(n_threads)
    pools = [PoolLocality() for _ in range(n_pools)]
    for tid, pidx, addrs, stores in chunks:
        ref.process(tid, addrs, stores, pools[pidx])
    return pools


def batch_pools(chunks, n_threads, n_pools):
    pools = [PoolLocality() for _ in range(n_pools)]
    replay_data(chunks, n_threads, pools)
    return pools


def run_all_engines(chunks, n_threads, n_pools):
    """Feed the same chunk schedule to the spec and the batch engine."""
    return (
        scalar_pools(chunks, n_threads, n_pools),
        batch_pools(chunks, n_threads, n_pools),
    )


def scalar_fetch(streams):
    ref = ScalarFetchLocality()
    hist = RDHistogram()
    for lines in streams:
        ref.process(lines, hist)
    return hist


def batch_fetch(streams):
    hist = RDHistogram()
    replay_fetch([(0, lines) for lines in streams], [hist])
    return hist


# -- hypothesis: minimal shrinking interleavings ---------------------------

chunk_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),           # tid
    st.lists(                                        # (line, store) ops
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.booleans(),
        ),
        min_size=1, max_size=12,
    ),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(chunk_strategy, min_size=1, max_size=12))
def test_engines_match_reference_on_shrinkable_interleavings(raw):
    n_threads = 3
    chunks = [
        (
            tid,
            tid,
            np.array([line for line, _ in ops], dtype=np.int64),
            np.array([s for _, s in ops], dtype=bool),
        )
        for tid, ops in raw
    ]
    ref_pools, fast_pools = run_all_engines(chunks, n_threads, n_threads)
    for r, b in zip(ref_pools, fast_pools):
        assert pools_equal(b, r)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=1, max_size=15,
        ),
        min_size=1, max_size=8,
    )
)
def test_fetch_engines_match_reference(raw):
    streams = [np.array(lines, dtype=np.int64) for lines in raw]
    assert batch_fetch(streams) == scalar_fetch(streams)


# -- seeded heavy randomized interleavings ---------------------------------

def random_schedule(rng, n_threads, n_chunks, max_len, n_pools):
    """Hot set + mid set + sparse 2^55 lines, random store density."""
    chunks = []
    for _ in range(n_chunks):
        tid = int(rng.integers(0, n_threads))
        k = int(rng.integers(1, max_len))
        mix = rng.random(k)
        addrs = np.where(
            mix < 0.6, rng.integers(0, 40, size=k),
            np.where(
                mix < 0.92, rng.integers(0, 800, size=k),
                rng.integers(0, 2**55, size=k),
            ),
        ).astype(np.int64)
        stores = rng.random(k) < float(rng.random())
        chunks.append((tid, int(rng.integers(0, n_pools)), addrs, stores))
    return chunks


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engines_match_on_heavy_interleavings(seed):
    rng = np.random.default_rng(seed)
    n_threads = int(rng.integers(1, 6))
    n_pools = n_threads * int(rng.integers(1, 3))
    chunks = random_schedule(rng, n_threads, 60, 600, n_pools)
    ref_pools, fast_pools = run_all_engines(chunks, n_threads, n_pools)
    assert sum(p.n_accesses for p in ref_pools) > 0
    for r, b in zip(ref_pools, fast_pools):
        assert pools_equal(b, r)


def test_invalidations_are_exercised_and_match():
    """Store-heavy tiny hot set: thousands of coherence invalidations."""
    rng = np.random.default_rng(42)
    n_threads = 4
    chunks = []
    for _ in range(50):
        tid = int(rng.integers(0, n_threads))
        k = int(rng.integers(1, 200))
        addrs = rng.integers(0, 8, size=k).astype(np.int64)
        stores = rng.random(k) < 0.5
        chunks.append((tid, tid, addrs, stores))
    ref_pools, fast_pools = run_all_engines(chunks, n_threads, n_threads)
    assert sum(p.priv_inval for p in ref_pools) > 100
    for r, b in zip(ref_pools, fast_pools):
        assert pools_equal(b, r)


def test_chunk_split_invariance():
    """The same stream split at different chunk boundaries yields the
    same statistics, equal to the scalar spec's."""
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, 64, size=3000).astype(np.int64)
    stores = rng.random(3000) < 0.3

    def split(size):
        return [
            (0, 0, addrs[lo:lo + size], stores[lo:lo + size])
            for lo in range(0, 3000, size)
        ]

    [ref] = scalar_pools(split(3000), 1, 1)
    for size in (1, 7, 64, 1024):
        [pool] = batch_pools(split(size), 1, 1)
        assert pools_equal(pool, ref)


def test_fetch_chunk_split_invariance():
    rng = np.random.default_rng(8)
    lines = rng.integers(0, 50, size=2000).astype(np.int64)

    def split(size):
        return [lines[lo:lo + size] for lo in range(0, 2000, size)]

    ref = scalar_fetch(split(2000))
    assert ref.cold + ref.n_finite == 2000
    for size in (1, 13, 256):
        assert batch_fetch(split(size)) == ref


# -- the shared scratch arena ---------------------------------------------

def _in_fresh_thread(fn):
    """``fn()`` in a new thread, which starts with no scratch arena."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def dse_sized_schedule(seed):
    """~100k accesses by 4 threads into 10 pools, sparse lines
    included: the size of the largest ``dse`` profile's stream."""
    rng = np.random.default_rng(seed)
    return random_schedule(rng, 4, 200, 1000, 10)


def test_warm_replay_allocates_no_stream_sized_temporaries():
    chunks = dse_sized_schedule(11)
    n = sum(len(ch[2]) for ch in chunks)
    assert 80_000 <= n <= 120_000

    def warm_then_trace():
        batch_pools(chunks, 4, 10)  # grows the thread's arena
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pools = batch_pools(chunks, 4, 10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return pools, peak

    pools, peak = _in_fresh_thread(warm_then_trace)
    assert peak < 1_000_000  # the stream alone is 0.8 MB of addresses
    for r, b in zip(scalar_pools(chunks, 4, 10), pools):
        assert pools_equal(b, r)


def test_warm_fetch_replay_allocates_no_stream_sized_temporaries():
    rng = np.random.default_rng(13)
    chunks = [
        (int(rng.integers(0, 10)), rng.integers(0, 5000, size=1000))
        for _ in range(100)
    ]

    def replay():
        hists = [RDHistogram() for _ in range(10)]
        replay_fetch(chunks, hists)
        return hists

    def warm_then_trace():
        replay()  # grows the thread's arena
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hists = replay()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return hists, peak

    hists, peak = _in_fresh_thread(warm_then_trace)
    assert peak < 500_000  # the stream alone is 0.8 MB of lines
    spec, expected = ScalarFetchLocality(), [RDHistogram() for _ in hists]
    for pidx, lines in chunks:
        spec.process(lines, expected[pidx])
    assert hists == expected


def test_over_budget_replay_leaves_the_arena_alone(monkeypatch):
    from repro.profiler import ilp_batch

    chunks = dse_sized_schedule(12)
    monkeypatch.setattr(ilp_batch, "_WORKSPACE_MAX_BYTES", 64 * 1024)

    def run():
        small = random_schedule(np.random.default_rng(3), 2, 4, 20, 2)
        batch_pools(small, 2, 2)  # fits the budget: grows the arena
        arena = ilp_batch._TLS.arena
        pools = batch_pools(chunks, 4, 10)  # needs use-once scratch
        return pools, ilp_batch._TLS.arena is arena, arena.nbytes

    pools, same, nbytes = _in_fresh_thread(run)
    assert same and nbytes <= 64 * 1024
    for r, b in zip(scalar_pools(chunks, 4, 10), pools):
        assert pools_equal(b, r)


def test_replays_and_kernel_calls_share_scratch_big_small_big():
    """One thread's arena serves replays and kernel grids of any sizes
    in turn; each result equals the spec's and a fresh thread's."""
    from repro.profiler.ilp import (
        LOAD_LAT_GRID,
        WINDOW_GRID,
        load_parallelism,
        scoreboard_replay,
    )
    from repro.profiler.ilp_batch import (
        batch_scoreboard,
        grid_latencies,
        stack_samples,
    )

    def kernel(n_samples, width, seed):
        rng = np.random.default_rng(seed)
        samples = [
            (rng.integers(0, 6, size=width),
             np.minimum(rng.geometric(1 / 3.0, size=width),
                        np.arange(width)).astype(np.int64))
            for _ in range(n_samples)
        ]
        op, dep, lengths = stack_samples(samples)
        lat = grid_latencies(op, LOAD_LAT_GRID)
        return samples, batch_scoreboard(
            op, dep, lengths, WINDOW_GRID, lat
        )

    rng = np.random.default_rng(5)
    big = random_schedule(rng, 4, 120, 900, 10)
    small = random_schedule(rng, 2, 6, 40, 3)
    steps = [
        ("replay", (big, 4, 10)), ("kernel", (40, 512, 1)),
        ("replay", (small, 2, 3)), ("kernel", (3, 32, 2)),
        ("replay", (big, 4, 10)), ("kernel", (40, 512, 3)),
    ]

    def run(kind, args):
        return batch_pools(*args) if kind == "replay" else kernel(*args)

    in_turn = _in_fresh_thread(lambda: [run(k, a) for k, a in steps])
    for (kind, args), got in zip(steps, in_turn):
        fresh = _in_fresh_thread(lambda: run(kind, args))
        if kind == "replay":
            for g, f, r in zip(got, fresh, scalar_pools(*args)):
                assert pools_equal(g, f) and pools_equal(g, r)
            continue
        samples, (ilp, branch_loads, load_par) = got
        for a, b in zip(got[1], fresh[1]):
            assert np.array_equal(a, b)
        for s, (o, d) in list(enumerate(samples))[:3]:
            o, d = o.tolist(), d.tolist()
            for wi, window in enumerate(WINDOW_GRID):
                for li, latency in enumerate(LOAD_LAT_GRID):
                    want_ilp, want_loads = scoreboard_replay(
                        o, d, window, latency
                    )
                    assert ilp[s, wi, li] == want_ilp
                    assert branch_loads[s, wi] == want_loads
                assert load_par[s, wi] == load_parallelism(o, d, window)


# -- end-to-end: the full profiler on real benchmarks ----------------------

def test_profile_workload_matches_scalar_collectors(monkeypatch):
    """profile_workload (batch engine) equals a scalar-collector replay
    of the identical chunk schedule, on real multi-threaded workloads."""
    from repro.profiler import profiler as profiler_mod
    from repro.profiler.profiler import profile_workload
    from repro.workloads.generator import expand
    from repro.workloads.parsec import parsec_workload
    from repro.workloads.rodinia import rodinia_workload

    def scalar_replay_data(chunks, n_threads, pools):
        collector = ScalarLocalityCollector(n_threads)
        for tid, pidx, addrs, stores in chunks:
            collector.process(tid, addrs, stores, pools[pidx])

    def scalar_replay_fetch(chunks, hists):
        fetcher = ScalarFetchLocality()
        for pidx, lines in chunks:
            fetcher.process(lines, hists[pidx])

    for make, name in (
        (rodinia_workload, "srad"),
        (parsec_workload, "fluidanimate"),
    ):
        trace = expand(make(name, scale=0.3))
        fast = profile_workload(trace)
        monkeypatch.setattr(
            profiler_mod, "replay_data", scalar_replay_data
        )
        monkeypatch.setattr(
            profiler_mod, "replay_fetch", scalar_replay_fetch
        )
        slow = profile_workload(trace)
        monkeypatch.undo()
        assert fast.to_dict() == slow.to_dict()
