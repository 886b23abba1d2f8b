"""Unit tests for the multithreaded reuse-distance engine.

These verify the paper's Figure 2 semantics directly on
:func:`~repro.profiler.batch.replay_data` and
:func:`~repro.profiler.batch.replay_fetch`: private reuse distances
count only the thread's own accesses, global distances count
everyone's, and a remote write in-between breaks the private reuse
(coherence invalidation).
"""

import numpy as np

from repro.profiler.batch import PoolLocality, replay_data, replay_fetch
from repro.profiler.histogram import RDHistogram, bin_index


def chunk(tid, pool, lines, stores=None):
    """One scheduled data chunk of thread ``tid`` accumulating into
    pool index ``pool``."""
    lines = np.asarray(lines, dtype=np.int64)
    if stores is None:
        stores = np.zeros(len(lines), dtype=bool)
    return (tid, pool, lines, np.asarray(stores, dtype=bool))


def replay(n_threads, chunks, n_pools=None):
    """Replay ``chunks`` in order; returns the pools."""
    if n_pools is None:
        n_pools = n_threads
    pools = [PoolLocality() for _ in range(n_pools)]
    replay_data(chunks, n_threads, pools)
    return pools


def fetch(*streams):
    """Replay one thread's fetch chunks into one histogram."""
    hist = RDHistogram()
    replay_fetch(
        [(0, np.asarray(lines, dtype=np.int64)) for lines in streams],
        [hist],
    )
    return hist


def reps_of(hist: RDHistogram):
    reps, counts = hist.nonzero()
    out = []
    for r, c in zip(reps, counts):
        out.extend([int(r)] * int(c))
    return out


class TestPrivateDistances:
    def test_first_touch_is_cold(self):
        [pool] = replay(1, [chunk(0, 0, [1, 2, 3])])
        assert pool.priv_cold == 3
        assert pool.private_hist().n_finite == 0

    def test_reuse_distance_counts_own_accesses(self):
        # Two accesses between the reuse.
        [pool] = replay(1, [chunk(0, 0, [7, 1, 2, 7])])
        assert reps_of(pool.private_hist()) == [2]

    def test_immediate_reuse_distance_zero(self):
        [pool] = replay(1, [chunk(0, 0, [5, 5])])
        assert reps_of(pool.private_hist()) == [0]

    def test_private_ignores_other_threads(self):
        """Paper Fig. 2: per-thread RD of A..A stays 3 regardless of
        the sibling's interleaved accesses."""
        p0, _p1 = replay(2, [
            chunk(0, 0, [10, 1, 2]),
            chunk(1, 1, [50, 51, 52, 53]),
            chunk(0, 0, [3, 10]),
        ])
        assert reps_of(p0.private_hist()) == [3]


class TestGlobalDistances:
    def test_global_counts_everyones_accesses(self):
        """Paper Fig. 2: interleaving inflates the global distance."""
        p0, _p1 = replay(2, [
            chunk(0, 0, [10, 1, 2]),
            chunk(1, 1, [50, 51, 52, 53]),
            chunk(0, 0, [3, 10]),
        ])
        # 10 ... (1,2,50,51,52,53,3) ... 10 -> global RD 7.
        reps, counts = p0.shared_hist().nonzero()
        assert bin_index(7) in [bin_index(int(r)) for r in reps]

    def test_sharing_shrinks_global_distance(self):
        """A line another thread just touched has a *short* global
        distance for me (positive interference, Fig. 2 address D)."""
        _p0, p1 = replay(2, [
            chunk(0, 0, [99]),  # thread 0 brings the line in
            chunk(1, 1, [99]),  # thread 1 reuses it immediately
        ])
        assert p1.glob_cold == 0
        assert reps_of(p1.shared_hist()) == [0]

    def test_global_cold_only_for_first_toucher(self):
        p0, p1 = replay(2, [chunk(0, 0, [5]), chunk(1, 1, [5])])
        assert p0.glob_cold == 1
        assert p1.glob_cold == 0
        # Privately it is cold for both threads.
        assert p0.priv_cold == 1
        assert p1.priv_cold == 1


class TestCoherence:
    def test_remote_write_invalidates(self):
        """Read, remote write, read again -> invalidation, not a reuse."""
        p0, _p1 = replay(2, [
            chunk(0, 0, [42]),
            chunk(1, 1, [42], stores=[True]),
            chunk(0, 0, [42]),
        ])
        assert p0.priv_inval == 1
        assert reps_of(p0.private_hist()) == []

    def test_own_write_does_not_invalidate(self):
        [p0] = replay(2, [
            chunk(0, 0, [42], stores=[True]),
            chunk(0, 0, [42]),
        ], n_pools=1)
        assert p0.priv_inval == 0
        assert reps_of(p0.private_hist()) == [0]

    def test_remote_read_does_not_invalidate(self):
        p0, _p1 = replay(2, [
            chunk(0, 0, [42]),
            chunk(1, 1, [42]),  # read, not write
            chunk(0, 0, [42]),
        ])
        assert p0.priv_inval == 0

    def test_write_before_my_first_access_is_not_invalidation(self):
        p0, _p1 = replay(2, [
            chunk(1, 1, [42], stores=[True]),
            chunk(0, 0, [42]),
        ])
        assert p0.priv_inval == 0
        assert p0.priv_cold == 1

    def test_stale_write_does_not_invalidate(self):
        """A remote write *before* my latest access doesn't break the
        reuse between my last two accesses."""
        p0, _p1 = replay(2, [
            chunk(1, 1, [42], stores=[True]),
            chunk(0, 0, [42]),
            chunk(0, 0, [42]),
        ])
        assert p0.priv_inval == 0
        assert reps_of(p0.private_hist()) == [0]

    def test_store_counts(self):
        [pool] = replay(1, [
            chunk(0, 0, [1, 2, 3], stores=[True, False, True]),
        ])
        assert pool.n_stores == 2
        assert pool.n_accesses == 3


class TestFetchLocality:
    def test_cold_then_reuse(self):
        h = fetch([1, 2, 1])
        assert h.cold + h.n_finite == 3
        assert h.cold == 2
        assert reps_of(h) == [1]

    def test_state_persists_across_chunks(self):
        h = fetch([9], [9])
        assert h.cold == 1
        assert reps_of(h) == [0]

    def test_empty_chunk(self):
        h = fetch(np.zeros(0, dtype=np.int64))
        assert h == RDHistogram()
