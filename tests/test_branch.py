"""Unit tests for the branch predictor and the entropy model."""

import numpy as np
import pytest

from repro.arch.config import BranchPredictorConfig
from repro.branch.entropy_model import (
    _collision_fraction,
    predict_miss_rate,
)
from repro.branch.predictors import TournamentPredictor
from repro.lru import LRUCache
from repro.profiler.branchprof import (
    DEPTH_GRID,
    _branch_stats_reference,
    _reversed_bits,
    branch_stats,
    cached_branch_stats,
)
from repro.profiler.profile import BranchStats


CFG = BranchPredictorConfig(size_bytes=4096)


def stream(pcs, taken):
    return [(np.asarray(pcs, dtype=np.int64),
             np.asarray(taken, dtype=np.int64))]


class TestTournamentPredictor:
    def test_learns_an_always_taken_branch(self):
        p = TournamentPredictor(CFG)
        pcs = np.full(500, 100, dtype=np.int64)
        taken = np.ones(500, dtype=np.uint8)
        miss = p.run(pcs, taken)
        assert miss[-100:].sum() == 0

    def test_learns_a_never_taken_branch(self):
        p = TournamentPredictor(CFG)
        pcs = np.full(500, 100, dtype=np.int64)
        taken = np.zeros(500, dtype=np.uint8)
        miss = p.run(pcs, taken)
        assert miss[-100:].sum() == 0

    def test_gshare_learns_alternation(self):
        """Strict alternation defeats bimodal but not global history."""
        p = TournamentPredictor(CFG)
        pcs = np.full(2000, 64, dtype=np.int64)
        taken = np.tile([1, 0], 1000).astype(np.uint8)
        miss = p.run(pcs, taken)
        assert miss[-500:].mean() < 0.05

    def test_random_stream_near_chance(self, rng):
        p = TournamentPredictor(CFG)
        pcs = rng.integers(0, 64, size=20_000) * 16
        taken = rng.integers(0, 2, size=20_000).astype(np.uint8)
        miss = p.run(pcs, taken)
        assert miss.mean() == pytest.approx(0.5, abs=0.05)

    def test_run_matches_scalar_interface(self, rng):
        short = (rng.integers(0, 8, size=400) * 16,
                 rng.integers(0, 2, size=400).astype(np.uint8))
        # 6k branches over 96 PCs: 1k-branch runs of one outcome drive
        # every touched counter to both ends, then a random stretch
        # keeps the chooser moving.
        n = 6000
        long_taken = ((np.arange(n) // 1000) % 2).astype(np.uint8)
        long_taken[4000:5000] = rng.integers(0, 2, size=1000)
        long = (rng.integers(0, 96, size=n) * 16, long_taken)
        for pcs, taken in (short, long):
            a = TournamentPredictor(CFG)
            vec = a.run(pcs, taken)
            b = TournamentPredictor(CFG)
            scalar = np.array([
                not b.predict_and_update(int(pc), bool(t))
                for pc, t in zip(pcs, taken)
            ])
            assert np.array_equal(vec, scalar)
            # One stream split across two calls equals a single call.
            c = TournamentPredictor(CFG)
            cut = len(pcs) // 3
            split = np.concatenate([
                c.run(pcs[:cut], taken[:cut]),
                c.run(pcs[cut:], taken[cut:]),
            ])
            assert np.array_equal(split, vec)
            for p in (b, c):
                assert p.history == a.history
                for table in ("bimodal", "gshare", "chooser"):
                    assert bytes(getattr(p, table)) == bytes(
                        getattr(a, table)
                    )
                assert p.miss_rate_state == a.miss_rate_state
            assert set(a.miss_rate_state) == {
                "history", "bimodal_mean", "gshare_mean", "chooser_mean",
            }
        # The long stream saturated the counters in both directions.
        sat = TournamentPredictor(CFG)
        pcs, taken = long
        sat.run(pcs[:1000], taken[:1000])
        touched = np.unique(pcs[:1000] & sat._mask)
        assert all(sat.bimodal[i] == 0 for i in touched)
        sat.run(pcs[1000:2000], taken[1000:2000])
        assert all(sat.bimodal[i] == sat._max for i in touched)

    def test_state_persists_across_runs(self):
        p = TournamentPredictor(CFG)
        pcs = np.full(300, 10, dtype=np.int64)
        taken = np.ones(300, dtype=np.uint8)
        p.run(pcs, taken)
        # Second run of the learned branch: no misses at all.
        assert p.run(pcs[:50], taken[:50]).sum() == 0

    def test_snapshot_keys(self):
        p = TournamentPredictor(CFG)
        snap = p.miss_rate_state
        assert {"history", "bimodal_mean", "gshare_mean",
                "chooser_mean"} <= set(snap)


class TestBranchStats:
    def test_empty_stream(self):
        stats = branch_stats([])
        assert stats.n_branches == 0
        assert stats.floor_at(0) == 0.0

    def test_taken_rate(self):
        stats = branch_stats(stream([1] * 10, [1] * 7 + [0] * 3))
        assert stats.taken_rate == pytest.approx(0.7)

    def test_static_count(self):
        stats = branch_stats(stream([1, 2, 3, 1, 2, 3], [1] * 6))
        assert stats.n_static == 3

    def test_deterministic_stream_has_low_floor(self, rng):
        taken = np.tile([1, 1, 1, 0], 500)
        stats = branch_stats(stream(np.full(2000, 5), taken))
        assert stats.floor_at(12) < 0.05

    def test_random_stream_floor_near_half(self, rng):
        taken = rng.integers(0, 2, size=4000)
        stats = branch_stats(stream(np.full(4000, 5), taken))
        # Cross-validation keeps the floor honest despite deep history.
        assert stats.floor_at(12) > 0.4

    def test_biased_stream_floor_matches_bias(self, rng):
        taken = (rng.random(4000) < 0.9).astype(np.int64)
        stats = branch_stats(stream(np.full(4000, 5), taken))
        assert stats.floor_at(0) == pytest.approx(0.1, abs=0.03)

    def test_floor_interpolation(self):
        stats = BranchStats(
            n_branches=100, taken_rate=0.5,
            floors={0: 0.4, 8: 0.2}, n_static=1,
            contexts={0: 1, 8: 10},
        )
        assert stats.floor_at(4) == pytest.approx(0.3)
        assert stats.floor_at(-1) == 0.4
        assert stats.floor_at(20) == 0.2

    def test_contexts_interpolation(self):
        stats = BranchStats(
            n_branches=100, taken_rate=0.5,
            floors={0: 0.4, 8: 0.2}, n_static=1,
            contexts={0: 2, 8: 10},
        )
        assert stats.contexts_at(4) == pytest.approx(6.0)

    def test_pieces_concatenate(self, rng):
        """Stats over pieces equal stats over one concatenated stream."""
        pcs = rng.integers(0, 16, size=2000) * 16
        taken = (rng.random(2000) < 0.8).astype(np.int64)
        whole = branch_stats(stream(pcs, taken))
        pieces = branch_stats([
            (pcs[:1000], taken[:1000]), (pcs[1000:], taken[1000:])
        ])
        assert whole.n_branches == pieces.n_branches
        assert whole.floors[0] == pytest.approx(pieces.floors[0], abs=0.02)

    def test_depth_grid_keys(self):
        stats = branch_stats(stream([1, 1], [1, 0]))
        assert set(stats.floors) == set(DEPTH_GRID)

    def test_serialization_round_trip(self, rng):
        taken = rng.integers(0, 2, size=500)
        stats = branch_stats(stream(np.full(500, 5), taken))
        again = BranchStats.from_dict(stats.to_dict())
        assert again.floors == stats.floors
        assert again.contexts == stats.contexts
        assert again.n_branches == stats.n_branches


class TestEntropyModel:
    def test_zero_branches(self):
        stats = BranchStats(0, 0.0, {0: 0.0}, 0, {0: 0})
        assert predict_miss_rate(stats, CFG) == 0.0

    def test_capped_at_half(self):
        stats = BranchStats(100, 0.5, {0: 0.5, 12: 0.5}, 50,
                            {0: 50, 12: 100})
        assert predict_miss_rate(stats, CFG) <= 0.5

    def test_uses_best_component(self):
        """A gshare-friendly pattern beats its bimodal floor."""
        stats = BranchStats(1000, 0.5, {0: 0.5, 12: 0.02}, 4,
                            {0: 4, 12: 64})
        assert predict_miss_rate(stats, CFG) < 0.1

    def test_collision_fraction_zero_when_room(self):
        assert _collision_fraction(10, 4096) < 0.01

    def test_collision_fraction_grows_with_contexts(self):
        small = _collision_fraction(100, 1024)
        big = _collision_fraction(10_000, 1024)
        assert big > small
        assert 0.0 <= small <= 1.0 and 0.0 <= big <= 1.0

    def test_collision_degenerate(self):
        assert _collision_fraction(1, 1024) == 0.0
        assert _collision_fraction(100, 0) == 0.0

    def test_aliasing_raises_prediction(self):
        base = BranchStats(10_000, 0.5, {0: 0.05, 12: 0.05}, 100,
                           {0: 100, 12: 500})
        crowded = BranchStats(10_000, 0.5, {0: 0.05, 12: 0.05}, 100_000,
                              {0: 100_000, 12: 500_000})
        assert predict_miss_rate(crowded, CFG) > predict_miss_rate(
            base, CFG
        )

    def test_smaller_predictor_mispredicts_more(self):
        stats = BranchStats(10_000, 0.5, {0: 0.05, 12: 0.05}, 3000,
                            {0: 3000, 12: 9000})
        small = predict_miss_rate(stats, BranchPredictorConfig(
            size_bytes=256))
        big = predict_miss_rate(stats, BranchPredictorConfig(
            size_bytes=16 * 1024))
        assert small > big


class TestModelAgainstPredictor:
    """The entropy model must track the real predictor (end-to-end)."""

    @pytest.mark.parametrize("p_taken,tol", [
        (0.97, 0.03), (0.92, 0.04), (0.85, 0.06), (0.75, 0.08),
    ])
    def test_biased_streams(self, p_taken, tol, rng):
        pcs = np.tile(rng.integers(0, 40, size=40) * 16, 100)
        taken = (rng.random(4000) < p_taken).astype(np.uint8)
        actual = TournamentPredictor(CFG).run(pcs, taken).mean()
        stats = branch_stats(stream(pcs, taken))
        model = predict_miss_rate(stats, CFG)
        assert model == pytest.approx(actual, abs=tol)

    def test_loop_pattern(self, rng):
        pcs = np.tile(rng.integers(0, 40, size=40) * 16, 100)
        idx = np.arange(4000)
        taken = (idx % 16 != 15).astype(np.uint8)
        actual = TournamentPredictor(CFG).run(pcs, taken).mean()
        stats = branch_stats(stream(pcs, taken))
        model = predict_miss_rate(stats, CFG)
        assert model == pytest.approx(actual, abs=0.05)


class TestBranchStatsEquivalence:
    """The shared-sort fast path is bit-identical to the per-depth
    ``np.unique`` reference (the seed implementation, preserved as
    ``_branch_stats_reference``)."""

    def _assert_identical(self, streams, depths=DEPTH_GRID):
        fast = branch_stats(streams, depths)
        ref = _branch_stats_reference(streams, depths)
        assert fast.n_branches == ref.n_branches
        assert fast.taken_rate == ref.taken_rate
        assert fast.n_static == ref.n_static
        assert fast.contexts == ref.contexts
        assert set(fast.floors) == set(ref.floors)
        for depth in ref.floors:
            # Exact float equality: the fast path must reproduce the
            # reference's summation order bit for bit.
            assert fast.floors[depth] == ref.floors[depth], depth

    def test_empty(self):
        self._assert_identical([])

    def test_single_branch(self):
        self._assert_identical(stream([5], [1]))

    def test_two_branches(self):
        self._assert_identical(stream([5, 5], [1, 0]))

    def test_deterministic_pattern(self):
        taken = np.tile([1, 1, 0, 1], 600)
        self._assert_identical(stream(np.full(2400, 7), taken))

    def test_alternation(self):
        self._assert_identical(
            stream(np.full(1000, 64), np.tile([1, 0], 500))
        )

    def test_random_many_pcs(self, rng):
        pcs = rng.integers(0, 64, size=5000) * 16
        taken = rng.integers(0, 2, size=5000)
        self._assert_identical(stream(pcs, taken))

    def test_biased_random(self, rng):
        pcs = rng.integers(0, 8, size=3000) * 16
        taken = (rng.random(3000) < 0.85).astype(np.int64)
        self._assert_identical(stream(pcs, taken))

    def test_multiple_pieces(self, rng):
        pieces = []
        for _ in range(5):
            m = int(rng.integers(1, 400))
            pieces.append((
                rng.integers(0, 32, size=m) * 16,
                rng.integers(0, 2, size=m),
            ))
        pieces.append((np.zeros(0, dtype=np.int64),) * 2)
        self._assert_identical(
            [(np.asarray(p, dtype=np.int64),
              np.asarray(t, dtype=np.int64)) for p, t in pieces]
        )

    def test_odd_length_split(self, rng):
        pcs = rng.integers(0, 16, size=777) * 16
        taken = rng.integers(0, 2, size=777)
        self._assert_identical(stream(pcs, taken))

    def test_custom_depths(self, rng):
        pcs = rng.integers(0, 16, size=1500) * 16
        taken = rng.integers(0, 2, size=1500)
        self._assert_identical(stream(pcs, taken), depths=(0, 1, 3, 7))
        self._assert_identical(stream(pcs, taken), depths=(4,))

    def test_deep_custom_depths(self, rng):
        # Deeper than one bit-reversal table: reversed in pieces.
        pcs = rng.integers(0, 4, size=3000) * 16
        taken = rng.integers(0, 2, size=3000)
        self._assert_identical(stream(pcs, taken), depths=(0, 13, 20))


def _reversed_bits_loop(bits, depth):
    """The per-bit reversal loop the lookup tables replace."""
    rev = np.zeros(len(bits), dtype=np.int64)
    for b in range(depth):
        rev |= ((bits >> b) & 1) << (depth - 1 - b)
    return rev


class TestLegacyGroupOrder:
    @pytest.mark.parametrize("depth", DEPTH_GRID + (1, 7, 13, 25))
    def test_table_matches_the_bit_loop(self, rng, depth):
        keys = rng.integers(0, 2**40, size=4000) << depth | rng.integers(
            0, 2**depth, size=4000
        )
        bits = keys & ((1 << depth) - 1)
        assert np.array_equal(
            _reversed_bits(bits, depth), _reversed_bits_loop(bits, depth)
        )


class TestBranchStatsMemo:
    def test_memo_keyed_on_the_depth_grid(self, rng):
        pcs = rng.integers(0, 16, size=2000) * 16
        taken = rng.integers(0, 2, size=2000)
        cache = LRUCache(8)
        first = cached_branch_stats(stream(pcs, taken), cache, (0, 2))
        assert set(first.floors) == {0, 2}
        second = cached_branch_stats(stream(pcs, taken), cache, (0, 4, 8))
        assert set(second.floors) == {0, 4, 8}
        assert set(second.contexts) == {0, 4, 8}
        want = branch_stats(stream(pcs, taken), (0, 4, 8))
        assert second.floors == want.floors
        # The same grid again is a hit.
        again = cached_branch_stats(stream(pcs, taken), cache, (0, 4, 8))
        assert again is second
