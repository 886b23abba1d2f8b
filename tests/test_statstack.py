"""Unit tests for the StatStack reuse->stack distance model."""

import numpy as np
import pytest

from repro.profiler.histogram import RDHistogram
from repro.statstack.statstack import expected_stack_distances, miss_rate


def hist_from(rds, cold=0, inval=0):
    h = RDHistogram(cold=cold, inval=inval)
    h.add_many(np.asarray(rds, dtype=np.int64))
    return h


class TestExpectedStackDistances:
    def test_empty(self):
        rds, counts, sds = expected_stack_distances(RDHistogram())
        assert len(rds) == 0

    def test_non_decreasing(self):
        h = hist_from([1, 5, 20, 100, 1000], cold=3)
        _, _, sds = expected_stack_distances(h)
        assert (np.diff(sds) >= 0).all()

    def test_stack_distance_bounded_by_reuse_distance(self):
        h = hist_from([2, 10, 50])
        rds, _, sds = expected_stack_distances(h)
        assert (sds <= rds + 1).all()

    def test_single_distance_stream(self):
        # All reuses at distance 0: SD ~ 0, everything fits anywhere.
        h = hist_from([0] * 100)
        _, _, sds = expected_stack_distances(h)
        assert sds[0] < 1.0


class TestMissRate:
    def test_all_fits_no_misses(self):
        h = hist_from([0, 1, 2] * 50)
        assert miss_rate(h, cache_lines=64) == pytest.approx(0.0, abs=0.02)

    def test_nothing_fits_all_miss(self):
        h = hist_from([100_000] * 50)
        assert miss_rate(h, cache_lines=16) == pytest.approx(1.0, abs=0.05)

    def test_cold_always_misses(self):
        h = RDHistogram(cold=10)
        assert miss_rate(h, cache_lines=10**9) == 1.0

    def test_inval_always_misses(self):
        h = RDHistogram(inval=10)
        assert miss_rate(h, cache_lines=10**9) == 1.0

    def test_cold_excludable(self):
        h = hist_from([1] * 90, cold=10)
        full = miss_rate(h, 1024)
        warm = miss_rate(h, 1024, include_cold=False)
        assert full == pytest.approx(0.1, abs=0.01)
        assert warm == pytest.approx(0.0, abs=0.01)

    def test_monotone_in_capacity(self):
        h = hist_from([1, 8, 64, 512, 4096] * 20, cold=5)
        rates = [
            miss_rate(h, c) for c in (4, 16, 64, 256, 1024, 8192)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_empty_histogram(self):
        assert miss_rate(RDHistogram(), 64) == 0.0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            miss_rate(RDHistogram(), 0)

    def test_crossing_bin_interpolates(self):
        """Capacity inside a bin's SD range yields a fractional rate."""
        h = hist_from([100] * 100)
        _, _, sds = expected_stack_distances(h)
        mid = int(sds[0]) // 2
        if mid > 0:
            rate = miss_rate(h, mid)
            assert 0.0 < rate <= 1.0


class TestAgainstExactLRU:
    """StatStack vs an exact fully-associative LRU simulation."""

    @staticmethod
    def _exact_lru_miss_rate(addresses, capacity):
        from collections import OrderedDict
        cache = OrderedDict()
        misses = 0
        for a in addresses:
            if a in cache:
                cache.move_to_end(a)
            else:
                misses += 1
                if len(cache) >= capacity:
                    cache.popitem(last=False)
            cache[a] = True
        return misses / len(addresses)

    @staticmethod
    def _reuse_hist(addresses):
        h = RDHistogram()
        last = {}
        for i, a in enumerate(addresses):
            if a in last:
                h.add(i - last[a] - 1)
            else:
                h.add_cold()
            last[a] = i
        return h

    @pytest.mark.parametrize("capacity", [16, 64, 256])
    def test_random_working_set(self, capacity, rng):
        addrs = rng.integers(0, 400, size=20_000).tolist()
        h = self._reuse_hist(addrs)
        exact = self._exact_lru_miss_rate(addrs, capacity)
        model = miss_rate(h, capacity)
        assert model == pytest.approx(exact, abs=0.06)

    def test_streaming(self, rng):
        addrs = list(range(500)) * 20
        h = self._reuse_hist(addrs)
        # Footprint 500 > capacity 256: every access misses.
        assert miss_rate(h, 256) == pytest.approx(
            self._exact_lru_miss_rate(addrs, 256), abs=0.05
        )
        # Footprint fits in 1024: only cold misses.
        assert miss_rate(h, 1024) == pytest.approx(
            self._exact_lru_miss_rate(addrs, 1024), abs=0.02
        )

    def test_hot_cold(self, rng):
        hot = rng.integers(0, 32, size=15_000)
        cold = rng.integers(32, 10_000, size=5_000)
        mask = rng.random(20_000) < 0.75
        addrs = np.where(mask, np.concatenate([hot, hot[:5000]])[:20000],
                         np.concatenate([cold, cold, cold, cold])[:20000])
        addrs = addrs.tolist()
        h = self._reuse_hist(addrs)
        for cap in (64, 512):
            exact = self._exact_lru_miss_rate(addrs, cap)
            assert miss_rate(h, cap) == pytest.approx(exact, abs=0.08)


class TestStackDistanceMemo:
    """Curves are memoized by histogram content across pool objects."""

    def _hist(self, rng):
        h = RDHistogram()
        h.add_many(rng.integers(0, 5000, size=2000))
        h.add_cold(17)
        h.add_inval(3)
        return h

    def test_identical_content_reuses_curve(self, rng):
        from repro.statstack.statstack import (
            sd_cache_clear, sd_cache_stats,
        )
        sd_cache_clear()
        a = self._hist(np.random.default_rng(77))
        b = self._hist(np.random.default_rng(77))
        assert a is not b and a == b
        ra = expected_stack_distances(a)
        rb = expected_stack_distances(b)
        stats = sd_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        # The very same arrays are shared, not recomputed equals.
        assert all(x is y for x, y in zip(ra, rb))

    def test_different_content_misses(self, rng):
        from repro.statstack.statstack import (
            sd_cache_clear, sd_cache_stats,
        )
        sd_cache_clear()
        a = self._hist(np.random.default_rng(1))
        b = self._hist(np.random.default_rng(2))
        expected_stack_distances(a)
        expected_stack_distances(b)
        assert sd_cache_stats()["misses"] == 2

    def test_miss_rate_unchanged_by_memo(self, rng):
        from repro.statstack.statstack import (
            _compute_stack_distances, sd_cache_clear,
        )
        sd_cache_clear()
        h = self._hist(np.random.default_rng(5))
        rds, counts, sds = _compute_stack_distances(h)
        mrds, mcounts, msds = expected_stack_distances(h)
        assert np.array_equal(rds, mrds)
        assert np.array_equal(counts, mcounts)
        assert np.array_equal(sds, msds)
        assert miss_rate(h, 256) == miss_rate(h, 256)
