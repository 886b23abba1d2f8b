"""Scalar reference reuse-distance collectors.

This module preserves the original per-access Python implementation of
the locality collectors (the pre-vectorization seed code) as an
executable specification.  The batch engine in
:mod:`repro.profiler.batch` must reproduce these collectors
*bit-for-bit* — ``tests/test_locality_vectorized.py`` checks the
equivalence on randomized multi-thread interleavings, and
``benchmarks/bench_profiler.py`` measures the speedup against them.

Fed chunk by chunk in the scheduler's interleaving order, they
accumulate into the same :class:`~repro.profiler.batch.PoolLocality`
pools and histograms as :func:`~repro.profiler.batch.replay_data` and
:func:`~repro.profiler.batch.replay_fetch`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.profiler.histogram import RDHistogram, bin_index
from repro.profiler.batch import PoolLocality

_EXACT = 8


class ScalarLocalityCollector:
    """Per-access replay of the interleaved data stream (seed code)."""

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        self.global_seq = 0
        #: line -> global sequence number of the last access (any thread).
        self.global_last: Dict[int, int] = {}
        #: per thread: line -> (thread counter, global seq) at last access.
        self.priv_last: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(n_threads)
        ]
        self.priv_count = [0] * n_threads
        #: line -> (writer thread, global seq of the write).
        self.last_write: Dict[int, Tuple[int, int]] = {}

    def process(
        self,
        tid: int,
        addrs: np.ndarray,
        stores: np.ndarray,
        pool: PoolLocality,
    ) -> None:
        """Feed one chunk's memory accesses (in program order)."""
        if len(addrs) == 0:
            return
        global_last = self.global_last
        priv_last = self.priv_last[tid]
        last_write = self.last_write
        g = self.global_seq
        c = self.priv_count[tid]
        priv_counts = pool.priv_counts
        glob_counts = pool.glob_counts
        addrs_list = addrs.tolist()
        stores_list = stores.tolist()
        for line, is_store in zip(addrs_list, stores_list):
            gl = global_last.get(line)
            if gl is None:
                pool.glob_cold += 1
            else:
                rd = g - gl - 1
                if rd < _EXACT:
                    glob_counts[rd] += 1
                else:
                    glob_counts[bin_index(rd)] += 1
            global_last[line] = g
            pl = priv_last.get(line)
            if pl is None:
                pool.priv_cold += 1
            else:
                pcount, pgseq = pl
                w = last_write.get(line)
                if w is not None and w[0] != tid and w[1] > pgseq:
                    pool.priv_inval += 1
                else:
                    rd = c - pcount - 1
                    if rd < _EXACT:
                        priv_counts[rd] += 1
                    else:
                        priv_counts[bin_index(rd)] += 1
            priv_last[line] = (c, g)
            if is_store:
                last_write[line] = (tid, g)
                pool.n_stores += 1
            g += 1
            c += 1
        self.global_seq = g
        self.priv_count[tid] = c
        pool.n_accesses += len(addrs_list)


class ScalarFetchLocality:
    """Per-access instruction-fetch reuse collector (seed code)."""

    __slots__ = ("last", "count")

    def __init__(self) -> None:
        self.last: Dict[int, int] = {}
        self.count = 0

    def process(self, lines: np.ndarray, hist: RDHistogram) -> int:
        """Feed one chunk's fetch stream; returns the number of fetches."""
        if len(lines) == 0:
            return 0
        last = self.last
        c = self.count
        counts = hist.counts
        for line in lines.tolist():
            prev = last.get(line)
            if prev is None:
                hist.cold += 1
            else:
                rd = c - prev - 1
                if rd < _EXACT:
                    counts[rd] += 1
                else:
                    counts[bin_index(rd)] += 1
            last[line] = c
            c += 1
        n = c - self.count
        self.count = c
        return n
