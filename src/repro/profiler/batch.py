"""Whole-trace batch reuse-distance engine (StatStack inputs, §III-A).

Two distance notions per the paper's Fig. 2:

* **private**: accesses by the *same thread* between two accesses by
  that thread to a line (drives private L1/L2 miss prediction).  If any
  other thread *wrote* the line in between, the reuse is broken by
  coherence and recorded as an invalidation (infinite distance).
* **global**: accesses by *any thread* since the last access to the
  line by any thread (drives shared-LLC miss prediction; captures both
  positive interference from sharing and negative interference from
  competition).

:func:`repro.profiler.profiler.profile_workload` records the chunk
interleaving produced by the functional replay and hands the complete
access stream to this module, which computes every pool's
reuse-distance statistics in O(N log N) *total* array work — instead of
paying dozens of NumPy dispatches per (often small) chunk, the whole
workload costs one unique-key sort, one cumulative sum for coherence
and a handful of per-pool bincount scatters.

The math reproduces the per-access scalar collectors of
:mod:`repro.profiler.reference` bit-for-bit (the executable spec;
``tests/test_locality_vectorized.py`` checks the equivalence):

* Let ``g`` be the position of an access in the interleaved stream
  (the scalar collector's ``global_seq``) and ``c`` its thread-local
  counter.
* **View A** sorts accesses by ``(line, g)``.  Within a line's group,
  consecutive entries are global reuse pairs (``rd = g2 - g1 - 1``);
  group heads are global cold misses.
* **Private pairs** need no second sort: a thread's subsequence of
  view A is still grouped by line with ``g`` ascending inside each
  group, so consecutive same-line entries of the subsequence are that
  thread's private reuse pairs (``rd = c2 - c1 - 1``); a thread's first
  access to a line is a private cold miss.
* **Coherence**: a private pair is invalidated iff *any* store to the
  line falls strictly between its endpoints (such a store is
  necessarily foreign — the thread's own store would be an access
  between two consecutive accesses — and then the scalar collector's
  ``last_write`` is newer than the earlier endpoint and from another
  thread).  A single cumulative sum of store flags in view-A order
  answers that interval query with two gathers per pair.

Pool attribution: every access carries the index of its (thread, code
region) pool; reuse pairs belong to the pool of their *later* access.
Per-pool histogram accumulation packs ``pool * NBINS + bin`` into one
``np.bincount``.  All counts are integers, so float64 accumulation is
exact and order-independent.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.profiler.histogram import NBINS, RDHistogram, _bin_indices


class PoolLocality:
    """Accumulated locality statistics of one (thread, pool)."""

    __slots__ = (
        "priv_counts", "priv_cold", "priv_inval",
        "glob_counts", "glob_cold",
        "n_accesses", "n_stores",
    )

    def __init__(self) -> None:
        self.priv_counts = np.zeros(NBINS, dtype=np.float64)
        self.priv_cold = 0
        self.priv_inval = 0
        self.glob_counts = np.zeros(NBINS, dtype=np.float64)
        self.glob_cold = 0
        self.n_accesses = 0
        self.n_stores = 0

    def private_hist(self) -> RDHistogram:
        return RDHistogram(
            counts=self.priv_counts.copy(),
            cold=self.priv_cold,
            inval=self.priv_inval,
        )

    def shared_hist(self) -> RDHistogram:
        return RDHistogram(
            counts=self.glob_counts.copy(), cold=self.glob_cold
        )


#: A recorded data-access chunk: (tid, pool index, addrs, stores).
DataChunk = Tuple[int, int, np.ndarray, np.ndarray]


def _group_sort(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort stream positions so ``values`` ascend, stably.

    Returns ``(pos_sorted, group_keys)`` from a single unique-key
    quicksort of ``(value - min) << shift | position`` when the value
    range permits (~10x cheaper than a stable argsort).  ``group_keys``
    ascend and change exactly at value boundaries, but are only
    meaningful for *equality* comparison (the fallback path returns
    dense group ids, not the values).
    """
    n = len(values)
    shift = max(1, (n - 1).bit_length())
    base = values.min()
    rel = values - base
    if int(rel.max()) >> (62 - shift) == 0:
        key = np.sort((rel << shift) | np.arange(n, dtype=np.int64))
        # group_keys stay base-relative: equality is all callers need.
        return key & ((1 << shift) - 1), key >> shift
    # Value range too wide to pack: group with an unstable quicksort,
    # then stabilize by sorting the dense (group, position) pack —
    # two cheap quicksorts still beat one stable argsort.  The second
    # component returned is the dense group id, not the value: callers
    # only compare it for equality.
    order = np.argsort(values)
    vs = values[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = vs[1:] != vs[:-1]
    gid = np.cumsum(first) - 1
    key = np.sort((gid << shift) | order)
    return key & ((1 << shift) - 1), key >> shift


def _per_pool_bincount(
    pool_of: np.ndarray, bins: np.ndarray, n_pools: int
) -> np.ndarray:
    """(n_pools, NBINS) histogram-count matrix for binned distances."""
    combined = pool_of * NBINS + bins
    flat = np.bincount(combined, minlength=n_pools * NBINS)
    return flat.reshape(n_pools, NBINS).astype(np.float64)


def replay_data(
    chunks: Sequence[DataChunk],
    n_threads: int,
    pools: Sequence[PoolLocality],
) -> None:
    """Replay a complete interleaved data-access stream into ``pools``.

    ``chunks`` is the exact order in which the scheduler executed the
    per-thread chunks; each entry references the pool (by index into
    ``pools``) that accumulates its statistics.
    """
    chunks = [ch for ch in chunks if len(ch[2])]
    if not chunks:
        return
    lens = np.array([len(ch[2]) for ch in chunks], dtype=np.int64)
    addr = np.concatenate([ch[2] for ch in chunks]).astype(
        np.int64, copy=False
    )
    store = np.concatenate([ch[3] for ch in chunks]).astype(
        bool, copy=False
    )
    n = len(addr)
    n_pools = len(pools)

    # Per-access thread id, pool index and thread-local counter.  The
    # global position g is simply the stream index; c differs from g by
    # a per-chunk offset known from the schedule.  Per-pool access
    # totals fall out of the same chunk walk.
    tidvec = np.repeat(
        np.array([ch[0] for ch in chunks], dtype=np.int16), lens
    )
    poolvec = np.repeat(
        np.array([ch[1] for ch in chunks], dtype=np.int32), lens
    )
    g0 = np.concatenate([[0], np.cumsum(lens)[:-1]])
    c0 = np.zeros(len(chunks), dtype=np.int64)
    counters = [0] * n_threads
    acc_cnt = [0] * n_pools
    for k, (tid, pidx, a, _s) in enumerate(chunks):
        c0[k] = counters[tid]
        counters[tid] += len(a)
        acc_cnt[pidx] += len(a)
    cvec = np.arange(n, dtype=np.int64) - np.repeat(g0 - c0, lens)

    # ---- view A: sort by (line, g); everything below stays in this
    # order, so no stream-order scatters are needed. -----------------
    pos_a, line_a = _group_sort(addr)
    within = line_a[1:] == line_a[:-1]
    tid_a = tidvec[pos_a]
    pv_a = poolvec[pos_a]
    cvec_a = cvec[pos_a]

    # Global reuse pairs: adjacent entries of a line group.  Cold
    # misses are derived per pool at the end (every access is either a
    # group head, i.e. cold, or a pair's later element).
    adj = pos_a[1:] - pos_a[:-1]
    rd_g = adj[within] - 1
    pools_g = pv_a[1:][within]

    # Coherence state: a private reuse pair (p_i, p_j) of thread t is
    # invalidated iff *any* store to the line falls strictly between
    # its endpoints.  (Such a store is necessarily by another thread —
    # t's own store to the line would itself be an access by t between
    # two consecutive accesses of t to that line — and the scalar
    # collector's "last write before p_j" is then inside (p_i, p_j),
    # newer than p_i and foreign; conversely a last write at or before
    # p_i never invalidates.)  A view-A slot interval holds exactly the
    # line's accesses in the stream interval, so one global cumsum of
    # the store flags answers the "any store strictly between" query
    # with two gathers per pair.
    scnt = (
        np.cumsum(store[pos_a], dtype=np.int32)
        if store.any() else None
    )

    # ---- private pairs, one thread at a time ----------------------
    # A thread's subsequence of view A is grouped by line with g still
    # ascending inside each group — exactly the (line, tid, g) view —
    # so a second sort is unnecessary.
    rd_parts: List[np.ndarray] = [rd_g]
    pool_parts: List[np.ndarray] = [pools_g]
    inval_cnt = np.zeros(n_pools, dtype=np.int64)
    for t in range(n_threads):
        sel = np.flatnonzero(tid_a == t)
        if len(sel) < 2:
            continue
        sl = line_a[sel]
        w = sl[1:] == sl[:-1]
        if not w.any():
            continue
        pv = pv_a[sel]
        pools_p = pv[1:][w]
        cv = cvec_a[sel]
        rd_p = cv[1:][w] - cv[:-1][w] - 1
        if scnt is not None:
            sj = sel[1:][w]
            si = sel[:-1][w]
            # Stores among view-A slots (si, sj) exclusive: the slot at
            # sj (the reuse itself) must not count, the one at si is
            # t's own access.
            inval = scnt[sj - 1] > scnt[si]
            if inval.any():
                inval_cnt += np.bincount(
                    pools_p[inval], minlength=n_pools
                )
                keep = ~inval
                rd_p = rd_p[keep]
                pools_p = pools_p[keep]
        if len(rd_p):
            rd_parts.append(rd_p)
            # Offset private pools into the upper half of the fused
            # per-pool bincount below.
            pool_parts.append(pools_p + n_pools)

    # ---- fused binning and pool accumulation ----------------------
    rd_all = np.concatenate(rd_parts)
    if len(rd_all):
        pk_all = np.concatenate(pool_parts)
        mat = np.bincount(
            pk_all * NBINS + _bin_indices(rd_all),
            minlength=2 * n_pools * NBINS,
        ).reshape(2 * n_pools, NBINS)
    else:
        mat = np.zeros((2 * n_pools, NBINS), dtype=np.int64)
    glob_mat = mat[:n_pools]
    priv_mat = mat[n_pools:]
    glob_pairs = glob_mat.sum(axis=1)
    priv_pairs = priv_mat.sum(axis=1)
    store_cnt = np.bincount(poolvec[store], minlength=n_pools)
    for p, pool in enumerate(pools):
        pool.glob_cold += acc_cnt[p] - int(glob_pairs[p])
        pool.priv_cold += (
            acc_cnt[p] - int(priv_pairs[p]) - int(inval_cnt[p])
        )
        pool.priv_inval += int(inval_cnt[p])
        pool.n_accesses += acc_cnt[p]
        pool.n_stores += int(store_cnt[p])
        pool.glob_counts += glob_mat[p]
        pool.priv_counts += priv_mat[p]


def replay_fetch(
    chunks: Sequence[Tuple[int, np.ndarray]],
    hists: Sequence[RDHistogram],
) -> None:
    """Replay one thread's complete fetch stream into its pools.

    ``chunks`` holds (pool index, fetch lines) in execution order;
    fetch streams are per-thread and read-only, so this is the
    single-stream specialization of :func:`replay_data` — one grouping
    sort, no coherence pass.
    """
    chunks = [ch for ch in chunks if len(ch[1])]
    if not chunks:
        return
    lens = np.array([len(ch[1]) for ch in chunks], dtype=np.int64)
    lines = np.concatenate([ch[1] for ch in chunks]).astype(
        np.int64, copy=False
    )
    poolvec = np.repeat(
        np.array([ch[0] for ch in chunks], dtype=np.int64), lens
    )
    n_pools = len(hists)
    acc_cnt = [0] * n_pools
    for pidx, ls in chunks:
        acc_cnt[pidx] += len(ls)

    pos, line_sorted = _group_sort(lines)
    within = line_sorted[1:] == line_sorted[:-1]
    p_j = pos[1:][within]
    mat = None
    pairs = np.zeros(n_pools)
    if len(p_j):
        rd = p_j - pos[:-1][within] - 1
        mat = _per_pool_bincount(poolvec[p_j], _bin_indices(rd), n_pools)
        pairs = mat.sum(axis=1)
    for p, hist in enumerate(hists):
        hist.cold += acc_cnt[p] - int(pairs[p])
        if mat is not None:
            hist.counts += mat[p]
