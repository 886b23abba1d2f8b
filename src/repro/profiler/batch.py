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
workload costs two in-place unique-key sorts, a cumulative sum for
coherence and one bincount.  Every temporary proportional to the
stream is carved from the thread's scratch arena, the one the ILP
kernel uses (:func:`repro.profiler.ilp_batch.carve`), so a warmed
thread maps no new pages per profile.

The math reproduces the per-access scalar collectors of
:mod:`repro.profiler.reference` bit-for-bit (the executable spec;
``tests/test_locality_vectorized.py`` checks the equivalence):

* Let ``g`` be the position of an access in the interleaved stream
  (the scalar collector's ``global_seq``) and ``c`` its thread-local
  counter.
* **View A** sorts accesses by ``(line, g)``.  Within a line's group,
  consecutive entries are global reuse pairs (``rd = g2 - g1 - 1``);
  group heads are global cold misses.
* **Private pairs** need no second grouping: a thread's subsequence
  of view A is still grouped by line with ``g`` ascending inside each
  group, so consecutive same-line entries of the subsequence are that
  thread's private reuse pairs (``rd = c2 - c1 - 1``); a thread's first
  access to a line is a private cold miss.  One packed sort of view
  A's slots by thread lays the subsequences out in turn.
* **Coherence**: a private pair is invalidated iff *any* store to the
  line falls strictly between its endpoints (such a store is
  necessarily foreign — the thread's own store would be an access
  between two consecutive accesses — and then the scalar collector's
  ``last_write`` is newer than the earlier endpoint and from another
  thread).  A single cumulative sum of store flags in view-A order
  answers that interval query with two gathers per pair.

Pool attribution: every access carries the index of its (thread, code
region) pool; reuse pairs belong to the pool of their *later* access.
Per-pool histogram accumulation packs ``pool * NBINS + bin`` of every
global and private pair, and each pool's invalidation count, into one
``np.bincount``.  All counts are integers, so float64 accumulation is
exact and order-independent.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.profiler.histogram import (
    NBINS,
    RDHistogram,
    _bin_indices_into,
)
from repro.profiler.ilp_batch import carve


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


def _iota(out: np.ndarray) -> None:
    """``out[:] = arange(len(out))``, in place."""
    out.fill(1)
    out[0] = 0
    np.cumsum(out, out=out)


def _packed_sort(keys: np.ndarray, idx: np.ndarray, shift: int) -> None:
    """Stable sort of ``idx`` by ``keys``, both in place: one quicksort
    of ``keys << shift | idx`` (unique keys, so its order is total;
    ~10x cheaper than a stable argsort).  ``keys`` ends sorted."""
    np.left_shift(keys, shift, out=keys)
    np.bitwise_or(keys, idx, out=keys)
    keys.sort()
    np.bitwise_and(keys, (1 << shift) - 1, out=idx)
    np.right_shift(keys, shift, out=keys)


def _group_sort(
    values: np.ndarray, keys: np.ndarray, pos: np.ndarray, tmp: np.ndarray,
) -> None:
    """Sort stream positions so ``values`` ascend, stably, allocating
    nothing: ``pos`` gets the sorted positions and ``keys`` their
    base-relative values (meaningful for *equality* only).  All four
    are int64 arrays of one length; ``values`` and ``tmp`` are
    clobbered.

    Positions take the low ``shift`` bits of a packed key.  A value
    range too wide for the remaining bits is sorted in two stable
    passes, low digit first, then high digit (least significant digit
    first, so the second pass orders by the whole value).
    """
    n = len(values)
    shift = max(1, (n - 1).bit_length())
    digit = 62 - shift
    np.subtract(values, values.min(), out=values)
    _iota(pos)
    if int(values.max()) >> digit == 0:
        np.copyto(keys, values)
        _packed_sort(keys, pos, shift)
        return
    np.bitwise_and(values, (1 << digit) - 1, out=keys)
    _packed_sort(keys, pos, shift)  # by low digit
    np.right_shift(values, digit, out=tmp)
    tmp.take(pos, out=keys, mode="clip")  # high digit, pass-1 order
    _iota(tmp)
    _packed_sort(keys, tmp, shift)  # by high digit: ranks into pass 1
    pos.take(tmp, out=keys, mode="clip")
    np.copyto(pos, keys)
    values.take(pos, out=keys, mode="clip")


def replay_data(
    chunks: Sequence[DataChunk],
    n_threads: int,
    pools: Sequence[PoolLocality],
) -> None:
    """Replay a complete interleaved data-access stream into ``pools``.

    ``chunks`` is the exact order in which the scheduler executed the
    per-thread chunks; each entry references the pool (by index into
    ``pools``) that accumulates its statistics.

    Every temporary proportional to the stream is a view of the
    thread's scratch arena (:func:`repro.profiler.ilp_batch.carve`),
    so a warmed thread maps no new pages per profile; what is
    allocated is per chunk or per pool.
    """
    chunks = [ch for ch in chunks if len(ch[2])]
    if not chunks:
        return
    n_pools = len(pools)
    lens = np.array([len(ch[2]) for ch in chunks], dtype=np.int64)
    n = int(lens.sum())
    m = n - 1  # adjacent slot pairs
    i8, b1 = np.int64, np.bool_
    addr, keys, pos, tmp, aux, scnt, pool_a, pool_p, pk, bins, store, \
        flag, head = carve([
            ((n,), i8), ((n,), i8), ((n,), i8), ((n,), i8), ((n,), i8),
            ((n,), i8), ((n,), i8), ((m,), i8), ((2 * m,), i8),
            ((m,), np.int16), ((n,), b1), ((n,), b1), ((m,), b1),
        ])
    np.concatenate([ch[2] for ch in chunks], out=addr, casting="unsafe")
    np.concatenate([ch[3] for ch in chunks], out=store, casting="unsafe")

    # Per chunk: thread, pool, and the offset from the stream index g
    # to the thread-local counter c.  Per-pool access totals fall out
    # of this walk, store totals out of the store count at chunk ends.
    tid_c = np.array([ch[0] for ch in chunks], dtype=np.int64)
    pool_c = np.array([ch[1] for ch in chunks], dtype=np.int64)
    g0 = np.cumsum(lens) - lens
    off_c = np.empty(len(chunks), dtype=np.int64)
    counters = [0] * n_threads
    acc_cnt = [0] * n_pools
    for k, (tid, pidx, a, _s) in enumerate(chunks):
        off_c[k] = g0[k] - counters[tid]
        counters[tid] += len(a)
        acc_cnt[pidx] += len(a)
    np.copyto(scnt, store)
    np.cumsum(scnt, out=scnt)
    stores_c = np.diff(scnt[g0 + lens - 1], prepend=0)
    store_cnt = np.bincount(pool_c, weights=stores_c, minlength=n_pools)
    any_store = scnt[-1] > 0

    # ---- view A: sort by (line, g); everything below stays in this
    # order, so no stream-order scatters are needed. -----------------
    _group_sort(addr, keys, pos, tmp)  # pos: slots' g, keys: lines
    tmp.fill(0)
    tmp[g0[1:]] = 1
    np.cumsum(tmp, out=tmp)  # chunk of each g
    tmp.take(pos, out=addr, mode="clip")  # chunk of each slot
    pool_c.take(addr, out=pool_a, mode="clip")
    tid_c.take(addr, out=aux, mode="clip")
    off_c.take(addr, out=tmp, mode="clip")
    np.subtract(pos, tmp, out=tmp)  # c of each slot

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
    if any_store:
        store.take(pos, out=flag, mode="clip")
        np.copyto(scnt, flag)
        np.cumsum(scnt, out=scnt)

    # Every pair lands in one bincount, keyed pool * NBINS + bin: the
    # global pairs below the private ones, then one invalidation
    # counter per pool, then a slot for adjacent entries that are not
    # pairs.
    inval_base = 2 * n_pools * NBINS
    no_pair = inval_base + n_pools
    flag = flag[:m]

    # Global reuse pairs: adjacent entries of a line group.  Cold
    # misses are derived per pool at the end (every access is either a
    # group head, i.e. cold, or a pair's later element).
    np.not_equal(keys[1:], keys[:-1], out=head)
    rd = addr[:m]
    np.subtract(pos[1:], pos[:-1], out=rd)
    np.subtract(rd, 1, out=rd)
    np.copyto(rd, 0, where=head)
    _bin_indices_into(rd, bins, flag)
    glob = pk[:m]
    np.multiply(pool_a[1:], NBINS, out=glob)
    np.add(glob, bins, out=glob)
    np.copyto(glob, no_pair, where=head)

    # ---- private pairs --------------------------------------------
    # A thread's subsequence of view A is grouped by line with g still
    # ascending inside each group, so one packed sort of the slots by
    # thread lays every thread's subsequence out in turn: adjacent
    # entries of one thread and one line are its private reuse pairs.
    sel = addr
    _iota(sel)
    _packed_sort(aux, sel, max(1, (n - 1).bit_length()))
    np.not_equal(aux[1:], aux[:-1], out=head)  # thread boundaries
    keys.take(sel, out=aux, mode="clip")
    np.not_equal(aux[1:], aux[:-1], out=flag)
    np.logical_or(head, flag, out=head)
    tmp.take(sel, out=aux, mode="clip")
    rd = keys[:m]
    np.subtract(aux[1:], aux[:-1], out=rd)
    np.subtract(rd, 1, out=rd)
    np.copyto(rd, 0, where=head)
    _bin_indices_into(rd, bins, flag)
    pool_a.take(sel[1:], out=pool_p, mode="clip")
    priv = pk[m:]
    np.add(pool_p, n_pools, out=priv)
    np.multiply(priv, NBINS, out=priv)
    np.add(priv, bins, out=priv)
    if any_store:
        # Stores among view-A slots (si, sj) exclusive: the slot at sj
        # (the reuse itself) must not count, the one at si is t's own
        # access.
        later, earlier = pos[:m], tmp[:m]
        np.subtract(sel[1:], 1, out=aux[:m])
        scnt.take(aux[:m], out=later, mode="clip")
        scnt.take(sel[:-1], out=earlier, mode="clip")
        np.greater(later, earlier, out=flag)
        np.add(pool_p, inval_base, out=aux[:m])
        np.copyto(priv, aux[:m], where=flag)
    np.copyto(priv, no_pair, where=head)

    # ---- pool accumulation ------------------------------------------
    counts = np.bincount(pk, minlength=no_pair + 1)
    mat = counts[:inval_base].reshape(2 * n_pools, NBINS)
    inval_cnt = counts[inval_base:no_pair]
    glob_mat = mat[:n_pools]
    priv_mat = mat[n_pools:]
    glob_pairs = glob_mat.sum(axis=1)
    priv_pairs = priv_mat.sum(axis=1)
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
    sort, no coherence pass — with its temporaries carved alike.
    """
    chunks = [ch for ch in chunks if len(ch[1])]
    if not chunks:
        return
    n_pools = len(hists)
    lens = np.array([len(ch[1]) for ch in chunks], dtype=np.int64)
    n = int(lens.sum())
    m = n - 1  # adjacent slot pairs
    i8 = np.int64
    lines, keys, pos, tmp, pool_g, bins, head, big = carve([
        ((n,), i8), ((n,), i8), ((n,), i8), ((n,), i8), ((n,), i8),
        ((m,), np.int16), ((m,), np.bool_), ((m,), np.bool_),
    ])
    np.concatenate([ch[1] for ch in chunks], out=lines, casting="unsafe")
    tmp.fill(0)
    tmp[(np.cumsum(lens) - lens)[1:]] = 1
    np.cumsum(tmp, out=tmp)  # chunk of each stream position
    np.array([ch[0] for ch in chunks], dtype=i8).take(
        tmp, out=pool_g, mode="clip"
    )
    acc_cnt = np.bincount(pool_g, minlength=n_pools)

    # Adjacent entries of a line group are reuse pairs, each counted in
    # one bincount under pool * NBINS + bin of its later access; two
    # adjacent entries of different lines count in the slot past them.
    _group_sort(lines, keys, pos, tmp)  # pos: slots' g, keys: lines
    np.not_equal(keys[1:], keys[:-1], out=head)
    rd = lines[:m]
    np.subtract(pos[1:], pos[:-1], out=rd)
    np.subtract(rd, 1, out=rd)
    np.copyto(rd, 0, where=head)
    _bin_indices_into(rd, bins, big)
    pk = tmp[:m]
    pool_g.take(pos[1:], out=pk, mode="clip")
    np.multiply(pk, NBINS, out=pk)
    np.add(pk, bins, out=pk)
    no_pair = n_pools * NBINS
    np.copyto(pk, no_pair, where=head)
    mat = np.bincount(pk, minlength=no_pair + 1)[:no_pair].reshape(
        n_pools, NBINS
    )
    pairs = mat.sum(axis=1)
    for p, hist in enumerate(hists):
        hist.cold += int(acc_cnt[p]) - int(pairs[p])
        hist.counts += mat[p]
