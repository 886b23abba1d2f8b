"""Profiler orchestration: trace -> :class:`WorkloadProfile`.

The profiler performs a *functional* replay of the workload (unit cost
per instruction) through the shared DES scheduler so that concurrent
threads interleave their memory streams chunk-by-chunk — the stand-in
for the particular interleaving a Pin profiling run would observe
(paper §III-A notes predictions are robust to the profiling
interleaving; tests verify this).

Statistics are pooled per (thread, code region): segments generated
from the same static code share one pool, exactly as a Pin tool
aggregates by static program location.  Pooling keeps profiles compact
even for workloads with millions of tiny critical sections.

Pipeline stages (expand -> prepare -> replay -> collect):

1. **Expand** — the workload spec becomes a trace of contiguous
   per-thread arena columns (:mod:`repro.workloads.engine`), usually
   through a session's content-addressed trace cache.
2. **Prepare** — one whole-segment vectorized pass
   (:func:`_segment_static`) derives every static artifact the replay
   needs: chunk boundaries and pool keys, operand-class counts,
   memory/branch/load index sets, synthetic PCs (with per-chunk
   resets), fetch lines and ILP sample slices — all exposed as
   zero-copy per-chunk views via boundary arrays.  Because these are a
   pure function of the op/iline columns, they are memoized per
   ``(static_key, chunk)`` in a :class:`SegmentPrepCache` — the ~81%
   of repeated segment work across a suite is computed once.
3. **Replay** — the DES scheduler runs over the precomputed unit-cost
   durations (:func:`repro.runtime.scheduler.run_schedule_batched`):
   only the chunk *interleaving* depends on the replay, so the replay
   records order and nothing else.  Per-pool accumulation is per-thread
   program order and therefore hoisted out of the replay entirely.
4. **Collect** — the interleaved memory stream feeds the whole-trace
   locality engine (:mod:`repro.profiler.batch`), branch statistics go
   through an optional content-addressed memo, and ILP tables are
   mega-batched per width bucket with an
   :class:`~repro.profiler.ilp_batch.ILPTableCache`.

The scalar per-chunk path is preserved as the executable spec
(:func:`profile_workload_reference`, :func:`_prepare_block`); the
equivalence suite pins identical profiles between the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.lru import LRUCache
from repro.obs import span
from repro.profiler.batch import PoolLocality, replay_data, replay_fetch
from repro.profiler.branchprof import cached_branch_stats
from repro.profiler.histogram import RDHistogram
from repro.profiler.ilp import MICROTRACE_LEN
from repro.profiler.ilp_batch import ILPTableCache, build_ilp_tables
from repro.profiler.profile import (
    DataLocalityStats,
    EpochProfile,
    ILPTable,
    SegmentRef,
    ThreadProfile,
    WorkloadProfile,
)
from repro.runtime.chunking import _NONE_EVENT, chunk_offsets, chunk_trace
from repro.runtime.scheduler import run_schedule, run_schedule_batched
from repro.workloads.engine import expand
from repro.workloads.ir import (
    OP_BRANCH,
    OP_CLASSES,
    OP_LOAD,
    OP_STORE,
    PC_SLOTS_PER_LINE,
    TraceBlock,
    WorkloadTrace,
    fetch_lines,
    instruction_pcs,
)
from repro.workloads.spec import WorkloadSpec

#: Upper bound on branch outcomes retained per pool for entropy analysis.
_BRANCH_CAP = 100_000
#: Micro-trace samples retained per pool for ILP analysis.
ILP_SAMPLES_PER_POOL = 6
#: Segments shorter than this are not sampled for ILP (too little
#: dependence structure to be representative).
ILP_MIN_SEGMENT = 64


def ilp_sample(block: TraceBlock) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The micro-trace sample the profiler retains for one segment.

    Returns ``None`` for segments below :data:`ILP_MIN_SEGMENT` ops;
    otherwise the first :data:`~repro.profiler.ilp.MICROTRACE_LEN`
    (op, dep) entries, uncopied.  This is the single definition of the
    retention policy — the bench harness replays exactly these samples,
    so keep it in sync by construction.
    """
    n = block.n_instructions
    if n < ILP_MIN_SEGMENT:
        return None
    take = min(n, MICROTRACE_LEN)
    return block.op[:take], block.dep[:take]


class _PoolAccum:
    """Mutable accumulator for one (thread, code-region) pool."""

    __slots__ = (
        "key", "index", "n_instructions", "n_segments", "class_counts",
        "branch_streams", "branch_stored", "ilp_samples",
        "loads", "chained_loads", "locality", "ifetch", "n_fetches",
    )

    def __init__(self, key: int, index: int) -> None:
        self.key = key
        #: Position in the profile-wide pool list (chunk attribution
        #: index for the batch locality engine).
        self.index = index
        self.n_instructions = 0
        self.n_segments = 0
        self.class_counts = np.zeros(len(OP_CLASSES), dtype=np.int64)
        self.branch_streams: List[Tuple[np.ndarray, np.ndarray]] = []
        self.branch_stored = 0
        self.ilp_samples: List[Tuple[np.ndarray, np.ndarray]] = []
        self.loads = 0
        self.chained_loads = 0
        self.locality = PoolLocality()
        self.ifetch = RDHistogram()
        self.n_fetches = 0

    def finalize(
        self,
        ilp: ILPTable,
        branch_cache: Optional[LRUCache] = None,
    ) -> EpochProfile:
        return EpochProfile(
            key=self.key,
            n_instructions=self.n_instructions,
            n_segments=self.n_segments,
            class_counts=self.class_counts,
            ilp=ilp,
            branch=cached_branch_stats(self.branch_streams, branch_cache),
            data=DataLocalityStats(
                private=self.locality.private_hist(),
                shared=self.locality.shared_hist(),
                n_accesses=self.locality.n_accesses,
                n_stores=self.locality.n_stores,
            ),
            ifetch=self.ifetch,
            n_fetches=self.n_fetches,
            load_chain_frac=(
                self.chained_loads / self.loads if self.loads else 0.0
            ),
            # The micro-traces double as the profile's raw dependence
            # samples; sharing the list (the accumulator is discarded
            # after finalize) avoids a second copy of every sample.
            samples=self.ilp_samples,
        )


class _SegmentPrep:
    """Derived per-segment views, computed once before the replay."""

    __slots__ = (
        "n", "key", "class_counts", "mem_addr", "mem_store",
        "branch_pcs", "branch_taken", "loads", "chained_loads",
        "fetch", "ilp_op", "ilp_dep",
    )


def _prepare_block(block: TraceBlock) -> _SegmentPrep:
    """Hoisted per-segment index computations (the executable spec).

    The vectorized fast path computes the same artifacts arena-wide in
    :func:`_segment_static`; this per-chunk form is what the
    equivalence suite checks it against.
    """
    prep = _SegmentPrep()
    n = block.n_instructions
    prep.n = n
    if n == 0:
        # Zero-length segments (pure-sync epochs) still flow through
        # consumers that touch every slot — leave none unset.
        prep.key = None
        prep.class_counts = np.zeros(len(OP_CLASSES), dtype=np.int64)
        prep.mem_addr = np.zeros(0, dtype=np.int64)
        prep.mem_store = np.zeros(0, dtype=bool)
        prep.branch_pcs = None
        prep.branch_taken = None
        prep.loads = 0
        prep.chained_loads = 0
        prep.fetch = np.zeros(0, dtype=np.int64)
        prep.ilp_op = None
        prep.ilp_dep = None
        return prep
    prep.key = int(block.iline[0])
    prep.class_counts = block.class_counts()

    is_load = block.op == OP_LOAD
    is_store = block.op == OP_STORE
    mem_idx = np.flatnonzero(is_load | is_store)
    prep.mem_addr = block.addr[mem_idx]
    prep.mem_store = is_store[mem_idx]

    br_idx = np.flatnonzero(block.op == OP_BRANCH)
    if len(br_idx):
        prep.branch_pcs = instruction_pcs(block)[br_idx]
        prep.branch_taken = block.taken[br_idx].astype(np.int64)
    else:
        prep.branch_pcs = None
        prep.branch_taken = None

    load_idx = np.flatnonzero(is_load)
    prep.loads = len(load_idx)
    prep.chained_loads = 0
    if len(load_idx):
        d = block.dep[load_idx]
        producers = load_idx - d
        valid = (d > 0) & (producers >= 0)
        if valid.any():
            prep.chained_loads = int(
                (block.op[producers[valid]] == OP_LOAD).sum()
            )

    prep.fetch = fetch_lines(block)
    sample = ilp_sample(block)
    if sample is not None:
        prep.ilp_op, prep.ilp_dep = sample
    else:
        prep.ilp_op = None
        prep.ilp_dep = None
    return prep


# ---------------------------------------------------------------------------
# Vectorized fast path: arena-wide static precompute + batched replay
# ---------------------------------------------------------------------------


class _KeyRun:
    """One maximal run of consecutive same-key chunks in a segment.

    Pool accumulation happens per run, not per chunk: within a run the
    memory / branch / fetch streams are contiguous slices, so the
    per-chunk loop of the spec collapses to a handful of slot updates.
    """

    __slots__ = (
        "key", "n_chunks", "n_instructions", "class_counts", "loads",
        "mem_lo", "mem_hi", "br_lo", "br_cum", "fetch_lo", "fetch_hi",
    )


class _SegmentStatic:
    """Arena-wide static artifacts of one segment at one chunk size.

    A pure function of the block's op/iline columns — the content the
    engine's :attr:`~repro.workloads.ir.TraceBlock.static_key`
    identifies — so instances are shared across every segment expanded
    from the same static code.  All per-chunk data is exposed as
    boundary arrays over whole-segment arrays: consumers slice
    zero-copy views instead of materializing per-chunk objects.
    """

    __slots__ = (
        "n", "n_chunks", "offsets", "keys", "durations", "none_events",
        "runs", "run_of_chunk", "op",
        "mem_idx", "mem_store", "mem_counts",
        "br_idx", "branch_pcs",
        "load_idx", "load_lo", "load_run",
        "fetch_lines", "ilp_entries", "nbytes",
    )


def _segment_static(block: TraceBlock, chunk: int) -> _SegmentStatic:
    """One vectorized pass deriving every static artifact of a segment."""
    st = _SegmentStatic()
    n = block.n_instructions
    st.n = n
    offsets = chunk_offsets(n, chunk)
    st.offsets = offsets
    n_chunks = len(offsets) - 1
    st.n_chunks = n_chunks
    if n == 0:
        st.keys = np.zeros(0, dtype=np.int64)
        st.durations = [0.0]
        st.none_events = []
        st.runs = []
        st.run_of_chunk = np.zeros(0, dtype=np.int32)
        st.op = None
        st.mem_idx = np.zeros(0, dtype=np.int64)
        st.mem_store = np.zeros(0, dtype=bool)
        st.mem_counts = np.zeros(1, dtype=np.int64)
        st.br_idx = np.zeros(0, dtype=np.int64)
        st.branch_pcs = np.zeros(0, dtype=np.int64)
        st.load_idx = np.zeros(0, dtype=np.int64)
        st.load_lo = np.zeros(0, dtype=np.int64)
        st.load_run = np.zeros(0, dtype=np.int32)
        st.fetch_lines = np.zeros(0, dtype=np.int64)
        st.ilp_entries = []
        st.nbytes = 256
        return st

    op = block.op
    iline = block.iline
    st.op = op
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    st.keys = iline[starts].astype(np.int64, copy=True)
    st.durations = [float(s) for s in sizes]
    st.none_events = [_NONE_EVENT] * (n_chunks - 1)

    # Per-chunk operand-class counts, one fused bincount.
    n_classes = len(OP_CLASSES)
    chunk_of = np.repeat(np.arange(n_chunks, dtype=np.int64), sizes)
    class_mat = np.bincount(
        chunk_of * n_classes + op, minlength=n_chunks * n_classes
    ).reshape(n_chunks, n_classes).astype(np.int64)

    is_load = op == OP_LOAD
    is_store = op == OP_STORE
    mem_idx = np.flatnonzero(is_load | is_store)
    st.mem_idx = mem_idx
    st.mem_store = is_store[mem_idx]
    mem_bounds = np.searchsorted(mem_idx, offsets)
    st.mem_counts = np.diff(mem_bounds)

    br_idx = np.flatnonzero(op == OP_BRANCH)
    st.br_idx = br_idx
    br_bounds = np.searchsorted(br_idx, offsets)

    # Synthetic PCs, arena-wide, with the per-chunk offset reset the
    # spec gets from computing instruction_pcs per chunk view.
    pos = np.arange(n, dtype=np.int64)
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    changed[1:] = iline[1:] != iline[:-1]
    changed[starts] = True
    line_start = np.maximum.accumulate(np.where(changed, pos, 0))
    offset_in_line = np.minimum(pos - line_start, PC_SLOTS_PER_LINE - 1)
    st.branch_pcs = (iline * PC_SLOTS_PER_LINE + offset_in_line)[br_idx]

    # Fetch stream: one fetch per line transition, chunk starts forced
    # (the spec's per-chunk fetch_lines always fetches the first line).
    fetch_pos = np.flatnonzero(changed)
    st.fetch_lines = iline[fetch_pos]
    fetch_bounds = np.searchsorted(fetch_pos, offsets)

    load_idx = np.flatnonzero(is_load)
    st.load_idx = load_idx
    load_chunk = np.searchsorted(offsets, load_idx, side="right") - 1
    st.load_lo = offsets[load_chunk]
    load_bounds = np.searchsorted(load_idx, offsets)
    loads_per_chunk = np.diff(load_bounds)

    # Maximal runs of consecutive same-key chunks.
    keys = st.keys
    run_starts = np.flatnonzero(
        np.concatenate(([True], keys[1:] != keys[:-1]))
    )
    run_edges = np.append(run_starts, n_chunks)
    run_of_chunk = np.repeat(
        np.arange(len(run_starts), dtype=np.int32), np.diff(run_edges)
    )
    st.run_of_chunk = run_of_chunk
    st.load_run = run_of_chunk[load_chunk] if len(load_idx) else (
        np.zeros(0, dtype=np.int32)
    )
    runs: List[_KeyRun] = []
    for a, b in zip(run_edges[:-1], run_edges[1:]):
        run = _KeyRun()
        run.key = int(keys[a])
        run.n_chunks = int(b - a)
        run.n_instructions = int(offsets[b] - offsets[a])
        run.class_counts = class_mat[a:b].sum(axis=0)
        run.loads = int(load_bounds[b] - load_bounds[a])
        run.mem_lo = int(mem_bounds[a])
        run.mem_hi = int(mem_bounds[b])
        run.br_lo = int(br_bounds[a])
        #: Cumulative branch counts at the run's chunk edges (relative
        #: to the run) — the chunk-granular retention cap needs them.
        run.br_cum = br_bounds[a:b + 1] - br_bounds[a]
        run.fetch_lo = int(fetch_bounds[a])
        run.fetch_hi = int(fetch_bounds[b])
        runs.append(run)
    st.runs = runs

    # ILP-eligible chunks in order: (run, lo, take, static op slice).
    st.ilp_entries = []
    for c in np.flatnonzero(sizes >= ILP_MIN_SEGMENT):
        lo = int(offsets[c])
        take = int(min(sizes[c], MICROTRACE_LEN))
        st.ilp_entries.append(
            (int(run_of_chunk[c]), lo, take, op[lo:lo + take])
        )

    st.nbytes = int(
        op.nbytes + st.keys.nbytes + offsets.nbytes + mem_idx.nbytes
        + st.mem_store.nbytes + st.mem_counts.nbytes + br_idx.nbytes
        + st.branch_pcs.nbytes + load_idx.nbytes + st.load_lo.nbytes
        + st.load_run.nbytes + run_of_chunk.nbytes
        + st.fetch_lines.nbytes + 64 * max(len(runs), 1)
    )
    return st


#: Segment-prep entries a :class:`SegmentPrepCache` keeps, and their
#: byte bound.
PREP_MAX_ENTRIES = 4096
PREP_MAX_BYTES = 256 << 20


class SegmentPrepCache:
    """Bounded memo of per-``(static_key, chunk)`` segment precompute.

    Keyed by the expansion engine's static-artifact identity
    (:func:`repro.workloads.engine.static_block_key`): blocks with
    equal keys have bit-identical op/iline columns, so their static
    prep is interchangeable.  Blocks without a key (hand-built traces,
    pre-key store payloads) bypass the cache and compute directly.
    """

    def __init__(self) -> None:
        self._memo = LRUCache(PREP_MAX_ENTRIES, PREP_MAX_BYTES)

    def get(self, block: TraceBlock, chunk: int) -> _SegmentStatic:
        if block.static_key is None:
            return _segment_static(block, chunk)
        key = (block.static_key, chunk)
        st = self._memo.get(key)
        if st is None:
            st = _segment_static(block, chunk)
            self._memo.put(key, st)
        return st

    def stats(self) -> Dict[str, int]:
        return self._memo.stats()


#: Shared prep memo for sessionless calls (mirrors ``default_engine``).
_DEFAULT_PREP_CACHE = SegmentPrepCache()


def _chained_per_run(
    st: _SegmentStatic, block: TraceBlock
) -> Optional[np.ndarray]:
    """Per-run chained-load counts (the one dep-dependent statistic)."""
    load_idx = st.load_idx
    if not len(load_idx):
        return None
    d = block.dep[load_idx]
    producers = load_idx - d
    # Chunk-local validity: the spec resolves a producer only when it
    # falls inside the same chunk as its load.
    valid = (d > 0) & (producers >= st.load_lo)
    if not valid.any():
        return None
    chain = st.op[producers[valid]] == OP_LOAD
    if not chain.any():
        return None
    return np.bincount(st.load_run[valid][chain], minlength=len(st.runs))


class _ThreadPlan:
    """Per-thread replay program plus the arrays data emission needs."""

    __slots__ = (
        "events", "durations", "refs", "fetch_sched",
        "chunk_pool", "pool_cuts", "mem_bounds", "mem_addr", "mem_store",
    )


def _profile_trace(
    trace: WorkloadTrace,
    chunk: int,
    ilp_cache: Optional[ILPTableCache],
    branch_cache: Optional[LRUCache],
    prep_cache: SegmentPrepCache,
) -> WorkloadProfile:
    """The vectorized profiling pipeline (prepare -> replay -> collect)."""
    n_threads = trace.n_threads
    pools: Dict[Tuple[int, int], _PoolAccum] = {}
    pool_list: List[_PoolAccum] = []
    plans: List[_ThreadPlan] = []

    with span("profile.prepare", threads=n_threads):
        for t in trace.threads:
            tid = t.thread_id
            plan = _ThreadPlan()
            events: List = []
            durations: List[float] = []
            refs: List[SegmentRef] = []
            fetch_sched: List[Tuple[int, np.ndarray]] = []
            chunk_pool_parts: List[np.ndarray] = []
            mem_count_parts: List[np.ndarray] = []
            mem_addr_parts: List[np.ndarray] = []
            mem_store_parts: List[np.ndarray] = []

            for seg in t.segments:
                block = seg.block
                st = prep_cache.get(block, chunk)
                durations.extend(st.durations)
                mem_count_parts.append(st.mem_counts)
                if st.n == 0:
                    events.append(seg.event)
                    refs.append(SegmentRef(
                        epoch=seg.epoch, label=seg.label, event=seg.event,
                        n_instructions=0, key=None,
                    ))
                    chunk_pool_parts.append(_EMPTY_POOL)
                    continue
                events.extend(st.none_events)
                events.append(seg.event)
                keys = st.keys
                offsets = st.offsets
                for c in range(st.n_chunks - 1):
                    refs.append(SegmentRef(
                        epoch=seg.epoch, label=seg.label, event=_NONE_EVENT,
                        n_instructions=int(offsets[c + 1] - offsets[c]),
                        key=int(keys[c]),
                    ))
                refs.append(SegmentRef(
                    epoch=seg.epoch, label=seg.label, event=seg.event,
                    n_instructions=int(offsets[-1] - offsets[-2]),
                    key=int(keys[-1]),
                ))

                taken_br = (
                    block.taken[st.br_idx].astype(np.int64)
                    if len(st.br_idx) else None
                )
                seg_run_pools: List[_PoolAccum] = []
                for run in st.runs:
                    accum = pools.get((tid, run.key))
                    if accum is None:
                        accum = _PoolAccum(run.key, len(pool_list))
                        pools[(tid, run.key)] = accum
                        pool_list.append(accum)
                    seg_run_pools.append(accum)
                    accum.n_instructions += run.n_instructions
                    accum.n_segments += run.n_chunks
                    accum.class_counts += run.class_counts
                    accum.loads += run.loads

                    n_br = int(run.br_cum[-1])
                    if n_br and accum.branch_stored < _BRANCH_CAP:
                        # The spec appends whole chunks while the pool's
                        # stored count is below the cap; reproduce that
                        # chunk-granular cut, then append one merged slice.
                        room = _BRANCH_CAP - accum.branch_stored
                        k = int(np.searchsorted(
                            run.br_cum[:-1], room, side="left"
                        ))
                        take = int(run.br_cum[k]) if k < run.n_chunks else n_br
                        if take:
                            lo = run.br_lo
                            accum.branch_streams.append((
                                st.branch_pcs[lo:lo + take],
                                taken_br[lo:lo + take],
                            ))
                            accum.branch_stored += take

                    fetch_sched.append((
                        accum.index,
                        st.fetch_lines[run.fetch_lo:run.fetch_hi],
                    ))
                    accum.n_fetches += run.fetch_hi - run.fetch_lo

                chained = _chained_per_run(st, block)
                if chained is not None:
                    for r, cnt in enumerate(chained):
                        if cnt:
                            seg_run_pools[r].chained_loads += int(cnt)

                if st.ilp_entries and any(
                    len(p.ilp_samples) < ILP_SAMPLES_PER_POOL
                    for p in seg_run_pools
                ):
                    dep = block.dep
                    for r, lo, take, op_slice in st.ilp_entries:
                        p = seg_run_pools[r]
                        if len(p.ilp_samples) < ILP_SAMPLES_PER_POOL:
                            p.ilp_samples.append(
                                (op_slice, dep[lo:lo + take].copy())
                            )

                mem_addr_parts.append(block.addr[st.mem_idx])
                mem_store_parts.append(st.mem_store)
                pool_per_run = np.fromiter(
                    (p.index for p in seg_run_pools),
                    dtype=np.int32, count=len(seg_run_pools),
                )
                chunk_pool_parts.append(pool_per_run[st.run_of_chunk])

            plan.events = events
            plan.durations = durations
            plan.refs = refs
            plan.fetch_sched = fetch_sched
            chunk_pool = (
                np.concatenate(chunk_pool_parts) if chunk_pool_parts
                else np.zeros(0, dtype=np.int32)
            )
            plan.chunk_pool = chunk_pool
            plan.pool_cuts = np.flatnonzero(
                chunk_pool[1:] != chunk_pool[:-1]
            ) + 1
            mem_counts = (
                np.concatenate(mem_count_parts) if mem_count_parts
                else np.zeros(0, dtype=np.int64)
            )
            plan.mem_bounds = np.concatenate(
                ([0], np.cumsum(mem_counts))
            )
            plan.mem_addr = (
                np.concatenate(mem_addr_parts) if mem_addr_parts
                else np.zeros(0, dtype=np.int64)
            )
            plan.mem_store = (
                np.concatenate(mem_store_parts) if mem_store_parts
                else np.zeros(0, dtype=bool)
            )
            plans.append(plan)

    with span("profile.replay"):
        # Replay: only the chunk interleaving depends on it.
        result = run_schedule_batched(
            [plan.events for plan in plans],
            [plan.durations for plan in plans],
        )

    with span("profile.collect", pools=len(pool_list)):
        # Emit the interleaved memory stream, one entry per maximal
        # same-pool sub-stride (merging adjacent same-pool chunks is
        # exactly equivalent for the batch locality engine).
        data_schedule: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
        for tid, lo, hi in result.order:
            plan = plans[tid]
            cuts = plan.pool_cuts
            chunk_pool = plan.chunk_pool
            bounds = plan.mem_bounds
            ci = int(np.searchsorted(cuts, lo, side="right"))
            a = lo
            while a < hi:
                if ci < len(cuts) and cuts[ci] < hi:
                    b = int(cuts[ci])
                    ci += 1
                else:
                    b = hi
                mlo = int(bounds[a])
                mhi = int(bounds[b])
                if mhi > mlo:
                    data_schedule.append((
                        tid, int(chunk_pool[a]),
                        plan.mem_addr[mlo:mhi], plan.mem_store[mlo:mhi],
                    ))
                a = b

        replay_data(data_schedule, n_threads, [a.locality for a in pool_list])
        ifetch_hists = [a.ifetch for a in pool_list]
        for plan in plans:
            replay_fetch(plan.fetch_sched, ifetch_hists)

        ilp_tables = build_ilp_tables(
            [a.ilp_samples for a in pool_list], cache=ilp_cache
        )

        threads: List[ThreadProfile] = []
        for t in trace.threads:
            thread_pools = {
                key: accum.finalize(ilp_tables[accum.index], branch_cache)
                for (tid, key), accum in pools.items()
                if tid == t.thread_id
            }
            threads.append(ThreadProfile(
                thread_id=t.thread_id,
                segments=plans[t.thread_id].refs,
                pools=thread_pools,
            ))
    return WorkloadProfile(
        name=trace.name,
        n_threads=n_threads,
        threads=threads,
        seed=trace.seed,
    )


#: Pool marker for the single chunk of a zero-length segment.
_EMPTY_POOL = np.full(1, -1, dtype=np.int32)


def profile_workload(
    workload: Union[WorkloadSpec, WorkloadTrace],
    chunk: int = 4096,
    session=None,
) -> WorkloadProfile:
    """Profile a workload once, for use across all target configurations.

    Parameters
    ----------
    workload:
        A spec (expanded deterministically) or an already-expanded trace.
    chunk:
        Interleaving granularity of the functional replay, in
        instructions.  Smaller chunks approximate instruction-grain
        interleaving more closely at higher profiling cost.
    session:
        Optional :class:`repro.core.session.Session` providing the
        artifact caches — trace expansion, per-pool ILP tables, branch
        statistics and segment precompute — plus usage counters.  This
        is the one cache surface; construct it with
        ``Session.from_store(...)`` or ``Session.ephemeral()``.
    """
    ilp_cache = branch_cache = None
    prep_cache = _DEFAULT_PREP_CACHE
    if session is not None:
        ilp_cache = session.ilp
        branch_cache = session.branches
        prep_cache = session.prep
        session.record("profiles")
    if isinstance(workload, WorkloadSpec):
        trace = (
            session.traces.get(workload) if session is not None
            else expand(workload)
        )
    else:
        trace = workload
    with span("profile", workload=trace.name, chunk=chunk):
        return _profile_trace(
            trace, chunk, ilp_cache, branch_cache, prep_cache
        )


def profile_workload_reference(
    workload: Union[WorkloadSpec, WorkloadTrace],
    chunk: int = 4096,
    ilp_cache: Optional[ILPTableCache] = None,
    trace_cache=None,
) -> WorkloadProfile:
    """The per-chunk scalar profiling pipeline (the executable spec).

    Chunks the trace, prepares every chunk with :func:`_prepare_block`,
    replays through the event-at-a-time DES scheduler and accumulates
    pools inside the execute callback — the original implementation,
    preserved verbatim so the equivalence suite can pin the vectorized
    fast path against it (identical profiles, same pool content).
    """
    if isinstance(workload, WorkloadSpec):
        trace = (
            trace_cache.get(workload) if trace_cache is not None
            else expand(workload)
        )
    else:
        trace = workload
    ctrace = chunk_trace(trace, chunk)
    n_threads = ctrace.n_threads

    preps = [
        [_prepare_block(seg.block) for seg in t.segments]
        for t in ctrace.threads
    ]
    pools: Dict[Tuple[int, int], _PoolAccum] = {}
    pool_list: List[_PoolAccum] = []
    #: Chunk interleaving in execution order, consumed by the batch
    #: locality engine after the replay.
    data_schedule: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    fetch_schedule: List[List[Tuple[int, np.ndarray]]] = [
        [] for _ in range(n_threads)
    ]

    def _pool(tid: int, key: int) -> _PoolAccum:
        accum = pools.get((tid, key))
        if accum is None:
            accum = _PoolAccum(key, len(pool_list))
            pools[(tid, key)] = accum
            pool_list.append(accum)
        return accum

    def execute(tid: int, idx: int, start: float) -> float:
        prep = preps[tid][idx]
        n = prep.n
        if n == 0:
            return 0.0
        accum = _pool(tid, prep.key)
        accum.n_instructions += n
        accum.n_segments += 1
        accum.class_counts += prep.class_counts

        if len(prep.mem_addr):
            data_schedule.append(
                (tid, accum.index, prep.mem_addr, prep.mem_store)
            )

        if prep.branch_pcs is not None and accum.branch_stored < _BRANCH_CAP:
            accum.branch_streams.append(
                (prep.branch_pcs, prep.branch_taken)
            )
            accum.branch_stored += len(prep.branch_pcs)

        if (
            len(accum.ilp_samples) < ILP_SAMPLES_PER_POOL
            and prep.ilp_op is not None
        ):
            accum.ilp_samples.append(
                (prep.ilp_op.copy(), prep.ilp_dep.copy())
            )

        accum.loads += prep.loads
        accum.chained_loads += prep.chained_loads

        if len(prep.fetch):
            fetch_schedule[tid].append((accum.index, prep.fetch))
            accum.n_fetches += len(prep.fetch)
        return float(n)

    programs = [
        [seg.event for seg in t.segments] for t in ctrace.threads
    ]
    run_schedule(programs, execute)

    replay_data(
        data_schedule, n_threads, [a.locality for a in pool_list]
    )
    ifetch_hists = [a.ifetch for a in pool_list]
    for tid in range(n_threads):
        replay_fetch(fetch_schedule[tid], ifetch_hists)

    # One fused lockstep advance per width bucket covers every pool's
    # samples (cache hits skip their pools entirely).
    ilp_tables = build_ilp_tables(
        [a.ilp_samples for a in pool_list], cache=ilp_cache
    )

    threads: List[ThreadProfile] = []
    for t in ctrace.threads:
        refs = []
        for seg in t.segments:
            n = seg.block.n_instructions
            key: Optional[int] = int(seg.block.iline[0]) if n else None
            refs.append(
                SegmentRef(
                    epoch=seg.epoch,
                    label=seg.label,
                    event=seg.event,
                    n_instructions=n,
                    key=key,
                )
            )
        thread_pools = {
            key: accum.finalize(ilp_tables[accum.index])
            for (tid, key), accum in pools.items()
            if tid == t.thread_id
        }
        threads.append(
            ThreadProfile(
                thread_id=t.thread_id, segments=refs, pools=thread_pools
            )
        )
    return WorkloadProfile(
        name=ctrace.name,
        n_threads=n_threads,
        threads=threads,
        seed=ctrace.seed,
    )
