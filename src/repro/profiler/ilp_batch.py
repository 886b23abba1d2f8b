"""Fused flat-grid ILP scoreboard engine.

:func:`repro.profiler.ilp.scoreboard_replay` advances a dependence
scoreboard one op at a time, once per (sample, window, load-latency)
grid point — O(samples x windows x lats x len) Python-level steps, the
dominant profiling cost after the reuse-distance engine was vectorized.
This module stacks all micro-trace samples into lockstep arrays and
advances the *same* recurrence one instruction-step at a time across
the whole (samples x windows x lats) grid simultaneously, so the
Python loop is O(width) total:

* ``comp[i]  = max(commit[i - W], comp[i - dep[i]]) + lat[i]``
  evaluated as one flat-grid array step,
* ``commit[i] = max(commit[i - 1], comp[i])`` as a running maximum,
* the branch backward-slice load counts and the per-window load-chain
  depths of :func:`repro.profiler.ilp.load_parallelism` ride along in
  the same pass, so one loop yields the full
  :class:`~repro.profiler.profile.ILPTable`.

The kernel is *fused*: the (window, sample, latency) axes are kept as
one contiguous grid, every gather (producer completion, window
dispatch, and the slice-load and chain-depth counts, which share one
history) is a single ``np.take`` driven by index tables precomputed
once per batch, invalid/out-of-reach lookups are redirected to an
all-zero sentinel row instead of masked with ``np.where``, and every
per-step result lands in a preallocated scratch row (``out=``
throughout; a gather writes a row of its own, never one of the history
it reads, or NumPy would copy through a temporary) —
:data:`DISPATCHES_PER_STEP` NumPy dispatches per instruction step and
**zero per-step allocations** (regression-tested).  All of a call's
buffers are views carved from one grow-only scratch arena per thread
(:func:`carve`), at most :data:`_WORKSPACE_MAX_BYTES`, which the
reuse-distance replays of :mod:`repro.profiler.batch` share: a thread
keeps the scratch of its largest call, and a call above the budget
gets use-once buffers.
Chunk flushes and branch accumulation are integer-valued, so they move
out of the loop entirely and are reduced exactly after it.

On top of the kernel, :func:`batch_scoreboard_pools` mega-batches an
entire suite: the samples of *many* pools are stacked into one
lockstep grid per width bucket (power-of-two widths bound padding
waste below 2x), so the Python-level loop is paid once per bucket
rather than once per pool.  ``profile_workload`` and
:class:`ILPTableCache` misses route through it, and the per-op-latency
prediction path (:func:`batch_hierarchy_ilp`) reuses the same fused
kernel with the auxiliary outputs disabled.

Samples of unequal length are padded with no-ops; every per-sample
readout (makespan, branch counts, chunk flushes) indexes the true
length, so padding never leaks into results and a sample's row is
independent of what it is batched with.  The recurrence is the scalar
spec's max/add sequence, per element.  Its values are exact in
integers: ``CANONICAL_LAT`` and ``LOAD_LAT_GRID`` are integers, and a
completion time never exceeds the step count times the largest
latency (128,000 at 512 steps), so the profiling grid runs int32
histories, whose max/add give the very values float64 max/add give on
the same integers.  The history dtype follows the latency array
(:func:`_history_dtype`): float per-op latencies
(:func:`batch_hierarchy_ilp`), or an integer grid whose bound could
reach 2**31, run the same loop in float64.  Either way the tables
agree bit for bit with :func:`repro.profiler.ilp.scoreboard_replay`,
the preserved executable spec, and are pinned bit-identical across
arbitrary bucketings.

Because the profiling grid is microarchitecture-*independent*, the
tables are also memoized: :class:`ILPTableCache` keys a pool's table
by a content digest of its samples and grids (in-process dict backed
by the on-disk :class:`~repro.experiments.store.ProfileStore`), so
design-space sweeps never rebuild a table for dependence structure
they have already profiled.  The digest is bucketing-independent, so
tables persisted before the fused kernel stay valid.
"""

from __future__ import annotations

import hashlib
import math
import threading
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.counters import Counters
from repro.lru import LRUCache
from repro.obs import span
from repro.profiler.ilp import (
    CANONICAL_LAT,
    LOAD_LAT_GRID,
    WINDOW_GRID,
)
from repro.profiler.profile import ILPTable
from repro.workloads.ir import OP_BRANCH, OP_LOAD

#: One micro-trace sample: (op codes, backward dependence distances).
Sample = Tuple[np.ndarray, np.ndarray]

#: NumPy dispatches per instruction step in the fused ILP recurrence
#: (ready gather, dispatch gather, max, latency add, commit max).
CORE_DISPATCHES_PER_STEP = 5
#: Extra dispatches when the auxiliary branch-slice / load-chain
#: outputs are on (one history holds both: sentinel gather, reach and
#: chunk mask multiply, load-increment add).
AUX_DISPATCHES_PER_STEP = 3
#: Total per-step dispatches of a full-table advance.
DISPATCHES_PER_STEP = CORE_DISPATCHES_PER_STEP + AUX_DISPATCHES_PER_STEP


class KernelStats(Counters):
    """Process-wide fused-kernel counters (monotonic, thread-safe).

    Surfaced by the serving subsystem's ``/healthz`` and diffed by the
    bench harness for the ``kernel`` section of ``BENCH_profiler.json``
    — the observability face of the mega-batching trajectory.
    """

    def __init__(self) -> None:
        super().__init__(
            "pools", "samples", "buckets", "batches", "steps",
            "dispatches", "grid_slots", "occupied_slots",
        )

    def snapshot(self) -> Dict[str, float]:
        """Counter snapshot plus the derived bucket fill ratio."""
        out: Dict[str, float] = super().snapshot()
        out["bucket_fill"] = (
            out["occupied_slots"] / out["grid_slots"]
            if out["grid_slots"] else 1.0
        )
        return out


#: The process-wide counter instance every kernel entry point feeds.
KERNEL_STATS = KernelStats()


class _Workspace:
    """One call's buffers and static tables, carved from its thread's arena.

    Every :func:`batch_scoreboard` call carves its histories, content
    buffers, static index tables and scratch rows from the thread's
    scratch arena (:func:`carve`) as contiguous views of the call's
    exact shape, so a call of any shape reuses pages an earlier call
    (or :func:`repro.profiler.batch.replay_data`) already touched.
    Every history row is fully overwritten at its step before any
    gather reads it, so only the gather sentinel row and the
    running-max seed row are cleared per call: a row an earlier,
    larger grid left in the arena is never read.

    ``comp`` and ``commit`` are window-major, ``(N + 1, W, S, L)`` of
    ``dtype`` (int32 or float64, see :func:`_history_dtype`): a commit
    gather is ``W`` slab copies and the latency row ``(S, L)``
    broadcasts over the outer axis.  The branch-slice and load-chain
    counts share one sample-major history, ``(N + 1, S, 2, W)`` of the
    narrowest signed integer that holds ``N``, so one gather serves
    both.
    """

    __slots__ = (
        "steps", "comp", "commit", "disp_buf", "disp_slabs",
        "gather_buf", "comp_cells", "commit_slabs", "comp_idx",
        "disp_idx", "prod_rows", "valid_t", "bool_ns", "lat_steps",
        "aux_hist", "aux_cells", "aux_rows", "aux_buf", "aux_mask",
        "imod", "bool3", "load_step", "comp_grids", "commit_rows",
        "lat_rows", "comp_list", "disp_list", "prod_list", "hrow_list",
        "mask_list", "load_list",
    )

    def __init__(
        self, n: int, s: int, w: int, lats: int, aux: bool,
        w_arr: np.ndarray, dtype: type,
    ) -> None:
        b1, ip = np.bool_, np.intp
        # Histories: row N of comp is the all-zero gather sentinel,
        # commit row 0 the pre-step running max.  Gathers land in
        # ``gather_buf`` / ``disp_buf`` / ``aux_buf``, never in the
        # history they read: NumPy would copy through a temporary for
        # an ``out=`` that may share memory with the source.
        shapes = {
            "comp": ((n + 1, w, s, lats), dtype),
            "commit": ((n + 1, w, s, lats), dtype),
            "disp_buf": ((w, s, lats), dtype),
            "gather_buf": ((w, s, lats), dtype),
            "comp_idx": ((n, w, s), ip),
            "disp_idx": ((n, w), ip),
            "prod_rows": ((n, s), ip),
            "valid_t": ((n, s), b1),
            "bool_ns": ((n, s), b1),
            "lat_steps": ((n, s, lats), dtype),
        }
        if aux:
            count_t = np.min_scalar_type(-n)
            shapes.update(
                aux_hist=((n + 1, s, 2, w), count_t),
                aux_mask=((n, s, 2, w), count_t),
                aux_buf=((s, 2, w), count_t),
                load_step=((n, s, 1, 1), count_t),
                imod=((n, w), np.int64),
                bool3=((n, s, w), b1),
            )
        else:
            self.aux_hist = self.aux_cells = None
            self.aux_rows = self.aux_buf = None
            self.aux_mask = self.load_step = None
            self.imod = self.bool3 = None
        for name, view in zip(shapes, carve(shapes.values())):
            setattr(self, name, view)

        steps = self.steps = np.arange(n, dtype=np.int64)
        self.comp_cells = self.comp.reshape((n + 1) * w * s, lats)
        self.commit_slabs = self.commit.reshape((n + 1) * w, s * lats)
        self.disp_slabs = self.disp_buf.reshape(w, s * lats)
        self.comp[n] = 0
        self.commit[0] = 0

        # Dispatch index table: commit row i - w + 1 (row 0 while the
        # window has not filled), slab (row, w).
        np.subtract(steps[:, None], w_arr[None, :] - 1, out=self.disp_idx)
        np.maximum(self.disp_idx, 0, out=self.disp_idx)
        np.multiply(self.disp_idx, w, out=self.disp_idx)
        np.add(self.disp_idx, np.arange(w), out=self.disp_idx)
        if aux:
            self.aux_cells = self.aux_hist.reshape((n + 1) * s, 2 * w)
            self.aux_rows = self.aux_buf.reshape(s, 2 * w)
            self.aux_hist[n] = 0
            np.remainder(steps[:, None], w_arr[None, :], out=self.imod)

        # Per-step row views, materialized once per call: the loop body
        # then performs no indexing-driven allocation at all.
        self.comp_grids = list(self.comp[:n])
        self.commit_rows = list(self.commit)
        self.lat_rows = list(self.lat_steps)
        self.comp_list = list(self.comp_idx)
        self.disp_list = list(self.disp_idx)
        if aux:
            self.prod_list = list(self.prod_rows)
            self.hrow_list = list(self.aux_hist[:n])
            self.mask_list = list(self.aux_mask)
            self.load_list = list(self.load_step)


_TLS = threading.local()
#: Byte budget of a thread's arena: a full-suite grid is ~113 MB, so
#: the suite's largest bucket fits, and a long-lived serving worker
#: that once profiled a huge workload does not pin gigabytes.
_WORKSPACE_MAX_BYTES = 768 * 2**20


def _arena(nbytes: int) -> np.ndarray:
    """``nbytes`` of scratch: the thread's arena, first grown to exactly
    ``nbytes`` if it is smaller.  A call above the budget gets use-once
    bytes and leaves the arena as it was."""
    if nbytes > _WORKSPACE_MAX_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    arena = getattr(_TLS, "arena", None)
    if arena is None or arena.nbytes < nbytes:
        _TLS.arena = None  # free the old pages before taking new ones
        arena = _TLS.arena = np.empty(nbytes, dtype=np.uint8)
    return arena


def carve(
    specs: Iterable[Tuple[Tuple[int, ...], type]],
) -> List[np.ndarray]:
    """Uninitialized arrays of the given ``(shape, dtype)`` specs, as
    64-byte-aligned views of the thread's scratch arena.

    The profiler's one scratch: the ILP kernel's workspace and the
    temporaries of :mod:`repro.profiler.batch`'s ``replay_data`` and
    ``replay_fetch`` all come from it, so a warmed thread maps no new
    pages per profile.  The
    views stay valid until the thread's next :func:`carve`, which may
    hand out the same bytes.
    """
    specs = list(specs)
    sizes = [
        -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
        for shape, dtype in specs
    ]
    arena, offset, views = _arena(sum(sizes)), 0, []
    for (shape, dtype), size in zip(specs, sizes):
        views.append(np.ndarray(shape, dtype, arena, offset))
        offset += size
    return views


def stack_samples(
    samples: Sequence[Sample],
    width: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad samples into lockstep ``(op, dep, lengths)`` arrays.

    Padding entries are no-ops (``op=0, dep=0``): they never produce
    loads, branches or valid dependences, and every readout below is
    gated on ``lengths``.  ``width`` pads to a caller-chosen grid
    width (the mega-batcher's bucket width) instead of the natural
    ``max(lengths)``; it must cover the longest sample.
    """
    n_samples = len(samples)
    lengths = np.array(
        [len(o) for o, _ in samples], dtype=np.int64
    ).reshape(n_samples)
    natural = int(lengths.max()) if n_samples else 0
    if width is None:
        width = natural
    elif width < natural:
        raise ValueError(
            f"stack width {width} below longest sample {natural}"
        )
    op = np.zeros((n_samples, width), dtype=np.int64)
    dep = np.zeros((n_samples, width), dtype=np.int64)
    for s, (o, d) in enumerate(samples):
        op[s, : lengths[s]] = np.asarray(o, dtype=np.int64)
        dep[s, : lengths[s]] = np.asarray(d, dtype=np.int64)
    return op, dep, lengths


def grid_latencies(
    op: np.ndarray, load_lats: Sequence[float]
) -> np.ndarray:
    """Per-op latencies for every grid latency: shape (S, N, L).

    Non-load classes take their canonical latency on every grid point;
    loads take the grid value.  An integer grid gives an integer array,
    which :func:`batch_scoreboard` advances in int32.
    """
    grid = np.asarray(load_lats)
    canon = np.asarray(CANONICAL_LAT, dtype=np.result_type(grid, np.int64))
    lat = np.repeat(canon[op][:, :, None], max(len(grid), 1), axis=2)
    lat[op == OP_LOAD] = grid
    return lat


#: Per-chunk maxima of a history column (``np.maximum.reduceat``).
_segment_max = np.maximum.reduceat


def _history_dtype(lat: np.ndarray, n: int) -> type:
    """The completion-history dtype of a grid of ``n`` steps.

    Every completion time is at most ``n`` times the largest latency,
    so when the latencies are integers and that bound is below 2**31,
    int32 max/add compute exactly the values float64 max/add would:
    float64 holds every such integer exactly, and rounds none of their
    sums.  Float latencies, or integers that could overflow, keep
    float64.
    """
    if lat.dtype.kind in "iu" and lat.size:
        if n * max(int(lat.max()), -int(lat.min())) < 2**31:
            return np.int32
    return np.float64


def batch_scoreboard(
    op: np.ndarray,
    dep: np.ndarray,
    lengths: np.ndarray,
    windows: Sequence[int],
    lat: np.ndarray,
    aux: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the scoreboard recurrence for all grid points at once.

    Parameters mirror :func:`stack_samples` / :func:`grid_latencies`;
    ``lat`` has shape (S, N, L) where L is the latency-grid axis (1 for
    the per-op-latency prediction path).  With ``aux=False`` the
    branch-slice and load-chain bookkeeping is skipped entirely
    (placeholder zeros / ones are returned) — the per-op-latency
    prediction path only consumes the ILP grid.

    Returns ``(ilp, branch_loads, load_par)`` with shapes
    (S, W, L), (S, W) and (S, W) — per-sample values, aggregated by the
    caller exactly as the scalar :func:`~repro.profiler.ilp.
    build_ilp_table` aggregates its per-sample replays.

    The advance is the fused flat-grid kernel described in the module
    docstring: index tables are built once per batch, the O(width)
    loop issues :data:`DISPATCHES_PER_STEP` contiguous NumPy ops per
    step into preallocated scratch rows, and allocates nothing.
    """
    n_samples, width = op.shape
    w_arr = np.asarray(windows, dtype=np.int64)
    n_windows = len(w_arr)
    if lat.ndim == 2:
        lat = lat[:, :, None]
    n_lats = lat.shape[2]
    if n_samples == 0 or width == 0:
        return (
            np.ones((n_samples, n_windows, n_lats)),
            np.zeros((n_samples, n_windows)),
            np.ones((n_samples, n_windows)),
        )
    S, N, W, L = n_samples, width, n_windows, n_lats

    is_load = op == OP_LOAD
    steps_sn = np.arange(N, dtype=np.int64)[None, :]
    in_range = steps_sn < lengths[:, None]
    is_branch = (op == OP_BRANCH) & in_range

    # -- workspace: histories, static tables, scratch (thread arena) ----
    ws = _Workspace(N, S, W, L, aux, w_arr, _history_dtype(lat, N))
    steps = ws.steps
    commit = ws.commit  # row 0: pre-step running max

    # -- per-call content tables, computed into reused buffers ----------
    # A producer is history row r = i - dep (row N, the all-zero
    # sentinel, when the dependence is invalid — replacing per-step
    # ``np.where`` masking).  In the window-major comp history its
    # cells are (r, w, s) for every window; in the sample-major aux
    # history, row r * S + s.  The aux gates (reach within the window,
    # producer inside the chunk) become exact {0, 1} mask multiplies:
    # every masked value is a non-negative count.
    dep_t = dep.T  # (N, S) view
    valid_t = ws.valid_t
    np.greater(dep_t, 0, out=valid_t)
    np.less_equal(dep_t, steps[:, None], out=ws.bool_ns)
    np.logical_and(valid_t, ws.bool_ns, out=valid_t)
    prod_rows = ws.prod_rows
    np.subtract(steps[:, None], dep_t, out=prod_rows)
    np.logical_not(valid_t, out=ws.bool_ns)
    prod_rows[ws.bool_ns] = N
    np.multiply(prod_rows[:, None, :], W * S, out=ws.comp_idx)
    np.add(
        ws.comp_idx,
        np.arange(W * S, dtype=np.intp).reshape(W, S),
        out=ws.comp_idx,
    )  # (N, W, S)
    np.copyto(ws.lat_steps, lat.transpose(1, 0, 2))  # (N, S, L)

    if aux:
        np.multiply(prod_rows, S, out=prod_rows)
        np.add(prod_rows, np.arange(S, dtype=np.intp), out=prod_rows)
        dep3 = dep_t[:, :, None]  # (N, S, 1)
        bool3 = ws.bool3
        np.less_equal(dep3, w_arr[None, None, :], out=bool3)
        np.logical_and(bool3, valid_t[:, :, None], out=bool3)
        np.copyto(ws.aux_mask[:, :, 0], bool3)  # slice reach
        np.less_equal(dep3, ws.imod[:, None, :], out=bool3)
        np.logical_and(bool3, valid_t[:, :, None], out=bool3)
        np.copyto(ws.aux_mask[:, :, 1], bool3)  # chain: same chunk
        np.copyto(ws.load_step, is_load.T[:, :, None, None])

    # The loop walks per-step row views materialized in the workspace —
    # no indexing-driven allocation, only ``out=`` dispatches.  Bound
    # ``.take`` methods skip the ``np.take`` wrapper, measurable at
    # ~3k gathers per advance.
    gather_buf = ws.gather_buf
    disp_buf = ws.disp_buf
    disp_slabs = ws.disp_slabs
    comp_grids = ws.comp_grids
    commit_rows = ws.commit_rows
    lat_rows = ws.lat_rows
    comp_list = ws.comp_list
    disp_list = ws.disp_list
    take_comp = ws.comp_cells.take
    take_commit = ws.commit_slabs.take
    maximum, add, multiply = np.maximum, np.add, np.multiply
    if aux:
        prod_list = ws.prod_list
        hrow_list = ws.hrow_list
        mask_list = ws.mask_list
        load_list = ws.load_list
        take_aux = ws.aux_cells.take
        aux_buf = ws.aux_buf
        aux_rows = ws.aux_rows

    for i in range(N):
        grid = comp_grids[i]
        # comp[i] = max(producer completion, dispatch bound) + latency
        take_comp(comp_list[i], axis=0, out=gather_buf, mode="clip")
        take_commit(disp_list[i], axis=0, out=disp_slabs, mode="clip")
        maximum(gather_buf, disp_buf, out=grid)
        add(grid, lat_rows[i], out=grid)
        # commit[i] = max(commit[i - 1], comp[i]) (in-order commit)
        maximum(commit_rows[i], grid, out=commit_rows[i + 1])
        if aux:
            # slice / chain count = gated producer count + is-load
            hrow = hrow_list[i]
            take_aux(prod_list[i], axis=0, out=aux_rows, mode="clip")
            multiply(aux_buf, mask_list[i], out=hrow)
            add(hrow, load_list[i], out=hrow)

    per_step = DISPATCHES_PER_STEP if aux else CORE_DISPATCHES_PER_STEP
    KERNEL_STATS.add(
        samples=S, batches=1, steps=N, dispatches=N * per_step,
        grid_slots=S * N, occupied_slots=int(lengths.sum()),
    )

    # -- per-sample readouts at true lengths ----------------------------
    s_idx = np.arange(S)
    makespan = commit[lengths, :, s_idx]  # (S, W, L)
    n_f = lengths.astype(np.float64)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ilp = np.where(makespan > 0, n_f / makespan, n_f)
    ilp = np.maximum(ilp, 1e-3)
    ilp[lengths == 0] = 1.0
    if not aux:
        return ilp, np.zeros((S, W)), np.ones((S, W))

    # Branch backward-slice load counts: every term is an integer, so
    # the spec's per-step accumulation reduces exactly to one integer
    # contraction after the loop.
    branch_count = is_branch.sum(axis=1).astype(np.float64)
    loads_sum = np.einsum(
        "isw,si->sw", ws.aux_hist[:N, :, 0], is_branch, dtype=np.int64
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        branch_loads = np.where(
            branch_count[:, None] > 0,
            loads_sum / branch_count[:, None],
            0.0,
        )

    # Load-chain depth per window chunk: the spec's per-chunk running
    # max becomes one segmented max per window, gated on the chunk
    # starting in-sample, and an exact integer sum.
    depth_sum = np.empty((S, W), dtype=np.int64)
    for wi in range(W):
        starts = np.arange(0, N, int(w_arr[wi]))
        seg_max = _segment_max(
            ws.aux_hist[:N, :, 1, wi], starts, axis=0
        )  # (chunks, S)
        np.maximum(seg_max, 1, out=seg_max)
        seg_max *= starts[:, None] < lengths[None, :]
        np.sum(seg_max, axis=0, out=depth_sum[:, wi])

    total_loads = (is_load & in_range).sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        load_par = np.where(
            total_loads[:, None] > 0,
            np.maximum(1.0, total_loads[:, None] / depth_sum),
            1.0,
        )
    return ilp, branch_loads, load_par


def default_bucket_width(n: int) -> int:
    """Mega-batch width bucket for a sample of ``n`` ops.

    The smallest power of two covering ``n`` (floor 16): padding waste
    is bounded below 2x while the number of distinct lockstep grids —
    and with it the Python-loop count — stays logarithmic in the
    sample-length spread.
    """
    if n <= 16:
        return 16
    return 1 << (n - 1).bit_length()


def batch_scoreboard_pools(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int] = WINDOW_GRID,
    load_lats: Sequence[int] = LOAD_LAT_GRID,
    bucket_fn: Optional[Callable[[int], int]] = None,
) -> List[ILPTable]:
    """Suite-wide mega-batch: many pools, one fused advance per bucket.

    Every pool's samples are stacked into a single lockstep grid per
    width bucket (``bucket_fn`` maps a sample length to its grid
    width; default :func:`default_bucket_width`), so the per-step
    Python loop is paid once per bucket for the *whole suite* instead
    of once per pool — and short samples never pad out to the longest
    sample in the suite.

    Per-sample kernel rows are independent of their co-batched
    neighbours, and per-pool aggregation runs over the samples in
    their original order, so the returned tables are bit-identical to
    per-pool :func:`batch_scoreboard` runs for *any* bucketing
    (hypothesis-tested).
    """
    if bucket_fn is None:
        bucket_fn = default_bucket_width
    windows = tuple(windows)
    load_lats = tuple(load_lats)
    n_w, n_l = len(windows), len(load_lats)
    counts = [len(samples) for samples in pool_samples]
    flat = [smp for samples in pool_samples for smp in samples]
    n_total = len(flat)

    if n_total:
        all_ilp = np.empty((n_total, n_w, n_l))
        all_bl = np.empty((n_total, n_w))
        all_lp = np.empty((n_total, n_w))
        buckets: Dict[int, List[int]] = {}
        for gi, (o, _) in enumerate(flat):
            bw = int(bucket_fn(len(o)))
            if bw < len(o):
                raise ValueError(
                    f"bucket width {bw} below sample length {len(o)}"
                )
            buckets.setdefault(bw, []).append(gi)
        for bw in sorted(buckets):
            idxs = buckets[bw]
            op, dep, lengths = stack_samples(
                [flat[gi] for gi in idxs], width=bw
            )
            lat = grid_latencies(op, load_lats)
            ilp, bl, lp = batch_scoreboard(
                op, dep, lengths, windows, lat
            )
            all_ilp[idxs] = ilp
            all_bl[idxs] = bl
            all_lp[idxs] = lp
        KERNEL_STATS.add(
            pools=sum(1 for c in counts if c), buckets=len(buckets)
        )

    tables: List[ILPTable] = []
    offset = 0
    for count in counts:
        if count == 0:
            tables.append(_empty_table(windows, load_lats))
            continue
        lo, hi = offset, offset + count
        offset = hi
        tables.append(_aggregate_table(
            all_ilp[lo:hi], all_bl[lo:hi], all_lp[lo:hi],
            windows, load_lats,
        ))
    return tables


def batch_hierarchy_ilp(
    samples: Sequence[Sample],
    window: int,
    per_op_lats: Sequence[np.ndarray],
) -> float:
    """Harmonic-mean ILP with per-load latencies, via the fused kernel.

    ``per_op_lats[s]`` carries sample ``s``'s per-op latency vector
    (only load positions are read — non-loads take canonical
    latencies, as in the scalar spec's per-op mode).  Only the ILP
    grid is consumed, so the kernel's auxiliary branch/chain pass is
    skipped (``aux=False``).
    """
    if not samples:
        return 1.0
    op, dep, lengths = stack_samples(samples)
    canon = np.asarray(CANONICAL_LAT, dtype=np.float64)
    lat = canon[op]
    for s, per_op in enumerate(per_op_lats):
        mask = op[s, : lengths[s]] == OP_LOAD
        lat[s, : lengths[s]][mask] = np.asarray(
            per_op, dtype=np.float64
        )[mask]
    ilp, _, _ = batch_scoreboard(
        op, dep, lengths, (window,), lat[:, :, None], aux=False
    )
    return 1.0 / float(np.mean(1.0 / ilp[:, 0, 0]))


def _aggregate_table(
    ilp: np.ndarray,
    branch_loads: np.ndarray,
    load_par: np.ndarray,
    windows: Sequence[int],
    load_lats: Sequence[int],
) -> ILPTable:
    """Per-sample grids -> one pool table (rates average harmonically)."""
    return ILPTable(
        windows=tuple(windows),
        load_lats=tuple(load_lats),
        ilp=1.0 / np.mean(1.0 / ilp, axis=0),
        branch_loads=np.mean(branch_loads, axis=0),
        load_par=np.mean(load_par, axis=0),
    )


def _empty_table(
    windows: Sequence[int], load_lats: Sequence[int]
) -> ILPTable:
    return ILPTable(
        windows=tuple(windows),
        load_lats=tuple(load_lats),
        ilp=np.ones((len(windows), len(load_lats))),
        branch_loads=np.zeros(len(windows)),
        load_par=np.ones(len(windows)),
    )


#: ILP tables an :class:`ILPTableCache` keeps resident.  The 26 suite
#: benchmarks hold 136 distinct tables at scale 0.05 and 251 at scale
#: 1.0, so a session profiling the whole suite at two scales evicts
#: none; each table is ~1.2 KB.
MAX_ILP_TABLES = 512


class ILPTableCache:
    """Content-addressed memo for per-pool ILP tables.

    The profiling grid is configuration-independent, so a pool's table
    is a pure function of its micro-trace samples and the grids.  The
    cache layers an in-process LRU over the optional on-disk
    :class:`~repro.experiments.store.ProfileStore`, sharing tables
    across design-space configurations, runs and processes.  Keys are
    independent of kernel batching, so entries persisted by earlier
    engine generations remain valid.  A table loaded from the store
    counts as a hit: ``misses`` counts the tables the kernel computes.
    """

    def __init__(self, store=None) -> None:
        self.store = store
        self._memo = LRUCache(MAX_ILP_TABLES)

    @staticmethod
    def key(
        samples: Sequence[Sample],
        windows: Sequence[int],
        load_lats: Sequence[int],
    ) -> str:
        digest = hashlib.sha256()
        digest.update(
            repr((tuple(windows), tuple(load_lats))).encode()
        )
        for o, d in samples:
            o = np.ascontiguousarray(np.asarray(o, dtype=np.int64))
            d = np.ascontiguousarray(np.asarray(d, dtype=np.int64))
            digest.update(len(o).to_bytes(8, "little"))
            digest.update(o.tobytes())
            digest.update(d.tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> Optional[ILPTable]:
        table = self._memo.get(key, count_miss=self.store is None)
        if table is None and self.store is not None:
            table = self.store.load_ilp_table(key)
            if table is not None:
                self._memo.put(key, table)
            self._memo.count("misses" if table is None else "hits")
        return table

    def put(self, key: str, table: ILPTable) -> None:
        self._memo.put(key, table)
        if self.store is not None:
            self.store.save_ilp_table(key, table)

    def stats(self) -> Dict[str, int]:
        return self._memo.stats()


def build_ilp_tables(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int] = WINDOW_GRID,
    load_lats: Sequence[int] = LOAD_LAT_GRID,
    cache: Optional[ILPTableCache] = None,
) -> List[ILPTable]:
    """All pools' ILP tables through the mega-batched fused kernel.

    Pools whose content the ``cache`` has seen before skip the replay
    entirely; the remaining pools run through
    :func:`batch_scoreboard_pools` — one fused lockstep advance per
    width bucket for the whole miss set.  Per-pool aggregation mirrors
    the scalar :func:`~repro.profiler.ilp.build_ilp_table` exactly.
    """
    with span("ilp.tables", pools=len(pool_samples)):
        return _build_ilp_tables(pool_samples, windows, load_lats, cache)


def _build_ilp_tables(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int],
    load_lats: Sequence[int],
    cache: Optional[ILPTableCache],
) -> List[ILPTable]:
    tables: List[Optional[ILPTable]] = [None] * len(pool_samples)
    keys: List[Optional[str]] = [None] * len(pool_samples)
    todo: List[int] = []
    alias: dict = {}  # pool index -> earlier pool with same content
    pending: dict = {}  # key -> first todo pool carrying it
    for pi, samples in enumerate(pool_samples):
        if not samples:
            tables[pi] = _empty_table(windows, load_lats)
            continue
        if cache is not None:
            keys[pi] = ILPTableCache.key(samples, windows, load_lats)
            if keys[pi] in pending:
                alias[pi] = pending[keys[pi]]
                continue
            hit = cache.get(keys[pi])
            if hit is not None:
                tables[pi] = hit
                continue
            pending[keys[pi]] = pi
        todo.append(pi)

    if todo:
        todo_tables = batch_scoreboard_pools(
            [pool_samples[pi] for pi in todo], windows, load_lats
        )
        for pi, table in zip(todo, todo_tables):
            tables[pi] = table
            if cache is not None:
                cache.put(keys[pi], table)
    for pi, src in alias.items():
        tables[pi] = tables[src]
    return tables
