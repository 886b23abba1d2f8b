"""Columnar two-phase trace-expansion engine (planner/executor).

:mod:`repro.workloads.generator` expands a workload one segment at a
time, re-deriving the *static-code* artifacts — the layout-shuffled
loop body and the hidden periodic branch pattern — for every dynamic
segment, although they are a pure function of
``(layout_seed, code_region, mix, body_len)`` and therefore identical
across every epoch and thread executing the same code region.  With
the profiler's array work closed, that redundancy made expansion the
suite loop's dominant cost (~40% per the CI cProfile artifact).

This engine splits expansion into two phases:

1. **Plan** — walk one workload (or a whole suite of workloads),
   collect every ``(spec, thread, segment)`` expansion job, size one
   contiguous per-thread **arena** per trace column, and memoize the
   static-code artifacts: the loop-body layout (one
   ``layout_rng.permutation`` per static key instead of per segment)
   and, per ``(static key, n)``, the tiled op/iline columns plus the
   memory/branch/load index sets every dynamic fill needs.  Each
   ``(EpochSpec, thread)`` also gets one fill **recipe**: the pattern
   CDFs, region bases and load gaps its spec fixes (per thread, as a
   private pattern's region base is).
2. **Execute** — run each segment's dynamic draws (dependence
   distances, addresses, branch-outcome noise) from its recipe,
   writing straight into the arena; the resulting
   :class:`~repro.workloads.ir.TraceBlock` objects are zero-copy views.

Bit-identity with the legacy path is structural, not incidental: the
dynamic streams still come from ``SeedSequence([seed, thread, index])``
exactly as in :mod:`~repro.workloads.generator`, the static memo
replays the same ``layout_rng`` draw sequence once per key, and the
dynamic fills make the legacy helpers' generator calls in the same
order and sizes: a ``choice`` is the ``searchsorted`` of its uniform
draws in the recipe's CDF, and an address is drawn with its region
base added to the bounds (see "dynamic fills").  ``generator.expand``
is preserved as the executable spec; the hypothesis suite in
``tests/test_engine.py`` pins digest-identical output across the spec
space.

:func:`pack_trace_arena` / :func:`load_trace_arena` are the raw-buffer
arena format the content-addressed ``"traces"`` store kind persists and
mmaps back (:mod:`repro.experiments.store`); it is the only on-disk
trace format.
"""

from __future__ import annotations

import pickle
import struct
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters import Counters
from repro.lru import LRUCache
from repro.obs import span
from repro.workloads import branches as _branches
from repro.workloads import patterns as _patterns
from repro.workloads.generator import (
    _class_counts,
    _iline_array,
    _layout_rng,
    _segment_rng,
)
from repro.workloads.ir import (
    OP_BRANCH,
    OP_CLASSES,
    OP_LOAD,
    OP_STORE,
    Segment,
    ThreadTrace,
    TraceBlock,
    WorkloadTrace,
)
from repro.workloads.spec import EpochSpec, WorkloadSpec


class EngineStats(Counters):
    """Process-wide expansion counters (monotonic, thread-safe).

    Surfaced by the serving subsystem's ``/healthz`` and diffed by the
    bench harness for the ``expand`` section of
    ``BENCH_profiler.json``.
    """

    def __init__(self) -> None:
        super().__init__(
            "workloads", "segments", "instructions", "arena_bytes",
            "layout_hits", "layout_misses", "image_hits", "image_misses",
        )

    def snapshot(self) -> Dict[str, float]:
        """Counter snapshot plus the derived image-memo hit rate."""
        out: Dict[str, float] = super().snapshot()
        lookups = out["image_hits"] + out["image_misses"]
        out["memo_hit_rate"] = (
            out["image_hits"] / lookups if lookups else 0.0
        )
        return out


#: The process-wide counter instance every engine feeds.
ENGINE_STATS = EngineStats()


@dataclass
class _StaticCode:
    """Layout-seed artifacts of one static code region.

    Reproduces exactly the ``layout_rng`` draw sequence of the legacy
    path: class counts (no draws), one body permutation, then — only
    for periodic branch specs whose body contains a branch — the
    hidden pattern.
    """

    body: np.ndarray  # uint8 loop body, layout-shuffled
    pattern: Optional[np.ndarray]  # hidden periodic branch pattern


@dataclass
class _CodeImage:
    """Per-``(static key, n)`` columns and index sets.

    Everything the dynamic fills need that does not depend on the
    segment RNG: the tiled op/iline columns and the memory / branch /
    load index sets the legacy helpers re-derive per segment.
    """

    n: int
    op: np.ndarray  # uint8, tiled body
    iline: np.ndarray  # int64
    positions: np.ndarray  # int32 arange(n), for the dep clamp
    mem_idx: np.ndarray  # int64 positions of LOAD/STORE ops
    mem_store: np.ndarray  # bool per mem_idx entry
    has_store: bool
    n_store: int
    load_idx: np.ndarray  # int32 positions of LOAD ops
    br_idx: np.ndarray  # int64 positions of BRANCH ops
    pattern: Optional[np.ndarray]  # shared with the _StaticCode
    nbytes: int = 0  # memo-eviction accounting


def _mix_key(mix: Dict[str, float]) -> Tuple:
    return tuple(
        sorted((name, float(f)) for name, f in mix.items() if f)
    )


def _layout_key(layout_seed: int, spec: EpochSpec, body_len: int) -> Tuple:
    """Identity of the static-code artifacts.

    Everything that shapes the ``layout_rng`` draw sequence: the seed
    and code region pick the generator, ``body_len`` and the mix fix
    the permutation's size and content, and the branch kind/period fix
    whether (and how large) the hidden-pattern draw is.
    """
    return (
        layout_seed, spec.code_region, body_len, _mix_key(spec.mix),
        spec.branch.kind, spec.branch.period,
    )


def static_block_key(layout_seed: int, spec: EpochSpec) -> Tuple:
    """Identity of a segment's static artifacts (op/iline columns).

    This is exactly the engine's code-image memo key: two blocks
    expanded under equal keys carry bit-identical ``op`` and ``iline``
    columns (the dynamic ``dep``/``addr``/``taken`` columns still
    differ per segment RNG).  The expansion engine stamps it on every
    arena block as :attr:`~repro.workloads.ir.TraceBlock.static_key`,
    and the profiler's segment-prep cache memoizes per-key precompute
    off it.
    """
    body_len = min(spec.n, spec.code_lines * spec.instrs_per_line)
    lkey = _layout_key(layout_seed, spec, body_len)
    # iline additionally depends on the (code_lines, instrs_per_line)
    # split, which body_len alone does not pin down.
    return (lkey, spec.n, spec.code_lines, spec.instrs_per_line)


def _build_static(
    layout_seed: int, spec: EpochSpec, body_len: int
) -> _StaticCode:
    layout_rng = _layout_rng(layout_seed, spec.code_region)
    counts = _class_counts(body_len, spec.mix, layout_rng)
    body = layout_rng.permutation(
        np.repeat(np.arange(len(OP_CLASSES), dtype=np.uint8), counts)
    )
    pattern = None
    # The legacy path draws the hidden pattern iff the (tiled) op
    # stream contains a branch; body_len == min(n, body capacity)
    # guarantees the full body appears in every tiling, so "branch in
    # body" is exactly that condition.
    if spec.branch.kind == "periodic" and bool((body == OP_BRANCH).any()):
        pattern = _branches.hidden_pattern(spec.branch, layout_rng)
    return _StaticCode(body=body, pattern=pattern)


def _build_image(static: _StaticCode, spec: EpochSpec, n: int) -> _CodeImage:
    body = static.body
    reps = -(-n // len(body))  # ceil
    op = np.tile(body, reps)[:n]
    is_load = op == OP_LOAD
    is_store = op == OP_STORE
    mem_idx = np.flatnonzero(is_load | is_store)
    mem_store = is_store[mem_idx]
    image = _CodeImage(
        n=n,
        op=op,
        iline=_iline_array(spec, n),
        positions=np.arange(n, dtype=np.int32),
        mem_idx=mem_idx,
        mem_store=mem_store,
        has_store=bool(mem_store.any()),
        n_store=int(mem_store.sum()),
        load_idx=np.flatnonzero(is_load).astype(np.int32),
        br_idx=np.flatnonzero(op == OP_BRANCH),
        pattern=static.pattern,
    )
    image.nbytes = sum(
        getattr(image, name).nbytes
        for name in ("op", "iline", "positions", "mem_idx",
                     "mem_store", "load_idx", "br_idx")
    )
    return image


# -- dynamic fills -----------------------------------------------------------
#
# ``expand_many`` builds one _Recipe per ``(EpochSpec object, thread)``
# of a workload: what the legacy ``_dep_array`` / ``_addr_array``
# helpers rebuild per segment although the spec fixes it.  _fill makes
# exactly their generator calls, in the same order and with the same
# sizes, by two NumPy identities: ``rng.choice(k, size, p=p)`` is
# ``cdf.searchsorted(rng.random(size), side="right")`` with
# ``cdf = p.cumsum(); cdf /= cdf[-1]``, which is how ``Generator.choice``
# samples with replacement; and ``b + rng.integers(lo, hi, size)`` is
# ``rng.integers(lo + b, hi + b, size)``, because a bounded draw depends
# only on the width of its range, so addresses are drawn with their
# region base added.  The memo is keyed per thread because a private
# pattern's region base is; it lives for one workload, and each recipe
# holds its spec, so no id() is reused while it lives.


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` samples probabilities ``p`` by."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class _Recipe:
    """What the fills of one ``(EpochSpec, thread)`` need that their
    segment generators do not draw."""

    __slots__ = ("spec", "thread", "image", "ikey", "p_dep", "chain",
                 "load_cdf", "store_cdf", "ranges")

    def __init__(
        self, spec: EpochSpec, thread: int, image: _CodeImage, ikey: Tuple
    ) -> None:
        self.spec, self.thread, self.image, self.ikey = spec, thread, image, ikey
        self.p_dep = 1.0 / spec.mean_dep
        loads = image.load_idx
        self.chain = None  # the loads after the first, and their gaps
        if spec.load_chain_frac > 0.0 and len(loads) > 1:
            self.chain = (loads[1:], loads[1:] - loads[:-1])
        weights = np.array([p.weight for p in spec.mem], dtype=float)
        self.load_cdf = _cdf(weights / weights.sum())
        store_ok = np.array([p.store_ok for p in spec.mem], dtype=bool)
        self.store_cdf = None
        if image.has_store and not store_ok.all():
            sw = np.where(store_ok, weights, 0.0)
            self.store_cdf = _cdf(sw / sw.sum())
        # Per pattern, hot lines [lo, mid) and cold lines [mid, hi) with
        # the region base added, or None for a stream, which draws nothing.
        self.ranges = []
        for p in spec.mem:
            lo = _patterns.region_base(p, thread)
            hot = (p.effective_hot_lines() if p.kind == "working_set"
                   else p.lines)  # a pointer chase has no cold lines
            self.ranges.append(
                None if p.kind == "stream" else (lo, lo + hot, lo + p.lines)
            )


def _fill(
    block: TraceBlock, recipe: _Recipe, rng: np.random.Generator
) -> None:
    """Fill one segment's arena views from its recipe and generator."""
    image = recipe.image
    np.copyto(block.op, image.op)
    np.copyto(block.iline, image.iline)
    dep = block.dep
    dep[:] = rng.geometric(recipe.p_dep, size=image.n)
    np.minimum(dep, image.positions, out=dep)  # cannot reach before block
    if recipe.chain is not None:
        targets, gaps = recipe.chain
        chained = rng.random(len(gaps)) < recipe.spec.load_chain_frac
        dep[targets[chained]] = gaps[chained]
    addr, mem_idx = block.addr, image.mem_idx
    addr.fill(-1)
    if len(mem_idx):
        draws = rng.random(len(mem_idx))  # drawn even for one pattern
        mixed = len(recipe.ranges) > 1
        if mixed:
            pick = recipe.load_cdf.searchsorted(draws, side="right")
            if recipe.store_cdf is not None:
                pick[image.mem_store] = recipe.store_cdf.searchsorted(
                    rng.random(image.n_store), side="right"
                )
        for i, span in enumerate(recipe.ranges):
            slots = mem_idx[pick == i] if mixed else mem_idx
            n = len(slots)
            if n == 0:
                continue
            if span is None:
                addr[slots] = _patterns.addresses(
                    recipe.spec.mem[i], n, rng, recipe.thread
                )
            elif span[1] == span[2]:  # no cold lines, so no hot/cold draw
                addr[slots] = rng.integers(span[0], span[2], size=n)
            else:
                lo, mid, hi = span
                hot = rng.random(n) < recipe.spec.mem[i].hot_frac
                n_hot = int(np.count_nonzero(hot))
                addr[slots[hot]] = rng.integers(lo, mid, size=n_hot)
                addr[slots[~hot]] = rng.integers(mid, hi, size=n - n_hot)
    block.taken.fill(0)
    if len(image.br_idx):
        block.taken[image.br_idx] = _branches.outcomes(
            recipe.spec.branch, len(image.br_idx), rng,
            pattern=image.pattern,
        )


#: Loop-body layouts and code images an :class:`ExpansionEngine` keeps.
#: Each image holds O(n) columns (~25 B per instruction), so a
#: long-lived engine serving many distinct spec shapes also bounds the
#: image memo by bytes.
MAX_LAYOUTS = 1024
MAX_IMAGES = 512
MAX_IMAGE_BYTES = 256 << 20


class ExpansionEngine:
    """Planner/executor expansion with memoized static-code artifacts.

    One engine instance is meant to be long-lived (module singleton,
    service engine): its static memo carries loop-body layouts and
    code images across workloads, so a suite whose benchmarks share
    seeds and code regions pays each static artifact once.  Thread
    safe; duplicate memo builds under concurrency are possible and
    harmless (last writer wins, all writers are bit-identical).
    """

    def __init__(self, stats: Optional[EngineStats] = None) -> None:
        self._layouts = LRUCache(MAX_LAYOUTS)
        self._images = LRUCache(MAX_IMAGES, MAX_IMAGE_BYTES)
        self.stats = stats if stats is not None else ENGINE_STATS

    # -- static memo --------------------------------------------------------

    def _image(
        self, layout_seed: int, spec: EpochSpec, ikey: Tuple, tally: Dict
    ) -> _CodeImage:
        """The code image under ``ikey`` (:func:`static_block_key`),
        built from the memoized layout on a miss; each memo lookup is
        counted in ``tally``."""
        image = self._images.get(ikey)
        if image is not None:
            tally["image_hits"] += 1
            return image
        tally["image_misses"] += 1
        lkey = ikey[0]  # the layout key static_block_key nests
        static = self._layouts.get(lkey)
        if static is None:
            tally["layout_misses"] += 1
            body_len = min(spec.n, spec.code_lines * spec.instrs_per_line)
            static = _build_static(layout_seed, spec, body_len)
            self._layouts.put(lkey, static)
        else:
            tally["layout_hits"] += 1
        image = _build_image(static, spec, spec.n)
        self._images.put(ikey, image)
        return image

    # -- expansion ----------------------------------------------------------

    def expand(self, workload: WorkloadSpec) -> WorkloadTrace:
        """Expand one workload spec (see :meth:`expand_many`)."""
        with span("expand", workload=workload.name):
            return self.expand_many([workload])[0]

    def expand_many(
        self, workloads: Sequence[WorkloadSpec]
    ) -> List[WorkloadTrace]:
        """Expand a batch of workload specs sharing one planning pass.

        Phase 1 collects every ``(spec, thread, index)`` job across
        *all* workloads, allocating one contiguous arena per thread,
        memoizing static-code artifacts and building one fill recipe
        per ``(EpochSpec, thread)``; phase 2 draws each job's dynamic
        columns from its recipe.  Traces are validated exactly as the
        legacy path validates them.
        """
        jobs: List[Tuple[int, int, int, TraceBlock, _Recipe]] = []
        traces: List[WorkloadTrace] = []
        for w in workloads:
            threads: List[ThreadTrace] = []
            # This workload's counts, published in one stats.add().
            tally = dict.fromkeys((
                "segments", "instructions", "arena_bytes", "layout_hits",
                "layout_misses", "image_hits", "image_misses",
            ), 0)
            recipes: Dict[Tuple[int, int], _Recipe] = {}
            for tid, plan_list in enumerate(w.plans):
                total = sum(
                    plan.spec.n
                    for plan in plan_list
                    if plan.spec is not None
                )
                arena = _ThreadArena(total)
                tally["arena_bytes"] += arena.nbytes
                offset = 0
                segments: List[Segment] = []
                for idx, plan in enumerate(plan_list):
                    spec = plan.spec
                    if spec is None or spec.n == 0:
                        block = TraceBlock.empty()
                    else:
                        block = arena.view(offset, offset + spec.n)
                        offset += spec.n
                        recipe = recipes.get((id(spec), tid))
                        ikey = recipe.ikey if recipe else static_block_key(
                            w.seed, spec
                        )
                        block.static_key = ikey
                        image = self._image(w.seed, spec, ikey, tally)
                        if recipe is None:
                            recipe = _Recipe(spec, tid, image, ikey)
                            recipes[id(spec), tid] = recipe
                        jobs.append((w.seed, tid, idx, block, recipe))
                    segments.append(
                        Segment(
                            block=block, event=plan.event, epoch=idx,
                            label=plan.label,
                        )
                    )
                tally["segments"] += len(segments)
                tally["instructions"] += offset
                threads.append(
                    ThreadTrace(thread_id=tid, segments=segments)
                )
            traces.append(
                WorkloadTrace(name=w.name, threads=threads, seed=w.seed)
            )
            self.stats.add(workloads=1, **tally)

        for seed, tid, idx, block, recipe in jobs:
            _fill(block, recipe, _segment_rng(seed, tid, idx))
        for trace in traces:
            trace.validate()
        return traces


class _ThreadArena:
    """One thread's contiguous trace columns."""

    __slots__ = ("op", "dep", "addr", "taken", "iline")

    def __init__(self, total: int) -> None:
        self.op = np.empty(total, dtype=np.uint8)
        self.dep = np.empty(total, dtype=np.int32)
        self.addr = np.empty(total, dtype=np.int64)
        self.taken = np.empty(total, dtype=np.uint8)
        self.iline = np.empty(total, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return sum(
            getattr(self, name).nbytes for name in self.__slots__
        )

    def view(self, lo: int, hi: int) -> TraceBlock:
        return TraceBlock(
            op=self.op[lo:hi],
            dep=self.dep[lo:hi],
            addr=self.addr[lo:hi],
            taken=self.taken[lo:hi],
            iline=self.iline[lo:hi],
        )


#: Process-wide engine: shared static memo for every caller that does
#: not need private memo accounting (the bench harness constructs its
#: own to measure clean hit rates).
_DEFAULT: Optional[ExpansionEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> ExpansionEngine:
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ExpansionEngine()
        return _DEFAULT


def expand(workload: WorkloadSpec) -> WorkloadTrace:
    """Expand a workload through the shared columnar engine.

    Drop-in, bit-identical replacement for
    :func:`repro.workloads.generator.expand` (the preserved executable
    spec); production call sites route here — usually via a
    :class:`~repro.experiments.store.TraceCache` so repeated
    expansions of the same spec are cache hits.
    """
    return default_engine().expand(workload)


def expand_many(workloads: Sequence[WorkloadSpec]) -> List[WorkloadTrace]:
    """Batch expansion through the shared columnar engine."""
    return default_engine().expand_many(workloads)


# -- raw-buffer arena format (mmap-friendly) ---------------------------------
#
# The arena layout is the one on-disk trace format: a pickled metadata
# header (segment lengths, events, epochs, static keys, column
# directory) followed by the raw column bytes, 64-byte aligned.
# :func:`load_trace_arena` accepts any buffer — in particular an
# ``mmap.mmap(..., ACCESS_READ)`` — and builds the ``TraceBlock`` views
# directly over it via ``np.frombuffer``, so N worker processes mapping
# the same artifact share one page-cache copy and pay no per-process
# deserialization of the column data.  Arrays built over a read-only
# map come out ``writeable=False``, which is the aliasing contract: a
# consumer cannot corrupt the shared mapping.


def _concat(blocks: List[TraceBlock], name: str, dtype) -> np.ndarray:
    arrays = [getattr(b, name) for b in blocks if b.n_instructions]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.ascontiguousarray(np.concatenate(arrays), dtype=dtype)


ARENA_MAGIC = b"RPPMARN1"
_ARENA_ALIGN = 64
#: Column name -> dtype, fixed by the wire format (matches TraceBlock).
_ARENA_COLUMNS = (
    ("op", np.uint8),
    ("dep", np.int32),
    ("addr", np.int64),
    ("taken", np.uint8),
    ("iline", np.int64),
)


def _arena_pad(offset: int) -> int:
    return (-offset) % _ARENA_ALIGN


def pack_trace_arena(
    trace: WorkloadTrace, meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialize a trace into the raw-buffer arena layout.

    ``meta`` rides along in the pickled header (the store puts its
    schema version and content digest there) and comes back verbatim
    from :func:`load_trace_arena`.

    Layout: ``ARENA_MAGIC | u64 header_len | pickled header | pad |
    column bytes``.  Column offsets in the header are relative to the
    64-byte-aligned start of the data region, so the header needs no
    knowledge of its own serialized size.
    """
    chunks: List[bytes] = []
    rel = 0
    threads_meta = []
    for t in trace.threads:
        blocks = [seg.block for seg in t.segments]
        cols = {}
        for name, dtype in _ARENA_COLUMNS:
            arr = _concat(blocks, name, dtype)
            pad = _arena_pad(rel)
            if pad:
                chunks.append(b"\x00" * pad)
                rel += pad
            data = arr.tobytes()
            cols[name] = (rel, int(arr.size))
            chunks.append(data)
            rel += len(data)
        threads_meta.append({
            "ns": [b.n_instructions for b in blocks],
            "events": [seg.event for seg in t.segments],
            "epochs": [seg.epoch for seg in t.segments],
            "labels": [seg.label for seg in t.segments],
            "skeys": [seg.block.static_key for seg in t.segments],
            "cols": cols,
        })
    header = pickle.dumps({
        "meta": dict(meta or {}),
        "name": trace.name,
        "seed": trace.seed,
        "threads": threads_meta,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    prefix = ARENA_MAGIC + struct.pack("<Q", len(header)) + header
    return b"".join(
        [prefix, b"\x00" * _arena_pad(len(prefix))] + chunks
    )


def is_arena_payload(buf) -> bool:
    """True when ``buf`` starts with the arena magic."""
    return bytes(memoryview(buf)[: len(ARENA_MAGIC)]) == ARENA_MAGIC


def load_trace_arena(buf) -> Tuple[Dict[str, Any], WorkloadTrace]:
    """Rebuild ``(meta, trace)`` from an arena buffer, zero-copy.

    ``buf`` may be ``bytes`` or an ``mmap`` object; every trace column
    is an ``np.frombuffer`` view over it (read-only when the buffer
    is), and the returned blocks keep the buffer alive through their
    ``.base`` chain — the caller may drop its own reference.  Raises
    ``ValueError`` on a malformed payload; the store quarantines it.
    """
    mv = memoryview(buf)
    if not is_arena_payload(mv):
        raise ValueError("not an arena payload (bad magic)")
    header_start = len(ARENA_MAGIC) + 8
    if len(mv) < header_start:
        raise ValueError("truncated arena prefix")
    (header_len,) = struct.unpack_from("<Q", mv, len(ARENA_MAGIC))
    if header_start + header_len > len(mv):
        raise ValueError("truncated arena header")
    header = pickle.loads(bytes(mv[header_start:header_start + header_len]))
    data_start = header_start + header_len
    data_start += _arena_pad(data_start)
    threads = []
    for tid, tmeta in enumerate(header["threads"]):
        cols = {}
        for name, dtype in _ARENA_COLUMNS:
            rel, count = tmeta["cols"][name]
            offset = data_start + rel
            end = offset + count * np.dtype(dtype).itemsize
            if end > len(mv):
                raise ValueError(f"truncated arena column {name!r}")
            cols[name] = np.frombuffer(
                buf, dtype=dtype, count=count, offset=offset
            )
        segments = []
        lo = 0
        for n, event, epoch, label, skey in zip(
            tmeta["ns"], tmeta["events"], tmeta["epochs"],
            tmeta["labels"], tmeta["skeys"],
        ):
            if n == 0:
                block = TraceBlock.empty()
            else:
                block = TraceBlock(
                    **{name: col[lo:lo + n] for name, col in cols.items()},
                    static_key=skey,
                )
                lo += n
            segments.append(
                Segment(block=block, event=event, epoch=epoch, label=label)
            )
        threads.append(ThreadTrace(thread_id=tid, segments=segments))
    trace = WorkloadTrace(
        name=header["name"], threads=threads, seed=header["seed"]
    )
    return header.get("meta", {}), trace


__all__ = [
    "ARENA_MAGIC",
    "ENGINE_STATS",
    "EngineStats",
    "ExpansionEngine",
    "default_engine",
    "expand",
    "expand_many",
    "is_arena_payload",
    "load_trace_arena",
    "pack_trace_arena",
    "static_block_key",
]
