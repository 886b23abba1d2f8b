"""Deterministic expansion of workload specifications into traces.

Expansion is a pure function of ``(spec, spec.seed)``: every segment
derives its RNG from ``SeedSequence([seed, thread, segment])``, so the
same spec always yields bit-identical traces.  This mirrors the paper's
requirement that the profile be collected once and reused — our "binary"
is the spec, and re-running it is deterministic.

This module is the preserved *executable spec* of expansion: simple,
per-segment, and allocation-per-block.  Production call sites route
through the columnar planner/executor in
:mod:`repro.workloads.engine` (usually via a
:class:`~repro.experiments.store.TraceCache`), which memoizes the
static-code artifacts and writes into per-thread arenas —
bit-identical to this path, pinned by the hypothesis suite in
``tests/test_engine.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.workloads import branches as _branches
from repro.workloads import patterns as _patterns
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


def _class_counts(n: int, mix: dict, rng: np.random.Generator) -> np.ndarray:
    """Integer micro-op counts per class honouring ``mix`` exactly."""
    fracs = np.array([mix.get(name, 0.0) for name in OP_CLASSES])
    counts = np.floor(fracs * n).astype(np.int64)
    remainder = n - int(counts.sum())
    # Give leftover slots to the largest fractional parts, one per class
    # per round; a mix may sum to 1 +- 1e-6, so an overshoot is taken back
    # from the smallest the same way, never below zero (ties: class code).
    step = 1 if remainder > 0 else -1
    order = np.argsort(-step * (fracs * n - counts), kind="stable")
    order = order[fracs[order] > 0]  # no slot for a class outside the mix
    while remainder:
        for c in order:
            if remainder and counts[c] + step >= 0:
                counts[c] += step
                remainder -= step
    return counts


def _op_array(
    n: int, spec: EpochSpec, layout_rng: np.random.Generator
) -> np.ndarray:
    """Micro-op classes laid out as a repeated loop body.

    Real code executes a static loop body over and over: the class at a
    given PC is fixed across iterations.  We therefore build one body of
    ``code_lines * instrs_per_line`` ops honouring the mix, shuffle it
    once, and tile it across the epoch — so branches (and every other
    class) sit at stable static locations, repeating with the
    instruction-cache layout.  Without this, synthetic "branch PCs"
    would never repeat and no predictor (real or modeled) could learn.

    The shuffle comes from ``layout_rng``, which is derived from the
    *code region* rather than the dynamic segment: every execution of
    the same static code has the same layout, exactly as a binary's
    text section does not change between loop iterations or threads.
    """
    body_len = min(n, spec.code_lines * spec.instrs_per_line)
    counts = _class_counts(body_len, spec.mix, layout_rng)
    body = layout_rng.permutation(
        np.repeat(np.arange(len(OP_CLASSES), dtype=np.uint8), counts)
    )
    reps = -(-n // body_len)  # ceil
    return np.tile(body, reps)[:n]


def _dep_array(
    spec: EpochSpec, op: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(op)
    dep = rng.geometric(1.0 / spec.mean_dep, size=n).astype(np.int32)
    positions = np.arange(n, dtype=np.int32)
    dep = np.minimum(dep, positions)  # cannot reach before the block
    if spec.load_chain_frac > 0.0:
        load_idx = np.flatnonzero(op == OP_LOAD).astype(np.int32)
        if len(load_idx) > 1:
            chained = rng.random(len(load_idx) - 1) < spec.load_chain_frac
            targets = load_idx[1:][chained]
            producers = load_idx[:-1][chained]
            dep[targets] = targets - producers
    return dep


def _addr_array(
    spec: EpochSpec,
    op: np.ndarray,
    rng: np.random.Generator,
    thread_id: int,
) -> np.ndarray:
    n = len(op)
    addr = np.full(n, -1, dtype=np.int64)
    is_load = op == OP_LOAD
    is_store = op == OP_STORE
    mem_idx = np.flatnonzero(is_load | is_store)
    if len(mem_idx) == 0:
        return addr
    patterns = list(spec.mem)
    weights = np.array([p.weight for p in patterns], dtype=float)
    load_w = weights / weights.sum()
    store_ok = np.array([p.store_ok for p in patterns], dtype=bool)
    # Assign each memory op to a pattern.  Stores may only land on
    # patterns that accept them (shared read-only data stays read-only).
    choice = rng.choice(len(patterns), size=len(mem_idx), p=load_w)
    store_mask = is_store[mem_idx]
    if store_mask.any() and not store_ok.all():
        sw = np.where(store_ok, weights, 0.0)
        sw = sw / sw.sum()
        choice[store_mask] = rng.choice(
            len(patterns), size=int(store_mask.sum()), p=sw
        )
    for pi, pattern in enumerate(patterns):
        slots = mem_idx[choice == pi]
        if len(slots) == 0:
            continue
        addr[slots] = _patterns.addresses(
            pattern, len(slots), rng, thread_id
        )
    return addr


def _taken_array(
    spec: EpochSpec,
    op: np.ndarray,
    rng: np.random.Generator,
    pattern_rng: np.random.Generator,
) -> np.ndarray:
    n = len(op)
    taken = np.zeros(n, dtype=np.uint8)
    br_idx = np.flatnonzero(op == OP_BRANCH)
    if len(br_idx):
        taken[br_idx] = _branches.outcomes(
            spec.branch, len(br_idx), rng, pattern_rng=pattern_rng
        )
    return taken


def _iline_array(spec: EpochSpec, n: int) -> np.ndarray:
    base = _patterns.code_base(spec.code_region)
    seq = np.arange(n, dtype=np.int64) // spec.instrs_per_line
    return base + seq % spec.code_lines


def expand_epoch(
    spec: EpochSpec,
    thread_id: int,
    rng: np.random.Generator,
    layout_seed: int = 0,
) -> TraceBlock:
    """Expand one epoch spec into a concrete trace block.

    ``rng`` drives the dynamic randomness (addresses, dependence draws,
    outcome noise) and differs per segment; the static-code properties
    (loop-body layout, hidden branch patterns) derive from
    ``layout_seed`` and the spec's code region only, so every dynamic
    execution of the same code region looks like the same binary.
    """
    if spec.n == 0:
        return TraceBlock.empty()
    layout_rng = _layout_rng(layout_seed, spec.code_region)
    op = _op_array(spec.n, spec, layout_rng)
    return TraceBlock(
        op=op,
        dep=_dep_array(spec, op, rng),
        addr=_addr_array(spec, op, rng, thread_id),
        taken=_taken_array(spec, op, rng, pattern_rng=layout_rng),
        iline=_iline_array(spec, spec.n),
    )


def _segment_rng(seed: int, thread_id: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, thread_id, index]))
    )


def _layout_rng(seed: int, code_region: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 0x1A10, code_region]))
    )


def expand(workload: WorkloadSpec) -> WorkloadTrace:
    """Expand a workload spec into its full dynamic trace.

    The result is validated for structural well-formedness (threads
    created before use, balanced locks, END-terminated traces).
    """
    threads: List[ThreadTrace] = []
    for tid, plan_list in enumerate(workload.plans):
        segments: List[Segment] = []
        for idx, plan in enumerate(plan_list):
            rng = _segment_rng(workload.seed, tid, idx)
            if plan.spec is None:
                block = TraceBlock.empty()
            else:
                block = expand_epoch(
                    plan.spec, tid, rng, layout_seed=workload.seed
                )
            segments.append(
                Segment(block=block, event=plan.event, epoch=idx,
                        label=plan.label)
            )
        threads.append(ThreadTrace(thread_id=tid, segments=segments))
    trace = WorkloadTrace(
        name=workload.name, threads=threads, seed=workload.seed
    )
    trace.validate()
    return trace
