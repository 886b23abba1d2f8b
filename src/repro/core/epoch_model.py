"""Phase 1 of RPPM's prediction (Fig. 3b): per-epoch active times.

Each dynamic segment's active execution time is its instruction count
times the Eq.-1 CPI of its pool on the target configuration.  Costs are
memoised per pool in an :class:`EpochCostCache`, which is keyed by the
configuration fields Eq. 1 reads (:func:`equation_key`) — this is what
makes RPPM "rapid": a workload with millions of dynamic synchronization
epochs still needs only one Eq.-1 evaluation per static code region,
and design points that differ only in core count or name share one
memo, and with it one phase-1 and phase-2 result.

:func:`predict_active_cycles` is the one phase-1 loop, used by RPPM and
by the MAIN/CRIT baselines; :func:`predict_epoch_cycles` is its
per-segment spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.cpi_stack import CPIStack
from repro.core.equation import EpochCosts, evaluate_equation
from repro.profiler.profile import SegmentRef, ThreadProfile, WorkloadProfile
from repro.runtime.scheduler import ScheduleResult


def equation_key(config: MulticoreConfig) -> tuple:
    """What Eq. 1 and phase 1 read of ``config``, hashable by value.

    The contract :func:`repro.core.rppm.predict` keeps: it reads these
    fields of its configuration and ``name`` (a label), nothing else.
    RPPM runs one thread per core, so a prediction does not depend on
    ``cores``, and phase 2 reads no configuration at all.
    Configurations with equal keys share one :class:`EpochCostCache`,
    so they share one prediction up to its label.
    """
    return (config.core, config.l1i, config.l1d, config.l2, config.llc,
            config.memory, config.branch_predictor)


class EpochCostCache:
    """Memoised Eq.-1 evaluations per (thread, pool key), and what
    :func:`repro.core.rppm.predict` derives from them.

    ``config`` is whichever configuration created the memo; only the
    fields in its :func:`equation_key` may be read through it.

    :attr:`phases` holds ``predict``'s phase-1 per-thread CPI stacks
    (``sync`` at 0) and its phase-2
    :class:`~repro.runtime.scheduler.ScheduleResult`.  The first
    ``predict`` through the memo sets it and every later one reads it;
    both are read-only once set.  Two threads that race on an empty
    memo compute equal values, and the last write wins.
    """

    def __init__(self, profile: WorkloadProfile, config: MulticoreConfig):
        self.profile = profile
        self.config = config
        self._cache: Dict[Tuple[int, int], EpochCosts] = {}
        self.phases: Optional[Tuple[List[CPIStack], ScheduleResult]] = None

    def __len__(self) -> int:
        """Eq.-1 evaluations made so far."""
        return len(self._cache)

    def costs(self, thread: ThreadProfile, key: Optional[int]) -> Optional[
        EpochCosts
    ]:
        if key is None:
            return None
        cache_key = (thread.thread_id, key)
        if cache_key not in self._cache:
            self._cache[cache_key] = evaluate_equation(
                thread.pools[key], self.config
            )
        return self._cache[cache_key]


def segment_startup_cycles(config: MulticoreConfig) -> float:
    """Pipeline restart cost charged once per dynamic segment.

    A synchronization event (or a context break at a chunk boundary)
    drains the pipeline: the front-end refills (``frontend_depth``),
    the first instruction fetch resolves, and the last in-flight chain
    completes.  The reference simulator pays the same cost at every
    block restart.
    """
    return float(config.core.frontend_depth + config.l1i.latency + 4)


def predict_epoch_cycles(
    cache: EpochCostCache, thread: ThreadProfile, segment: SegmentRef
) -> Tuple[float, CPIStack]:
    """Predicted active cycles and CPI-stack contribution of a segment."""
    costs = cache.costs(thread, segment.key)
    if costs is None or segment.n_instructions == 0:
        return 0.0, CPIStack()
    n = segment.n_instructions
    startup = segment_startup_cycles(cache.config)
    stack = CPIStack(
        base=costs.cpi_base * n + startup,
        branch=costs.cpi_branch * n,
        icache=costs.cpi_icache * n,
        mem=costs.cpi_mem * n,
        instructions=n,
    )
    return costs.cpi_active * n + startup, stack


def predict_active_cycles(
    cache: EpochCostCache,
) -> Tuple[List[List[float]], List[CPIStack]]:
    """Phase 1 over ``cache.profile``: every segment's active cycles and
    every thread's CPI stack (``sync`` left at 0).

    Bit-identical to :func:`predict_epoch_cycles` per segment with the
    stacks added in segment order: plain left-to-right additions,
    never ``sum()``.
    """
    startup = segment_startup_cycles(cache.config)
    durations: List[List[float]] = []
    stacks = [CPIStack() for _ in range(cache.profile.n_threads)]
    for thread in cache.profile.threads:
        base = branch = icache = mem = 0.0
        instructions = 0
        per_segment: List[float] = []
        for segment in thread.segments:
            costs = cache.costs(thread, segment.key)
            n = segment.n_instructions
            if costs is None or n == 0:
                per_segment.append(0.0)
                continue
            per_segment.append(costs.cpi_active * n + startup)
            base += costs.cpi_base * n + startup
            branch += costs.cpi_branch * n
            icache += costs.cpi_icache * n
            mem += costs.cpi_mem * n
            instructions += n
        durations.append(per_segment)
        stacks[thread.thread_id] = CPIStack(
            base=base, branch=branch, icache=icache, mem=mem,
            instructions=instructions,
        )
    return durations, stacks
