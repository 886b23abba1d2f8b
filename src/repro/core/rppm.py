"""RPPM end-to-end prediction: Profile x Config -> performance.

Phase 1 predicts each segment's active time with Eq. 1 (see
:mod:`repro.core.epoch_model`); phase 2 replays the profiled
synchronization structure symbolically through the shared DES scheduler
— the paper's Algorithm 2 — adding idle time where threads wait at
barriers, locks, condition variables and joins.  The result carries the
same per-thread structure as a simulation result, so accuracy and CPI
stacks compare directly.

Neither phase reads more of the configuration than
:func:`~repro.core.epoch_model.equation_key`, so a session runs both
once per (profile, key) and answers every core count from that result
(:func:`prediction_result`, the builder that runs neither).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.cpi_stack import CPIStack
from repro.core.epoch_model import EpochCostCache, predict_active_cycles
from repro.obs import span
from repro.profiler.profile import WorkloadProfile
from repro.runtime.scheduler import ScheduleResult, run_schedule_batched
from repro.runtime.timeline import Timeline


@dataclass
class ThreadPrediction:
    """Per-thread outcome of an RPPM prediction."""

    thread_id: int
    instructions: int
    active_cycles: float
    idle_cycles: float
    stack: CPIStack

    @property
    def total_cycles(self) -> float:
        return self.active_cycles + self.idle_cycles


@dataclass
class PredictionResult:
    """RPPM's prediction for one workload on one configuration.

    ``timeline`` may be shared with other results predicted through
    the same session memo: treat it as read-only.
    """

    workload: str
    config: str
    total_cycles: float
    threads: List[ThreadPrediction]
    timeline: Timeline

    @property
    def n_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)

    def average_stack(self) -> CPIStack:
        """Average per-thread CPI stack (the paper's Fig. 5 metric)."""
        return CPIStack.merged(t.stack for t in self.threads)


def _phases(cache: EpochCostCache) -> Tuple[List[CPIStack], ScheduleResult]:
    """Phase 1 and phase 2 over ``cache.profile``: per-thread CPI stacks
    (``sync`` left at 0) and the replayed schedule."""
    # Phase 1: active cycles per segment (memoised per pool).
    durations, stacks = predict_active_cycles(cache)
    # Phase 2: symbolic execution of the synchronization structure
    # (Algorithm 2) over the predicted per-epoch times, on the one DES
    # scheduler.  Only the profiler reads the execution ``order``, so
    # the memo does not keep it.
    programs = [
        [segment.event for segment in thread.segments]
        for thread in cache.profile.threads
    ]
    schedule = run_schedule_batched(programs, durations)
    return stacks, ScheduleResult(
        timeline=schedule.timeline,
        end_time=schedule.end_time,
        active=schedule.active,
        idle=schedule.idle,
    )


def predict(
    profile: WorkloadProfile,
    config: MulticoreConfig,
    session=None,
) -> PredictionResult:
    """Predict multithreaded execution on ``config`` from ``profile``.

    Reads only ``config``'s :func:`~repro.core.epoch_model.equation_key`
    fields and its ``name``.  ``session`` (a
    :class:`repro.core.session.Session`) keeps one
    :class:`~repro.core.epoch_model.EpochCostCache` per (profile,
    ``equation_key``): the Eq.-1 memo plus phase 1's stacks and phase
    2's schedule, computed by the first call and read by every later
    one, so a repeat prediction, or one at another core count, runs
    neither phase again (``session.counters``: ``predictions`` counts
    calls, ``schedules`` counts phase-2 runs).  Each result still gets
    its own :class:`ThreadPrediction` and :class:`CPIStack` objects;
    only the read-only ``timeline`` is shared.
    """
    if session is not None:
        cache = session.cost_cache(profile, config)
        session.record("predictions")
    else:
        cache = EpochCostCache(profile, config)

    with span("predict", workload=profile.name, config=config.name):
        if cache.phases is None:
            cache.phases = _phases(cache)
            if session is not None:
                session.record("schedules")
        return prediction_result(profile, config, cache.phases)


def prediction_result(
    profile: WorkloadProfile,
    config: MulticoreConfig,
    phases: Tuple[List[CPIStack], ScheduleResult],
) -> PredictionResult:
    """:func:`predict`'s answer from a memo's finished ``phases``.

    Only builds objects: each thread gets its own
    :class:`ThreadPrediction` and :class:`CPIStack` (phase 1's stack
    with phase 2's idle time as ``sync``); the ``timeline`` is shared.
    Reads ``config.name`` alone.
    """
    stacks, schedule = phases
    threads = [
        ThreadPrediction(
            thread_id=thread.thread_id,
            instructions=thread.n_instructions,
            active_cycles=schedule.active[thread.thread_id],
            idle_cycles=schedule.idle[thread.thread_id],
            stack=replace(
                stacks[thread.thread_id],
                sync=schedule.idle[thread.thread_id],
            ),
        )
        for thread in profile.threads
    ]
    return PredictionResult(
        workload=profile.name,
        config=config.name,
        total_cycles=schedule.end_time,
        threads=threads,
        timeline=schedule.timeline,
    )
