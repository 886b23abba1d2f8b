"""RPPM end-to-end prediction: Profile x Config -> performance.

Phase 1 predicts each segment's active time with Eq. 1 (see
:mod:`repro.core.epoch_model`); phase 2 replays the profiled
synchronization structure symbolically through the shared DES scheduler
— the paper's Algorithm 2 — adding idle time where threads wait at
barriers, locks, condition variables and joins.  The result carries the
same per-thread structure as a simulation result, so accuracy and CPI
stacks compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.arch.config import MulticoreConfig
from repro.core.cpi_stack import CPIStack
from repro.core.epoch_model import EpochCostCache, predict_active_cycles
from repro.obs import span
from repro.profiler.profile import WorkloadProfile
from repro.runtime.scheduler import run_schedule_batched
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
    """RPPM's prediction for one workload on one configuration."""

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


def predict(
    profile: WorkloadProfile,
    config: MulticoreConfig,
    session=None,
) -> PredictionResult:
    """Predict multithreaded execution on ``config`` from ``profile``.

    ``session`` (a :class:`repro.core.session.Session`) keeps the
    per-(thread, pool) Eq.-1 memo resident across calls for the same
    profile and Eq.-1 inputs (:func:`~repro.core.epoch_model.equation_key`)
    — the memo is read/extend-only, so reuse is safe, and repeat
    predictions, or predictions at another core count, skip every
    Eq.-1 evaluation.
    """
    if session is not None:
        cache = session.cost_cache(profile, config)
        session.record("predictions")
    else:
        cache = EpochCostCache(profile, config)

    with span("predict", workload=profile.name, config=config.name):
        # Phase 1: active cycles per segment (memoised per pool).
        durations, stacks = predict_active_cycles(cache)

        # Phase 2: symbolic execution of the synchronization structure
        # (Algorithm 2) over the predicted per-epoch times, on the one
        # DES scheduler.
        programs = [
            [segment.event for segment in thread.segments]
            for thread in profile.threads
        ]
        schedule = run_schedule_batched(programs, durations)

        threads = []
        for thread in profile.threads:
            tid = thread.thread_id
            stack = stacks[tid]
            stack.sync = schedule.idle[tid]
            threads.append(
                ThreadPrediction(
                    thread_id=tid,
                    instructions=thread.n_instructions,
                    active_cycles=schedule.active[tid],
                    idle_cycles=schedule.idle[tid],
                    stack=stack,
                )
            )
        return PredictionResult(
            workload=profile.name,
            config=config.name,
            total_cycles=schedule.end_time,
            threads=threads,
            timeline=schedule.timeline,
        )
