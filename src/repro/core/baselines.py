"""The naive multithreaded extensions MAIN and CRIT (paper §II-C).

Both apply the single-threaded Eq.-1 model per thread and ignore
synchronization, shared-resource contention modeling of idle time and
error accumulation — they are the strawmen Figure 4 compares RPPM
against:

* **MAIN** predicts the whole application's time as the main thread's
  predicted active time;
* **CRIT** predicts every thread's active time and takes the maximum
  (the predicted critical thread).

Note both use the same profile as RPPM, so their miss rates do include
the profiled interference — exactly as in the paper, their deficiency
is the missing synchronization model, not worse inputs.
"""

from __future__ import annotations

from typing import List

from repro.arch.config import MulticoreConfig
from repro.core.epoch_model import EpochCostCache, predict_active_cycles
from repro.profiler.profile import WorkloadProfile


def _thread_active_cycles(
    profile: WorkloadProfile, config: MulticoreConfig
) -> List[float]:
    durations, _ = predict_active_cycles(EpochCostCache(profile, config))
    totals = []
    for per_segment in durations:
        total = 0.0
        for cycles in per_segment:
            total += cycles
        totals.append(total)
    return totals


def predict_main(
    profile: WorkloadProfile, config: MulticoreConfig
) -> float:
    """MAIN: the main thread's predicted active time, in cycles."""
    return _thread_active_cycles(profile, config)[0]


def predict_crit(
    profile: WorkloadProfile, config: MulticoreConfig
) -> float:
    """CRIT: the slowest predicted thread's active time, in cycles."""
    return max(_thread_active_cycles(profile, config))
