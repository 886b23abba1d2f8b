"""Simulation result data model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.cpi_stack import CPIStack
from repro.runtime.timeline import Timeline


@dataclass
class ThreadResult:
    """Per-thread outcome of a simulation (or a prediction)."""

    thread_id: int
    instructions: int
    active_cycles: float
    idle_cycles: float
    stack: CPIStack
    branch_misses: int = 0
    fetch_misses: int = 0
    long_loads: int = 0

    @property
    def total_cycles(self) -> float:
        return self.active_cycles + self.idle_cycles


@dataclass
class SimulationResult:
    """Outcome of simulating one workload on one configuration."""

    workload: str
    config: str
    total_cycles: float
    threads: List[ThreadResult]
    timeline: Timeline
    invalidations: int = 0

    @property
    def n_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)

    def average_stack(self) -> CPIStack:
        """Average per-thread CPI stack (the paper's Fig. 5 metric)."""
        return CPIStack.merged(t.stack for t in self.threads)
