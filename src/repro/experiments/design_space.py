"""Table V: design-space exploration — predicting the optimum design.

The Rodinia benchmarks are profiled once and predicted on the five
Table IV design points (equal peak operations per second, width 2-6).
For a bound ``x``, RPPM short-lists every design point predicted within
``x`` of its predicted optimum; the short-list is then resolved by
simulation.  The reported *deficiency* is how much slower the
resolved choice is than the true (exhaustively simulated) optimum —
zero whenever the true optimum made the short-list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.presets import design_space
from repro.experiments.suites import (
    BenchmarkRef,
    RunCache,
    rodinia_suite,
    shared_cache,
)

#: The paper's Table V bounds.
BOUNDS = (0.0, 0.01, 0.03, 0.05)


@dataclass(frozen=True)
class DesignPointOutcome:
    """Predicted and simulated execution time of one design point."""

    point: str
    predicted_seconds: float
    simulated_seconds: float


@dataclass(frozen=True)
class Table5Row:
    """One benchmark's Table V entries across bounds."""

    benchmark: str
    outcomes: Dict[str, DesignPointOutcome]
    #: bound -> (deficiency, shortlist size), the paper's cell pair.
    cells: Dict[float, "Table5Cell"]


@dataclass(frozen=True)
class Table5Cell:
    deficiency: float
    shortlist: int


@dataclass
class Table5Result:
    rows: List[Table5Row]
    bounds: Sequence[float]

    def average_deficiency(self, bound: float) -> float:
        return float(
            np.mean([r.cells[bound].deficiency for r in self.rows])
        )

    def row(self, benchmark: str) -> Table5Row:
        for r in self.rows:
            if r.benchmark == benchmark:
                return r
        raise KeyError(benchmark)


def _seconds(cycles: float, frequency_ghz: float) -> float:
    return cycles / (frequency_ghz * 1e9)


def run_benchmark_dse(
    ref: BenchmarkRef,
    cache: RunCache,
    bounds: Sequence[float] = BOUNDS,
    cores: int = 4,
) -> Table5Row:
    """Table V's experiment for one benchmark."""
    outcomes: Dict[str, DesignPointOutcome] = {}
    for config in design_space(cores=cores):
        pred = cache.prediction(ref, config)
        sim = cache.simulation(ref, config)
        ghz = config.core.frequency_ghz
        outcomes[config.name] = DesignPointOutcome(
            point=config.name,
            predicted_seconds=_seconds(pred.total_cycles, ghz),
            simulated_seconds=_seconds(sim.total_cycles, ghz),
        )
    true_best = min(o.simulated_seconds for o in outcomes.values())
    pred_best = min(o.predicted_seconds for o in outcomes.values())
    cells: Dict[float, Table5Cell] = {}
    for bound in bounds:
        shortlist = [
            o for o in outcomes.values()
            if o.predicted_seconds <= pred_best * (1.0 + bound)
        ]
        # Simulation resolves the short-list (the paper's methodology):
        # the chosen point is the simulated-best among the short-list.
        chosen = min(shortlist, key=lambda o: o.simulated_seconds)
        cells[bound] = Table5Cell(
            deficiency=chosen.simulated_seconds / true_best - 1.0,
            shortlist=len(shortlist),
        )
    return Table5Row(benchmark=ref.name, outcomes=outcomes, cells=cells)


def run_table5(
    benchmarks: Optional[Sequence[BenchmarkRef]] = None,
    bounds: Sequence[float] = BOUNDS,
    cache: Optional[RunCache] = None,
    cores: int = 4,
    jobs: Optional[int] = None,
) -> Table5Result:
    """Table V over the Rodinia suite (the paper's scope).

    Every (benchmark, design point) prediction and simulation is
    prefetched over ``jobs`` worker processes (default: CPU count)
    before the rows assemble; the profile — and its per-pool ILP
    tables — is shared across all five design points.
    """
    benchmarks = list(benchmarks) if benchmarks else rodinia_suite()
    cache = cache or shared_cache()
    cache.prefetch(
        benchmarks,
        configs=tuple(design_space(cores=cores)),
        workers=jobs,
        simulate=True,
    )
    rows = [
        run_benchmark_dse(ref, cache, bounds=bounds, cores=cores)
        for ref in benchmarks
    ]
    return Table5Result(rows=rows, bounds=tuple(bounds))


def render_table5(result: Table5Result) -> str:
    """Table V as printable text (deficiency and short-list size)."""
    bounds = list(result.bounds)
    header = f"{'Bound':>16s}  " + "  ".join(
        f"{'0%' if b == 0 else f'< {b:.0%}':>10s}" for b in bounds
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        cells = "  ".join(
            f"{row.cells[b].deficiency:>7.2%} {row.cells[b].shortlist}"
            for b in bounds
        )
        lines.append(f"{row.benchmark:>16s}  {cells}")
    lines.append("-" * len(header))
    avg = "  ".join(
        f"{result.average_deficiency(b):>7.2%}  " for b in bounds
    )
    lines.append(f"{'average':>16s}  {avg}")
    return "\n".join(lines)
