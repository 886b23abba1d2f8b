"""Thread-count scaling analysis (extension; paper §III future work).

The paper conjectures one thread per core and profiles at the target
thread count.  This extension sweeps thread counts (one profile *per
count*, per the paper's requirement) and reports predicted and
simulated speedup curves — the application-performance-analysis use
case the paper's introduction motivates, and a stepping stone toward
the more-threads-than-cores future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.arch.config import MulticoreConfig
from repro.arch.presets import table_iv_config
from repro.core.rppm import predict
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.workloads.engine import expand as engine_expand
from repro.workloads.rodinia import RODINIA, rodinia_workload

#: Default thread counts (the base machine has four cores).
THREAD_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class ScalingPoint:
    """Predicted/simulated time at one thread count."""

    threads: int
    predicted_cycles: float
    simulated_cycles: float


@dataclass
class ScalingCurve:
    """Speedup curve of one benchmark across thread counts."""

    benchmark: str
    points: List[ScalingPoint]

    def _base(self, attr: str) -> float:
        one = min(self.points, key=lambda p: p.threads)
        return getattr(one, attr)

    def predicted_speedups(self) -> Dict[int, float]:
        base = self._base("predicted_cycles")
        return {
            p.threads: base / p.predicted_cycles for p in self.points
        }

    def simulated_speedups(self) -> Dict[int, float]:
        base = self._base("simulated_cycles")
        return {
            p.threads: base / p.simulated_cycles for p in self.points
        }

    def max_speedup_error(self) -> float:
        """Worst absolute speedup error across the curve."""
        pred = self.predicted_speedups()
        sim = self.simulated_speedups()
        return max(
            abs(pred[t] - sim[t]) / sim[t] for t in pred
        )


def run_scaling_curve(
    benchmark: str,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    config: Optional[MulticoreConfig] = None,
    scale: float = 1.0,
    session=None,
) -> ScalingCurve:
    """Predicted and simulated scaling of one Rodinia benchmark.

    Following the paper, each thread count gets its own profile (the
    profile's thread count must equal the prediction's); the *per
    profile* cost is what RPPM amortizes across configurations, not
    across thread counts.

    The sweep is *strong scaling*: the total work is fixed at the
    largest thread count's budget and divided across however many
    threads run, so ideal speedup equals the thread count.

    A :class:`~repro.core.session.Session` shares trace expansions,
    ILP tables and segment precompute across the sweep's points (and,
    store-backed, across runs).
    """
    if benchmark not in RODINIA:
        raise ValueError(f"unknown Rodinia benchmark {benchmark!r}")
    config = config or table_iv_config("base")
    reference = max(thread_counts)
    points = []
    for threads in thread_counts:
        spec = rodinia_workload(
            benchmark, threads=threads,
            scale=scale * reference / threads,
        )
        # Each point's trace is shared between profiling and
        # simulation via the local below and freed when it rebinds; a
        # session additionally shares points across sweeps (and,
        # store-backed, across runs) at the cost of retaining them in
        # its LRU.
        if session is not None:
            trace = session.traces.get(spec)
        else:
            trace = engine_expand(spec)
        profile = profile_workload(trace, session=session)
        points.append(
            ScalingPoint(
                threads=threads,
                predicted_cycles=predict(
                    profile, config, session=session
                ).total_cycles,
                simulated_cycles=simulate(
                    trace, config, session=session
                ).total_cycles,
            )
        )
    return ScalingCurve(benchmark=benchmark, points=points)


def render_scaling(curve: ScalingCurve) -> str:
    pred = curve.predicted_speedups()
    sim = curve.simulated_speedups()
    lines = [
        f"scaling of {curve.benchmark}",
        f"{'threads':>8s} {'pred speedup':>13s} {'sim speedup':>12s}",
    ]
    for p in sorted(curve.points, key=lambda p: p.threads):
        lines.append(
            f"{p.threads:>8d} {pred[p.threads]:>13.2f} "
            f"{sim[p.threads]:>12.2f}"
        )
    return "\n".join(lines)
