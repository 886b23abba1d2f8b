"""Rodinia v3.1 workload definitions (OpenMP, barrier-synchronized).

Sixteen benchmarks matching the paper's evaluation set (Tables II/V).
Each definition reproduces the benchmark's *performance personality* —
instruction mix, locality class, branch predictability, ILP, phase
structure and balance — scaled to tractable instruction counts (the
``scale`` parameter multiplies the per-phase budget; 1.0 corresponds to
roughly 2x10^5 ROI instructions, ~3 orders of magnitude below the real
inputs, see DESIGN.md §2).

Rodinia benchmarks are barrier-only (paper §IV): the main thread works
alongside the workers in every parallel phase, so MAIN is a reasonable
(if synchronization-blind) baseline here, unlike on Parsec.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads import kernels as k
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.spec import BranchSpec, EpochSpec, MemPattern, WorkloadSpec


@dataclass(frozen=True)
class RodiniaDef:
    """Declarative description of one Rodinia benchmark."""

    name: str
    paper_input: str
    mix: Dict[str, float]
    mem: Tuple[MemPattern, ...]
    branch: BranchSpec
    mean_dep: float
    load_chain_frac: float
    phases: int
    work_per_phase: int  # per-thread micro-ops at scale=1.0
    #: Per-thread imbalance factors, rotated across phases.
    imbalance: Tuple[float, ...]
    #: Phase-dependent work profile (triangular solvers etc.).
    phase_profile: str = "flat"  # flat | triangular | wavefront
    init_work: int = 6000
    final_work: int = 3000
    code_lines: int = 96


def _phase_factor(profile: str, phase: int, n_phases: int) -> float:
    if profile == "flat":
        return 1.0
    if profile == "triangular":
        # Shrinking work per phase (LU factorization).
        return 2.0 * (n_phases - phase) / (n_phases + 1)
    if profile == "wavefront":
        # Grow-then-shrink anti-diagonal sweep (Needleman-Wunsch).
        half = (n_phases + 1) / 2.0
        return min(phase + 1, n_phases - phase) / half
    raise ValueError(f"unknown phase profile {profile!r}")


_DEFS: List[RodiniaDef] = [
    RodiniaDef(
        name="backprop", paper_input="4,194,304",
        # Neural-net training: FP streaming over weight matrices far
        # beyond the LLC; independent loads give the paper's MLP ~5 and
        # the suite's highest MPKI (paper: up to 40).
        mix=k.MEM_STREAM,
        mem=(k.stream(100_000, region=0, reuse=8),),
        branch=k.BR_BIASED, mean_dep=6.0, load_chain_frac=0.02,
        phases=8, work_per_phase=5200,
        imbalance=(1.0, 0.98, 1.02, 1.0),
    ),
    RodiniaDef(
        name="bfs", paper_input="graph8M",
        # Breadth-first search: pointer chasing over the frontier with
        # data-dependent branches; low MLP, poor predictability.
        mix=k.INT_CONTROL,
        mem=(k.pointer_chase(3_000, region=0),
             k.working_set(400, region=1, weight=0.6, hot_frac=1.0,
                           hot_lines=400)),
        branch=k.BR_HARD, mean_dep=2.4, load_chain_frac=0.45,
        phases=10, work_per_phase=3600,
        imbalance=(1.0, 1.08, 0.94, 0.98),
    ),
    RodiniaDef(
        name="cfd", paper_input="fvcorr.domn.010K",
        # Unstructured-grid solver: long FP dependence chains (low ILP,
        # the paper's dominant base-component error) on L2-resident data.
        mix=k.FP_COMPUTE,
        mem=(k.working_set(60_000, hot_lines=2_500, hot_frac=0.97,
                           region=0),),
        branch=k.BR_BIASED, mean_dep=1.8, load_chain_frac=0.10,
        phases=8, work_per_phase=5000,
        imbalance=(1.0, 0.99, 1.01, 1.0),
    ),
    RodiniaDef(
        name="heartwall", paper_input="test.avi 10",
        # Image tracking: mixed integer/FP on tile-sized working sets.
        mix=k.mix(ialu=0.34, fp=0.22, load=0.26, store=0.06, branch=0.12),
        mem=(k.working_set(12_000, hot_lines=450, hot_frac=0.96,
                           region=0),),
        branch=k.BR_PERIODIC, mean_dep=3.5, load_chain_frac=0.05,
        phases=10, work_per_phase=4200,
        imbalance=(1.0, 1.04, 0.97, 0.99),
    ),
    RodiniaDef(
        name="hotspot", paper_input="16384 5",
        # Stencil iteration: streaming rows, very predictable branches,
        # many barrier-delimited time steps.
        mix=k.MEM_STREAM,
        mem=(k.stream(24_000, region=0, reuse=12),
             k.working_set(1_200, region=1, weight=0.8, hot_frac=1.0,
                           hot_lines=1_200)),
        branch=k.BR_EASY, mean_dep=5.0, load_chain_frac=0.0,
        phases=20, work_per_phase=2200,
        imbalance=(1.0, 0.99, 1.01, 1.0),
    ),
    RodiniaDef(
        name="kmeans", paper_input="kdd cup",
        # Clustering: hot centroid table + streaming points; FP distance
        # computation with biased convergence branches.
        mix=k.mix(ialu=0.26, fp=0.30, load=0.28, store=0.05, branch=0.11),
        mem=(k.working_set(90_000, hot_lines=500, hot_frac=0.95,
                           region=0),),
        branch=k.BR_BIASED, mean_dep=4.0, load_chain_frac=0.03,
        phases=8, work_per_phase=5200,
        imbalance=(1.0, 1.02, 0.98, 1.0),
    ),
    RodiniaDef(
        name="lavaMD", paper_input="10",
        # N-body within cut-off boxes: compute-dense FP, small footprint.
        mix=k.FP_COMPUTE,
        mem=(k.working_set(1_600, hot_lines=1_600, hot_frac=1.0,
                           region=0),),
        branch=k.BR_EASY, mean_dep=5.5, load_chain_frac=0.0,
        phases=6, work_per_phase=7200,
        imbalance=(1.0, 1.01, 0.99, 1.0),
    ),
    RodiniaDef(
        name="leukocyte", paper_input="testfile.avi 5",
        # Cell tracking: FP stencils on frame tiles, mostly L1-resident.
        mix=k.FP_COMPUTE,
        mem=(k.working_set(6_000, hot_lines=450, hot_frac=0.98,
                           region=0),),
        branch=k.BR_MEDIUM, mean_dep=3.8, load_chain_frac=0.04,
        phases=10, work_per_phase=4300,
        imbalance=(1.0, 0.98, 1.03, 0.99),
    ),
    RodiniaDef(
        name="lud", paper_input="2048.dat",
        # LU decomposition: triangular phase profile — later phases do
        # less work, stressing the barrier model's idle accounting.
        mix=k.FP_COMPUTE,
        mem=(k.working_set(40_000, hot_lines=2_500, hot_frac=0.95,
                           region=0),),
        branch=k.BR_EASY, mean_dep=3.0, load_chain_frac=0.05,
        phases=12, work_per_phase=4200,
        imbalance=(1.0, 1.10, 0.92, 0.98), phase_profile="triangular",
    ),
    RodiniaDef(
        name="myocyte", paper_input="100 1 0",
        # ODE integration: dominated by the main thread's sequential
        # solver with small parallel slices (near-degenerate bottlegraph).
        mix=k.FP_COMPUTE,
        mem=(k.working_set(900, hot_lines=900, hot_frac=1.0, region=0),),
        branch=k.BR_BIASED, mean_dep=2.0, load_chain_frac=0.08,
        phases=6, work_per_phase=1800,
        imbalance=(1.0, 0.97, 1.02, 1.01),
        init_work=26_000, final_work=12_000,
    ),
    RodiniaDef(
        name="nn", paper_input="4096k",
        # Nearest neighbour: one streaming reduction pass, memory-bound.
        mix=k.MEM_STREAM,
        mem=(k.stream(220_000, region=0, reuse=8),
             k.working_set(400, region=1, weight=0.3, hot_frac=1.0,
                           hot_lines=400)),
        branch=k.BR_BIASED, mean_dep=6.5, load_chain_frac=0.0,
        phases=4, work_per_phase=8400,
        imbalance=(1.0, 1.0, 1.01, 0.99),
    ),
    RodiniaDef(
        name="nw", paper_input="16k x 16k",
        # Needleman-Wunsch wavefront: work per anti-diagonal grows then
        # shrinks (the paper's hardest DSE case).
        mix=k.mix(ialu=0.38, fp=0.08, load=0.28, store=0.10, branch=0.16),
        mem=(k.working_set(110_000, hot_lines=3_000, hot_frac=0.94,
                           region=0),),
        branch=k.BR_MEDIUM, mean_dep=2.6, load_chain_frac=0.12,
        phases=14, work_per_phase=3400,
        imbalance=(1.0, 1.07, 0.95, 0.99), phase_profile="wavefront",
    ),
    RodiniaDef(
        name="particlefilter", paper_input="128 x 128 x 10",
        # Monte-Carlo tracking: random table lookups, branchy resampling.
        mix=k.INT_CONTROL,
        mem=(k.working_set(5_000, hot_lines=800, hot_frac=0.95,
                           region=0),),
        branch=k.BR_HARD, mean_dep=3.0, load_chain_frac=0.10,
        phases=10, work_per_phase=4200,
        imbalance=(1.0, 1.03, 0.96, 1.01),
    ),
    RodiniaDef(
        name="pathfinder", paper_input="1M x 1k",
        # Grid dynamic programming: short rows, many barriers, streaming.
        mix=k.mix(ialu=0.40, fp=0.04, load=0.28, store=0.12, branch=0.16),
        mem=(k.stream(16_000, region=0, reuse=16),),
        branch=k.BR_MEDIUM, mean_dep=3.2, load_chain_frac=0.06,
        phases=24, work_per_phase=1800,
        imbalance=(1.0, 1.02, 0.98, 1.0),
    ),
    RodiniaDef(
        name="srad", paper_input="2048",
        # Speckle-reducing diffusion: FP stencil streaming, two passes
        # per iteration.
        mix=k.FP_COMPUTE,
        mem=(k.stream(30_000, region=0, reuse=12),
             k.working_set(2_000, region=1, weight=0.5, hot_frac=1.0,
                           hot_lines=2_000)),
        branch=k.BR_EASY, mean_dep=3.6, load_chain_frac=0.02,
        phases=16, work_per_phase=2800,
        imbalance=(1.0, 0.99, 1.02, 1.0),
    ),
    RodiniaDef(
        name="streamcluster", paper_input="256k",
        # Online clustering: shared read-mostly centre table, many
        # barriers, memory-bound (the paper's hardest DSE benchmark).
        mix=k.MEM_STREAM,
        mem=(k.shared_read(140_000, region=0, hot_frac=0.90),
             k.working_set(2_000, region=1, weight=0.7, hot_frac=1.0,
                           hot_lines=2_000),),
        branch=k.BR_MEDIUM, mean_dep=4.5, load_chain_frac=0.08,
        phases=30, work_per_phase=1600,
        imbalance=(1.0, 1.04, 0.97, 0.99),
    ),
]

#: Benchmark name -> definition.
RODINIA: Dict[str, RodiniaDef] = {d.name: d for d in _DEFS}


def _seed_for(name: str) -> int:
    # Stable across processes (unlike hash(), which is salted).
    return zlib.crc32(f"rodinia.{name}".encode()) & 0x3FFFFFFF


def rodinia_workload(
    name: str,
    threads: int = 4,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """Build the named Rodinia benchmark as a workload spec.

    ``threads`` counts the main thread (paper: a pool of threads-1
    workers plus the main thread, all participating in every barrier).
    """
    try:
        d = RODINIA[name]
    except KeyError:
        raise ValueError(
            f"unknown Rodinia benchmark {name!r}; "
            f"known: {sorted(RODINIA)}"
        ) from None
    if threads < 1:
        raise ValueError("need at least one thread")
    builder = WorkloadBuilder(
        f"rodinia.{name}", threads,
        seed=_seed_for(name) if seed is None else seed,
    )
    base = EpochSpec(
        n=max(1, int(d.work_per_phase * scale)),
        mix=dict(d.mix),
        mean_dep=d.mean_dep,
        load_chain_frac=d.load_chain_frac,
        mem=d.mem,
        branch=d.branch,
        code_lines=d.code_lines,
        code_region=1,
    )
    init = EpochSpec(
        n=max(1, int(d.init_work * scale)),
        mix=dict(k.GENERIC),
        mem=(k.stream(6_000, region=7),),
        branch=k.BR_MEDIUM,
        code_lines=64,
        code_region=0,
    )
    final = EpochSpec(
        n=max(1, int(d.final_work * scale)),
        mix=dict(k.GENERIC),
        mem=(k.working_set(3_000, region=8),),
        branch=k.BR_MEDIUM,
        code_lines=48,
        code_region=2,
    )
    builder.spawn_workers(init)
    for phase in range(d.phases):
        pf = _phase_factor(d.phase_profile, phase, d.phases)

        def spec_for(tid: int, _pf: float = pf, _phase: int = phase):
            factor = d.imbalance[(tid + _phase) % len(d.imbalance)]
            return base.scaled(_pf * factor)

        builder.barrier(spec_for, label=f"phase{phase}")
    return builder.join_all(final_spec=final)
