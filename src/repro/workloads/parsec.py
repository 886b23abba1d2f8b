"""Parsec v3.0 workload definitions (pthread-based).

Ten benchmarks matching the paper's evaluation subset, with the
synchronization structure of Table III (critical sections, barriers,
condition variables — scaled down ~100x with the instruction budget)
and the balance classes of Figure 6:

* **balanced** (blackscholes, canneal, fluidanimate, raytrace,
  swaptions): the main thread spawns four workers, divides the work and
  performs none itself;
* **main-works** (facesim, freqmine): main + three workers, the main
  thread computes too (freqmine's main is the bottleneck);
* **imbalanced** (bodytrack, streamcluster, vips): main + three/four
  workers, the main thread only does bookkeeping, so worker parallelism
  is capped below the core count.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List

from repro.workloads import kernels as k
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.ir import SyncKind, SyncOp
from repro.workloads.spec import EpochSpec, WorkloadSpec

#: Paper Table III dynamic synchronization event counts (for reports).
PAPER_TABLE_III: Dict[str, Dict[str, int]] = {
    "blackscholes": {"critical_sections": 0, "barriers": 0, "condvars": 0},
    "bodytrack": {"critical_sections": 6700, "barriers": 98, "condvars": 25},
    "canneal": {"critical_sections": 4, "barriers": 64, "condvars": 0},
    "facesim": {"critical_sections": 10472, "barriers": 0,
                "condvars": 1232},
    "fluidanimate": {"critical_sections": 2_140_206, "barriers": 50,
                     "condvars": 0},
    "freqmine": {"critical_sections": 0, "barriers": 0, "condvars": 0},
    "raytrace": {"critical_sections": 47, "barriers": 0, "condvars": 15},
    "streamcluster": {"critical_sections": 68, "barriers": 13003,
                      "condvars": 34},
    "swaptions": {"critical_sections": 0, "barriers": 0, "condvars": 0},
    "vips": {"critical_sections": 8973, "barriers": 0, "condvars": 1433},
}


def _seed_for(name: str) -> int:
    return zlib.crc32(f"parsec.{name}".encode()) & 0x3FFFFFFF


def _bookkeeping(n: int, region: int) -> EpochSpec:
    """Light main-thread bookkeeping work."""
    return EpochSpec(
        n=n, mix=dict(k.GENERIC),
        mem=(k.working_set(800, region=region),),
        branch=k.BR_MEDIUM, code_lines=32, code_region=region,
    )


def _init_spec(n: int, region: int = 20) -> EpochSpec:
    return EpochSpec(
        n=n, mix=dict(k.GENERIC),
        mem=(k.stream(8_000, region=region, reuse=10),),
        branch=k.BR_MEDIUM, code_lines=64, code_region=region,
    )


def _blackscholes(scale: float) -> WorkloadSpec:
    # Embarrassingly parallel FP option pricing: 4 equal workers,
    # join-only synchronization, streaming over the option array.
    b = WorkloadBuilder("parsec.blackscholes", 5,
                        seed=_seed_for("blackscholes"))
    work = EpochSpec(
        n=int(42_000 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.stream(50_000, region=0, reuse=10),
             k.working_set(1_000, region=1, weight=0.6, hot_frac=1.0,
                           hot_lines=1_000)),
        branch=k.BR_BIASED, mean_dep=5.0, code_lines=80, code_region=1,
    )
    b.spawn_workers(_init_spec(int(3_000 * scale)))
    for tid in b.workers:
        b.compute(tid, work, label="price")
    return b.join_all()


def _bodytrack(scale: float) -> WorkloadSpec:
    # Particle-filter body tracking: condvar barriers between stages,
    # critical sections around the shared work queue; main only
    # coordinates (imbalanced class).
    b = WorkloadBuilder("parsec.bodytrack", 4, seed=_seed_for("bodytrack"))
    worker_work = EpochSpec(
        n=int(2_800 * scale),
        mix=dict(k.mix(ialu=0.30, fp=0.26, load=0.26, store=0.06,
                       branch=0.12)),
        mem=(k.working_set(30_000, hot_lines=1_500, hot_frac=0.96,
                           region=0),
             k.shared_read(8_000, region=1, weight=0.5, hot_frac=0.95)),
        branch=k.BR_MEDIUM, mean_dep=3.2, code_lines=96, code_region=1,
    )
    queue_outer = EpochSpec(
        n=int(220 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.working_set(600, region=2),), branch=k.BR_HARD,
        code_lines=24, code_region=2,
    )
    queue_cs = EpochSpec(
        n=int(70 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.shared_rw(96, region=3),), branch=k.BR_BIASED,
        code_lines=8, code_region=3,
    )
    main_book = _bookkeeping(int(200 * scale), region=4)
    b.spawn_workers(_init_spec(int(7_000 * scale)))
    for phase in range(12):
        b.critical_loop(b.workers, 2, queue_outer, queue_cs,
                        label=f"queue{phase}")
        b.barrier(
            lambda tid: main_book if tid == b.main else worker_work,
            condvar=True, label=f"stage{phase}",
        )
    return b.join_all()


def _canneal(scale: float) -> WorkloadSpec:
    # Simulated annealing of a netlist: random swaps over a huge shared
    # read-write structure (coherence traffic), barrier per temperature
    # step, one lock per worker at setup.
    b = WorkloadBuilder("parsec.canneal", 5, seed=_seed_for("canneal"))
    work = EpochSpec(
        n=int(2_600 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.shared_rw(20_000, region=0, hot_frac=0.92),
             k.working_set(1_500, region=1, weight=0.5, hot_frac=1.0,
                           hot_lines=1_500)),
        branch=k.BR_HARD, mean_dep=2.8, load_chain_frac=0.20,
        code_lines=72, code_region=1,
    )
    setup_cs = EpochSpec(
        n=int(100 * scale), mix=dict(k.GENERIC),
        mem=(k.shared_rw(64, region=2),), branch=k.BR_BIASED,
        code_lines=8, code_region=2,
    )
    b.spawn_workers(_init_spec(int(9_000 * scale)))
    mid = b.new_id()
    for tid in b.workers:
        b.add(tid, None, SyncOp(SyncKind.LOCK, obj=mid), label="setup")
        b.add(tid, setup_cs, SyncOp(SyncKind.UNLOCK, obj=mid),
              label="setup")
    main_book = _bookkeeping(int(120 * scale), region=4)
    for phase in range(16):
        b.barrier(
            lambda tid: main_book if tid == b.main else work,
            label=f"temp{phase}",
        )
    return b.join_all()


def _facesim(scale: float) -> WorkloadSpec:
    # Physics-based face simulation: condvar-barrier task handoffs plus
    # many small critical sections; the main thread computes too and
    # carries slightly more work (Fig. 6's "fairly well balanced").
    b = WorkloadBuilder("parsec.facesim", 4, seed=_seed_for("facesim"))
    work = EpochSpec(
        n=int(3_400 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.working_set(45_000, hot_lines=2_500, hot_frac=0.96,
                           region=0),),
        branch=k.BR_MEDIUM, mean_dep=2.6, load_chain_frac=0.08,
        code_lines=112, code_region=1,
    )
    task_outer = EpochSpec(
        n=int(160 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.working_set(400, region=2),), branch=k.BR_MEDIUM,
        code_lines=16, code_region=2,
    )
    task_cs = EpochSpec(
        n=int(50 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.shared_rw(64, region=3),), branch=k.BR_BIASED,
        code_lines=8, code_region=3,
    )
    b.spawn_workers(_init_spec(int(8_000 * scale)))
    for phase in range(12):
        b.critical_loop(b.all_threads, 2, task_outer, task_cs,
                        label=f"tasks{phase}")
        b.barrier(
            lambda tid: work.scaled(1.12) if tid == b.main else work,
            condvar=True, label=f"frame{phase}",
        )
    return b.join_all()


def _fluidanimate(scale: float) -> WorkloadSpec:
    # SPH fluid simulation: fine-grained per-cell locking (the paper's
    # 2.1M critical sections) between frame barriers; balanced workers.
    b = WorkloadBuilder("parsec.fluidanimate", 5,
                        seed=_seed_for("fluidanimate"))
    cell_outer = EpochSpec(
        n=int(260 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.working_set(9_000, hot_lines=700, hot_frac=0.97,
                           region=0),),
        branch=k.BR_EASY, mean_dep=3.4, code_lines=64, code_region=1,
    )
    cell_cs = EpochSpec(
        n=int(40 * scale), mix=dict(k.MEM_STREAM),
        mem=(k.shared_rw(2_000, region=2, hot_frac=0.9),),
        branch=k.BR_BIASED, code_lines=12, code_region=2,
    )
    frame_work = EpochSpec(
        n=int(750 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.stream(12_000, region=3, reuse=10),),
        branch=k.BR_EASY, mean_dep=4.0, code_lines=48, code_region=3,
    )
    main_book = _bookkeeping(int(100 * scale), region=4)
    b.spawn_workers(_init_spec(int(8_000 * scale)))
    for phase in range(10):
        b.critical_loop(b.workers, 15, cell_outer, cell_cs,
                        label=f"cells{phase}")
        b.barrier(
            lambda tid: main_book if tid == b.main else frame_work,
            label=f"frame{phase}",
        )
    return b.join_all()


def _freqmine(scale: float) -> WorkloadSpec:
    # FP-growth frequent itemset mining: join-only synchronization; the
    # main thread builds the FP-tree (a large serial share) and is the
    # scalability bottleneck of Fig. 6.
    b = WorkloadBuilder("parsec.freqmine", 4, seed=_seed_for("freqmine"))
    main_work = EpochSpec(
        n=int(52_000 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.pointer_chase(3_500, region=0),
             k.working_set(2_000, region=1, weight=0.8, hot_frac=1.0,
                           hot_lines=2_000)),
        branch=k.BR_HARD, mean_dep=2.6, load_chain_frac=0.35,
        code_lines=128, code_region=1,
    )
    worker_work = EpochSpec(
        n=int(30_000 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.pointer_chase(3_000, region=2),
             k.shared_read(12_000, region=3, weight=0.6, hot_frac=0.95)),
        branch=k.BR_HARD, mean_dep=2.8, load_chain_frac=0.30,
        code_lines=128, code_region=2,
    )
    b.spawn_workers(_init_spec(int(7_000 * scale)))
    b.compute(b.main, main_work, label="fptree")
    for tid in b.workers:
        b.compute(tid, worker_work, label="mine")
    return b.join_all()


def _raytrace(scale: float) -> WorkloadSpec:
    # Real-time raytracing: balanced tile workers over a shared
    # read-only BVH, a few work-queue critical sections and one condvar
    # barrier per frame pair.
    b = WorkloadBuilder("parsec.raytrace", 5, seed=_seed_for("raytrace"))
    work = EpochSpec(
        n=int(12_500 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.shared_read(90_000, region=0, hot_frac=0.93),
             k.working_set(1_200, region=1, weight=0.7, hot_frac=1.0,
                           hot_lines=1_200)),
        branch=k.BR_PERIODIC, mean_dep=3.0, load_chain_frac=0.15,
        code_lines=112, code_region=1,
    )
    queue_outer = EpochSpec(
        n=int(150 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.working_set(300, region=2),), branch=k.BR_MEDIUM,
        code_lines=12, code_region=2,
    )
    queue_cs = EpochSpec(
        n=int(40 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.shared_rw(48, region=3),), branch=k.BR_BIASED,
        code_lines=6, code_region=3,
    )
    main_book = _bookkeeping(int(150 * scale), region=4)
    b.spawn_workers(_init_spec(int(8_000 * scale)))
    for frame in range(3):
        b.critical_loop(b.workers, 2, queue_outer, queue_cs,
                        label=f"queue{frame}")
        b.barrier(
            lambda tid: main_book if tid == b.main else work,
            condvar=True, label=f"frame{frame}",
        )
    return b.join_all()


def _streamcluster(scale: float) -> WorkloadSpec:
    # Online clustering: the paper's barrier-heavy extreme (13k
    # barriers); main only coordinates, three workers stream through a
    # shared point block (imbalanced class).
    b = WorkloadBuilder("parsec.streamcluster", 4,
                        seed=_seed_for("streamcluster"))
    work = EpochSpec(
        n=int(430 * scale), mix=dict(k.MEM_STREAM),
        mem=(k.shared_read(130_000, region=0, hot_frac=0.90),
             k.working_set(1_500, region=1, weight=0.5, hot_frac=1.0,
                           hot_lines=1_500)),
        branch=k.BR_MEDIUM, mean_dep=4.5, load_chain_frac=0.05,
        code_lines=64, code_region=1,
    )
    cs_spec = EpochSpec(
        n=int(60 * scale), mix=dict(k.GENERIC),
        mem=(k.shared_rw(64, region=2),), branch=k.BR_BIASED,
        code_lines=8, code_region=2,
    )
    main_book = _bookkeeping(int(25 * scale), region=4)
    b.spawn_workers(_init_spec(int(6_000 * scale)))
    for phase in range(150):
        if phase % 40 == 0:
            b.critical_loop(b.workers, 1,
                            _bookkeeping(int(80 * scale), region=5),
                            cs_spec, label="open")
        b.barrier(
            lambda tid: main_book if tid == b.main else work,
            condvar=(phase % 25 == 0), label=f"pass{phase}",
        )
    return b.join_all()


def _swaptions(scale: float) -> WorkloadSpec:
    # Monte-Carlo swaption pricing: perfectly balanced independent
    # workers, join-only.
    b = WorkloadBuilder("parsec.swaptions", 5, seed=_seed_for("swaptions"))
    work = EpochSpec(
        n=int(40_000 * scale), mix=dict(k.FP_COMPUTE),
        mem=(k.working_set(2_500, hot_lines=2_500, hot_frac=1.0,
                           region=0),),
        branch=k.BR_EASY, mean_dep=4.5, code_lines=96, code_region=1,
    )
    b.spawn_workers(_init_spec(int(6_000 * scale)))
    for tid in b.workers:
        b.compute(tid, work, label="simulate")
    return b.join_all()


def _vips(scale: float) -> WorkloadSpec:
    # Image pipeline with a thread pool: the main thread produces work
    # items through a condvar-protected queue (producer-consumer idiom),
    # workers consume; plus per-item critical sections (imbalanced
    # class: main does little actual work).
    b = WorkloadBuilder("parsec.vips", 4, seed=_seed_for("vips"))
    produce_spec = EpochSpec(
        n=int(50 * scale), mix=dict(k.GENERIC),
        mem=(k.working_set(500, region=4),), branch=k.BR_MEDIUM,
        code_lines=24, code_region=4,
    )
    consume_work = EpochSpec(
        n=int(2_300 * scale), mix=dict(k.MEM_STREAM),
        mem=(k.stream(20_000, region=0, reuse=10),
             k.shared_read(4_000, region=1, weight=0.4, hot_frac=0.95)),
        branch=k.BR_MEDIUM, mean_dep=4.2, code_lines=96, code_region=1,
    )
    tile_cs = EpochSpec(
        n=int(45 * scale), mix=dict(k.INT_CONTROL),
        mem=(k.shared_rw(48, region=3),), branch=k.BR_BIASED,
        code_lines=6, code_region=3,
    )
    b.spawn_workers(_init_spec(int(3_000 * scale)))
    n_items = 36
    per_worker = n_items // len(b.workers)
    queue = b.new_id()
    for item in range(n_items):
        b.produce(b.main, produce_spec, queue, label=f"item{item}")
    for tid in b.workers:
        for i in range(per_worker):
            b.consume(tid, None if i == 0 else consume_work, queue)
            b.critical_loop([tid], 3,
                            _bookkeeping(int(30 * scale), region=5),
                            tile_cs, label="tile")
        b.compute(tid, consume_work, label="drain")
    return b.join_all()


_BUILDERS: Dict[str, Callable[[float], WorkloadSpec]] = {
    "blackscholes": _blackscholes,
    "bodytrack": _bodytrack,
    "canneal": _canneal,
    "facesim": _facesim,
    "fluidanimate": _fluidanimate,
    "freqmine": _freqmine,
    "raytrace": _raytrace,
    "streamcluster": _streamcluster,
    "swaptions": _swaptions,
    "vips": _vips,
}

#: Benchmark names in the paper's Figure 4/6 order.
PARSEC: List[str] = list(_BUILDERS)

#: Figure 6 balance classes (for the bottlegraph experiment's checks).
BALANCE_CLASS: Dict[str, str] = {
    "blackscholes": "balanced",
    "canneal": "balanced",
    "fluidanimate": "balanced",
    "raytrace": "balanced",
    "swaptions": "balanced",
    "facesim": "main_works",
    "freqmine": "main_works",
    "bodytrack": "imbalanced",
    "streamcluster": "imbalanced",
    "vips": "imbalanced",
}


def parsec_workload(name: str, scale: float = 1.0) -> WorkloadSpec:
    """Build the named Parsec benchmark as a workload spec."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown Parsec benchmark {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    return builder(scale)
