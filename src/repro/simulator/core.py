"""Cycle-accounting out-of-order core model.

Per trace block, a scoreboard computes dispatch, issue and completion
times per micro-op:

* dispatch is bounded by pipeline width, front-end readiness (branch
  redirects, instruction-cache misses) and ROB occupancy (an op cannot
  dispatch until the op ``rob_size`` earlier has committed — in-order
  commit),
* issue waits for the producer recorded in the trace's dependence
  array,
* loads/stores get their latency from the coherent memory system;
  branches consult the stateful tournament predictor; a mispredict
  redirects the front-end ``frontend_depth`` cycles after the branch
  completes.

Cache, coherence and predictor outcomes depend only on the order of
accesses and branch outcomes, never on cycle timing.  So
:meth:`CoreSim.run_block` first resolves the whole block —
:meth:`~repro.simulator.caches.MemorySystem.replay` for the memory
traffic, :meth:`~repro.branch.predictors.TournamentPredictor.run` for
the branches — and then runs the timing recurrence over plain per-op
lists.  The scheduler runs each block whole, so the order of accesses
across cores is the same as with per-access calls inside the loop.

Cycle attribution (for the Figure 5 CPI stacks): front-end stalls are
charged to their cause (branch/icache) at the moment they bind dispatch;
ROB-full stalls are charged to memory when the blocking op is a
long-latency load; everything else is base.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.arch.config import CoreConfig
from repro.branch.predictors import TournamentPredictor
from repro.simulator.caches import MemorySystem
from repro.workloads.ir import (
    OP_CLASSES,
    OP_LOAD,
    TraceBlock,
    instruction_pcs,
)


@dataclass
class BlockCosts:
    """Timing outcome of one block on one core."""

    cycles: float
    base: float
    branch: float
    icache: float
    mem: float
    branch_misses: int
    fetch_misses: int
    long_loads: int


class CoreSim:
    """One core's execution engine (scoreboard + predictor state)."""

    def __init__(self, config: CoreConfig, memory: MemorySystem,
                 core_id: int, predictor: TournamentPredictor):
        self.config = config
        self.memory = memory
        self.core_id = core_id
        self.predictor = predictor
        # Latency per op class; loads take theirs from the memory
        # system, so their entry is 0 and replay's latency is added.
        self._op_lat = np.array([
            0 if code == OP_LOAD else config.op_latency[name]
            for code, name in enumerate(OP_CLASSES)
        ], dtype=np.int64)

    def run_block(self, block: TraceBlock) -> BlockCosts:
        n = block.n_instructions
        if n == 0:
            return BlockCosts(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        cfg = self.config
        inv_width = 1.0 / cfg.dispatch_width
        rob = cfg.rob_size
        depth = cfg.frontend_depth

        fetch_extra, load_lat, to_memory = self.memory.replay(
            self.core_id, block
        )
        op_lat = self._op_lat[block.op].tolist()
        # A producer outside the block (or none) becomes distance 0,
        # which reads the op's own completion slot — still 0.0 when
        # read, the "no producer" ready time.
        dep = block.dep
        deps = np.where(
            (dep < 0) | (dep > np.arange(n)), 0, dep
        ).tolist()
        branch_miss = [False] * n
        br_idx = block.branch_indices()
        if len(br_idx):
            pcs = instruction_pcs(block)[br_idx]
            miss_mask = self.predictor.run(pcs, block.taken[br_idx])
            for i in br_idx[miss_mask].tolist():
                branch_miss[i] = True

        comp = [0.0] * n  # completion time per op
        # commit[i + rob]: commit time of op i.  The rob leading zeros
        # stand for ops before the block and never bind dispatch
        # (dispatch times are >= 0).
        commit = [0.0] * (rob + n)
        # MSHR occupancy: completion times of outstanding memory-level
        # misses, FIFO (miss latency is constant so completions are in
        # issue order).  A full MSHR file delays the next miss until the
        # oldest outstanding one returns.
        mshrs = deque()
        mshr_cap = cfg.mshr_entries
        commit_prev = 0.0
        d_prev = -inv_width
        fe_ready = 0.0
        fe_cause = 0  # 1 = branch redirect, 2 = icache miss

        branch_cycles = 0.0
        icache_cycles = 0.0
        mem_cycles = 0.0
        branch_misses = 0
        fetch_misses = 0
        long_loads = 0

        for i, extra, d, lat, mem_lat, is_long, mispredicted in zip(
            range(n), fetch_extra, deps, op_lat, load_lat, to_memory,
            branch_miss,
        ):
            # Front-end: an instruction-cache miss stalls dispatch.
            t_d = d_prev + inv_width
            if extra > 0:
                fetch_misses += 1
                stall_until = t_d + extra
                if stall_until > fe_ready:
                    fe_ready = stall_until
                    fe_cause = 2

            if fe_ready > t_d:
                if fe_cause == 1:
                    branch_cycles += fe_ready - t_d
                else:
                    icache_cycles += fe_ready - t_d
                t_d = fe_ready
            # ROB full: wait for the op rob_size earlier to commit.
            rc = commit[i]
            if rc > t_d:
                if to_memory[i - rob]:
                    mem_cycles += rc - t_d
                t_d = rc

            ready = comp[i - d]
            start = t_d if t_d > ready else ready

            lat += mem_lat
            if is_long:
                long_loads += 1
                while mshrs and mshrs[0] <= start:
                    mshrs.popleft()
                if len(mshrs) >= mshr_cap:
                    start = mshrs.popleft()
                mshrs.append(start + lat)
            c = start + lat
            comp[i] = c

            if mispredicted:
                branch_misses += 1
                redirect = c + depth
                if redirect > fe_ready:
                    fe_ready = redirect
                    fe_cause = 1

            if c > commit_prev:
                commit_prev = c
            commit[i + rob] = commit_prev
            d_prev = t_d

        cycles = commit_prev
        base = cycles - branch_cycles - icache_cycles - mem_cycles
        if base < 0.0:
            base = 0.0
        return BlockCosts(
            cycles=cycles,
            base=base,
            branch=branch_cycles,
            icache=icache_cycles,
            mem=mem_cycles,
            branch_misses=branch_misses,
            fetch_misses=fetch_misses,
            long_loads=long_loads,
        )
