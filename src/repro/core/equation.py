"""Equation 1: the mechanistic single-thread interval model (paper §II-B).

    C = N / D_eff                                   (base)
      + m_bpred * (c_res + c_fr)                    (branch)
      + sum_i m_ILi * c_L(i+1)                      (I-cache)
      + m_LLC * c_mem / MLP                         (D-cache)

evaluated per pool (static code region) and per target configuration:

* ``D_eff`` is the minimum of pipeline width, the profiled ILP at the
  target's window size (with the hierarchy's expected data-*hit*
  latency folded into the dependence chains), and the issue-port
  throughput cap implied by the instruction mix;
* the D-cache component is derived from the same ILP scoreboard: it is
  the *additional* per-instruction time when loads carry the
  miss-inclusive average latency instead of the hit-only average.
  Window-constrained miss overlap (MLP) is therefore captured by the
  profiled dependence structure itself, clipped by the MSHR capacity;
* ``m_bpred`` comes from the entropy model; ``c_res`` is the profiled
  dispatch-to-execute time of branches at the miss-inclusive latency
  (a branch that waits on a missing load resolves late); ``c_fr`` is
  the front-end refill depth;
* instruction/data miss rates come from StatStack — private
  distributions for L1/L2, the global interleaved distribution for the
  shared LLC (this is where inter-thread interference and coherence
  enter per-thread performance, paper §III-B phase 1).

All components are per-instruction CPI contributions; multiply by a
segment's instruction count to get its predicted active cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import MulticoreConfig
from repro.branch.entropy_model import predict_miss_rate
from repro.profiler.profile import EpochProfile
from repro.statstack.multithread import (
    hierarchy_miss_rates,
    instruction_miss_rates,
)


@dataclass(frozen=True)
class EpochCosts:
    """Per-instruction CPI components of one pool on one configuration."""

    cpi_base: float
    cpi_branch: float
    cpi_icache: float
    cpi_mem: float
    # Diagnostics (useful for tests and error analysis).
    effective_dispatch: float
    branch_miss_rate: float
    data_l1_miss: float
    data_l2_miss: float
    data_llc_miss: float
    mlp: float

    @property
    def cpi_active(self) -> float:
        """Total active (non-sync) CPI."""
        return self.cpi_base + self.cpi_branch + self.cpi_icache + self.cpi_mem


def _port_throughput_cap(mix: dict, config: MulticoreConfig) -> float:
    """Max IPC allowed by per-class issue ports given the mix."""
    ports = config.core.ports
    cap = float("inf")
    for name, frac in mix.items():
        if frac <= 0.0:
            continue
        cap = min(cap, ports.get(name, config.core.dispatch_width) / frac)
    return cap


def evaluate_equation(
    pool: EpochProfile, config: MulticoreConfig
) -> EpochCosts:
    """Evaluate Eq. 1's per-instruction components for one pool."""
    core = config.core
    if pool.n_instructions == 0:
        return EpochCosts(0, 0, 0, 0, core.dispatch_width, 0, 0, 0, 0, 1.0)

    # --- data hierarchy (StatStack, multithreaded extension) -------------
    rates = hierarchy_miss_rates(pool.data, config)
    m1, m2, m3 = rates.l1d, rates.l2, rates.llc
    l1 = config.l1d.latency
    l2 = config.l2.latency
    llc = config.llc.latency
    mem_cycles = config.memory_latency_cycles()
    # Expected load latency with all misses resolved on-chip (hit part;
    # an LLC-missing load still pays the LLC lookup before memory).
    lat_hit = (1.0 - m1) * l1 + (m1 - m2) * l2 + (m2 - m3) * llc + m3 * llc
    # Miss-inclusive expected load latency, clipped by MSHR capacity:
    # when more misses than MSHRs would overlap, the average per-load
    # memory contribution cannot shrink below the MSHR-throttled rate.
    mlp_cap = float(core.mshr_entries)

    # --- base: effective dispatch rate at hit latency ---------------------
    # The expected hit latency is folded into the dependence chains via
    # the profiled ILP table (Van den Steen et al. [37]).
    ilp_hit = pool.ilp.lookup(core.rob_size, lat_hit)
    ilp_full = pool.ilp.lookup(core.rob_size, lat_hit + m3 * mem_cycles)
    mix = pool.mix
    port_cap = _port_throughput_cap(mix, config)
    deff = min(float(core.dispatch_width), ilp_hit, port_cap)
    deff = max(deff, 1e-3)
    cpi_base = 1.0 / deff

    # --- D-cache component (long-latency loads) ---------------------------
    # Additional time when loads carry the miss-inclusive latency; the
    # dependence scoreboard folds window-limited overlap in.
    deff_full = max(min(float(core.dispatch_width), ilp_full, port_cap), 1e-3)
    cpi_mem = max(0.0, 1.0 / deff_full - cpi_base)
    # MSHR throttle: the scoreboard assumes unbounded outstanding
    # misses; hardware tracks at most ``mshr_entries``.  The serialized
    # floor is (misses per instruction) * memory latency / MSHRs.
    loads_pi = mix.get("load", 0.0)
    mshr_floor = loads_pi * m3 * mem_cycles / mlp_cap
    cpi_mem = max(cpi_mem, mshr_floor)
    # Effective memory-level parallelism implied by the component
    # (diagnostic; also comparable to the explicit MLP model).
    raw_miss_cpi = loads_pi * m3 * mem_cycles
    mlp = raw_miss_cpi / cpi_mem if cpi_mem > 1e-12 else 1.0
    mlp = max(1.0, mlp)

    # --- branch component --------------------------------------------------
    m_bpred = predict_miss_rate(pool.branch, config.branch_predictor)
    # Resolution time: a mispredicted branch redirects the front-end
    # when it executes.  Operand chains of completed work are hidden by
    # the window; what remains exposed is dependence on *outstanding*
    # long-latency loads.  The exposure is the expected number of LLC
    # misses among the loads in the branch's recent backward slice
    # (recent = still plausibly in flight), each costing about half a
    # memory access on average.
    reach = min(core.rob_size, 64)
    slice_loads = pool.ilp.lookup_branch_loads(reach)
    p_miss_dep = 1.0 - (1.0 - m3) ** slice_loads
    miss_wait = 0.5 * p_miss_dep * mem_cycles
    c_res = 2.0 + miss_wait
    c_fr = float(core.frontend_depth)
    bpi = mix.get("branch", 0.0)
    cpi_branch = bpi * m_bpred * (c_res + c_fr)
    # Overlap between branch and D-cache stalls: while a redirect waits
    # on a miss, the window drains on the *same* miss — those cycles
    # must not be charged twice.  The covered share of all misses is
    # the rate of miss-waiting redirects over the total miss rate: with
    # frequent mispredicts and sparse misses every miss hides behind a
    # redirect (coverage 1); with dense misses and rare mispredicts the
    # D-cache component stands on its own (coverage ~0).
    misses_pi = loads_pi * m3
    if misses_pi > 1e-12:
        coverage = min(1.0, bpi * m_bpred * p_miss_dep / misses_pi)
        cpi_mem *= 1.0 - 0.6 * coverage

    # --- I-cache component -------------------------------------------------
    mi1, mi2, mi3 = instruction_miss_rates(pool, config)
    fetch_cost = (
        mi1 * (l2 - config.l1i.latency)
        + mi2 * (llc - l2)
        + mi3 * mem_cycles
    )
    cpi_icache = pool.fetches_per_instruction * fetch_cost

    return EpochCosts(
        cpi_base=cpi_base,
        cpi_branch=cpi_branch,
        cpi_icache=cpi_icache,
        cpi_mem=cpi_mem,
        effective_dispatch=deff,
        branch_miss_rate=m_bpred,
        data_l1_miss=m1,
        data_l2_miss=m2,
        data_llc_miss=m3,
        mlp=mlp,
    )
