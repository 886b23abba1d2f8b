"""Statistical workload specifications.

A :class:`WorkloadSpec` is the microarchitecture-independent *source* of
a synthetic workload: per-thread sequences of :class:`SegmentPlan`
(an :class:`EpochSpec` describing the instruction stream of one
inter-synchronization epoch, plus the :class:`~repro.workloads.ir.SyncOp`
ending it).  :mod:`repro.workloads.generator` expands a spec into a
concrete :class:`~repro.workloads.ir.WorkloadTrace` deterministically.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Dict, List, Optional, Tuple

from repro.workloads.ir import OP_CODES, PC_SLOTS_PER_LINE, SyncOp

#: Bounds of the expander's address layout (:mod:`repro.workloads.patterns`):
#: a pattern's footprint fits its region, a thread's private regions stay
#: below the next thread's, a code region's lines stay inside it, and a
#: code line's PCs (``PC_SLOTS_PER_LINE`` per line) fit in int64.
MAX_LINES = 1 << 26
MAX_REGION = 255
MAX_CODE_LINES = 1 << 22
MAX_CODE_REGION = (1 << 36) - 1
#: Dependence distances are drawn into int32; at this mean a draw past
#: 2**31 has probability ~e**-2048.
MAX_MEAN_DEP = float(1 << 20)
#: A periodic branch's hidden pattern is one array of ``period`` outcomes.
MAX_PERIOD = 1 << 16
#: The expander normalises an epoch's pattern weights by their sum; this
#: keeps the sum far from float overflow in any summation order.
MAX_TOTAL_WEIGHT = 1e300
_INT64_MAX = (1 << 63) - 1


def _check_int(name: str, value, low: int, high: int = _INT64_MAX) -> None:
    """``value`` must be an integer (never a bool) in [low, high]."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, Integral)
    ):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], not {value}")


def _check_real(name: str, value, low: float, high: float) -> None:
    """``value`` must be an int or a float (never a bool) in the finite
    range [low, high], which NaN and the infinities always fall out of."""
    if type(value) not in (int, float) and (
        isinstance(value, bool) or not isinstance(value, (Integral, float))
    ):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], not {value}")


#: Default instruction mix: a generic integer-dominated workload.
DEFAULT_MIX: Dict[str, float] = {
    "ialu": 0.40,
    "imul": 0.02,
    "fp": 0.10,
    "load": 0.25,
    "store": 0.08,
    "branch": 0.15,
}


@dataclass(frozen=True)
class MemPattern:
    """One component of an epoch's memory-access behaviour.

    Patterns are mixed by ``weight``: each dynamic memory access draws a
    pattern with probability proportional to the weights, then takes the
    next address from that pattern's stream.

    Kinds
    -----
    ``stream``
        Sequential sweep over ``lines`` cache lines with ``stride``,
        touching each line ``reuse`` times in a row (spatial locality of
        word-granularity accesses within a line).
    ``working_set``
        Random accesses: probability ``hot_frac`` uniform over the first
        ``hot_lines`` lines, otherwise uniform over the remainder.
    ``pointer_chase``
        Uniform random over ``lines``; the *dependence* side of the
        generator additionally chains these loads (see
        :attr:`EpochSpec.load_chain_frac`).
    """

    kind: str
    lines: int
    weight: float = 1.0
    region: int = 0
    #: Shared patterns resolve to the same address region for all
    #: threads; private patterns get per-thread regions.
    shared: bool = False
    #: Whether store micro-ops may be assigned to this pattern.  Shared
    #: read-only data (positive interference without coherence traffic)
    #: sets this False.
    store_ok: bool = True
    hot_frac: float = 0.9
    hot_lines: int = 0
    stride: int = 1
    reuse: int = 4

    _KINDS = ("stream", "working_set", "pointer_chase")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        _check_int("pattern footprint (lines)", self.lines, 1, MAX_LINES)
        _check_real("pattern weight", self.weight, 0.0, MAX_TOTAL_WEIGHT)
        if self.weight == 0:
            raise ValueError("pattern weight must be positive")
        _check_int("region", self.region, 0, MAX_REGION)
        _check_real("hot_frac", self.hot_frac, 0.0, 1.0)
        _check_int("hot_lines (within the footprint)", self.hot_lines, 0,
                   self.lines)
        _check_int("stride (within the footprint)", self.stride, 1,
                   self.lines)
        _check_int("reuse", self.reuse, 1)

    def effective_hot_lines(self) -> int:
        """Hot-subset size; defaults to 1/16 of the footprint."""
        if self.hot_lines:
            return self.hot_lines
        return max(1, self.lines // 16)


@dataclass(frozen=True)
class BranchSpec:
    """Branch-outcome behaviour of an epoch.

    Kinds
    -----
    ``biased``
        i.i.d. outcomes, taken with probability ``p_taken``.
    ``periodic``
        A hidden random bit-pattern of length ``period`` repeated
        forever, with each outcome independently flipped with
        probability ``noise``.  History-based predictors with enough
        history learn the pattern; the ``noise`` floor is irreducible.
    ``loop``
        Backward-branch idiom: taken ``period - 1`` times, then
        not-taken once (noise-free periodic special case).
    """

    kind: str = "biased"
    p_taken: float = 0.6
    period: int = 8
    noise: float = 0.02

    _KINDS = ("biased", "periodic", "loop")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown branch kind {self.kind!r}")
        _check_real("p_taken", self.p_taken, 0.0, 1.0)
        _check_int("period", self.period, 2, MAX_PERIOD)
        _check_real("noise", self.noise, 0.0, 0.5)


@dataclass(frozen=True)
class EpochSpec:
    """Statistical description of one thread's inter-sync epoch.

    Parameters
    ----------
    n:
        Dynamic micro-op count of the epoch.
    mix:
        Fraction of micro-ops per functional-unit class; must sum to 1.
    mean_dep:
        Mean backward dependence distance (geometric); larger values
        mean longer independent chains, i.e. more ILP.
    load_chain_frac:
        Fraction of loads whose producer is the previous load
        (pointer chasing) — throttles memory-level parallelism.
    mem:
        Memory-pattern mixture (see :class:`MemPattern`).
    branch:
        Branch-outcome behaviour.
    code_lines:
        Instruction-cache footprint of the epoch's loop body, in lines.
    instrs_per_line:
        Micro-ops per instruction-cache line (~4 for x86-64).
    code_region:
        Identity of the code region; epochs sharing a region share
        instruction-cache lines (worker threads running the same
        function).
    """

    n: int
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    mean_dep: float = 3.0
    load_chain_frac: float = 0.0
    mem: Tuple[MemPattern, ...] = (
        MemPattern(kind="working_set", lines=256),
    )
    branch: BranchSpec = field(default_factory=BranchSpec)
    code_lines: int = 64
    instrs_per_line: int = 4
    code_region: int = 0

    def __post_init__(self) -> None:
        _check_int("instruction count", self.n, 0)
        if not isinstance(self.mix, Mapping):
            raise ValueError(f"mix must be a mapping, not {self.mix!r}")
        unknown = set(self.mix) - set(OP_CODES)
        if unknown:
            raise ValueError(
                f"unknown micro-op classes {sorted(unknown, key=repr)}"
            )
        for name, fraction in self.mix.items():
            _check_real(f"mix[{name!r}]", fraction, 0.0, 1.0)
        total = sum(self.mix.values())
        if self.n > 0 and abs(total - 1.0) > 1e-6:
            raise ValueError(f"mix must sum to 1 (got {total})")
        _check_real("mean dependence distance", self.mean_dep, 1.0,
                    MAX_MEAN_DEP)
        _check_real("load_chain_frac", self.load_chain_frac, 0.0, 1.0)
        if not self.mem:
            raise ValueError("at least one memory pattern is required")
        if not all(isinstance(p, MemPattern) for p in self.mem):
            raise ValueError("mem must hold MemPattern objects")
        if sum(p.weight for p in self.mem) > MAX_TOTAL_WEIGHT:
            raise ValueError(
                f"the patterns' total weight exceeds {MAX_TOTAL_WEIGHT}"
            )
        if not isinstance(self.branch, BranchSpec):
            raise ValueError("branch must be a BranchSpec")
        _check_int("code footprint (code_lines)", self.code_lines, 1,
                   MAX_CODE_LINES)
        _check_int("instrs_per_line", self.instrs_per_line, 1)
        _check_int("code_region", self.code_region, 0, MAX_CODE_REGION)
        if self.instrs_per_line > PC_SLOTS_PER_LINE:
            # The synthetic PC encoding packs at most PC_SLOTS_PER_LINE
            # ops per instruction-cache line; beyond that,
            # ``instruction_pcs`` would silently clamp offsets and
            # alias distinct branch sites onto one PC, corrupting
            # branch-context statistics and predictor tables alike.
            raise ValueError(
                f"instrs_per_line {self.instrs_per_line} exceeds the "
                f"PC encoding's {PC_SLOTS_PER_LINE} slots per line"
            )
        if self.n > 0 and self.mix.get("load", 0.0) + self.mix.get(
            "store", 0.0
        ) > 0 and not any(p.store_ok for p in self.mem):
            if self.mix.get("store", 0.0) > 0:
                raise ValueError(
                    "mix contains stores but no pattern accepts stores"
                )

    def scaled(self, factor: float) -> "EpochSpec":
        """Copy with the instruction count scaled by ``factor``.

        Used to introduce per-thread load imbalance without changing any
        other characteristic.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return replace(self, n=int(round(self.n * factor)))


@dataclass(frozen=True)
class SegmentPlan:
    """One planned segment: an optional epoch spec plus its sync event."""

    spec: Optional[EpochSpec]
    event: SyncOp
    label: str = ""


@dataclass
class WorkloadSpec:
    """A complete multithreaded workload specification."""

    name: str
    n_threads: int
    plans: List[List[SegmentPlan]]
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        _check_int("n_threads (need at least one thread)", self.n_threads, 1)
        _check_int("seed", self.seed, 0)
        if len(self.plans) != self.n_threads:
            raise ValueError("one plan list per thread required")

    @property
    def n_instructions(self) -> int:
        """Total planned dynamic micro-op count."""
        return sum(
            plan.spec.n
            for thread_plans in self.plans
            for plan in thread_plans
            if plan.spec is not None
        )
