"""Architecture configuration data model.

All timing in the model is expressed in *cycles* of the core clock; the
``frequency_ghz`` field converts predicted cycles into seconds so that
design points with different clocks (Table IV) can be compared on
execution time.

The classes here are deliberately plain, immutable dataclasses: both the
analytical model and the reference simulator read them, and a
configuration must be hashable so profiles/predictions can be memoised
per design point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

#: Cache line size in bytes.  Both the profiler and the simulator work at
#: cache-line granularity, so this is a global constant of the toolchain.
LINE_SIZE = 64


@dataclass(frozen=True)
class CacheConfig:
    """A single cache level.

    Parameters
    ----------
    size_bytes:
        Total capacity in bytes.
    associativity:
        Number of ways.  ``StatStack`` models the cache as fully
        associative LRU of the same capacity; the simulator honours the
        set/way structure.
    latency:
        Access (hit) latency in cycles, as seen by the requester.
    shared:
        True for caches shared by all cores (the LLC in the paper's
        configurations), False for per-core private caches.
    """

    size_bytes: int
    associativity: int
    latency: int
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.size_bytes % (self.associativity * LINE_SIZE) != 0:
            raise ValueError(
                "cache size must be a whole number of sets: "
                f"size={self.size_bytes} assoc={self.associativity}"
            )
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    @property
    def lines(self) -> int:
        """Number of cache lines the cache can hold."""
        return self.size_bytes // LINE_SIZE

    @property
    def sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.lines // self.associativity


@dataclass(frozen=True)
class BranchPredictorConfig:
    """A tournament branch predictor (paper: '4 KB, tournament').

    The capacity is split between a bimodal table, a gshare table and a
    chooser, mirroring the classic Alpha-style tournament organisation
    used by Sniper's default predictor.
    """

    size_bytes: int = 4096
    counter_bits: int = 2
    #: Global-history length used by the gshare component.
    history_bits: int = 12

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("predictor size must be positive")
        if not 1 <= self.counter_bits <= 4:
            raise ValueError("counter_bits must be in [1, 4]")
        if not 1 <= self.history_bits <= 24:
            raise ValueError("history_bits must be in [1, 24]")

    @property
    def entries_per_table(self) -> int:
        """Entries in each of the three component tables.

        The budget is split three ways; entries are rounded down to a
        power of two because the tables are indexed by hashed bits.
        """
        counters = (self.size_bytes * 8) // (3 * self.counter_bits)
        return 1 << max(1, int(math.floor(math.log2(counters))))


@dataclass(frozen=True)
class CoreConfig:
    """An out-of-order superscalar core.

    The five Table IV design points vary ``dispatch_width``,
    ``rob_size``, ``issue_queue_size`` and ``frequency_ghz`` while
    keeping peak operations per second constant.
    """

    frequency_ghz: float = 2.5
    dispatch_width: int = 4
    rob_size: int = 128
    issue_queue_size: int = 64
    #: Front-end pipeline depth: cycles to refill after a flush (c_fr).
    frontend_depth: int = 5
    #: Miss-status holding registers: caps memory-level parallelism.
    mshr_entries: int = 16
    #: Issue ports per functional-unit class (micro-op class name -> ports).
    ports: Dict[str, int] = field(
        default_factory=lambda: {
            "ialu": 4,
            "imul": 1,
            "fp": 2,
            "load": 2,
            "store": 1,
            "branch": 1,
        }
    )
    #: Execution latency per micro-op class, in cycles.
    op_latency: Dict[str, int] = field(
        default_factory=lambda: {
            "ialu": 1,
            "imul": 3,
            "fp": 4,
            "load": 2,  # L1 hit pipeline latency (address gen + access)
            "store": 1,
            "branch": 1,
        }
    )

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.dispatch_width <= 0:
            raise ValueError("dispatch width must be positive")
        if self.rob_size < self.dispatch_width:
            raise ValueError("ROB must hold at least one dispatch group")
        if self.issue_queue_size <= 0:
            raise ValueError("issue queue size must be positive")
        if self.frontend_depth <= 0:
            raise ValueError("front-end depth must be positive")
        if self.mshr_entries <= 0:
            raise ValueError("MSHR count must be positive")

    def __hash__(self) -> int:
        return hash(
            (
                self.frequency_ghz,
                self.dispatch_width,
                self.rob_size,
                self.issue_queue_size,
                self.frontend_depth,
                self.mshr_entries,
                tuple(sorted(self.ports.items())),
                tuple(sorted(self.op_latency.items())),
            )
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory timing.

    ``latency`` is the round-trip cost of an LLC miss in *nanoseconds*
    (converted to core cycles per design point, so higher-clocked
    configurations see relatively more expensive memory, as on real
    hardware).
    """

    latency_ns: float = 60.0
    bandwidth_gbps: float = 25.6

    def __post_init__(self) -> None:
        if self.latency_ns <= 0:
            raise ValueError("memory latency must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError("memory bandwidth must be positive")

    def latency_cycles(self, core: CoreConfig) -> int:
        """Memory latency expressed in cycles of ``core``'s clock."""
        return max(1, round(self.latency_ns * core.frequency_ghz))


@dataclass(frozen=True)
class MulticoreConfig:
    """A full multicore machine: N identical cores + cache hierarchy.

    The hierarchy follows the paper's base machine: private L1-I, L1-D
    and L2 per core, one shared LLC, uniform memory behind it.
    """

    name: str
    cores: int
    core: CoreConfig
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch_predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig
    )

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("core count must be positive")
        if self.l1i.shared or self.l1d.shared or self.l2.shared:
            raise ValueError("L1/L2 caches must be private in this hierarchy")
        if not self.llc.shared:
            raise ValueError("LLC must be shared in this hierarchy")
        if not (
            self.l1d.size_bytes <= self.l2.size_bytes <= self.llc.size_bytes
        ):
            raise ValueError("cache capacities must be non-decreasing")

    def __hash__(self) -> int:
        return hash((self.name, self.cores, self.core, self.l1i, self.l1d,
                     self.l2, self.llc, self.memory, self.branch_predictor))

    def memory_latency_cycles(self) -> int:
        """LLC-miss round trip in core cycles."""
        return self.memory.latency_cycles(self.core)

    def with_core(self, core: CoreConfig, name: str = "") -> "MulticoreConfig":
        """Derive a configuration with a different core (same memory)."""
        return replace(self, core=core, name=name or self.name)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into wall-clock seconds."""
        return cycles / (self.core.frequency_ghz * 1e9)
