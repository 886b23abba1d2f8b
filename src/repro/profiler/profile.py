"""The microarchitecture-independent profile data model.

A :class:`WorkloadProfile` is what the paper's Pin tool emits: it is
collected once and then drives predictions for arbitrarily many target
configurations.  Statistics are pooled per *static code region* (the
synthetic analogue of a function/loop nest): every dynamic segment
carries a reference to its pool, so per-epoch predictions reuse pooled
statistics scaled by the segment's instruction count.

The whole profile serializes to JSON (``to_dict``/``from_dict``), which
is the "one-time-cost profile" artifact of Fig. 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.profiler.histogram import RDHistogram
from repro.workloads.ir import OP_CLASSES, SyncKind, SyncOp

#: Pool key: base instruction-cache line of the code region, or None for
#: empty (pure-synchronization) segments.
PoolKey = Optional[int]


@dataclass
class ILPTable:
    """ILP as a function of instruction window and load latency.

    Measured by micro-trace critical-path analysis with canonical
    (ISA-level) execution latencies; the load latency axis lets the
    predictor fold the *average* data-cache hit latency of the target
    hierarchy into the dependence chains (Van den Steen et al. [37]).
    """

    windows: Tuple[int, ...]
    load_lats: Tuple[int, ...]
    ilp: np.ndarray  # shape (len(windows), len(load_lats))
    #: Mean number of loads in a branch's backward dependence slice
    #: (reach limited to the window) — the exposure of branch
    #: resolution to outstanding cache misses (Eq. 1's ``c_res``).
    branch_loads: np.ndarray = None  # shape (len(windows),)
    #: Load parallelism per window: loads in the window divided by the
    #: longest transitive load-to-load chain — the dependence-imposed
    #: ceiling on overlapping memory misses (drives the MLP model).
    load_par: np.ndarray = None  # shape (len(windows),)

    def __post_init__(self) -> None:
        self.ilp = np.asarray(self.ilp, dtype=np.float64)
        if self.ilp.shape != (len(self.windows), len(self.load_lats)):
            raise ValueError("ILP table shape mismatch")
        if (self.ilp <= 0).any():
            raise ValueError("ILP values must be positive")
        if self.branch_loads is None:
            self.branch_loads = np.zeros(len(self.windows))
        else:
            self.branch_loads = np.asarray(
                self.branch_loads, dtype=np.float64
            )
        if self.branch_loads.shape != (len(self.windows),):
            raise ValueError("branch slice-load shape mismatch")
        if (self.branch_loads < 0).any():
            raise ValueError("branch slice-load counts must be >= 0")
        if self.load_par is None:
            self.load_par = np.ones(len(self.windows), dtype=np.float64)
        else:
            self.load_par = np.asarray(self.load_par, dtype=np.float64)
        if self.load_par.shape != (len(self.windows),):
            raise ValueError("load-parallelism shape mismatch")
        if (self.load_par < 1.0 - 1e-9).any():
            raise ValueError("load parallelism must be >= 1")
        # Python-float copies of the grids for the scalar lookups (three
        # per Eq.-1 evaluation); the window axis goes through numpy's
        # log2, as the query does, so every value keeps its bits.
        self._wgrid = np.log2(
            np.asarray(self.windows, dtype=np.float64)
        ).tolist()
        self._lgrid = [float(lat) for lat in self.load_lats]
        self._rows = self.ilp.tolist()
        self._branch_loads = self.branch_loads.tolist()

    def _window_pos(self, window: int) -> Tuple[int, float]:
        """Grid cell and log2-linear fraction of ``window`` (clamped)."""
        w = float(min(max(window, self.windows[0]), self.windows[-1]))
        lw = float(np.log2(w))
        wgrid = self._wgrid
        wi = min(max(bisect_right(wgrid, lw) - 1, 0), len(wgrid) - 2)
        return wi, (lw - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])

    def lookup(self, window: int, load_lat: float) -> float:
        """Interpolated ILP at a window size and average load latency
        (bilinear: log2 in window, linear in latency)."""
        rows = self._rows
        lgrid = self._lgrid
        if len(rows) == 1 and len(lgrid) == 1:
            return rows[0][0]
        lat = float(min(max(load_lat, lgrid[0]), lgrid[-1]))
        li = 0
        if len(lgrid) > 1:
            li = min(max(bisect_right(lgrid, lat) - 1, 0), len(lgrid) - 2)
        if len(rows) == 1:
            frac = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
            return rows[0][li] * (1 - frac) + rows[0][li + 1] * frac
        wi, fw = self._window_pos(window)
        if len(lgrid) == 1:
            return rows[wi][0] * (1 - fw) + rows[wi + 1][0] * fw
        fl = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
        top = rows[wi][li] * (1 - fl) + rows[wi][li + 1] * fl
        bot = rows[wi + 1][li] * (1 - fl) + rows[wi + 1][li + 1] * fl
        return top * (1 - fw) + bot * fw

    def lookup_branch_loads(self, window: int) -> float:
        """Interpolated branch backward-slice load count at a window."""
        values = self._branch_loads
        if len(values) == 1:
            return values[0]
        wi, frac = self._window_pos(window)
        return values[wi] * (1 - frac) + values[wi + 1] * frac

    def equals_exact(self, other: "ILPTable") -> bool:
        """Bit-exact equality on every field.

        The contract between the scalar spec, the fused batch kernel
        and any mega-batch bucketing is float64 *identity*, not
        closeness — this is the predicate the equivalence suites and
        ``bench --check`` pin it with.
        """
        return (
            self.windows == other.windows
            and self.load_lats == other.load_lats
            and np.array_equal(self.ilp, other.ilp)
            and np.array_equal(self.branch_loads, other.branch_loads)
            and np.array_equal(self.load_par, other.load_par)
        )

    def to_dict(self) -> dict:
        return {
            "windows": list(self.windows),
            "load_lats": list(self.load_lats),
            "ilp": self.ilp.tolist(),
            "branch_loads": self.branch_loads.tolist(),
            "load_par": self.load_par.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ILPTable":
        return cls(
            windows=tuple(data["windows"]),
            load_lats=tuple(data["load_lats"]),
            ilp=np.asarray(data["ilp"]),
            branch_loads=np.asarray(data["branch_loads"]),
            load_par=np.asarray(data["load_par"]),
        )


@dataclass
class BranchStats:
    """Microarchitecture-independent branch behaviour of a pool.

    ``floors[h]`` is the weighted irreducible misprediction probability
    of an ideal predictor indexed by (branch PC, h bits of global
    history): ``sum_ctx w_ctx * min(p_taken, 1 - p_taken)``.  This is
    the linear-branch-entropy statistic of De Pestel et al. [10]; the
    predictor-specific model in :mod:`repro.branch.entropy_model` maps
    it to a concrete predictor's miss rate.
    """

    n_branches: int
    taken_rate: float
    floors: Dict[int, float]
    n_static: int
    contexts: Dict[int, int]

    def floor_at(self, depth: float) -> float:
        """Interpolated floor at (possibly fractional) history depth."""
        if not self.floors:
            return 0.0
        keys = sorted(self.floors)
        if depth <= keys[0]:
            return self.floors[keys[0]]
        if depth >= keys[-1]:
            return self.floors[keys[-1]]
        for lo, hi in zip(keys[:-1], keys[1:]):
            if lo <= depth <= hi:
                frac = (depth - lo) / (hi - lo)
                return (
                    self.floors[lo] * (1 - frac) + self.floors[hi] * frac
                )
        return self.floors[keys[-1]]  # pragma: no cover

    def contexts_at(self, depth: float) -> float:
        """Interpolated distinct-context count at a history depth."""
        if not self.contexts:
            return 0.0
        keys = sorted(self.contexts)
        if depth <= keys[0]:
            return float(self.contexts[keys[0]])
        if depth >= keys[-1]:
            return float(self.contexts[keys[-1]])
        for lo, hi in zip(keys[:-1], keys[1:]):
            if lo <= depth <= hi:
                frac = (depth - lo) / (hi - lo)
                return (
                    self.contexts[lo] * (1 - frac)
                    + self.contexts[hi] * frac
                )
        return float(self.contexts[keys[-1]])  # pragma: no cover

    def to_dict(self) -> dict:
        return {
            "n_branches": self.n_branches,
            "taken_rate": self.taken_rate,
            "floors": {str(k): v for k, v in self.floors.items()},
            "n_static": self.n_static,
            "contexts": {str(k): v for k, v in self.contexts.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BranchStats":
        return cls(
            n_branches=data["n_branches"],
            taken_rate=data["taken_rate"],
            floors={int(k): v for k, v in data["floors"].items()},
            n_static=data["n_static"],
            contexts={int(k): v for k, v in data["contexts"].items()},
        )


@dataclass
class DataLocalityStats:
    """StatStack inputs for one pool (paper §III-A, Fig. 2).

    ``private`` uses per-thread access counters (private L1/L2 miss
    prediction, with coherence invalidations recorded as infinite
    distances); ``shared`` uses the global interleaved counter (shared
    LLC miss prediction, capturing positive and negative interference).
    """

    private: RDHistogram = field(default_factory=RDHistogram)
    shared: RDHistogram = field(default_factory=RDHistogram)
    n_accesses: int = 0
    n_stores: int = 0

    def to_dict(self) -> dict:
        return {
            "private": self.private.to_dict(),
            "shared": self.shared.to_dict(),
            "n_accesses": self.n_accesses,
            "n_stores": self.n_stores,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataLocalityStats":
        return cls(
            private=RDHistogram.from_dict(data["private"]),
            shared=RDHistogram.from_dict(data["shared"]),
            n_accesses=data["n_accesses"],
            n_stores=data["n_stores"],
        )


@dataclass
class EpochProfile:
    """Pooled microarchitecture-independent statistics of a code region."""

    key: int
    n_instructions: int
    n_segments: int
    class_counts: np.ndarray  # len(OP_CLASSES)
    ilp: ILPTable
    branch: BranchStats
    data: DataLocalityStats
    ifetch: RDHistogram
    n_fetches: int
    #: Fraction of loads whose producer is another load (MLP throttling).
    load_chain_frac: float
    #: Raw micro-trace samples (op, dep) — microarchitecture-independent
    #: dependence structure used by the per-load-latency ILP replay.
    samples: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list
    )

    @property
    def mix(self) -> Dict[str, float]:
        """Instruction-mix fractions by class name."""
        total = max(1, int(self.class_counts.sum()))
        return {
            name: float(self.class_counts[i]) / total
            for i, name in enumerate(OP_CLASSES)
        }

    @property
    def loads_per_instruction(self) -> float:
        return self.mix.get("load", 0.0)

    @property
    def fetches_per_instruction(self) -> float:
        if self.n_instructions == 0:
            return 0.0
        return self.n_fetches / self.n_instructions

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "n_instructions": self.n_instructions,
            "n_segments": self.n_segments,
            "class_counts": self.class_counts.tolist(),
            "ilp": self.ilp.to_dict(),
            "branch": self.branch.to_dict(),
            "data": self.data.to_dict(),
            "ifetch": self.ifetch.to_dict(),
            "n_fetches": self.n_fetches,
            "load_chain_frac": self.load_chain_frac,
            "samples": [
                [np.asarray(o).tolist(), np.asarray(d).tolist()]
                for o, d in self.samples
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochProfile":
        return cls(
            key=data["key"],
            n_instructions=data["n_instructions"],
            n_segments=data["n_segments"],
            class_counts=np.asarray(data["class_counts"], dtype=np.int64),
            ilp=ILPTable.from_dict(data["ilp"]),
            branch=BranchStats.from_dict(data["branch"]),
            data=DataLocalityStats.from_dict(data["data"]),
            ifetch=RDHistogram.from_dict(data["ifetch"]),
            n_fetches=data["n_fetches"],
            load_chain_frac=data["load_chain_frac"],
            samples=[
                (
                    np.asarray(o, dtype=np.uint8),
                    np.asarray(d, dtype=np.int32),
                )
                for o, d in data.get("samples", [])
            ],
        )


def _sync_to_dict(event: SyncOp) -> dict:
    return {
        "kind": event.kind.value,
        "obj": event.obj,
        "participants": list(event.participants),
        "items": event.items,
    }


def _sync_from_dict(data: dict) -> SyncOp:
    return SyncOp(
        kind=SyncKind(data["kind"]),
        obj=data["obj"],
        participants=tuple(data["participants"]),
        items=data["items"],
    )


@dataclass
class SegmentRef:
    """One dynamic segment: instruction count, pool link, sync event."""

    epoch: int
    label: str
    event: SyncOp
    n_instructions: int
    key: PoolKey

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "label": self.label,
            "event": _sync_to_dict(self.event),
            "n_instructions": self.n_instructions,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentRef":
        return cls(
            epoch=data["epoch"],
            label=data["label"],
            event=_sync_from_dict(data["event"]),
            n_instructions=data["n_instructions"],
            key=data["key"],
        )


@dataclass
class ThreadProfile:
    """All profiled state of one thread."""

    thread_id: int
    segments: List[SegmentRef]
    pools: Dict[int, EpochProfile]

    @property
    def n_instructions(self) -> int:
        return sum(seg.n_instructions for seg in self.segments)

    def to_dict(self) -> dict:
        return {
            "thread_id": self.thread_id,
            "segments": [s.to_dict() for s in self.segments],
            "pools": {str(k): p.to_dict() for k, p in self.pools.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThreadProfile":
        return cls(
            thread_id=data["thread_id"],
            segments=[SegmentRef.from_dict(s) for s in data["segments"]],
            pools={
                int(k): EpochProfile.from_dict(p)
                for k, p in data["pools"].items()
            },
        )


@dataclass
class WorkloadProfile:
    """The one-time-cost, microarchitecture-independent profile (Fig. 1)."""

    name: str
    n_threads: int
    threads: List[ThreadProfile]
    seed: int = 0

    @property
    def n_instructions(self) -> int:
        return sum(t.n_instructions for t in self.threads)

    def sync_event_counts(self) -> Dict[str, int]:
        """Dynamic synchronization event counts (Table III's columns).

        Counts follow the paper's categories: lock/unlock pairs count as
        one critical section; plain and condvar barriers count once per
        thread-arrival pair... more precisely, as in Table III, we count
        dynamic *events*: critical sections (lock acquisitions), barriers
        (per-barrier, not per-thread) and condition-variable operations
        (waits/posts).
        """
        locks = 0
        barrier_ids = set()
        cv_events = 0
        for t in self.threads:
            for seg in t.segments:
                kind = seg.event.kind
                if kind is SyncKind.LOCK:
                    locks += 1
                elif kind is SyncKind.BARRIER:
                    barrier_ids.add(seg.event.obj)
                elif kind is SyncKind.CV_BARRIER:
                    cv_events += 1
                elif kind in (SyncKind.PC_PUT, SyncKind.PC_GET):
                    cv_events += 1
        return {
            "critical_sections": locks,
            "barriers": len(barrier_ids),
            "condition_variables": cv_events,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_threads": self.n_threads,
            "seed": self.seed,
            "threads": [t.to_dict() for t in self.threads],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadProfile":
        return cls(
            name=data["name"],
            n_threads=data["n_threads"],
            seed=data.get("seed", 0),
            threads=[ThreadProfile.from_dict(t) for t in data["threads"]],
        )
