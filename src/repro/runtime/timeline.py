"""Execution timelines: per-thread active/idle intervals.

A :class:`Timeline` is the common currency between the scheduler, the
CPI-stack sync component and the bottlegraph construction: it records,
for every thread, when it was actively executing and when it sat idle
at a synchronization event (and why).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Interval:
    """A half-open time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Per-thread activity record of one (real or symbolic) execution."""

    n_threads: int
    active: List[List[Interval]] = field(default_factory=list)
    #: Idle intervals, tagged with the blocking cause (sync kind value).
    idle: List[List[Tuple[Interval, str]]] = field(default_factory=list)
    created_at: List[Optional[float]] = field(default_factory=list)
    ended_at: List[Optional[float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.active:
            self.active = [[] for _ in range(self.n_threads)]
        if not self.idle:
            self.idle = [[] for _ in range(self.n_threads)]
        if not self.created_at:
            self.created_at = [None] * self.n_threads
        if not self.ended_at:
            self.ended_at = [None] * self.n_threads

    def record_active(self, tid: int, start: float, end: float) -> None:
        if end > start:
            self.active[tid].append(Interval(start, end))

    def record_idle(self, tid: int, start: float, end: float,
                    cause: str) -> None:
        if end > start:
            self.idle[tid].append((Interval(start, end), cause))

    # Totals add left to right: from Python 3.12 on, ``sum()`` over
    # floats compensates rounding, so pinned outputs would move.

    def active_time(self, tid: int) -> float:
        """Total time thread ``tid`` spent executing instructions."""
        return reduce(add, (iv.duration for iv in self.active[tid]), 0)

    def idle_time(self, tid: int) -> float:
        """Total time thread ``tid`` spent blocked at sync events."""
        return reduce(add, (iv.duration for iv, _ in self.idle[tid]), 0)

    def idle_by_cause(self, tid: int) -> Dict[str, float]:
        """Idle time of ``tid`` broken down by blocking cause."""
        out: Dict[str, float] = {}
        for iv, cause in self.idle[tid]:
            out[cause] = out.get(cause, 0.0) + iv.duration
        return out

    def digest(self) -> str:
        """Stable SHA-256 digest of the full timeline content.

        Covers every active interval, every idle interval with its
        blocking cause, and the per-thread creation/end times — two
        timelines digest equal iff they are bit-identical (float bit
        patterns included).  This is the identity the batched-replay
        equivalence suite pins against the event-at-a-time DES spec.
        """
        h = hashlib.sha256()
        h.update(f"timeline|{self.n_threads}".encode())
        for tid in range(self.n_threads):
            created = self.created_at[tid]
            ended = self.ended_at[tid]
            h.update(
                f"|t{tid}"
                f"|{'-' if created is None else float(created).hex()}"
                f"|{'-' if ended is None else float(ended).hex()}".encode()
            )
            for iv in self.active[tid]:
                h.update(struct.pack("<dd", iv.start, iv.end))
            h.update(b"|idle")
            for iv, cause in self.idle[tid]:
                h.update(struct.pack("<dd", iv.start, iv.end))
                h.update(cause.encode())
        return h.hexdigest()

    @property
    def end_time(self) -> float:
        """Completion time of the whole execution (last thread to end)."""
        ends = [e for e in self.ended_at if e is not None]
        return max(ends) if ends else 0.0

    def events(self) -> List[float]:
        """Sorted unique boundary times across all active intervals."""
        points = set()
        for ivs in self.active:
            for iv in ivs:
                points.add(iv.start)
                points.add(iv.end)
        return sorted(points)
