"""Abstract-instruction intermediate representation.

A workload expands into one :class:`ThreadTrace` per thread: an ordered
list of :class:`Segment` objects, each a dense :class:`TraceBlock` of
micro-ops terminated by a :class:`SyncOp`.  Segments correspond to the
paper's *inter-synchronization epochs* (Fig. 3a).

Micro-ops carry exactly the information the profiler and simulator need:

* ``op``    - functional-unit class (IALU/IMUL/FP/LOAD/STORE/BRANCH),
* ``dep``   - backward distance (in micro-ops) to the producer of this
  op's input register operand, 0 when the op starts a fresh chain,
* ``addr``  - cache-line index touched by LOAD/STORE ops (-1 otherwise),
* ``taken`` - branch outcome for BRANCH ops (0 otherwise),
* ``iline`` - instruction-cache line holding the op.

All arrays are numpy so profiling and simulation stay tractable in pure
Python.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Functional-unit class codes (indices into :data:`OP_CLASSES`).
OP_IALU = 0
OP_IMUL = 1
OP_FP = 2
OP_LOAD = 3
OP_STORE = 4
OP_BRANCH = 5

#: Class code -> name, in code order.
OP_CLASSES: Tuple[str, ...] = ("ialu", "imul", "fp", "load", "store", "branch")

#: Name -> class code.
OP_CODES: Dict[str, int] = {name: code for code, name in enumerate(OP_CLASSES)}


class SyncKind(enum.Enum):
    """Synchronization event kinds (paper §III-B).

    ``CV_BARRIER`` is a condition-variable-implemented barrier (the
    marker-annotated idiom of Algorithm 1); ``PC_PUT``/``PC_GET`` are the
    producer/consumer condition-variable idiom (broadcast marker / wait
    marker).  ``NONE`` terminates a segment without synchronizing — used
    when a long epoch is split into several trace blocks.
    """

    NONE = "none"
    CREATE = "create"
    JOIN = "join"
    BARRIER = "barrier"
    LOCK = "lock"
    UNLOCK = "unlock"
    CV_BARRIER = "cv_barrier"
    PC_PUT = "pc_put"
    PC_GET = "pc_get"
    END = "end"


@dataclass(frozen=True)
class SyncOp:
    """A synchronization event terminating a segment.

    Parameters
    ----------
    kind:
        Event kind.
    obj:
        Identity of the synchronization object (barrier id, mutex id,
        condition-variable id) or the target thread id for CREATE/JOIN.
    participants:
        For BARRIER / CV_BARRIER: ids of the threads that take part.
    items:
        For PC_PUT: number of items produced by this event.
    """

    kind: SyncKind
    obj: int = 0
    participants: Tuple[int, ...] = ()
    items: int = 1

    def __post_init__(self) -> None:
        if self.kind in (SyncKind.BARRIER, SyncKind.CV_BARRIER):
            if len(self.participants) < 1:
                raise ValueError(f"{self.kind.value} needs participants")
        if self.kind is SyncKind.PC_PUT and self.items < 1:
            raise ValueError("PC_PUT must produce at least one item")


@dataclass
class TraceBlock:
    """A dense block of micro-ops executed by one thread."""

    op: np.ndarray  # uint8
    dep: np.ndarray  # int32, backward producer distance (0 = none)
    addr: np.ndarray  # int64 cache-line index, -1 for non-memory ops
    taken: np.ndarray  # uint8 branch outcome, 0 for non-branches
    iline: np.ndarray  # int64 instruction cache-line index
    #: Identity of the block's *static* artifacts (op and iline
    #: columns), set by the expansion engine: two blocks with equal
    #: keys have bit-identical op/iline content.  ``None`` when the
    #: producer cannot vouch for that (hand-built blocks, chunk views,
    #: traces from stores predating the key).  Deliberately excluded
    #: from :meth:`WorkloadTrace.content_digest` — it is a memo hint,
    #: not content.
    static_key: Optional[Tuple] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        n = len(self.op)
        for name in ("dep", "addr", "taken", "iline"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"array {name!r} length mismatch")

    def __len__(self) -> int:
        return len(self.op)

    @property
    def n_instructions(self) -> int:
        """Number of micro-ops in the block."""
        return len(self.op)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the block's arrays, in bytes.

        For arena-backed blocks (zero-copy views produced by the
        expansion engine) this counts the bytes the view *covers*, not
        the whole arena — summing over a trace's blocks therefore
        equals the arena footprint exactly.
        """
        return sum(
            len(getattr(self, name)) * getattr(self, name).itemsize
            for name in ("op", "dep", "addr", "taken", "iline")
        )

    @classmethod
    def empty(cls) -> "TraceBlock":
        """A zero-instruction block (used for pure-sync segments)."""
        return cls(
            op=np.zeros(0, dtype=np.uint8),
            dep=np.zeros(0, dtype=np.int32),
            addr=np.full(0, -1, dtype=np.int64),
            taken=np.zeros(0, dtype=np.uint8),
            iline=np.zeros(0, dtype=np.int64),
        )

    def view(self, lo: int, hi: int) -> "TraceBlock":
        """Zero-copy sub-block of ops ``lo..hi-1`` (arena-view helper).

        The view does not inherit :attr:`static_key`: the key
        identifies the *whole* block's static columns, which a slice
        no longer matches.
        """
        return TraceBlock(
            op=self.op[lo:hi],
            dep=self.dep[lo:hi],
            addr=self.addr[lo:hi],
            taken=self.taken[lo:hi],
            iline=self.iline[lo:hi],
        )

    def class_counts(self) -> np.ndarray:
        """Micro-op count per functional-unit class (len == len(OP_CLASSES))."""
        return np.bincount(self.op, minlength=len(OP_CLASSES)).astype(np.int64)

    def memory_indices(self) -> np.ndarray:
        """Positions of LOAD/STORE ops within the block."""
        return np.flatnonzero((self.op == OP_LOAD) | (self.op == OP_STORE))

    def branch_indices(self) -> np.ndarray:
        """Positions of BRANCH ops within the block."""
        return np.flatnonzero(self.op == OP_BRANCH)


#: Maximum instructions per cache line assumed by the PC encoding below.
PC_SLOTS_PER_LINE = 16


def instruction_pcs(block: TraceBlock) -> np.ndarray:
    """Synthetic program counters for the ops of ``block``.

    A PC is ``iline * PC_SLOTS_PER_LINE + offset`` where ``offset`` is
    the op's position since the last instruction-cache-line change.  The
    profiler's branch-context statistics and the simulator's predictor
    tables share this definition, exactly as a Pin tool and a simulator
    share real PCs.
    """
    n = len(block.iline)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    changed[1:] = block.iline[1:] != block.iline[:-1]
    line_start = np.maximum.accumulate(np.where(changed, pos, 0))
    offset = np.minimum(pos - line_start, PC_SLOTS_PER_LINE - 1)
    return block.iline * PC_SLOTS_PER_LINE + offset


def fetch_lines(block: TraceBlock) -> np.ndarray:
    """Instruction-cache fetch stream: ilines with consecutive runs
    collapsed (one fetch per line transition)."""
    n = len(block.iline)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    changed[1:] = block.iline[1:] != block.iline[:-1]
    return block.iline[changed]


@dataclass
class Segment:
    """A trace block plus the synchronization event that ends it."""

    block: TraceBlock
    event: SyncOp
    #: Epoch index the segment belongs to (used for per-epoch profiles).
    epoch: int = 0
    #: Optional tag for diagnostics (phase name in the workload spec).
    label: str = ""


@dataclass
class ThreadTrace:
    """The full dynamic trace of one thread."""

    thread_id: int
    segments: List[Segment] = field(default_factory=list)

    @property
    def n_instructions(self) -> int:
        """Total micro-ops across all segments."""
        return sum(seg.block.n_instructions for seg in self.segments)


@dataclass
class WorkloadTrace:
    """The full dynamic trace of a multithreaded workload.

    Thread 0 is the main thread (created implicitly at start-up, paper
    §III-B); all other threads must be the target of exactly one CREATE
    event before their first segment runs.
    """

    name: str
    threads: List[ThreadTrace]
    #: Seed the trace was expanded with (determinism audit trail).
    seed: int = 0

    def __post_init__(self) -> None:
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValueError("threads must be dense and ordered by id")

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def n_instructions(self) -> int:
        """Total dynamic micro-op count across all threads."""
        return sum(t.n_instructions for t in self.threads)

    @property
    def nbytes(self) -> int:
        """Total array footprint across all threads and segments."""
        return sum(
            seg.block.nbytes
            for t in self.threads
            for seg in t.segments
        )

    def thread(self, tid: int) -> ThreadTrace:
        return self.threads[tid]

    def content_digest(self) -> str:
        """Stable SHA-256 digest of the trace's full dynamic content.

        Covers every micro-op array, every synchronization event and
        the thread/segment structure — two traces digest equal iff they
        are bit-identical, regardless of how their arrays are backed
        (legacy per-segment buffers or arena views).  This is the
        identity the content-addressed trace store and the expansion
        equivalence suite hang off.
        """
        h = hashlib.sha256()
        h.update(
            f"trace|{self.name}|{self.seed}|{len(self.threads)}".encode()
        )
        for t in self.threads:
            for seg in t.segments:
                e = seg.event
                h.update(
                    f"|{t.thread_id}|{seg.epoch}|{seg.label}"
                    f"|{e.kind.value}|{e.obj}|{e.participants}"
                    f"|{e.items}|{seg.block.n_instructions}".encode()
                )
                b = seg.block
                for arr in (b.op, b.dep, b.addr, b.taken, b.iline):
                    h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        """Check structural well-formedness; raise ValueError if broken.

        Verifies that every non-main thread is created exactly once, that
        every thread's trace ends with END, and that LOCK/UNLOCK pair up
        per thread.
        """
        created = {0}
        for t in self.threads:
            for seg in t.segments:
                if seg.event.kind is SyncKind.CREATE:
                    child = seg.event.obj
                    if child in created:
                        raise ValueError(f"thread {child} created twice")
                    if not 0 <= child < self.n_threads:
                        raise ValueError(f"created unknown thread {child}")
                    created.add(child)
        missing = set(range(self.n_threads)) - created
        if missing:
            raise ValueError(f"threads never created: {sorted(missing)}")
        for t in self.threads:
            if not t.segments or t.segments[-1].event.kind is not SyncKind.END:
                raise ValueError(f"thread {t.thread_id} does not END")
            depth = 0
            for seg in t.segments:
                if seg.event.kind is SyncKind.LOCK:
                    depth += 1
                elif seg.event.kind is SyncKind.UNLOCK:
                    depth -= 1
                    if depth < 0:
                        raise ValueError(
                            f"thread {t.thread_id} UNLOCK without LOCK"
                        )
            if depth != 0:
                raise ValueError(f"thread {t.thread_id} leaves a lock held")
