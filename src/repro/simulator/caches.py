"""Set-associative LRU caches and the coherent memory system.

Unlike StatStack's statistical fully-associative model, these caches
have real sets, tags and LRU state — the structural difference between
the analytical model and its golden reference.  Coherence is
invalidation-based: a store removes the line from every other core's
private hierarchy, so a subsequent access there misses (the effect the
profiler records as an infinite reuse distance).

Two faces run the same hierarchy.  :meth:`MemorySystem.load`,
:meth:`~MemorySystem.store` and :meth:`~MemorySystem.fetch` are the
per-access interface and executable spec; :meth:`MemorySystem.replay`
runs one trace block's whole access stream in a single pass, which is
what the core model uses.  Per-block replay is exact because no cache
or coherence outcome depends on cycle timing, only on the order of
accesses — and the scheduler runs each block whole, so the order
across cores is the same either way.  :func:`replay_reference` is
``replay`` built from the per-access calls, its test oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.arch.config import CacheConfig, MulticoreConfig
from repro.workloads.ir import OP_LOAD, OP_STORE, TraceBlock

#: Access outcome levels returned by :meth:`MemorySystem.load`.
LEVEL_L1 = 0
LEVEL_L2 = 1
LEVEL_LLC = 2
LEVEL_MEM = 3


class Cache:
    """One cache level: per-set dicts whose key order is the LRU order.

    Each set maps its resident lines to ``None``; iteration runs from
    least to most recently used.  A hit re-inserts the line at the
    end, a miss on a full set evicts the first key — true LRU without
    a use counter or a scan for the oldest line.
    """

    __slots__ = ("name", "config", "sets", "set_mask", "assoc", "hits",
                 "misses")

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.name = name
        self.config = config
        n_sets = config.sets
        if n_sets & (n_sets - 1):
            raise ValueError("set count must be a power of two")
        self.sets: List[Dict[int, None]] = [dict() for _ in range(n_sets)]
        self.set_mask = n_sets - 1
        self.assoc = config.associativity
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Look up ``line``; allocate on miss; returns hit."""
        s = self.sets[line & self.set_mask]
        if line in s:
            s[line] = s.pop(line)
            self.hits += 1
            return True
        if len(s) >= self.assoc:
            del s[next(iter(s))]
        s[line] = None
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        return line in self.sets[line & self.set_mask]

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns whether it was present."""
        s = self.sets[line & self.set_mask]
        if line in s:
            del s[line]
            return True
        return False


class MemorySystem:
    """Private hierarchies + shared LLC + invalidation coherence."""

    def __init__(self, config: MulticoreConfig):
        self.config = config
        n = config.cores
        self.l1i = [Cache(config.l1i, f"l1i{c}") for c in range(n)]
        self.l1d = [Cache(config.l1d, f"l1d{c}") for c in range(n)]
        self.l2 = [Cache(config.l2, f"l2{c}") for c in range(n)]
        self.llc = Cache(config.llc, "llc")
        #: line -> bitmask of the cores that may hold the line in a
        #: private cache (bit ``c`` for core ``c``).
        self.owners: Dict[int, int] = {}
        self.mem_latency = config.memory_latency_cycles()
        self.lat_l1d = config.l1d.latency
        self.lat_l1i = config.l1i.latency
        self.lat_l2 = config.l2.latency
        self.lat_llc = config.llc.latency
        self.invalidations = 0

    def load(self, core: int, line: int) -> Tuple[int, int]:
        """Data load by ``core``; returns (latency_cycles, level)."""
        if self.l1d[core].access(line):
            return self.lat_l1d, LEVEL_L1
        self._note_owner(core, line)
        if self.l2[core].access(line):
            return self.lat_l2, LEVEL_L2
        if self.llc.access(line):
            return self.lat_llc, LEVEL_LLC
        return self.lat_llc + self.mem_latency, LEVEL_MEM

    def store(self, core: int, line: int) -> Tuple[int, int]:
        """Data store by ``core``: write-allocate + invalidate sharers."""
        others = self.owners.get(line, 0) & ~(1 << core)
        other = 0
        while others:
            if others & 1:
                inv = self.l1d[other].invalidate(line)
                inv |= self.l2[other].invalidate(line)
                if inv:
                    self.invalidations += 1
            others >>= 1
            other += 1
        # The writer is now the only core that may hold the line.
        self.owners[line] = 1 << core
        if self.l1d[core].access(line):
            return self.lat_l1d, LEVEL_L1
        if self.l2[core].access(line):
            return self.lat_l2, LEVEL_L2
        if self.llc.access(line):
            return self.lat_llc, LEVEL_LLC
        return self.lat_llc + self.mem_latency, LEVEL_MEM

    def fetch(self, core: int, line: int) -> int:
        """Instruction fetch by ``core``; returns latency."""
        if self.l1i[core].access(line):
            return self.lat_l1i
        if self.l2[core].access(line):
            return self.lat_l2
        if self.llc.access(line):
            return self.lat_llc
        return self.lat_llc + self.mem_latency

    def snapshot(self) -> Tuple:
        """Everything an access can change: each set's lines in LRU
        order, the hit/miss counters, the owner masks and the
        invalidation count.  Equal snapshots behave the same from
        here on."""
        caches = self.l1i + self.l1d + self.l2 + [self.llc]
        return (
            [[list(s) for s in c.sets] for c in caches],
            [(c.hits, c.misses) for c in caches],
            dict(self.owners),
            self.invalidations,
        )

    def _note_owner(self, core: int, line: int) -> None:
        owners = self.owners
        owners[line] = owners.get(line, 0) | (1 << core)

    def replay(
        self, core: int, block: TraceBlock
    ) -> Tuple[List[int], List[int], List[bool]]:
        """Run ``block``'s accesses by ``core`` in program order, in one pass.

        Op ``i`` first fetches ``iline[i]`` when it differs from the
        previous op's line (so the first op fetches), then loads
        or stores ``addr[i]``: the same calls, in the same order, as
        driving :meth:`fetch`, :meth:`load` and :meth:`store` per
        access, so every set, owner mask and counter ends up the
        same.  Only ops that fetch or touch data are visited; L1
        lookups are inlined, while L2, LLC and stores go through the
        per-access code.

        Returns three per-op lists: the fetch latency beyond an L1-I
        hit (0 where the op does not fetch), the load latency (0 for
        non-loads) and whether the load went to memory.
        """
        n = len(block.op)
        fetch_extra = [0] * n
        load_lat = [0] * n
        to_memory = [False] * n
        op = block.op
        iline = block.iline
        # Line changes; the block starts from no line (-1), as in
        # replay_reference.
        fetches = np.empty(n, dtype=bool)
        fetches[:1] = iline[:1] != -1
        np.not_equal(iline[1:], iline[:-1], out=fetches[1:])
        events = np.flatnonzero(
            fetches | (op == OP_LOAD) | (op == OP_STORE)
        )
        l1i = self.l1i[core]
        l1d = self.l1d[core]
        i_sets, i_mask, i_assoc = l1i.sets, l1i.set_mask, l1i.assoc
        d_sets, d_mask, d_assoc = l1d.sets, l1d.set_mask, l1d.assoc
        l2_access = self.l2[core].access
        llc_access = self.llc.access
        store = self.store
        owners = self.owners
        bit = 1 << core
        lat_l1d = self.lat_l1d
        lat_l2 = self.lat_l2
        lat_llc = self.lat_llc
        lat_mem = lat_llc + self.mem_latency
        extra_l2 = lat_l2 - self.lat_l1i
        extra_llc = lat_llc - self.lat_l1i
        extra_mem = lat_mem - self.lat_l1i
        i_hits = i_misses = d_hits = d_misses = 0
        for i, fetch, line, kind, addr in zip(
            events.tolist(), fetches[events].tolist(),
            iline[events].tolist(), op[events].tolist(),
            block.addr[events].tolist(),
        ):
            if fetch:
                s = i_sets[line & i_mask]
                if line in s:
                    s[line] = s.pop(line)
                    i_hits += 1
                else:
                    if len(s) >= i_assoc:
                        del s[next(iter(s))]
                    s[line] = None
                    i_misses += 1
                    if l2_access(line):
                        fetch_extra[i] = extra_l2
                    elif llc_access(line):
                        fetch_extra[i] = extra_llc
                    else:
                        fetch_extra[i] = extra_mem
            if kind == OP_LOAD:
                s = d_sets[addr & d_mask]
                if addr in s:
                    s[addr] = s.pop(addr)
                    d_hits += 1
                    load_lat[i] = lat_l1d
                    continue
                if len(s) >= d_assoc:
                    del s[next(iter(s))]
                s[addr] = None
                d_misses += 1
                held = owners.get(addr, 0)
                if not held & bit:
                    owners[addr] = held | bit
                if l2_access(addr):
                    load_lat[i] = lat_l2
                elif llc_access(addr):
                    load_lat[i] = lat_llc
                else:
                    load_lat[i] = lat_mem
                    to_memory[i] = True
            elif kind == OP_STORE:
                store(core, addr)
        l1i.hits += i_hits
        l1i.misses += i_misses
        l1d.hits += d_hits
        l1d.misses += d_misses
        return fetch_extra, load_lat, to_memory


def replay_reference(
    memory, core: int, block: TraceBlock
) -> Tuple[List[int], List[int], List[bool]]:
    """:meth:`MemorySystem.replay` through the per-access interface.

    The executable spec of the single-pass replay: one :meth:`fetch`,
    :meth:`load` or :meth:`store` call per access.  Works on any
    object with those methods and ``lat_l1i``.
    """
    n = len(block.op)
    fetch_extra = [0] * n
    load_lat = [0] * n
    to_memory = [False] * n
    cur_line = -1
    for i, op, addr, line in zip(
        range(n), block.op.tolist(), block.addr.tolist(),
        block.iline.tolist(),
    ):
        if line != cur_line:
            cur_line = line
            fetch_extra[i] = memory.fetch(core, line) - memory.lat_l1i
        if op == OP_LOAD:
            load_lat[i], level = memory.load(core, addr)
            to_memory[i] = level == LEVEL_MEM
        elif op == OP_STORE:
            memory.store(core, addr)
    return fetch_extra, load_lat, to_memory
