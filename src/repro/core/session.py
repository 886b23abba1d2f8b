"""One cache plane for the whole pipeline: :class:`Session`.

The paper's premise is that profiling is a one-time cost amortized
across a design-space sweep.  A :class:`Session` is the one cache
argument every stage takes (``session=``); it bundles each amortizable
artifact's cache behind one object, so callers never thread per-layer
handles:

* :attr:`traces` — content-addressed expanded traces
  (:class:`~repro.experiments.store.TraceCache`: LRU -> store ->
  expansion engine),
* :attr:`ilp` — content-addressed per-pool ILP tables
  (:class:`~repro.profiler.ilp_batch.ILPTableCache`),
* :attr:`branches` — content-addressed branch statistics
  (:func:`~repro.profiler.branchprof.cached_branch_stats`),
* :attr:`prep` — static per-segment profiling precompute keyed by the
  engine's static-artifact identity
  (:class:`~repro.profiler.profiler.SegmentPrepCache`),
* :meth:`cost_cache` — resident Eq.-1 memos per (profile, Eq.-1
  inputs) (:class:`~repro.core.epoch_model.EpochCostCache`), each
  also holding the phase-1 stacks and phase-2 schedule that
  :func:`~repro.core.rppm.predict` derives from it, so configurations
  differing only in ``cores`` or ``name`` run each phase once,
* :meth:`artifact` — the one load-or-compute step for stored profiles,
  predictions and simulations, shared by ``RunCache`` and the engine,

plus usage counters and one consolidated :meth:`health` snapshot for
the serving plane.  ``predict`` counts ``predictions`` per call and
``schedules`` per phase-2 run, so 1 - schedules / predictions is the
memo's hit rate.  Construct with :meth:`Session.from_store` (durable
artifacts under the default cache root) or :meth:`Session.ephemeral`
(in-memory only); pass the instance as ``session=`` to
:func:`~repro.profiler.profiler.profile_workload`,
:func:`~repro.core.rppm.predict`,
:func:`~repro.simulator.multicore.simulate` and the experiment
harnesses.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.epoch_model import EpochCostCache, equation_key
from repro.counters import Counters
from repro.lru import LRUCache
from repro.profiler.branchprof import BRANCH_STATS_ENTRIES
from repro.profiler.ilp_batch import KERNEL_STATS, ILPTableCache
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import SegmentPrepCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import ProfileStore
    from repro.workloads.engine import ExpansionEngine

# The store layer (repro.experiments) imports back into the harnesses
# that accept ``session=``, so pulling it in at module-import time
# would close an import cycle whenever a caller imports this module
# before ``repro.experiments`` has finished initializing (e.g. the
# CLI).  The store types are therefore resolved lazily, inside the
# constructors that need them.


class Session:
    """Caches, memos and counters shared across one pipeline lifetime.

    Parameters
    ----------
    store:
        Optional :class:`~repro.experiments.store.ProfileStore` giving
        the trace and ILP caches durable backing.  ``None`` keeps every
        artifact in memory.
    engine:
        Optional :class:`~repro.workloads.engine.ExpansionEngine`; by
        default the process-wide engine (and its static-artifact memo)
        is shared.
    max_cost_caches:
        Resident Eq.-1 memos kept (each with its prediction phases),
        LRU over (profile, Eq.-1 inputs) pairs; 0 keeps none, so every
        prediction runs Eq. 1 and both phases.
    max_trace_bytes:
        Byte bound of the resident trace LRU.

    Thread-safe: every cache keeps its entries in a
    :class:`~repro.lru.LRUCache`.
    """

    def __init__(
        self,
        store: Optional["ProfileStore"] = None,
        *,
        engine: Optional["ExpansionEngine"] = None,
        max_cost_caches: int = 64,
        max_trace_bytes: int = 512 << 20,
    ) -> None:
        from repro.experiments.store import TraceCache

        self.store = store
        self.traces = TraceCache(
            store=store, engine=engine, max_bytes=max_trace_bytes
        )
        self.ilp = ILPTableCache(store)
        self.branches = LRUCache(BRANCH_STATS_ENTRIES)
        self.prep = SegmentPrepCache()
        #: (profile identity, equation_key) -> (profile, EpochCostCache)
        self._costs = LRUCache(max_cost_caches)
        self._counts = Counters()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_store(
        cls, root: Optional[os.PathLike] = None, **kwargs: Any
    ) -> "Session":
        """A session over the durable artifact store.

        ``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``
        (see :meth:`~repro.experiments.store.ProfileStore.open_default`);
        writes are best effort, so a broken cache directory degrades to
        in-memory caching instead of failing the run.
        """
        from repro.experiments.store import ProfileStore

        return cls(store=ProfileStore.open_default(root), **kwargs)

    @classmethod
    def ephemeral(cls, **kwargs: Any) -> "Session":
        """A session with in-memory caches only (tests, one-off runs)."""
        return cls(store=None, **kwargs)

    # -- Eq.-1 cost memos ---------------------------------------------------

    def cost_cache(
        self,
        profile: WorkloadProfile,
        config: MulticoreConfig,
        key: Optional[str] = None,
    ) -> EpochCostCache:
        """The resident Eq.-1 memo for ``profile`` on ``config``.

        Entries are per (profile, :func:`equation_key`), so configs
        differing only in ``cores`` or ``name`` share one, and with it
        one prediction (see :func:`~repro.core.rppm.predict`).  ``key``
        optionally names the profile with a stable identity (a store
        key); without it the profile *object* identifies the entry, so
        repeat predictions must pass the same instance to hit.  The
        memo is only valid for the exact profile object it was built
        from — if a caller re-loads a profile under the same ``key``,
        the stale entry is replaced, never reused.
        """
        ident = key if key is not None else id(profile)
        ckey = (ident, equation_key(config))
        entry = self._costs.get(ckey)
        if entry is not None and entry[0] is profile:
            return entry[1]
        cache = EpochCostCache(profile, config)
        self._costs.put(ckey, (profile, cache))
        return cache

    def resident_cost_cache(
        self, profile: WorkloadProfile, config: MulticoreConfig
    ) -> Optional[EpochCostCache]:
        """The memo :meth:`cost_cache` would return for an unkeyed
        ``profile``, if it is resident with both prediction phases set;
        ``None`` otherwise.

        A lookup that never computes: it creates no memo and evaluates
        nothing, so a caller holding the result can build a prediction
        (:func:`~repro.core.rppm.prediction_result`) without running
        Eq. 1 or either phase.
        """
        entry = self._costs.get((id(profile), equation_key(config)))
        if entry is None or entry[0] is not profile or entry[1].phases is None:
            return None
        return entry[1]

    # -- stored artifacts ---------------------------------------------------

    def artifact(
        self, kind: str, key: str, compute: Optional[Callable[[], Any]] = None
    ) -> Tuple[Any, bool]:
        """``(artifact, computed)``: the store's ``kind`` artifact at
        ``key`` (``"profiles"`` are JSON, other kinds pickled results),
        else ``compute()`` published to the store; a miss without
        ``compute`` is ``(None, False)``.  Callers memoise in front."""
        store, profiles = self.store, kind == "profiles"
        hit = None if store is None else (
            store.load_profile(key) if profiles
            else store.load_result(kind, key)
        )
        if hit is not None or compute is None:
            return hit, False
        value = compute()
        if store is not None:
            if profiles:
                store.save_profile(key, value)
            else:
                store.save_result(kind, key, value)
        return value, True

    # -- accounting ---------------------------------------------------------

    def record(self, kind: str, by: int = 1) -> None:
        """Count one pipeline operation (``profiles``, ``predictions``,
        ``simulations``...) for the :meth:`health` snapshot."""
        self._counts.bump(kind, by)

    @property
    def counters(self) -> Dict[str, int]:
        return self._counts.snapshot()

    def health(self) -> Dict[str, Any]:
        """One consolidated snapshot of every cache the session holds.

        This is the ``session`` block of the service's ``/healthz``:
        trace cache occupancy and hit rates, ILP table and branch-stat
        memo effectiveness, segment-prep memo occupancy, resident
        Eq.-1 memos (``cost_caches``: one per profile and Eq.-1
        inputs), expansion-engine and ILP-kernel counters, usage
        counters, and (when durable) the store's degradation counters.
        """
        out: Dict[str, Any] = {
            "trace_cache": self.traces.stats(),
            "ilp_cache": self.ilp.stats(),
            "branch_cache": self.branches.stats(),
            "prep_cache": self.prep.stats(),
            "cost_caches": len(self._costs),
            "expand_engine": self.traces.engine.stats.snapshot(),
            "ilp_kernel": KERNEL_STATS.snapshot(),
            "counters": self.counters,
            "durable": self.store is not None,
        }
        if self.store is not None:
            out["store"] = self.store.health()
        return out
