"""The evaluated workload suite (paper §IV) and shared run caching.

The paper evaluates all sixteen Rodinia benchmarks plus ten Parsec
benchmarks on a quad-core machine.  Several experiments (Figures 4-6)
need the same profiles and simulations, so this module provides the
shared :class:`RunCache`.  Every artifact it hands out is reached one
way, :meth:`RunCache._artifact`:

1. its in-process memo, keyed by store key (every key embeds its
   kind),
2. else :meth:`Session.artifact <repro.core.session.Session.artifact>`,
   the load-or-compute step the serving engine shares: the optional
   versioned on-disk :class:`~repro.experiments.store.ProfileStore`,
   shared across processes, runs *and* planes, else computed and
   published there.

:meth:`RunCache.prefetch` probes the memo and the store for many
benchmarks and fans the rest out over a ``ProcessPoolExecutor`` (the
one parallel runner behind ``report --jobs N``); each worker runs the
same per-benchmark step over the same store, and a pool broken by a
dying worker falls back to running that step in-process.

Store keys are (suite, benchmark, workload seed, scale, chunk) plus —
for predictions and simulations — a deterministic configuration
fingerprint, so a cache entry is valid exactly as long as its inputs
are.  The seed comes from :attr:`BenchmarkRef.seed`, so a store hit
builds no workload spec.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.arch.config import MulticoreConfig
from repro.core.rppm import PredictionResult, predict
from repro.core.session import Session
from repro.experiments.store import ProfileStore, default_store
from repro.obs import get_logger
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.simulator.results import SimulationResult
from repro.workloads import parsec, rodinia
from repro.workloads.ir import WorkloadTrace
from repro.workloads.parsec import PARSEC, parsec_workload
from repro.workloads.rodinia import RODINIA, rodinia_workload
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class BenchmarkRef:
    """One evaluated benchmark: suite plus name (paper Figure 4 x-axis)."""

    suite: str  # "rodinia" | "parsec"
    name: str

    def __post_init__(self) -> None:
        known = RODINIA if self.suite == "rodinia" else (
            set(PARSEC) if self.suite == "parsec" else None
        )
        if known is None:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.name not in known:
            raise ValueError(f"unknown {self.suite} benchmark {self.name!r}")

    @property
    def label(self) -> str:
        return f"{self.suite}.{self.name}"

    @property
    def seed(self) -> int:
        """The workload seed :func:`build_workload` gives this benchmark
        at every scale (a CRC of the label), without building a spec."""
        suite = rodinia if self.suite == "rodinia" else parsec
        return suite._seed_for(self.name)


def rodinia_suite() -> List[BenchmarkRef]:
    """All sixteen Rodinia benchmarks, Table II order."""
    return [BenchmarkRef("rodinia", name) for name in RODINIA]


def parsec_suite() -> List[BenchmarkRef]:
    """The ten evaluated Parsec benchmarks, Figure 4 order."""
    return [BenchmarkRef("parsec", name) for name in PARSEC]


def full_suite() -> List[BenchmarkRef]:
    """Rodinia followed by Parsec, as in Figure 4."""
    return rodinia_suite() + parsec_suite()


def build_workload(ref: BenchmarkRef, scale: float = 1.0):
    """Workload spec for a benchmark reference."""
    if ref.suite == "rodinia":
        return rodinia_workload(ref.name, scale=scale)
    return parsec_workload(ref.name, scale=scale)


def _prefetch_worker(
    ref: BenchmarkRef,
    scale: float,
    chunk: int,
    configs: Sequence[MulticoreConfig],
    do_sim: bool,
    store_root: Optional[str] = None,
) -> Dict[str, object]:
    """:meth:`RunCache._fill` of one benchmark in a worker process,
    over the parent's store: a satisfied artifact is read back, a new
    one is published by the worker (atomic temp-file + rename, so
    concurrent writers are safe).  Returns the worker's memo, store
    key -> artifact, which must pickle.
    """
    # Non-strict: a worker that computed a result must return it to
    # the parent even if persisting it fails (reads heal later).
    store = (
        ProfileStore(store_root, strict=False)
        if store_root is not None else None
    )
    cache = RunCache(scale=scale, store=store, chunk=chunk)
    cache._fill(ref, configs, do_sim)
    return cache._memo


class RunCache:
    """Memoised traces, profiles, predictions and simulations.

    Experiments share one instance so that e.g. Figure 4 and Figure 5
    profile and simulate each benchmark once.  One memo holds every
    artifact, keyed by its store key.

    With a ``store`` attached, profiles (JSON) and predictions /
    simulations (pickles) also persist to a versioned on-disk cache
    keyed by workload seed + scale + chunk + config fingerprint, shared
    across processes, runs and the serving engine; corrupt or stale
    entries fall back to recomputation.
    """

    def __init__(
        self,
        scale: float = 1.0,
        store: Optional[ProfileStore] = None,
        chunk: int = 4096,
        session: Optional[Session] = None,
    ):
        self.scale = scale
        self.chunk = chunk
        #: The artifact cache plane: content-addressed traces, per-pool
        #: ILP tables, branch statistics, segment precompute and
        #: resident Eq.-1 memos — shared by every call through this
        #: RunCache.  A caller-supplied session shares the plane with
        #: other harnesses (the bench suite, the serving engine).
        if session is None:
            session = Session(store=store)
        elif store is not None and session.store is not store:
            raise ValueError("pass either a store or a session, not both")
        self.session = session
        self.store = session.store
        self._specs: Dict[str, WorkloadSpec] = {}
        #: store key -> profile, prediction or simulation
        self._memo: Dict[str, object] = {}

    # -- store keys ---------------------------------------------------------

    def _profile_key(self, ref: BenchmarkRef) -> str:
        return ProfileStore.profile_key(
            ref.label, ref.seed, self.scale, self.chunk
        )

    def _result_key(
        self, kind: str, ref: BenchmarkRef, config: MulticoreConfig
    ) -> str:
        return ProfileStore.result_key(
            kind, ref.label, ref.seed, self.scale, config
        )

    # -- load or compute ----------------------------------------------------

    def _artifact(
        self, kind: str, key: str,
        compute: Optional[Callable[[], object]] = None,
    ):
        """The memo's artifact at ``key``, else the session's
        (:meth:`~repro.core.session.Session.artifact`), then kept in
        the memo; ``None`` when neither holds it and ``compute`` is
        not given."""
        hit = self._memo.get(key)
        if hit is None:
            hit, _computed = self.session.artifact(kind, key, compute)
            if hit is not None:
                self._memo[key] = hit
        return hit

    # -- artifacts ----------------------------------------------------------

    def trace(self, ref: BenchmarkRef) -> WorkloadTrace:
        # The spec is a pure function of (suite, name, scale), built
        # once: building it is not free.
        spec = self._specs.get(ref.label)
        if spec is None:
            spec = self._specs[ref.label] = build_workload(ref, self.scale)
        return self.session.traces.get(spec)

    def profile(self, ref: BenchmarkRef) -> WorkloadProfile:
        return self._artifact(
            "profiles", self._profile_key(ref),
            lambda: profile_workload(
                self.trace(ref), chunk=self.chunk, session=self.session
            ),
        )

    def prediction(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> PredictionResult:
        return self._artifact(
            "predictions", self._result_key("prediction", ref, config),
            lambda: predict(
                self.profile(ref), config, session=self.session
            ),
        )

    def simulation(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> SimulationResult:
        return self._artifact(
            "simulations", self._result_key("simulation", ref, config),
            lambda: simulate(self.trace(ref), config, session=self.session),
        )

    # -- parallel pipeline --------------------------------------------------

    def _fill(
        self,
        ref: BenchmarkRef,
        configs: Sequence[MulticoreConfig],
        simulate: bool,
    ) -> None:
        """Load or compute one benchmark's profile and its predictions
        (and simulations) at ``configs``: the per-benchmark step of
        :meth:`prefetch`, in-process or in a worker."""
        self.profile(ref)
        for config in configs:
            self.prediction(ref, config)
        for config in configs if simulate else ():
            self.simulation(ref, config)

    def prefetch(
        self,
        refs: Iterable[BenchmarkRef],
        configs: Sequence[MulticoreConfig] = (),
        workers: Optional[int] = None,
        simulate: bool = False,
    ) -> List[str]:
        """Profile (and optionally predict/simulate) many benchmarks.

        Benchmarks not already satisfied by the memory or disk cache
        are dispatched to a ``ProcessPoolExecutor`` with ``workers``
        processes (default: CPU count; values <= 1 run serially
        in-process).  Results land in the memory cache and, when a
        store is attached, on disk — so subsequent :meth:`profile` /
        :meth:`prediction` / :meth:`simulation` calls are hits.

        Returns the labels that were actually (re)computed.
        """
        def missing(ref: BenchmarkRef) -> bool:
            wants = [("profiles", self._profile_key(ref))]
            for config in configs:
                wants.append(("predictions", self._result_key(
                    "prediction", ref, config
                )))
                if simulate:
                    wants.append(("simulations", self._result_key(
                        "simulation", ref, config
                    )))
            return any(self._artifact(*want) is None for want in wants)

        todo = [ref for ref in refs if missing(ref)]
        if workers is None:
            workers = os.cpu_count() or 1
        if workers > 1 and len(todo) > 1:
            store_root = (
                str(self.store.root) if self.store is not None else None
            )
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _prefetch_worker, ref, self.scale, self.chunk,
                            list(configs), simulate, store_root,
                        )
                        for ref in todo
                    ]
                    for future in futures:
                        self._memo.update(future.result())
                return [ref.label for ref in todo]
            except BrokenProcessPool:
                # A worker died hard (OOM kill, segfault, machine
                # chaos).  The report must not: recompute serially
                # in-process — every artifact a worker did persist
                # before dying is a store hit, so only the genuinely
                # missing tail is paid.
                get_logger("repro.suites").error(
                    "prefetch.pool_broken",
                    todo=len(todo), workers=workers,
                    fallback="serial recompute",
                )
        for ref in todo:
            self._fill(ref, configs, simulate)
        return [ref.label for ref in todo]


#: Default shared cache used by the benchmark harness.
_SHARED: Optional[RunCache] = None


def shared_cache(scale: float = 1.0) -> RunCache:
    """Process-wide cache (reset when a different scale is requested).

    Backed by :func:`~repro.experiments.store.default_store` (see
    ``REPRO_CACHE_DIR``) so that ``python -m repro report`` runs reuse
    profiles, ILP tables, predictions and simulations across artifacts
    *and* across invocations; an unwritable store degrades to the
    in-memory cache.
    """
    global _SHARED
    if _SHARED is None or _SHARED.scale != scale:
        _SHARED = RunCache(scale, store=default_store())
    return _SHARED
