"""The evaluated workload suite (paper §IV) and shared run caching.

The paper evaluates all sixteen Rodinia benchmarks plus ten Parsec
benchmarks on a quad-core machine.  Several experiments (Figures 4-6)
need the same profiles and simulations, so this module provides the
shared :class:`RunCache` — a three-level pipeline:

1. an in-process memo (dict) per artifact kind,
2. an optional versioned on-disk :class:`~repro.experiments.store.
   ProfileStore`, shared across processes *and* across runs,
3. :meth:`RunCache.prefetch`, which fans profiling / prediction /
   simulation of many benchmarks out over a ``ProcessPoolExecutor``
   (the one parallel runner behind ``report --jobs N``) and funnels
   the results back through levels 1-2; a pool broken by a dying
   worker falls back to computing in-process.

Everything is keyed by (suite, benchmark, scale, chunk) plus — for
predictions and simulations — a deterministic configuration
fingerprint, so a cache entry is valid exactly as long as its inputs
are.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.rppm import PredictionResult, predict
from repro.core.session import Session
from repro.experiments.store import ProfileStore
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
    suite: str,
    name: str,
    scale: float,
    chunk: int,
    configs: Sequence[MulticoreConfig],
    do_sim: bool,
    store_root: Optional[str] = None,
) -> Tuple[str, WorkloadProfile, list, list]:
    """Profile (and optionally predict/simulate) one benchmark.

    Runs in a worker process; everything returned must pickle.  The
    parent installs the results into its memory cache.  Workers write
    the store directly (each its own benchmark's artifacts, plus the
    content-addressed ``ilptables`` shared by all); every write goes
    through the store's atomic temp-file + rename, so concurrent
    writers are safe.

    A benchmark lands here when *any* of its artifacts is missing.
    The worker runs a worker-local :class:`RunCache` over the same
    store, so the load-or-compute-then-persist logic exists in
    exactly one place (the RunCache artifact methods): satisfied
    artifacts (say, four of five design points simulated by an
    earlier run) are read back rather than recomputed, new ones are
    persisted in-worker, and a store-satisfied profile with cached
    simulations never expands its trace at all.
    """
    ref = BenchmarkRef(suite, name)
    # Non-strict: a worker that computed a result must return it to
    # the parent even if persisting it fails (reads heal later).
    store = (
        ProfileStore(store_root, strict=False)
        if store_root is not None else None
    )
    local = RunCache(scale=scale, store=store, chunk=chunk)
    profile = local.profile(ref)
    preds = [local.prediction(ref, config) for config in configs]
    sims = (
        [local.simulation(ref, config) for config in configs]
        if do_sim else []
    )
    return ref.label, profile, preds, sims


class RunCache:
    """Memoised traces, profiles, predictions and simulations.

    Experiments share one instance so that e.g. Figure 4 and Figure 5
    profile and simulate each benchmark once.  The profile cache key is
    (benchmark, scale); prediction/simulation keys additionally carry
    the configuration (hashable by design).

    With a ``store`` attached, profiles (JSON) and predictions /
    simulations (pickles) also persist to a versioned on-disk cache
    keyed by workload seed + scale + chunk + config fingerprint, shared
    across processes and across runs; corrupt or stale entries fall
    back to recomputation.
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
        self._profiles: Dict[str, WorkloadProfile] = {}
        self._predictions: Dict[
            Tuple[str, MulticoreConfig], PredictionResult
        ] = {}
        self._simulations: Dict[
            Tuple[str, MulticoreConfig], SimulationResult
        ] = {}

    # -- store keys ---------------------------------------------------------

    def _spec(self, ref: BenchmarkRef) -> WorkloadSpec:
        # A pure function of (suite, name, scale) — memoized, since
        # every store-key computation and trace lookup needs it and
        # building the spec is not free.
        spec = self._specs.get(ref.label)
        if spec is None:
            spec = build_workload(ref, self.scale)
            self._specs[ref.label] = spec
        return spec

    def _seed(self, ref: BenchmarkRef) -> int:
        return int(self._spec(ref).seed)

    def _profile_key(self, ref: BenchmarkRef) -> str:
        return ProfileStore.profile_key(
            ref.label, self._seed(ref), self.scale, self.chunk
        )

    def _result_key(
        self, kind: str, ref: BenchmarkRef, config: MulticoreConfig
    ) -> str:
        return ProfileStore.result_key(
            kind, ref.label, self._seed(ref), self.scale, config
        )

    # -- artifacts ----------------------------------------------------------

    def trace(self, ref: BenchmarkRef) -> WorkloadTrace:
        return self.session.traces.get(self._spec(ref))

    def profile(self, ref: BenchmarkRef) -> WorkloadProfile:
        if ref.label not in self._profiles:
            profile = None
            if self.store is not None:
                profile = self.store.load_profile(self._profile_key(ref))
            if profile is None:
                profile = profile_workload(
                    self.trace(ref),
                    chunk=self.chunk,
                    session=self.session,
                )
                if self.store is not None:
                    self.store.save_profile(
                        self._profile_key(ref), profile
                    )
            self._profiles[ref.label] = profile
        return self._profiles[ref.label]

    def prediction(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> PredictionResult:
        key = (ref.label, config)
        if key not in self._predictions:
            result = None
            if self.store is not None:
                result = self.store.load_result(
                    "predictions", self._result_key(
                        "prediction", ref, config
                    )
                )
            if result is None:
                result = predict(
                    self.profile(ref), config, session=self.session
                )
                if self.store is not None:
                    self.store.save_result(
                        "predictions",
                        self._result_key("prediction", ref, config),
                        result,
                    )
            self._predictions[key] = result
        return self._predictions[key]

    def simulation(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> SimulationResult:
        key = (ref.label, config)
        if key not in self._simulations:
            result = None
            if self.store is not None:
                result = self.store.load_result(
                    "simulations", self._result_key(
                        "simulation", ref, config
                    )
                )
            if result is None:
                result = simulate(
                    self.trace(ref), config, session=self.session
                )
                if self.store is not None:
                    self.store.save_result(
                        "simulations",
                        self._result_key("simulation", ref, config),
                        result,
                    )
            self._simulations[key] = result
        return self._simulations[key]

    # -- parallel pipeline --------------------------------------------------

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
        todo: List[BenchmarkRef] = []
        for ref in refs:
            needs_profile = ref.label not in self._profiles
            if needs_profile and self.store is not None:
                cached = self.store.load_profile(self._profile_key(ref))
                if cached is not None:
                    self._profiles[ref.label] = cached
                    needs_profile = False
            needs_results = False
            for config in configs:
                if (ref.label, config) not in self._predictions:
                    hit = None
                    if self.store is not None:
                        hit = self.store.load_result(
                            "predictions", self._result_key(
                                "prediction", ref, config
                            )
                        )
                    if hit is not None:
                        self._predictions[(ref.label, config)] = hit
                    else:
                        needs_results = True
                if simulate and (
                    (ref.label, config) not in self._simulations
                ):
                    hit = None
                    if self.store is not None:
                        hit = self.store.load_result(
                            "simulations", self._result_key(
                                "simulation", ref, config
                            )
                        )
                    if hit is not None:
                        self._simulations[(ref.label, config)] = hit
                    else:
                        needs_results = True
            if needs_profile or needs_results:
                todo.append(ref)

        if not todo:
            return []
        if workers is None:
            workers = os.cpu_count() or 1
        if workers <= 1 or len(todo) == 1:
            self._prefetch_serial(todo, configs, simulate)
            return [ref.label for ref in todo]

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                store_root = (
                    str(self.store.root)
                    if self.store is not None else None
                )
                futures = [
                    pool.submit(
                        _prefetch_worker, ref.suite, ref.name,
                        self.scale, self.chunk, list(configs),
                        simulate, store_root,
                    )
                    for ref in todo
                ]
                for ref, future in zip(todo, futures):
                    label, profile, preds, sims = future.result()
                    self._profiles[label] = profile
                    for config, pred in zip(configs, preds):
                        self._predictions[(label, config)] = pred
                    for config, sim in zip(configs, sims):
                        self._simulations[(label, config)] = sim
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault, machine chaos).
            # The report must not: recompute serially in-process —
            # every artifact a worker did persist before dying is a
            # store hit, so only the genuinely missing tail is paid.
            get_logger("repro.suites").error(
                "prefetch.pool_broken",
                todo=len(todo), workers=workers,
                fallback="serial recompute",
            )
            self._prefetch_serial(todo, configs, simulate)
        return [ref.label for ref in todo]

    def _prefetch_serial(
        self,
        todo: Sequence[BenchmarkRef],
        configs: Sequence[MulticoreConfig],
        simulate: bool,
    ) -> None:
        """In-process load-or-compute of everything in ``todo``."""
        for ref in todo:
            self.profile(ref)
            for config in configs:
                self.prediction(ref, config)
                if simulate:
                    self.simulation(ref, config)


#: Default shared cache used by the benchmark harness.
_SHARED: Optional[RunCache] = None


def shared_cache(scale: float = 1.0) -> RunCache:
    """Process-wide cache (reset when a different scale is requested).

    Backed by the default on-disk :class:`ProfileStore` (see
    ``REPRO_CACHE_DIR``) so that ``python -m repro report`` runs reuse
    profiles, ILP tables, predictions and simulations across artifacts
    *and* across invocations; an unwritable store degrades to the
    in-memory cache.
    """
    global _SHARED
    if _SHARED is None or _SHARED.scale != scale:
        try:
            # Non-strict: save-time OSErrors (read-only root, full
            # disk) silently degrade to the in-memory cache instead
            # of aborting a computed result.
            store: Optional[ProfileStore] = ProfileStore.open_default()
            store.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            store = None
        _SHARED = RunCache(scale, store=store)
    return _SHARED
