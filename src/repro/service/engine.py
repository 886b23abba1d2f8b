"""The long-lived prediction engine behind the serving subsystem.

A CLI invocation pays import + profile + predict for every answer; the
:class:`PredictionEngine` instead keeps the paper's "one-time cost"
artifacts resident across requests:

* hot :class:`~repro.profiler.profile.WorkloadProfile` objects, in an
  in-process LRU keyed by the *store* profile key (label, seed, scale,
  chunk) — so the memory cache, the on-disk store and every worker
  process agree on identity — in front of the store step
  ``RunCache`` shares (:meth:`~repro.core.session.Session.artifact`),
  which also gives ``/v1/compare`` every simulation a plane stored;
* per-pool ILP tables via the content-addressed
  :class:`~repro.profiler.ilp_batch.ILPTableCache`;
* expanded traces via the content-addressed
  :class:`~repro.experiments.store.TraceCache` (engine-resident LRU
  over the store's ``"traces"`` kind), so a cold compare pays trace
  expansion once across profile and simulation and a repeat pays
  none;
* per-(profile, Eq.-1 inputs) :class:`~repro.core.epoch_model.EpochCostCache`
  memos, so repeat predictions, and predictions at a new core count,
  skip every Eq.-1 evaluation and both prediction phases;
* finished response payloads next to their JSON-encoded bodies, keyed
  by the full request tuple, so the HTTP server can answer a repeat
  request on its event loop from bytes
  (:meth:`PredictionEngine.cached_body`), and a new core count or
  sweep over resident memos by building the result there
  (:meth:`PredictionEngine.resident_body`).

The engine is synchronous and thread-safe — transports (the asyncio
HTTP server, the CLI, tests) call it from whatever execution context
they own.  Payload helpers (:func:`prediction_payload`,
:func:`format_prediction`, …) are the single source of truth for the
service's JSON schema *and* the CLI's text output, which is what makes
``/v1/predict`` responses bit-identical to ``python -m repro predict``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.arch.config import MulticoreConfig
from repro.arch.presets import TABLE_IV, table_iv_config
from repro.core.rppm import PredictionResult, predict, prediction_result
from repro.core.session import Session
from repro.counters import Counters
from repro.experiments.store import ProfileStore
from repro.obs import root_span, span
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.lru import LRUCache
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.testing.faults import FAULTS
from repro.workloads.parsec import PARSEC
from repro.workloads.rodinia import RODINIA


def resolve_benchmark(name: str) -> BenchmarkRef:
    """Resolve ``suite.benchmark`` (or a bare benchmark name).

    Raises ``ValueError`` for unknown names — transports map this to
    404 / ``SystemExit`` as appropriate.
    """
    if "." in name:
        suite, bench = name.split(".", 1)
    elif name in RODINIA:
        suite, bench = "rodinia", name
    elif name in PARSEC:
        suite, bench = "parsec", name
    else:
        raise ValueError(
            f"unknown benchmark {name!r}; see `python -m repro list`"
        )
    if suite not in ("rodinia", "parsec"):
        raise ValueError(f"unknown suite {suite!r}")
    return BenchmarkRef(suite, bench)


@dataclass(frozen=True)
class ServiceRequest:
    """One transport-independent unit of serving work."""

    kind: str  # "predict" | "compare" | "sweep"
    benchmark: str
    config: str = "base"
    cores: int = 4
    scale: float = 1.0
    configs: Tuple[str, ...] = ()  # sweep only; () = all of Table IV
    #: Active obs trace, carried across the executor boundary (worker
    #: threads do not inherit contextvars).  Identity-irrelevant:
    #: excluded from equality/hash and from :meth:`key`.
    trace: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def key(self) -> tuple:
        """Coalescing/memo identity: every field that changes the answer.

        A sweep ignores ``config`` and the other kinds ignore
        ``configs``, so those fields are blanked: a request parsed by
        the server and the engine's own memo lookup agree on the key.
        """
        if self.kind == "sweep":
            return (
                self.kind, self.benchmark, "", self.cores, self.scale,
                self.configs,
            )
        return (
            self.kind, self.benchmark, self.config, self.cores,
            self.scale, (),
        )


def encode_json(payload: dict) -> bytes:
    """The wire encoding of a JSON response body."""
    return json.dumps(payload).encode()


class CachedResult(NamedTuple):
    """One result-LRU entry: a finished payload and its encoded body.

    Built together, so LRU eviction and store-generation invalidation
    drop both at once.
    """

    payload: dict
    body: bytes


class ServiceError(Exception):
    """An error with an HTTP-ish status, raised by engine entry points."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: Resident Eq.-1 memos an engine keeps by default: every (benchmark,
#: Table IV point) pair of the suites at two scales, so the serving hot
#: set of one scale fits with headroom.  Core counts share a memo.
DEFAULT_COST_CACHES = 2 * len(TABLE_IV) * (len(RODINIA) + len(PARSEC))

#: Resident profiles and finished results an engine keeps, and the
#: byte bound of its session's trace LRU.
MAX_PROFILES = 32
MAX_RESULTS = 4096
MAX_TRACE_BYTES = 256 << 20


class PredictionEngine:
    """Resident profiles + caches serving predict/compare/sweep calls."""

    def __init__(
        self,
        store: Optional[ProfileStore] = None,
        chunk: int = 4096,
        max_cost_caches: int = DEFAULT_COST_CACHES,
        session: Optional[Session] = None,
    ) -> None:
        #: The artifact cache plane: content-addressed traces, ILP
        #: tables, branch statistics, segment precompute and resident
        #: Eq.-1 memos.  A cold ``/v1/compare`` pays trace expansion
        #: once for profile + simulation; repeats pay zero.
        if session is None:
            session = Session(
                store=store,
                max_cost_caches=max_cost_caches,
                max_trace_bytes=MAX_TRACE_BYTES,
            )
        elif store is not None and session.store is not store:
            raise ValueError("pass either a store or a session, not both")
        self.session = session
        self.store = session.store
        self.chunk = chunk
        #: profile store key -> WorkloadProfile
        self._profiles = LRUCache(MAX_PROFILES)
        #: request key -> CachedResult (payload + encoded body; both
        #: treated as immutable)
        self.results = LRUCache(MAX_RESULTS)
        self._lock = threading.Lock()
        #: ``/healthz`` counts: requests and computations by request
        #: kind, and the engine's other events.  ``invalidations`` counts
        #: the times the engine dropped its LRUs because a newer store
        #: generation appeared (another fleet worker pruned or
        #: republished).
        self._requests = Counters()
        self._computed = Counters()
        self._counts = Counters(
            "errors", "profiles_built", "profiles_from_store",
            "predictions_run", "simulations_run", "invalidations",
        )
        #: Version-stamped invalidation: the store generation this
        #: engine's resident LRUs were warmed against.  Re-checked at
        #: most every ``_GEN_CHECK_TTL_S`` on the request path — a
        #: monotonic-clock throttle, not per request, so the stat()
        #: never shows up in a profile.
        self._generation = (
            self.store.generation() if self.store is not None else 0
        )
        self._gen_checked_at = time.monotonic()

    # -- version-stamped invalidation ----------------------------------------

    #: Seconds between store-generation re-checks on the request path.
    _GEN_CHECK_TTL_S = 0.5

    def _check_generation(self) -> None:
        """Drop resident LRUs when the shared store moved generations.

        Fleet workers share artifacts through the content-addressed
        store; a prune (or any future republish) bumps the store's
        generation stamp, and every resident engine notices within one
        TTL and drops its memoised payloads and profiles rather than
        serving entries the store no longer backs.
        """
        if self.store is None:
            return
        now = time.monotonic()
        with self._lock:
            if (now - self._gen_checked_at) < self._GEN_CHECK_TTL_S:
                return
            self._gen_checked_at = now
            known = self._generation
        current = self.store.generation()
        if current == known:
            return
        with self._lock:
            if self._generation == current:
                return  # another thread already invalidated
            self._generation = current
        self._counts.bump("invalidations")
        self._profiles.clear()
        self.results.clear()

    # -- workload / profile resolution --------------------------------------

    def _trace(self, ref: BenchmarkRef, scale: float):
        """Expanded trace via the engine-resident content-addressed LRU."""
        return self.session.traces.get(build_workload(ref, scale))

    def profile_key(self, ref: BenchmarkRef, scale: float) -> str:
        return ProfileStore.profile_key(ref.label, ref.seed, scale, self.chunk)

    def profile(
        self, ref: BenchmarkRef, scale: float
    ) -> Tuple[str, WorkloadProfile]:
        """The resident profile for a benchmark (LRU -> store -> build)."""
        key = self.profile_key(ref, scale)
        hit = self._profiles.get(key)
        if hit is not None:
            return key, hit
        with span("engine.profile", benchmark=ref.label, scale=scale):
            profile, built = self.session.artifact(
                "profiles", key, lambda: profile_workload(
                    self._trace(ref, scale), chunk=self.chunk,
                    session=self.session,
                ),
            )
            self._counts.bump(
                "profiles_built" if built else "profiles_from_store"
            )
            self._profiles.put(key, profile)
            return key, profile

    @staticmethod
    def _config(name: str, cores: int) -> MulticoreConfig:
        try:
            return table_iv_config(name, cores=cores)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None

    @staticmethod
    def _ref(benchmark: str) -> BenchmarkRef:
        try:
            return resolve_benchmark(benchmark)
        except ValueError as exc:
            raise ServiceError(404, str(exc)) from None

    # -- entry points -------------------------------------------------------

    def _answer(
        self, request: ServiceRequest, compute: Callable[[], dict]
    ) -> CachedResult:
        """Every entry point's bookkeeping around ``compute``: count
        the request, answer a result-LRU hit, else count, remember and
        return ``compute()``'s payload.  The executor's entry points and
        :meth:`resident_body` share it, so both count alike.
        """
        self._requests.bump(request.kind)
        cached = self.results.get(request.key())
        if cached is not None:
            return cached
        payload = compute()
        self._computed.bump(request.kind)
        return self._remember(request, payload)

    def predict(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/predict``: RPPM prediction payload, heavily memoized."""
        request = ServiceRequest(
            "predict", benchmark, config, cores, scale
        )
        self._check_generation()

        def compute() -> dict:
            ref = self._ref(benchmark)
            cfg = self._config(config, cores)
            _pkey, profile = self.profile(ref, scale)
            # The session memoises the Eq.-1 cost cache per (profile,
            # Eq.-1 inputs), which leave out the core count, and with
            # it phase 1's stacks and phase 2's schedule; profiles stay
            # resident in ``_profiles``, so a prediction at a new core
            # count runs no Eq.-1 evaluation and neither phase
            # (``schedules`` stays put in /healthz's session counters).
            result = predict(profile, cfg, session=self.session)
            self._counts.bump("predictions_run")
            return prediction_payload(result, cfg)

        return self._answer(request, compute).payload

    def compare(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/compare``: prediction vs. golden-reference simulation."""
        request = ServiceRequest(
            "compare", benchmark, config, cores, scale
        )
        self._check_generation()

        def compute() -> dict:
            ref = self._ref(benchmark)
            cfg = self._config(config, cores)
            _pkey, profile = self.profile(ref, scale)
            pred = predict(profile, cfg, session=self.session)
            self._counts.bump("predictions_run")
            # RunCache.simulation's key, so either plane's simulation
            # answers the other, and a fleet simulates a point once.
            key = ProfileStore.result_key(
                "simulation", ref.label, ref.seed, scale, cfg
            )
            sim, simulated = self.session.artifact(
                "simulations", key, lambda: simulate(
                    self._trace(ref, scale), cfg, session=self.session
                ),
            )
            if simulated:
                self._counts.bump("simulations_run")
            return compare_payload(pred, sim, cfg)

        return self._answer(request, compute).payload

    def sweep(
        self,
        benchmark: str,
        configs: Tuple[str, ...] = (),
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/sweep``: one profile driving many design points."""
        request = ServiceRequest(
            "sweep", benchmark, "", cores, scale, tuple(configs)
        )
        self._check_generation()
        names = tuple(configs) or tuple(TABLE_IV)
        return self._answer(request, lambda: _sweep_payload(
            request, names,
            [self.predict(benchmark, name, cores, scale) for name in names],
        )).payload

    def _remember(
        self, request: ServiceRequest, payload: dict
    ) -> CachedResult:
        """Memoize a computed payload together with its encoded body."""
        entry = CachedResult(payload, encode_json(payload))
        self.results.put(request.key(), entry)
        return entry

    def cached_body(self, request: ServiceRequest) -> Optional[bytes]:
        """The encoded answer to ``request`` if the result LRU holds it.

        The server's event-loop lookup: a hit counts exactly what
        :meth:`handle` counts for one (the request, one result-LRU
        hit, the TTL-throttled generation check).  A miss counts
        nothing here -- the request goes on to :meth:`handle`, whose
        own lookup counts it -- so hits + misses still equals lookups.
        """
        self._check_generation()
        entry = self.results.get(request.key(), count_miss=False)
        if entry is None:
            return None
        self._requests.bump(request.kind)
        return entry.body

    # -- answers from resident state (the event loop's miss path) -----------

    def _resident_profile(
        self, benchmark: str, scale: float
    ) -> Optional[Tuple[str, WorkloadProfile]]:
        """The (key, profile) :meth:`profile` would return if it is
        resident, else ``None``.

        Peeks at the profile LRU, counting nothing; never builds a
        workload spec, reads the store or profiles.
        """
        try:
            ref = resolve_benchmark(benchmark)
        except ValueError:
            return None
        key = self.profile_key(ref, scale)
        profile = self._profiles.peek(key)
        return None if profile is None else (key, profile)

    def resident_body(self, request: ServiceRequest) -> Optional[bytes]:
        """The encoded answer to a result-LRU miss that needs no
        computation, or ``None`` having counted nothing.

        A predict or sweep is answered when its profile and, for each
        design point, the session's Eq.-1 memo with both phases
        (:meth:`~repro.core.session.Session.resident_cost_cache`) are
        resident: the answer is then built by
        :func:`~repro.core.rppm.prediction_result`, the builder
        :func:`~repro.core.rppm.predict` uses, and remembered and
        counted as :meth:`predict` / :meth:`sweep` would.  Never loads,
        expands, profiles, evaluates Eq. 1, runs a phase or fires the
        ``engine.compute`` fault point; compares and unknown names
        return ``None``.
        """
        if request.kind == "predict":
            names = (request.config,)
        elif request.kind == "sweep":
            names = request.configs or tuple(TABLE_IV)
        else:
            return None
        self._check_generation()
        resident = self._resident_profile(request.benchmark, request.scale)
        if resident is None:
            return None
        pkey, profile = resident
        points = []
        for name in names:
            try:
                cfg = table_iv_config(name, cores=request.cores)
            except ValueError:
                return None
            memo = self.session.resident_cost_cache(profile, cfg)
            if memo is None:
                return None
            points.append((cfg, memo))

        def answer(cfg: MulticoreConfig, memo) -> CachedResult:
            def build() -> dict:
                self._profiles.get(pkey)  # the hit profile() counts
                self.session.record("predictions")
                with span("predict", workload=profile.name, config=cfg.name):
                    result = prediction_result(profile, cfg, memo.phases)
                self._counts.bump("predictions_run")
                return prediction_payload(result, cfg)

            return self._answer(ServiceRequest(
                "predict", request.benchmark, cfg.name, request.cores,
                request.scale,
            ), build)

        with span("engine", kind=request.kind, benchmark=request.benchmark):
            if request.kind == "predict":
                return answer(*points[0]).body
            return self._answer(request, lambda: _sweep_payload(
                request, names, [answer(*point).payload for point in points]
            )).body

    def profiles(self) -> dict:
        """``/v1/profiles``: resident + persisted profile inventory."""
        resident = [
            {
                "key": key,
                "benchmark": profile.name,
                "n_threads": profile.n_threads,
                "n_instructions": profile.n_instructions,
                "seed": profile.seed,
            }
            for key, profile in self._profiles.items()
        ]
        payload = {"resident": resident}
        if self.store is not None:
            payload["store"] = {
                "root": str(self.store.root),
                "profiles": len(self.store.list_keys("profiles")),
                "ilptables": len(self.store.list_keys("ilptables")),
                "traces": len(self.store.list_keys("traces")),
            }
        return payload

    def health(self) -> dict:
        """Engine half of ``/healthz``."""
        stats = {
            "requests": self._requests.snapshot(),
            "computed": self._computed.snapshot(),
            **self._counts.snapshot(),
            "store_generation": self._generation,
        }
        stats["result_cache"] = self.results.stats()
        stats["profile_cache"] = self._profiles.stats()
        # One consolidated block for every artifact cache the session
        # holds — trace arena, ILP tables, branch stats, segment
        # precompute, Eq.-1 memos, expansion-engine and ILP-kernel
        # counters — instead of scattered per-cache fragments.
        stats["session"] = self.session.health()
        # Store health: quarantined artifacts, dropped writes, I/O
        # errors and the corruption streak — the error-budget inputs
        # (kept top-level so alerting needn't reach into the session).
        # The session's block is the same store's: read it once.
        if self.store is not None:
            stats["store"] = stats["session"]["store"]
        return stats

    # -- compute face (the coalescer's executor job) -------------------------

    def handle(self, request: ServiceRequest) -> Tuple[int, dict]:
        """Serve one request; never raises — errors become payloads."""
        # The engine span opens the request's trace in this worker
        # thread, so the engine/profiler spans land in the serving
        # request's timing breakdown (single-flight riders share the
        # leader's trace).
        try:
            with root_span(
                getattr(request, "trace", None), "engine",
                kind=request.kind, benchmark=request.benchmark,
            ):
                # Chaos fault point: a slow or failing engine call.
                # The delay occupies this worker thread exactly like a
                # real degraded engine would, which is how the overload
                # scenarios manufacture a known, bounded capacity.  The
                # server answers result-cache hits, and misses whose
                # answer is resident (resident_body), on its event
                # loop, so served requests only get here to be computed.
                FAULTS.fire("engine.compute")
                if request.kind == "predict":
                    return 200, self.predict(
                        request.benchmark, request.config, request.cores,
                        request.scale,
                    )
                if request.kind == "compare":
                    return 200, self.compare(
                        request.benchmark, request.config, request.cores,
                        request.scale,
                    )
                if request.kind == "sweep":
                    return 200, self.sweep(
                        request.benchmark, request.configs, request.cores,
                        request.scale,
                    )
                return 400, {
                    "error": f"unknown request kind {request.kind!r}"
                }
        except ServiceError as exc:
            self._counts.bump("errors")
            return exc.status, {"error": str(exc)}
        except Exception as exc:  # engine bug: report, don't kill the job
            self._counts.bump("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}


def _sweep_payload(
    request: ServiceRequest, names: Tuple[str, ...], results: list
) -> dict:
    return {
        "benchmark": request.benchmark,
        "cores": request.cores,
        "scale": request.scale,
        "configs": list(names),
        "results": results,
    }


# -- error budget ------------------------------------------------------------

#: Alert thresholds for the ``/healthz`` error-budget block.  The
#: budget flags *degradation trends* — a collapsed result-cache hit
#: rate (every request recomputing = the overload precursor), a
#: corruption streak in the store (rotting cache directory), silently
#: dropped writes — rather than individual failures, which are
#: already counted where they happen.
ERROR_BUDGET_THRESHOLDS: Dict[str, float] = {
    #: Result-cache hit rate below this, after min_lookups, is a
    #: cache collapse: the serving economy the engine is built on is
    #: gone and cold-compute load is about to take the service down.
    "min_result_hit_rate": 0.5,
    #: Lookups before the hit-rate alert can fire (cold start grace).
    "min_lookups": 64,
    #: Consecutive corrupt/stale artifacts before the store alarm.
    "max_corruption_streak": 3,
}


def error_budget(
    engine_health: dict, admission: Optional[dict] = None
) -> dict:
    """The ``/healthz`` error-budget block.

    Pure function of an engine health snapshot (plus the server's
    admission counters when serving), so the CLI, tests and external
    alerting (sipet-style alert systems polling ``/healthz``) compute
    the same verdict from the same counters.
    """
    thresholds = ERROR_BUDGET_THRESHOLDS
    alerts = []
    cache = engine_health.get("result_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    hit_rate = cache.get("hits", 0) / lookups if lookups else None
    cache_collapse = bool(
        lookups >= thresholds["min_lookups"]
        and hit_rate is not None
        and hit_rate < thresholds["min_result_hit_rate"]
    )
    if cache_collapse:
        alerts.append(
            f"result-cache hit rate collapsed to {hit_rate:.1%} "
            f"over {lookups} lookups"
        )
    store = engine_health.get("store", {})
    streak = store.get("corruption_streak", 0)
    corruption_alarm = streak >= thresholds["max_corruption_streak"]
    if corruption_alarm:
        alerts.append(
            f"store corruption streak at {streak} consecutive bad "
            f"artifacts"
        )
    dropped = store.get("dropped_writes", 0)
    if dropped:
        alerts.append(f"store dropped {dropped} writes (non-strict)")
    quarantined = sum(store.get("quarantine", {}).values())
    shed = admission.get("shed", 0) if admission else 0
    attempted = shed + sum(engine_health.get("requests", {}).values())
    return {
        "ok": not alerts,
        "alerts": alerts,
        "result_cache_hit_rate": hit_rate,
        "cache_hit_collapse": cache_collapse,
        "corruption_streak": streak,
        "corruption_alarm": corruption_alarm,
        "dropped_writes": dropped,
        "io_errors": store.get("io_errors", 0),
        "quarantined": quarantined,
        "shed": shed,
        "shed_rate": shed / attempted if attempted else 0.0,
    }


# -- payloads and their CLI renderings --------------------------------------
#
# The payload builders and ``format_*`` renderers below are shared by
# the HTTP server and ``repro predict`` / ``repro compare``: the CLI
# prints exactly ``format_prediction(prediction_payload(...))``, so a
# service response re-rendered through the same formatter reproduces
# the CLI output byte for byte (floats survive JSON round-trips
# exactly).


def _stack_dict(stack) -> Dict[str, float]:
    return {name: float(value) for name, value in stack.cpi().items()}


def prediction_payload(
    result: PredictionResult, config: MulticoreConfig
) -> dict:
    return {
        "benchmark": result.workload,
        "config": result.config,
        "cores": config.cores,
        "frequency_ghz": config.core.frequency_ghz,
        "total_cycles": result.total_cycles,
        "seconds": config.cycles_to_seconds(result.total_cycles),
        "threads": [
            {
                "thread_id": t.thread_id,
                "instructions": t.instructions,
                "active_cycles": t.active_cycles,
                "idle_cycles": t.idle_cycles,
            }
            for t in result.threads
        ],
        "cpi_stack": _stack_dict(result.average_stack()),
    }


def compare_payload(
    pred: PredictionResult, sim, config: MulticoreConfig
) -> dict:
    return {
        "benchmark": pred.workload,
        "config": config.name,
        "cores": config.cores,
        "predicted_cycles": pred.total_cycles,
        "simulated_cycles": sim.total_cycles,
        "error": pred.total_cycles / sim.total_cycles - 1.0,
        "prediction_stack": _stack_dict(pred.average_stack()),
        "simulation_stack": _stack_dict(sim.average_stack()),
        "invalidations": sim.invalidations,
    }


def _stack_line(stack: Dict[str, float]) -> str:
    return "  ".join(
        f"{name}={value:.3f}" for name, value in stack.items()
    )


def format_prediction(payload: dict) -> str:
    lines = [
        f"{payload['benchmark']} on {payload['config']}: "
        f"{payload['total_cycles']:,.0f} cycles "
        f"({payload['seconds'] * 1e6:.1f} us @ "
        f"{payload['frequency_ghz']} GHz)"
    ]
    for t in payload["threads"]:
        lines.append(
            f"  thread {t['thread_id']}: "
            f"active {t['active_cycles']:,.0f} "
            f"idle {t['idle_cycles']:,.0f}"
        )
    lines.append("  CPI stack: " + _stack_line(payload["cpi_stack"]))
    return "\n".join(lines)


def format_compare(payload: dict) -> str:
    return "\n".join([
        f"{payload['benchmark']} on {payload['config']}:",
        f"  RPPM     : {payload['predicted_cycles']:,.0f} cycles",
        f"  simulated: {payload['simulated_cycles']:,.0f} cycles",
        f"  error    : {payload['error']:+.1%}",
        "  RPPM stack: " + _stack_line(payload["prediction_stack"]),
        "  sim  stack: " + _stack_line(payload["simulation_stack"]),
    ])


__all__ = [
    "ERROR_BUDGET_THRESHOLDS",
    "CachedResult",
    "DEFAULT_COST_CACHES",
    "PredictionEngine",
    "ServiceError",
    "ServiceRequest",
    "compare_payload",
    "encode_json",
    "error_budget",
    "format_compare",
    "format_prediction",
    "prediction_payload",
    "resolve_benchmark",
]
