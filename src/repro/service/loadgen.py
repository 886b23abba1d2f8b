"""Closed-loop load generator + overload scenarios for the service.

``concurrency`` worker threads each own one keep-alive
:class:`~repro.service.client.ServiceClient` and issue back-to-back
requests until the deadline — the classic closed-loop harness, so
measured throughput is the service's sustainable rate at that
concurrency, not an open-loop arrival fantasy.  The warm-up request
runs the one-time profile cost before timing starts, making the
record the *serving* trajectory (``BENCH_service.json``), separate
from the profiling trajectory (``BENCH_profiler.json``).

Schema 2 records classify every request outcome — the overload
contract is that **nothing is unexplained**: a request ends in a
bit-identical success, a well-formed ``429 + Retry-After`` shed, a
``503`` deadline/drain refusal, or (only when the scenario kills the
server) a connection error.  ``unexplained_errors`` is floor-gated at
zero by ``bench --check``.

:func:`run_overload_scenarios` boots dedicated servers and drives the
three chaos scenarios — **stampede** (4x admission overload against a
tiny queue + deliberately slowed engine), **slow_engine** (deadline
expiry under an engine running ~10x past the deadline) and
**kill_mid_burst** (graceful drain triggered mid-traffic) — using the
fault points in :mod:`repro.testing.faults` to manufacture a known,
bounded capacity.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceProtocolError,
    ServiceTimeout,
)

#: 2: typed outcome classification (ok / shed / unavailable /
#: protocol / connection / unexplained), goodput + shed-rate, retry
#: accounting, and the ``overload`` scenario records.
#: 3: the pre-fork fleet — per-worker latency breakdowns keyed by the
#: ``X-Worker-Id`` response header, the ``fleet`` section (aggregate
#: rps at N=1/2/4 under warm and cold-mix profiles, scaling ratios, a
#: SIGKILL-respawn chaos record) and the host ``cpus`` the scaling
#: floors derate by.
#: 4: the ``obs`` section -- server CPU per hot ``/v1/predict`` with
#: span tracing on vs off over interleaved pairs (``pairs``,
#: ``ratios``, ``overhead_frac``), gated by ``bench --check``.
SERVICE_BENCH_SCHEMA = 4

_OUTCOMES = (
    "ok",
    "shed",                # 429 with a well-formed Retry-After
    "malformed_shed",      # 429 missing the Retry-After contract
    "unavailable",         # 503 deadline expiry / draining
    "malformed_503",       # 503 without deadline/drain explanation
    "protocol_errors",     # undecodable response body
    "connection_errors",   # transport drop (reset, refused, closed)
    "unexplained_errors",  # anything else: the budget that must be 0
)


def _health_value(payload: Dict, dotted: str):
    """Walk ``payload`` along a dotted key path with explicit errors.

    The ``/healthz`` schema is registry-derived and has been renamed
    before; a probe landing on a missing key must say *which* key and
    what was actually there — not die with a bare ``KeyError``.
    """
    node = payload
    seen = []
    for key in dotted.split("."):
        seen.append(key)
        if not isinstance(node, dict):
            raise RuntimeError(
                f"/healthz probe: {'.'.join(seen[:-1])!r} is "
                f"{type(node).__name__}, not an object — cannot "
                f"descend to {dotted!r}"
            )
        if key not in node:
            raise RuntimeError(
                f"/healthz probe: no key {'.'.join(seen)!r} "
                f"(available: {sorted(node)[:12]}); the health schema "
                "may have been renamed — update the loadgen probe"
            )
        node = node[key]
    return node


def _classify(exc: Exception) -> str:
    """Map one failed request onto the outcome taxonomy."""
    if isinstance(exc, ServiceOverloaded):
        well_formed = (
            exc.retry_after is not None
            and isinstance(exc.payload, dict)
            and "error" in exc.payload
        )
        return "shed" if well_formed else "malformed_shed"
    if isinstance(exc, ServiceTimeout):
        if exc.status is None:
            return "connection_errors"  # socket timeout: no response
        payload = exc.payload if isinstance(exc.payload, dict) else {}
        explained = (
            payload.get("deadline_ms") is not None
            or "drain" in str(payload.get("error", ""))
        )
        return "unavailable" if explained else "malformed_503"
    if isinstance(exc, ServiceProtocolError):
        return "protocol_errors"
    if isinstance(exc, ServiceError):
        return "unexplained_errors"
    if isinstance(exc, (ConnectionError, OSError)):
        return "connection_errors"
    import http.client
    if isinstance(exc, http.client.HTTPException):
        return "connection_errors"
    return "unexplained_errors"


def _drive(
    host: str,
    port: int,
    make_call: Callable[[ServiceClient, int, int], dict],
    duration_s: float,
    concurrency: int,
    retries: int,
    join_grace_s: float = 30.0,
) -> Dict:
    """Closed-loop drive: returns merged outcome counts + latencies.

    ``make_call(client, worker_id, iteration)`` issues one request.
    Every worker classifies every exception — a worker thread dying
    uncounted or failing to join (``hung_workers``) is itself a
    reported failure mode, never a silent one.
    """
    counts = {name: 0 for name in _OUTCOMES}
    latencies: List[float] = []
    #: Per *serving* worker (the X-Worker-Id response header):
    #: successes and their latencies, so a multi-worker fleet's p99
    #: can be localized to the one cold/slow worker skewing it.
    by_server: Dict[str, Dict] = {}
    retried = [0]
    sink_lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)
    state = {"deadline": 0.0}

    def _run(worker_id: int) -> None:
        with ServiceClient(host, port, retries=retries) as client:
            mine = {name: 0 for name in _OUTCOMES}
            lat: List[float] = []
            mine_servers: Dict[str, Dict] = {}
            try:
                barrier.wait(timeout=30)
            except threading.BrokenBarrierError:
                return
            iteration = 0
            while True:
                t0 = time.perf_counter()
                if t0 >= state["deadline"]:
                    break
                try:
                    make_call(client, worker_id, iteration)
                except Exception as exc:
                    mine[_classify(exc)] += 1
                else:
                    elapsed = time.perf_counter() - t0
                    mine["ok"] += 1
                    lat.append(elapsed)
                    # Only successes carry a trustworthy worker id —
                    # a transport error has no response header.
                    served_by = client.last_worker_id
                    if served_by is not None:
                        entry = mine_servers.setdefault(
                            served_by, {"ok": 0, "lat": []}
                        )
                        entry["ok"] += 1
                        entry["lat"].append(elapsed)
                iteration += 1
            with sink_lock:
                for name, value in mine.items():
                    counts[name] += value
                latencies.extend(lat)
                retried[0] += client.retried
                for served_by, entry in mine_servers.items():
                    merged = by_server.setdefault(
                        served_by, {"ok": 0, "lat": []}
                    )
                    merged["ok"] += entry["ok"]
                    merged["lat"].extend(entry["lat"])

    threads = [
        threading.Thread(target=_run, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    t_start = time.perf_counter()
    state["deadline"] = t_start + duration_s
    barrier.wait(timeout=30)  # release all workers at once
    hung = 0
    for t in threads:
        t.join(timeout=duration_s + join_grace_s)
        if t.is_alive():
            hung += 1
    elapsed = time.perf_counter() - t_start

    lat = np.asarray(latencies, dtype=np.float64) * 1e3
    ok = counts["ok"]
    attempts = sum(counts.values())
    return {
        **counts,
        "attempts": attempts,
        "hung_workers": hung,
        "retries": retried[0],
        "duration_s": elapsed,
        "goodput_rps": ok / elapsed if elapsed > 0 else 0.0,
        "shed_rate": (
            (counts["shed"] + counts["malformed_shed"]) / attempts
            if attempts else 0.0
        ),
        "latency_ms": {
            "mean": float(lat.mean()) if ok else 0.0,
            "p50": float(np.percentile(lat, 50)) if ok else 0.0,
            "p99": float(np.percentile(lat, 99)) if ok else 0.0,
            "max": float(lat.max()) if ok else 0.0,
        },
        "workers": {
            served_by: {
                "ok": entry["ok"],
                "latency_ms": _lat_summary(entry["lat"]),
            }
            for served_by, entry in sorted(by_server.items())
        },
    }


def _lat_summary(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p99": 0.0}
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
    }


def run_loadgen(
    host: str,
    port: int,
    benchmark: str = "rodinia.nn",
    config: str = "base",
    cores: int = 4,
    scale: float = 1.0,
    duration_s: float = 2.0,
    concurrency: int = 8,
    retries: int = 0,
    deadline_ms: Optional[float] = None,
) -> Dict:
    """Drive a running service; return the warm ``BENCH_service`` record."""
    params = {
        "benchmark": benchmark, "config": config,
        "cores": cores, "scale": scale,
    }
    with ServiceClient(host, port, retries=retries) as warm:
        warm.predict(**params)  # one-time profile cost, outside timing
        stats0 = warm.healthz()

    def call(client: ServiceClient, worker_id: int, i: int) -> dict:
        return client.predict(**params, deadline_ms=deadline_ms)

    drive = _drive(
        host, port, call, duration_s=duration_s,
        concurrency=concurrency, retries=retries,
    )

    with ServiceClient(host, port) as probe:
        stats1 = probe.healthz()

    d_hits = (
        _health_value(stats1, "engine.result_cache.hits")
        - _health_value(stats0, "engine.result_cache.hits")
    )
    d_lookups = d_hits + (
        _health_value(stats1, "engine.result_cache.misses")
        - _health_value(stats0, "engine.result_cache.misses")
    )
    collapsed = (
        _health_value(stats1, "coalescer.collapsed")
        - _health_value(stats0, "coalescer.collapsed")
    )
    record = {
        "schema": SERVICE_BENCH_SCHEMA,
        "endpoint": "/v1/predict",
        "benchmark": benchmark,
        "config": config,
        "cores": cores,
        "scale": scale,
        "concurrency": concurrency,
        **drive,
        "requests": drive["ok"],
        "errors": drive["unexplained_errors"],  # schema-1 compatible
        "throughput_rps": drive["goodput_rps"],
        "cache_hit_rate": (
            d_hits / d_lookups if d_lookups > 0 else 0.0
        ),
        "single_flight_collapsed": int(collapsed),
    }
    return record


# -- overload / chaos scenarios ----------------------------------------------


def _fresh_keys() -> Callable[[], Dict]:
    """Draw predict parameters that no earlier draw produced.

    Cycles the five Table IV points crossed with 1-1024 cores (5120
    keys) at the scenario's fixed scale, so no draw is a result-cache
    hit.  A draw is a real Eq.-1 computation only against an engine
    that keeps no prediction memo (:func:`_compute_engine`): the server
    answers result-cache hits, and misses whose profile and memo are
    resident, on its event loop, where neither the (slowed) engine nor
    the admission queue sees them.  ``next`` on an ``itertools.count``
    is atomic, so any thread may draw.
    """
    from repro.arch.presets import TABLE_IV

    names = tuple(TABLE_IV)
    counter = itertools.count()

    def draw() -> Dict:
        n = next(counter)
        return {
            "config": names[n % len(names)],
            "cores": 1 + (n // len(names)) % 1024,
        }

    return draw


def _compute_engine(benchmark: str, scale: float):
    """An engine on which every :func:`_fresh_keys` draw computes.

    It keeps no Eq.-1 memo resident (``max_cost_caches=0``), so each
    request runs Eq. 1 and both prediction phases on the executor, as
    before memos held them; only the profile is built up front, so no
    answer is cached either.
    """
    from repro.service.engine import PredictionEngine, resolve_benchmark

    engine = PredictionEngine(store=None, max_cost_caches=0)
    engine.profile(resolve_benchmark(benchmark), scale)
    return engine


def _result_hit_rate(engine, before: Dict[str, int]) -> float:
    """Result-cache hits / lookups since the ``before`` stats snapshot."""
    after = engine.results.stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _scenario_stampede(
    benchmark: str, scale: float, duration_s: float
) -> Dict:
    """4x-overload stampede into a tiny admission queue.

    A deliberately slowed engine (chaos ``engine.compute`` delay)
    pins capacity at ~``workers / delay`` req/s; 32 closed-loop
    workers each asking for a design point nobody asked for before
    (:func:`_fresh_keys` on :func:`_compute_engine`, so neither
    single-flight, the result LRU nor the event loop can absorb the
    load) then offer several times the queue can hold.  The contract
    under test: everything not served is a well-formed 429 +
    Retry-After, and nearly every attempt is either ``admitted`` or
    shed (``loop_answered`` counts the exceptions).
    """
    from repro.service.server import BackgroundServer
    from repro.testing.faults import inject

    max_queue = 8
    concurrency = 32
    engine = _compute_engine(benchmark, scale)
    with BackgroundServer(
        engine=engine, workers=2, max_queue=max_queue,
    ) as server:
        fresh = _fresh_keys()

        def call(client: ServiceClient, worker_id: int, i: int) -> dict:
            return client.predict(
                benchmark=benchmark, scale=scale, retries=0, **fresh()
            )

        cache0 = engine.results.stats()
        with inject("engine.compute", delay_s=0.02):
            drive = _drive(
                "127.0.0.1", server.port, call,
                duration_s=duration_s, concurrency=concurrency,
                retries=0,
            )
        with ServiceClient(port=server.port) as probe:
            health = probe.healthz()
    ok = drive["ok"]
    return {
        "scenario": "stampede",
        "concurrency": concurrency,
        "max_queue": max_queue,
        "overload_factor": (
            drive["attempts"] / ok if ok else float(drive["attempts"])
        ),
        **drive,
        "result_hit_rate": _result_hit_rate(engine, cache0),
        "admitted": _health_value(health, "coalescer.submitted"),
        "loop_answered": _health_value(health, "admission.loop_answered"),
        "server_shed": _health_value(health, "admission.shed"),
        "server_queue_depth_max": max_queue,
    }


def _scenario_slow_engine(
    benchmark: str, scale: float, duration_s: float
) -> Dict:
    """Engine running ~10x past the request deadline.

    Every request asks for a fresh design point (:func:`_fresh_keys` on
    :func:`_compute_engine`), so every one computes and must end in a
    ``503`` that echoes the deadline — never a hang, never a raw socket
    error — and queued work abandoned by its timed-out waiter must be
    reaped before it wastes an engine worker.
    """
    from repro.service.server import BackgroundServer
    from repro.testing.faults import inject

    deadline_ms = 100.0
    concurrency = 8
    engine = _compute_engine(benchmark, scale)
    with BackgroundServer(
        engine=engine, workers=2, deadline_ms=deadline_ms,
    ) as server:
        fresh = _fresh_keys()

        def call(client: ServiceClient, worker_id: int, i: int) -> dict:
            return client.predict(
                benchmark=benchmark, scale=scale, retries=0, **fresh()
            )

        cache0 = engine.results.stats()
        with inject("engine.compute", delay_s=0.25):
            drive = _drive(
                "127.0.0.1", server.port, call,
                duration_s=duration_s, concurrency=concurrency,
                retries=0,
            )
        with ServiceClient(port=server.port) as probe:
            health = probe.healthz()
    return {
        "scenario": "slow_engine",
        "concurrency": concurrency,
        "deadline_ms": deadline_ms,
        **drive,
        "result_hit_rate": _result_hit_rate(engine, cache0),
        "admitted": _health_value(health, "coalescer.submitted"),
        "loop_answered": _health_value(health, "admission.loop_answered"),
        "server_deadline_expired": _health_value(
            health, "admission.deadline_expired"
        ),
        "coalescer_abandoned": _health_value(
            health, "coalescer.abandoned"
        ),
    }


def _scenario_kill_mid_burst(
    benchmark: str, scale: float, duration_s: float
) -> Dict:
    """Graceful shutdown fired in the middle of live traffic.

    Workers keep hammering through the drain and past the listener's
    death.  Acceptable outcomes: success (drained in-flight work),
    503 (refused while draining) or a connection error (listener
    gone).  No worker may hang and nothing may be unexplained.
    """
    from repro.service.engine import PredictionEngine
    from repro.service.server import BackgroundServer

    concurrency = 8
    engine = PredictionEngine(store=None)
    server = BackgroundServer(
        engine=engine, workers=2, drain_timeout=2.0,
    ).start()
    kill_at_s = duration_s / 2
    killer = threading.Timer(
        kill_at_s, lambda: server.stop(drain=True)
    )
    try:
        with ServiceClient(port=server.port) as warm:
            warm.predict(benchmark=benchmark, scale=scale)

        def call(client: ServiceClient, worker_id: int, i: int) -> dict:
            return client.predict(
                benchmark=benchmark, scale=scale,
                cores=1 + (i % 4), retries=0,
            )

        cache0 = engine.results.stats()
        killer.start()
        drive = _drive(
            "127.0.0.1", server.port, call,
            duration_s=duration_s, concurrency=concurrency,
            retries=0, join_grace_s=10.0,
        )
    finally:
        killer.cancel()
        try:
            server.stop()
        except RuntimeError:
            pass  # already stopped by the killer
    return {
        "scenario": "kill_mid_burst",
        "concurrency": concurrency,
        "killed_at_s": kill_at_s,
        **drive,
        "result_hit_rate": _result_hit_rate(engine, cache0),
        "loop_answered": server.service.loop_answered,
    }


def run_overload_scenarios(
    quick: bool = False,
    benchmark: str = "rodinia.nn",
    scale: float = 0.25,
) -> Dict[str, Dict]:
    """All chaos/overload scenarios; keyed records for schema 2."""
    duration_s = 1.2 if quick else 2.5
    return {
        "stampede": _scenario_stampede(benchmark, scale, duration_s),
        "slow_engine": _scenario_slow_engine(
            benchmark, scale, duration_s
        ),
        "kill_mid_burst": _scenario_kill_mid_burst(
            benchmark, scale, duration_s
        ),
    }


# -- pre-fork fleet benchmarks ------------------------------------------------


def _cold_mix_call(
    benchmark: str, scale: float
) -> Callable[[ServiceClient, int, int], dict]:
    """A request stream no result LRU can absorb.

    Cycles every Table IV config crossed with 1..1024 cores — more
    distinct request keys than the engine's result cache holds.  The
    *profile* stays resident (cores and config are not part of the
    profile key), and so do the five points' prediction memos, so
    after a worker's first computation per point its event loop builds
    each answer (no Eq.-1 evaluation, no phase): CPU bound on result
    building and serialization, GIL-limited in one process.
    """
    from repro.arch.presets import TABLE_IV

    names = tuple(TABLE_IV)

    def call(client: ServiceClient, worker_id: int, i: int) -> dict:
        idx = worker_id * 7919 + i
        return client.predict(
            benchmark=benchmark,
            config=names[idx % len(names)],
            cores=1 + ((idx // len(names)) % 1024),
            scale=scale,
            retries=0,
        )

    return call


def _drive_fleet(
    port: int,
    call: Callable[[ServiceClient, int, int], dict],
    duration_s: float,
    concurrency: int,
    warmup_s: float = 0.3,
) -> Dict:
    """Warm every fleet worker via the same kernel balancing, then time."""
    if warmup_s > 0:
        _drive(
            "127.0.0.1", port, call, duration_s=warmup_s,
            concurrency=concurrency, retries=0,
        )
    return _drive(
        "127.0.0.1", port, call, duration_s=duration_s,
        concurrency=concurrency, retries=0,
    )


def _scenario_kill_fleet_worker(
    store_root,
    benchmark: str,
    scale: float,
    duration_s: float,
    concurrency: int = 8,
) -> Dict:
    """SIGKILL one fleet worker mid-burst; the fleet must keep serving.

    Acceptable outcomes during the kill window: success (the sibling
    worker, or the respawn) and connection errors (requests in flight
    on — or kernel-routed to — the dead worker's sockets).  The
    supervisor must respawn the worker and a post-burst request must
    succeed; nothing may be unexplained.
    """
    from repro.service.fleet import ServingFleet, wait_fleet_ready

    fleet = ServingFleet(
        store_root=store_root, workers=2, threads=2,
        respawn=True, drain_timeout=2.0,
        warm_profiles=((benchmark, scale),),
    )
    fleet.start()
    fleet.watch()
    killed = {"pid": None}
    killer = threading.Timer(
        duration_s / 2, lambda: killed.update(
            pid=fleet.kill_worker(0)
        )
    )
    try:
        wait_fleet_ready("127.0.0.1", fleet.port, 2)

        def call(client: ServiceClient, worker_id: int, i: int) -> dict:
            return client.predict(
                benchmark=benchmark, scale=scale,
                cores=1 + (i % 4), retries=0,
            )

        _drive(  # warm both workers before the chaos window
            "127.0.0.1", fleet.port, call, duration_s=0.3,
            concurrency=concurrency, retries=0,
        )
        killer.start()
        drive = _drive(
            "127.0.0.1", fleet.port, call,
            duration_s=duration_s, concurrency=concurrency,
            retries=0, join_grace_s=10.0,
        )
        # The respawned worker must be serving again.
        wait_fleet_ready("127.0.0.1", fleet.port, 2, timeout_s=30.0)
        with ServiceClient(port=fleet.port, retries=2) as probe:
            post_kill_ok = bool(
                probe.predict(benchmark=benchmark, scale=scale)
            )
        respawns = fleet.respawns
    finally:
        killer.cancel()
        fleet.stop()
    return {
        "scenario": "kill_fleet_worker",
        "concurrency": concurrency,
        "killed_at_s": duration_s / 2,
        "killed_pid": killed["pid"],
        "respawns": respawns,
        "post_kill_ok": post_kill_ok,
        **drive,
    }


def run_fleet_bench(
    quick: bool = False,
    workers: tuple = (1, 2, 4),
    benchmark: str = "rodinia.nn",
    scale: float = 0.5,
    concurrency: int = 8,
    store_root=None,
) -> Dict:
    """The ``fleet`` section of BENCH_service.json schema 3.

    Boots a pre-fork fleet at each worker count over one *shared*
    store (so every fleet after the first starts artifact-warm — the
    sharing the tentpole is about), drives a warm profile (one hot
    request key: measures the serving plane) and a cold mix (distinct
    keys: measures GIL-escape scaling), then runs the SIGKILL-respawn
    chaos scenario.  Records host ``cpus`` — the scaling floors are
    committed at a 4-core reference and derated by ``min(4, cpus)/4``
    so a 1-core CI runner is held to what 1 core can physically do.
    """
    import os
    import tempfile
    from pathlib import Path

    from repro.service.fleet import ServingFleet, wait_fleet_ready

    duration_s = 1.0 if quick else 2.5
    record: Dict = {
        "cpus": os.cpu_count() or 1,
        "duration_s": duration_s,
        "benchmark": benchmark,
        "scale": scale,
        "concurrency": concurrency,
        "workers": {},
    }
    cleanup = None
    if store_root is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-fleet-bench-")
        store_root = Path(cleanup.name)
    try:
        warm_params = {
            "benchmark": benchmark, "scale": scale, "retries": 0,
        }

        def warm_call(client: ServiceClient, wid: int, i: int) -> dict:
            return client.predict(**warm_params)

        for n in workers:
            fleet = ServingFleet(
                store_root=store_root, workers=n, threads=2,
                warm_profiles=((benchmark, scale),),
            )
            fleet.start()
            fleet.watch()
            try:
                wait_fleet_ready("127.0.0.1", fleet.port, n)
                warm = _drive_fleet(
                    fleet.port, warm_call,
                    duration_s=duration_s, concurrency=concurrency,
                )
                cold = _drive_fleet(
                    fleet.port, _cold_mix_call(benchmark, scale),
                    duration_s=duration_s, concurrency=concurrency,
                )
            finally:
                fleet.stop()
            record["workers"][str(n)] = {"warm": warm, "cold": cold}
        lo, hi = str(min(workers)), str(max(workers))
        lo_cold = record["workers"][lo]["cold"]["goodput_rps"]
        hi_cold = record["workers"][hi]["cold"]["goodput_rps"]
        record["cold_scaling_x"] = (
            hi_cold / lo_cold if lo_cold > 0 else 0.0
        )
        record["warm_aggregate_rps"] = (
            record["workers"][hi]["warm"]["goodput_rps"]
        )
        record["chaos"] = _scenario_kill_fleet_worker(
            store_root, benchmark, scale, duration_s,
            concurrency=concurrency,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return record


__all__ = [
    "SERVICE_BENCH_SCHEMA",
    "run_fleet_bench",
    "run_loadgen",
    "run_overload_scenarios",
]
