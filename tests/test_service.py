"""Tests for the serving subsystem (:mod:`repro.service`).

Covers the batching primitives (LRU semantics, single-flight
collapse, cancellation of abandoned jobs), the engine's caching
behaviour, and the real HTTP stack end to end — including the
acceptance properties: a stampede of identical requests costs exactly
one engine computation, and ``/v1/predict`` responses re-rendered
through the shared formatter are byte-identical to ``python -m repro
predict`` output.
"""

import asyncio
import contextlib
import http.client
import json
import random
import re
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import TABLE_IV
from repro.cli import main
from repro.lru import LRUCache
from repro.obs.tracing import TRACE_RING, enabled as obs_enabled
from repro.service.batching import Coalescer
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
)
from repro.service.engine import (
    PredictionEngine,
    ServiceRequest,
    encode_json,
    format_compare,
    format_prediction,
    resolve_benchmark,
)
from repro.service.loadgen import run_loadgen
from repro.service.server import (
    _MAX_CORES,
    _MAX_SCALE,
    PARSE_MEMO_ENTRIES,
    PARSE_MEMO_MAX_BODY,
    BackgroundServer,
    PredictionService,
    _build_request,
    _deadline_ms,
    _parse_head,
)
from repro.workloads.parsec import PARSEC
from repro.workloads.rodinia import RODINIA

SCALE = 0.25


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_maxsize_enforced(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 7
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_maxsize_zero_keeps_nothing(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None
        assert cache.stats()["evictions"] == 1

    def test_byte_bound_sums_nbytes(self):
        cache = LRUCache(8, max_bytes=100)
        cache.put("a", np.zeros(5))  # 40 bytes
        cache.put("b", np.zeros(5))
        cache.put("a", np.zeros(6))  # replacing a re-counts its bytes
        assert cache.stats()["bytes"] == 88
        cache.put("c", np.zeros(5))  # 128 > 100: b, the oldest, goes
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats()["bytes"] == 88
        cache.put("huge", np.zeros(13))  # alone over the bound
        assert "huge" not in cache and len(cache) == 2
        stats = cache.stats()
        assert stats["evictions"] == 2 and stats["max_bytes"] == 100
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_stats_shape_and_counters(self):
        cache = LRUCache(2, counters=("loads",))
        cache.get("a")
        cache.count("loads")
        cache.count("hits")
        assert cache.peek("a") is None
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "loads": 1,
            "entries": 0, "maxsize": 2,
        }

    def test_items_snapshot(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.items() == [("a", 1), ("b", 2)]


class TestCoalescer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_single_flight_collapses_identical_requests(self):
        """32 identical concurrent requests -> exactly one compute."""
        release = threading.Event()
        calls = []

        def compute(request):
            calls.append(request)
            release.wait(10)
            return ("ok", request)

        with ThreadPoolExecutor(2) as executor:
            coalescer = Coalescer(compute, executor, max_workers=2)

            async def scenario():
                tasks = [
                    asyncio.create_task(coalescer.submit("k", i))
                    for i in range(32)
                ]
                await asyncio.sleep(0.05)  # all submissions land
                release.set()
                return await asyncio.gather(*tasks)

            results = self._run(scenario())
        assert calls == [0]
        assert coalescer.collapsed == 31
        assert coalescer.batches == 1
        assert all(r == ("ok", 0) for r in results)

    def test_distinct_requests_run_as_separate_jobs(self):
        """Requests queued behind a busy worker: one job per key."""
        first_started = threading.Event()
        release = threading.Event()
        calls = []

        def compute(request):
            calls.append(request)
            if request == 1:
                first_started.set()
                release.wait(10)
            return request * 10

        with ThreadPoolExecutor(1) as executor:
            coalescer = Coalescer(compute, executor, max_workers=1)

            async def scenario():
                first = asyncio.create_task(coalescer.submit("a", 1))
                await asyncio.get_running_loop().run_in_executor(
                    None, first_started.wait, 10
                )
                rest = [
                    asyncio.create_task(coalescer.submit(k, v))
                    for k, v in (("b", 2), ("c", 3))
                ]
                await asyncio.sleep(0.05)
                queued = coalescer.stats()["pending"]
                release.set()
                return queued, await asyncio.gather(first, *rest)

            queued, results = self._run(scenario())
        assert queued == 2
        assert results == [10, 20, 30]
        assert calls == [1, 2, 3]
        assert coalescer.batches == 3
        assert coalescer.stats()["inflight"] == 0
        assert coalescer.ewma_service_s > 0.0

    def test_queued_job_whose_waiter_times_out_never_runs(self):
        """The last waiter leaving cancels a job no thread has taken."""
        first_started = threading.Event()
        release = threading.Event()
        calls = []

        def compute(request):
            calls.append(request)
            if request == "busy":
                first_started.set()
                release.wait(10)
            return request

        with ThreadPoolExecutor(1) as executor:
            coalescer = Coalescer(compute, executor, max_workers=1)

            async def scenario():
                busy = asyncio.create_task(coalescer.submit("a", "busy"))
                await asyncio.get_running_loop().run_in_executor(
                    None, first_started.wait, 10
                )
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        coalescer.submit("b", "queued"), timeout=0.05
                    )
                stats = coalescer.stats()
                release.set()
                await busy
                # Let a cancelled job surface if it were ever run.
                await asyncio.sleep(0.05)
                return stats

            stats = self._run(scenario())
        assert calls == ["busy"]
        assert coalescer.abandoned == 1
        assert stats["inflight"] == 1 and stats["pending"] == 0
        assert coalescer.stats()["inflight"] == 0

    def test_compute_exception_propagates(self):
        def compute(request):
            raise RuntimeError("engine down")

        with ThreadPoolExecutor(1) as executor:
            coalescer = Coalescer(compute, executor)
            with pytest.raises(RuntimeError, match="engine down"):
                self._run(coalescer.submit("k", 1))
        # The key is released: a retry is not poisoned.
        assert coalescer.stats()["inflight"] == 0


class TestEngine:
    def test_resolve_benchmark(self):
        assert resolve_benchmark("rodinia.nn").label == "rodinia.nn"
        assert resolve_benchmark("nn").suite == "rodinia"
        assert resolve_benchmark("swaptions").suite == "parsec"
        with pytest.raises(ValueError, match="unknown benchmark"):
            resolve_benchmark("gcc")
        with pytest.raises(ValueError, match="unknown suite"):
            resolve_benchmark("spec.nn")

    def test_predict_is_memoized(self):
        engine = PredictionEngine(store=None)
        first = engine.predict("rodinia.nn", scale=SCALE)
        second = engine.predict("rodinia.nn", scale=SCALE)
        assert first is second  # served from the result LRU
        assert engine.health()["computed"]["predict"] == 1
        assert engine.health()["profiles_built"] == 1

    def test_profile_shared_across_configs(self):
        engine = PredictionEngine(store=None)
        engine.predict("rodinia.nn", config="base", scale=SCALE)
        engine.predict("rodinia.nn", config="smallest", scale=SCALE)
        assert engine.health()["profiles_built"] == 1
        assert engine.health()["predictions_run"] == 2

    def test_store_round_trip(self, tmp_path):
        from repro.experiments.store import ProfileStore
        store = ProfileStore(tmp_path / "store")
        engine = PredictionEngine(store=store)
        engine.predict("rodinia.nn", scale=SCALE)
        assert engine.health()["profiles_built"] == 1
        fresh = PredictionEngine(store=store)
        fresh.predict("rodinia.nn", scale=SCALE)
        assert fresh.health()["profiles_built"] == 0
        assert fresh.health()["profiles_from_store"] == 1

    def test_sweep_defaults_to_table_iv(self):
        engine = PredictionEngine(store=None)
        payload = engine.sweep("rodinia.nn", scale=SCALE)
        assert payload["configs"] == [
            "smallest", "small", "base", "big", "biggest",
        ]
        assert len(payload["results"]) == 5
        assert engine.health()["profiles_built"] == 1

    def test_handle_maps_errors_to_statuses(self):
        engine = PredictionEngine(store=None)
        status, payload = engine.handle(
            ServiceRequest("predict", "gcc")
        )
        assert status == 404 and "unknown benchmark" in payload["error"]
        status, payload = engine.handle(
            ServiceRequest("predict", "rodinia.nn", config="huge")
        )
        assert status == 400

    def test_memos_hold_every_pair_of_one_scale(self):
        """The default Eq.-1 memo LRU holds every (benchmark, Table IV
        point) pair of the suites at one scale: once all 130 are warm
        at 4 cores, 2,000 predictions at new core counts run no phase
        2 (with 128 memos, 41 of them re-ran it)."""
        scale = 0.05
        labels = [f"rodinia.{b}" for b in RODINIA] + [
            f"parsec.{b}" for b in PARSEC
        ]
        engine = PredictionEngine(store=None)
        for label in labels:
            for point in TABLE_IV:
                engine.predict(label, point, 4, scale)
        warm = engine.session.counters["schedules"]
        assert warm == len(labels) * len(TABLE_IV) == 130
        misses = random.Random(21).sample([
            (label, point, cores)
            for label in labels for point in TABLE_IV
            for cores in range(1, 65) if cores != 4
        ], 2000)
        for label, point, cores in misses:
            engine.predict(label, point, cores, scale)
        assert engine.session.counters["schedules"] == warm
        assert engine.health()["computed"]["predict"] == 130 + 2000


@pytest.fixture(scope="module")
def server():
    """One shared server+engine for the read-mostly endpoint tests."""
    engine = PredictionEngine(store=None)
    with BackgroundServer(engine=engine, workers=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestHTTPEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert "engine" in payload and "coalescer" in payload

    def test_healthz_exposes_kernel_and_cache_counters(self, client):
        """Cold-start observability: fused-kernel mega-batch counters
        and the ILP table-cache hit ratio ride on the consolidated
        ``session`` block of ``/healthz``."""
        client.predict("rodinia.nn", scale=SCALE)  # force one profile
        session = client.healthz()["engine"]["session"]
        kernel = session["ilp_kernel"]
        for key in ("pools", "samples", "buckets", "batches",
                    "bucket_fill", "steps", "dispatches"):
            assert key in kernel
        assert kernel["pools"] >= 1
        assert 0.0 < kernel["bucket_fill"] <= 1.0
        cache = session["ilp_cache"]
        assert cache["hits"] >= 0 and cache["misses"] >= 1

    def test_healthz_exposes_trace_cache_counters(self, client):
        """The session-resident trace LRU and the columnar expansion
        engine's memo/arena counters ride on ``/healthz``."""
        client.predict("rodinia.nn", scale=SCALE)  # force one profile
        session = client.healthz()["engine"]["session"]
        tcache = session["trace_cache"]
        for key in ("hits", "misses", "store_hits", "store_saves",
                    "evictions", "entries", "bytes"):
            assert key in tcache
        assert tcache["misses"] >= 1
        expand = session["expand_engine"]
        for key in ("workloads", "segments", "instructions",
                    "arena_bytes", "memo_hit_rate"):
            assert key in expand
        assert expand["workloads"] >= 1

    def test_healthz_session_block_is_consolidated(self, client):
        """One ``session`` block replaces the scattered per-cache
        fragments; the profiler-side memos ride along."""
        client.predict("rodinia.nn", scale=SCALE)
        engine = client.healthz()["engine"]
        for legacy in ("trace_cache", "expand_engine", "ilp_kernel",
                       "cost_cache"):
            assert legacy not in engine
        session = engine["session"]
        for key in ("trace_cache", "ilp_cache", "branch_cache",
                    "prep_cache", "cost_caches", "counters", "durable"):
            assert key in session
        assert session["prep_cache"]["misses"] >= 1
        assert session["counters"].get("profiles", 0) >= 1

    def test_predict_bit_identical_to_cli(self, client, capsys):
        payload = client.predict("rodinia.nn", scale=SCALE)
        assert main([
            "predict", "rodinia.nn", "--scale", str(SCALE),
        ]) == 0
        cli_text = capsys.readouterr().out
        assert format_prediction(payload) + "\n" == cli_text

    def test_predict_numbers_match_in_process_engine(self, client):
        payload = client.predict("rodinia.nn", scale=SCALE)
        local = PredictionEngine(store=None).predict(
            "rodinia.nn", scale=SCALE
        )
        # Bit-identical across the HTTP/JSON round trip.
        assert payload == json.loads(json.dumps(local))
        assert payload["total_cycles"] == local["total_cycles"]

    def test_compare_bit_identical_to_cli(self, client, capsys):
        payload = client.compare("rodinia.nn", scale=SCALE)
        assert main([
            "compare", "rodinia.nn", "--scale", str(SCALE),
        ]) == 0
        cli_text = capsys.readouterr().out
        assert format_compare(payload) + "\n" == cli_text

    def test_sweep_endpoint(self, client):
        payload = client.sweep(
            "rodinia.nn", configs=["smallest", "base"], scale=SCALE
        )
        assert payload["configs"] == ["smallest", "base"]
        cycles = [r["total_cycles"] for r in payload["results"]]
        assert cycles[0] > cycles[1]  # narrower core is slower

    def test_profiles_inventory(self, client):
        client.predict("rodinia.nn", scale=SCALE)
        payload = client.profiles()
        labels = {p["benchmark"] for p in payload["resident"]}
        assert "rodinia.nn" in labels

    def test_unknown_benchmark_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.predict("gcc", scale=SCALE)
        assert exc_info.value.status == 404

    def test_bad_config_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.predict("rodinia.nn", config="huge", scale=SCALE)
        assert exc_info.value.status == 400

    def test_missing_benchmark_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v1/predict")
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "1e12"])
    def test_unsafe_scale_rejected(self, client, scale):
        """scale drives workload expansion: inf/NaN/huge must 400
        before reaching an engine worker."""
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "GET", f"/v1/predict?benchmark=rodinia.nn&scale={scale}"
            )
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("cores", ["0", "-4", "1000000"])
    def test_unsafe_cores_rejected(self, client, cores):
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "GET", f"/v1/predict?benchmark=rodinia.nn&cores={cores}"
            )
        assert exc_info.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v2/predict")
        assert exc_info.value.status == 404

    def test_post_json_body(self, client):
        payload = client._request(
            "POST", "/v1/predict",
            body={"benchmark": "rodinia.nn", "scale": SCALE},
        )
        assert payload["benchmark"] == "rodinia.nn"

    @pytest.mark.parametrize("length, status", [
        ("-5", 400), ("abc", 400), (str(2 << 20), 413),
    ])
    def test_bad_content_length_answered_and_closed(
        self, server, client, length, status
    ):
        """A negative, non-numeric or oversize Content-Length gets a
        typed 4xx and a closed connection, never a dropped socket."""
        head = (
            "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(head.encode())
            data = b""
            while chunk := sock.recv(65536):  # until the server closes
                data += chunk
        assert data.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close\r\n" in data
        assert json.loads(data.split(b"\r\n\r\n", 1)[1])["error"]
        assert client.healthz()["status"] == "ok"


_CHUNKED_BODY = b'1b\r\n{"benchmark":"rodinia.nn"}\r\n0\r\n\r\n'


@pytest.mark.parametrize("extra", [
    "", f"Content-Length: {len(_CHUNKED_BODY)}\r\n",
], ids=["chunked", "chunked-and-content-length"])
def test_transfer_encoding_refused_with_one_response(server, client, extra):
    """The server reads only Content-Length-framed bodies: a request
    with ``Transfer-Encoding`` gets one 501 and a closed connection,
    so its body is never parsed as a second request."""
    head = (
        "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Transfer-Encoding: chunked\r\n{extra}\r\n"
    )
    data = b""
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=10
    ) as sock:
        sock.sendall(head.encode() + _CHUNKED_BODY)
        with contextlib.suppress(TimeoutError):
            while chunk := sock.recv(65536):  # until the server closes
                data += chunk
    assert data.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
    assert data.count(b"HTTP/1.1 ") == 1
    assert b"\r\nConnection: close\r\n" in data
    assert json.loads(data.split(b"\r\n\r\n", 1)[1])["error"]
    assert client.healthz()["status"] == "ok"


#: Bodies whose parameters ``int()`` / ``float()`` or the JSON decoder
#: cannot take: each must be answered 400, not drop the connection.
_UNPARSEABLE_BODIES = {
    "cores-infinity": b'{"benchmark":"rodinia.nn","cores":Infinity}',
    "cores-minus-infinity": b'{"benchmark":"rodinia.nn","cores":-Infinity}',
    "cores-1e400": b'{"benchmark":"rodinia.nn","cores":1e400}',
    "scale-huge-int": (
        b'{"benchmark":"rodinia.nn","scale":1' + b"0" * 400 + b"}"
    ),
    "nested-100k": b"[" * 100_000,
    "cores-fraction": b'{"benchmark":"rodinia.nn","cores":4.7}',
    "cores-integral-float": b'{"benchmark":"rodinia.nn","cores":4.0}',
    "cores-true": b'{"benchmark":"rodinia.nn","cores":true}',
    "scale-true": b'{"benchmark":"rodinia.nn","scale":true}',
}


class TestMalformedParameters:
    @pytest.mark.parametrize("name", sorted(_UNPARSEABLE_BODIES))
    def test_answered_400_on_a_usable_connection(
        self, server, name, caplog
    ):
        """Each body gets a typed 400, the keep-alive connection then
        serves a predict, and asyncio logs no unhandled exception."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/predict", body=_UNPARSEABLE_BODIES[name],
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"]
            conn.request(
                "GET", f"/v1/predict?benchmark=rodinia.nn&scale={SCALE}"
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["benchmark"] == "rodinia.nn"
        finally:
            conn.close()
        assert not [
            r for r in caplog.records
            if "Unhandled exception" in r.getMessage()
        ]


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=10,
)
_PARAM = st.sampled_from(
    ["benchmark", "cores", "scale", "config", "configs", "other"]
)
_BODIES = st.one_of(
    st.just(b""),
    st.dictionaries(_PARAM, _JSON_VALUES, max_size=5).map(
        lambda d: json.dumps(d).encode()
    ),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.integers(min_value=1, max_value=200_000).map(
        lambda n: b"[" * n + b"]" * n
    ),
    st.binary(max_size=64),
)
_QUERIES = st.one_of(
    st.text(max_size=40),
    st.dictionaries(_PARAM, st.text(max_size=12), max_size=5).map(
        lambda d: "&".join(f"{k}={v}" for k, v in d.items())
    ),
)


class TestRequestBoundaryFuzz:
    """The HTTP parsing helpers are total: a result or a ValueError
    (answered 4xx), never another exception escaping the handler."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=128).map(
            lambda b: b"GET /v1/predict HTTP/1.1\r\n" + b + b"\r\n\r\n"
        ),
    ))
    def test_parse_head_never_raises(self, head):
        parsed = _parse_head(head)
        if parsed is not None:
            method, target, headers = parsed
            assert isinstance(method, str) and isinstance(target, str)
            assert all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in headers.items()
            )

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.none(), st.text(max_size=24)),
        st.one_of(
            st.none(),
            st.floats(min_value=1e-3, max_value=1e9),
        ),
    )
    def test_deadline_is_none_positive_or_value_error(self, raw, default):
        headers = {} if raw is None else {"x-deadline-ms": raw}
        try:
            deadline = _deadline_ms(headers, default)
        except ValueError:
            return
        assert deadline is None or (
            isinstance(deadline, float) and deadline > 0
        )

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["predict", "compare", "sweep"]), _QUERIES,
           _BODIES)
    def test_build_request_is_bounded_or_value_error(
        self, kind, query, body
    ):
        try:
            request = _build_request(kind, query, body)
        except ValueError:
            return
        assert 1 <= request.cores <= _MAX_CORES
        assert 0 < request.scale <= _MAX_SCALE
        assert isinstance(request.benchmark, str) and request.benchmark
        assert all(isinstance(c, str) for c in request.configs)


def _parse_outcome(parse, kind: str, query: str, body: bytes):
    """What one parse gives: the request, or the ValueError's text."""
    try:
        return parse(kind, query, body)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestParseMemo:
    """A service parses each distinct ``(kind, query, body)`` once; its
    memo answers exactly as the parser does and stays bounded."""

    @pytest.fixture()
    def service(self):
        """A service that is never started: its memo and nothing else."""
        return PredictionService(engine=PredictionEngine(store=None))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["predict", "compare", "sweep"]), _QUERIES,
           _BODIES)
    def test_memo_answers_as_the_parser(self, server, kind, query, body):
        expected = _parse_outcome(_build_request, kind, query, body)
        for _ in range(2):  # a miss, then (if it parsed) a hit
            got = _parse_outcome(
                server.service._parsed_request, kind, query, body
            )
            assert got == expected
            assert type(got) is type(expected)

    def test_memo_holds_at_most_its_bound(self, service):
        queries = [
            f"benchmark=memo-bound-{i}"
            for i in range(PARSE_MEMO_ENTRIES + 50)
        ]
        for query in queries:
            service._parsed_request("predict", query, b"")
        assert len(service._parsed) == PARSE_MEMO_ENTRIES
        assert ("predict", queries[-1], b"") in service._parsed
        assert ("predict", queries[0], b"") not in service._parsed

    def test_body_past_the_cap_is_never_held(self, service):
        def body_of(size: int) -> bytes:
            head = b'{"benchmark": "rodinia.nn", "pad": "'
            return head + b"x" * (size - len(head) - 2) + b'"}'

        at_cap = body_of(PARSE_MEMO_MAX_BODY)
        past = body_of(PARSE_MEMO_MAX_BODY + 1)
        for body in (at_cap, past):
            assert service._parsed_request("predict", "", body) == (
                _build_request("predict", "", body)
            )
        assert list(service._parsed.items()) == [
            (("predict", "", at_cap), _build_request("predict", "", at_cap))
        ]

    def test_malformed_query_gets_the_same_400_twice(self, server):
        path = "/v1/predict?benchmark=rodinia.nn&cores=four"
        first = _raw_get(server.port, path)
        second = _raw_get(server.port, path)
        assert first[0] == second[0] == 400
        assert first[2] == second[2]
        assert json.loads(second[2])["error"] == (
            "'cores' must be an int and 'scale' a float"
        )

    def test_headers_are_read_on_every_request(self, server):
        """A memoized parse still reads the request's own headers."""
        path = f"/v1/predict?benchmark=rodinia.nn&scale={SCALE}"
        assert _raw_get(server.port, path)[0] == 200
        status, _, body = _raw_get(
            server.port, path, headers={"X-Deadline-Ms": "soon"}
        )
        assert status == 400
        assert json.loads(body)["error"] == "X-Deadline-Ms must be a number"
        status, headers, _ = _raw_get(
            server.port, path, headers={"X-Request-Id": "memo-hit-7"}
        )
        assert (status, headers["X-Request-Id"]) == (200, "memo-hit-7")


def _series_sum(text: str, name: str) -> float:
    """Sum all samples of one Prometheus series from exposition text."""
    total = 0.0
    found = False
    for line in text.splitlines():
        if line.startswith(name) and (
            line[len(name)] in ("{", " ")
        ):
            total += float(line.rsplit(" ", 1)[1])
            found = True
    assert found, f"series {name!r} absent from /metrics"
    return total


def _raw_get(port, path, headers=None):
    """``(status, headers, body bytes)`` of one GET on a new connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class TestObservability:
    """The telemetry plane over HTTP: request ids, /metrics, traces."""

    def test_request_id_header_echoed(self, server):
        status, headers, _ = _raw_get(
            server.port, "/healthz",
            headers={"X-Request-Id": "caller-supplied-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "caller-supplied-42"

    def test_request_id_generated_when_absent(self, server):
        _, headers, _ = _raw_get(server.port, "/healthz")
        rid = headers["X-Request-Id"]
        assert re.fullmatch("[0-9a-f]{16}", rid)

    @pytest.mark.parametrize("value", [
        "abc\nSet-Cookie: evil=1", "abc\rSet-Cookie: evil=1", "abc\x00def",
        "abc def", "a" * 129, "",
    ], ids=["lf", "cr", "nul", "space", "129-chars", "empty"])
    def test_unsafe_request_id_replaced(self, server, value):
        """Only 1-128 visible ASCII characters are echoed: any other id
        is replaced by a generated one, so the response head holds the
        server's own header lines and nothing a client smuggled in."""
        def head_lines(request_id_line):
            request = (
                "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"{request_id_line}Connection: close\r\n\r\n"
            )
            data = b""
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(request.encode("latin-1"))
                while chunk := sock.recv(65536):
                    data += chunk
            head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
            return re.split(r"\r\n|\r|\n", head)

        own = head_lines("")
        got = head_lines(f"X-Request-Id: {value}\r\n")
        names = [line.split(":", 1)[0] for line in got[1:]]
        assert names == [line.split(":", 1)[0] for line in own[1:]]
        assert got[0] == "HTTP/1.1 200 OK"
        rid = dict(line.split(": ", 1) for line in got[1:])["X-Request-Id"]
        assert re.fullmatch("[0-9a-f]{16}", rid)

    def test_request_id_of_128_visible_characters_echoed(self, server):
        rid = "".join(chr(c) for c in range(0x21, 0x7F)) + "x" * 34
        assert len(rid) == 128
        _, headers, _ = _raw_get(
            server.port, "/healthz", headers={"X-Request-Id": rid}
        )
        assert headers["X-Request-Id"] == rid

    def test_trace_in_ring_once_the_answer_is_read(
        self, server, monkeypatch
    ):
        """A request's trace is in the ring before its response drains:
        with the drain held open (the loop keeps serving), a second
        connection fetches the trace of the answer just read."""
        real_drain = asyncio.StreamWriter.drain
        held = {}

        async def drain(writer):
            if not held:  # hold the first drain only
                held["loop"] = asyncio.get_running_loop()
                held["release"] = asyncio.Event()
                await held["release"].wait()
            await real_drain(writer)

        rid = "trace-before-drain-1"
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            monkeypatch.setattr(asyncio.StreamWriter, "drain", drain)
            try:
                sock.sendall(
                    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"X-Request-Id: {rid}\r\n\r\n".encode()
                )
                status, headers, _ = _read_response(sock, bytearray())
                fetched, _, body = _raw_get(
                    server.port, f"/v1/debug/trace/{rid}"
                )
            finally:
                # Released while the first connection is still open.
                if held:
                    held["loop"].call_soon_threadsafe(held["release"].set)
                monkeypatch.undo()
        assert (status, headers["X-Request-Id"]) == (200, rid)
        assert fetched == 200
        trace = json.loads(body)
        assert trace["trace_id"] == rid
        assert (trace["status"], trace["route"]) == (200, "/healthz")

    def test_metrics_covers_core_series(self, client):
        client.predict("rodinia.nn", scale=SCALE)  # warm every plane
        text = client.metrics()
        for series in (
            # http + admission
            "repro_http_requests_total",
            "repro_admission_shed_total",
            "repro_admission_deadline_expired_total",
            "repro_admission_queue_depth",
            "repro_admission_max_queue",
            # engine + coalescer
            "repro_engine_requests",
            "repro_engine_computed",
            "repro_coalescer_submitted",
            "repro_loop_answered_total",
            # session caches
            "repro_cache_hits",
            "repro_cache_misses",
            "repro_expand_workloads",
            "repro_ilp_kernel_dispatches",
            # pipeline stages + obs self-telemetry
            "repro_stage_seconds_bucket",
            "repro_obs_dropped_emits",
            "repro_obs_enabled",
        ):
            assert series in text, f"missing {series}"
        assert 'repro_cache_hits{cache="result"}' in text
        # Every cache reports one stats shape, occupancy included.
        for cache in ("result", "profile", "trace", "ilp", "branch", "prep"):
            assert f'repro_cache_entries{{cache="{cache}"}}' in text
        assert 'repro_stage_seconds_bucket{stage="engine"' in text

    def test_metrics_covers_store_series(self, tmp_path):
        from repro.experiments.store import ProfileStore

        engine = PredictionEngine(store=ProfileStore(tmp_path / "s"))
        with BackgroundServer(engine=engine, workers=2) as server:
            with ServiceClient(port=server.port) as c:
                c.predict("rodinia.nn", scale=SCALE)
                text = c.metrics()
        for series in (
            "repro_store_writes",
            "repro_store_dropped_writes",
            "repro_store_io_errors",
            "repro_store_corruption_streak",
        ):
            assert series in text, f"missing {series}"
        assert _series_sum(text, "repro_store_writes") >= 1

    def test_scrapes_never_walk_the_artifact_tree(
        self, tmp_path, monkeypatch
    ):
        """``/healthz`` and ``/metrics`` read the store's quarantine
        tree only: with 2,000 artifacts across kinds and
        :meth:`ProfileStore.stats` made to raise, every scrape still
        answers, and the engine and its session report the same
        quarantine block."""
        from repro.experiments.store import ProfileStore

        store = ProfileStore(tmp_path / "s")
        for kind, ext in (
            ("profiles", "json"), ("ilptables", "json"),
            ("traces", "arena"), ("predictions", "pkl"),
        ):
            (store.root / kind).mkdir(parents=True)
            for i in range(500):
                (store.root / kind / f"{i:064x}.{ext}").write_bytes(b"{}")
        bad = "f" * 64
        (store.root / "profiles" / f"{bad}.json").write_bytes(b"garbage")
        assert store.load_profile(bad) is None  # quarantined
        stats = store.stats()
        assert sum(e["artifacts"] for e in stats.values()) == 2001
        assert stats["quarantine/profiles"]["artifacts"] == 1

        def walk(self):
            raise AssertionError("a scrape walked the artifact tree")

        monkeypatch.setattr(ProfileStore, "stats", walk)
        engine = PredictionEngine(store=store)
        health = engine.health()
        assert health["store"]["quarantine"] == {"profiles": 1}
        assert health["session"]["store"]["quarantine"] == {"profiles": 1}
        with BackgroundServer(engine=engine, workers=2) as server:
            for path in ("/healthz", "/metrics"):
                status, _, body = _raw_get(server.port, path)
                assert status == 200, body
        assert 'repro_store_quarantine{kind="profiles"} 1' in body.decode()

    def test_healthz_derived_from_registry(self):
        """/healthz admission counters and /metrics render the same
        registry — no counter is double-sourced.  A dedicated server
        keeps the arithmetic exact."""
        engine = PredictionEngine(store=None)
        n = 3
        with BackgroundServer(engine=engine, workers=2) as server:
            with ServiceClient(port=server.port) as c:
                for _ in range(n):
                    c.predict("rodinia.nn", scale=SCALE)
                health = c.healthz()
                text = c.metrics()
        # The healthz request itself is counted after routing, so the
        # payload sees exactly the n predicts; the later /metrics body
        # additionally counts the healthz hit but not itself.
        assert health["requests_served"] == n
        served = _series_sum(text, "repro_http_requests_total")
        assert served == n + 1
        admission = health["admission"]
        for key, series in (
            ("shed", "repro_admission_shed_total"),
            ("deadline_expired",
             "repro_admission_deadline_expired_total"),
            ("disconnects", "repro_disconnects_total"),
            ("response_failures", "repro_response_failures_total"),
            ("loop_answered", "repro_loop_answered_total"),
        ):
            assert admission[key] == _series_sum(text, series)

    def test_debug_trace_round_trip(self, server):
        with ServiceClient(port=server.port) as c:
            rid = "trace-roundtrip-1"
            status, headers, _ = _raw_get(
                server.port,
                f"/v1/predict?benchmark=rodinia.bfs&scale={SCALE}",
                headers={"X-Request-Id": rid},
            )
            assert status == 200
            assert headers["X-Request-Id"] == rid
            trace = c.debug_trace(rid)
        assert trace["trace_id"] == rid
        assert trace["status"] == 200
        assert trace["duration_ms"] > 0
        names = {s["name"] for s in trace["spans"]}
        assert "route" in names
        assert "coalesce" in names
        # Engine-side spans ride the ServiceRequest across the
        # executor boundary into the worker thread.
        assert "engine" in names
        by_name = {s["name"]: s for s in trace["spans"]}
        route = by_name["route"]
        assert (route["span_id"], route["parent_id"]) == (1, None)
        assert route["attrs"] == {"method": "GET", "path": "/v1/predict"}
        assert by_name["coalesce"]["parent_id"] == 1

    def test_debug_trace_listing_and_404(self, client):
        listing = client._request("GET", "/v1/debug/trace")
        assert isinstance(listing["traces"], list)
        with pytest.raises(ServiceError) as exc_info:
            client.debug_trace("no-such-trace")
        assert exc_info.value.status == 404

    def test_obs_off_hot_predict_records_nothing(self, monkeypatch):
        """Under ``REPRO_OBS=off`` a hot predict constructs no trace and
        opens no span, and the ring and the ``route`` stage stay as
        they were."""
        from repro.obs import REGISTRY, set_enabled, tracing
        from repro.service import engine as engine_module
        from repro.service import server as server_module

        route = re.compile(
            r'^repro_stage_seconds_count\{stage="route"\} (\S+)$', re.M
        )

        def route_count() -> float:
            found = route.search(REGISTRY.render())
            return float(found.group(1)) if found else 0.0

        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        path = f"/v1/predict?benchmark=rodinia.nn&scale={SCALE}"
        with BackgroundServer(
            engine=PredictionEngine(store=None), workers=2
        ) as server:
            warm = _raw_get(
                server.port, path, headers={"X-Request-Id": "obs-off-0"}
            )
            assert warm[0] == 200  # computed, and traced
            # The server puts a trace into the ring after its response.
            deadline = time.monotonic() + 10
            while TRACE_RING.get("obs-off-0") is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            counted(tracing, "Trace")
            for name in ("open_route", "close_route", "span"):
                counted(server_module, name)
            for name in ("span", "root_span"):
                counted(engine_module, name)
            ring = TRACE_RING.summaries(TRACE_RING.capacity)
            routes = route_count()
            set_enabled(False)
            try:
                status, headers, _ = _raw_get(
                    server.port, path, headers={"X-Request-Id": "obs-off-1"}
                )
            finally:
                set_enabled(True)
        assert (status, headers["X-Request-Id"]) == (200, "obs-off-1")
        assert calls == []
        assert TRACE_RING.summaries(TRACE_RING.capacity) == ring
        assert route_count() == routes

    def test_metrics_unaffected_by_obs_off_requests(self, server):
        """REPRO_OBS=off stops span recording but never breaks the
        scrape endpoint itself."""
        from repro.obs import set_enabled

        set_enabled(False)
        try:
            status, _, body = _raw_get(server.port, "/metrics")
        finally:
            set_enabled(True)
        assert status == 200
        text = body.decode()
        assert "repro_obs_enabled 0" in text
        assert "repro_http_requests_total" in text


#: /healthz key paths, /metrics families and series, and the counts of
#: the request mix in :class:`TestCountsSurface`, recorded from the
#: tree in which each subsystem still kept its own counter struct.
GOLDEN_SURFACE = Path(__file__).parent / "golden" / "service_surface.json"

_SAMPLE = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _key_paths(obj, prefix=""):
    """Dotted path of every key of a nested dict, depth first."""
    paths = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            paths.extend(_key_paths(value, path))
    return paths


def _exposition(text):
    """A Prometheus document's families (name -> [TYPE, HELP]) and
    samples (``name{label=value,...}`` -> value).  ``stage`` and ``le``
    values are wildcarded: which stages ran depends on the process's
    history, not on the request mix."""
    families, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            field, name, rest = line[2:].split(" ", 2)
            entry = families.setdefault(name, [None, None])
            entry[field == "HELP"] = rest
            continue
        name, labels, value = _SAMPLE.match(line).groups()
        pairs = sorted(
            f"{k}={'*' if k in ('stage', 'le') else v}"
            for k, v in _LABEL.findall(labels or "")
        )
        series = f"{name}{{{','.join(pairs)}}}" if pairs else name
        samples[series] = float(value)
    return families, samples


def _mix_counts(health):
    """The counts a fixed request mix determines, from ``/healthz``."""
    engine = health["engine"]
    counts = {
        key: engine[key] for key in (
            "requests", "computed", "errors", "profiles_built",
            "profiles_from_store", "predictions_run", "simulations_run",
        )
    }
    counts["store_writes"] = engine["store"]["writes"]
    counts["session_counters"] = engine["session"]["counters"]
    counts["requests_served"] = health["requests_served"]
    counts["loop_answered"] = health["admission"]["loop_answered"]
    return counts


class TestCountsSurface:
    """Subsystem event counts live in :class:`repro.counters.Counters`
    bags and reach ``/metrics`` through ``set_gauges``; the serving
    surface is the one recorded before that move."""

    def test_fixed_mix_matches_the_recorded_surface(self, tmp_path):
        import repro.experiments.workqueue  # noqa: F401 (repro_work_*)
        from repro.experiments.store import ProfileStore

        golden = json.loads(GOLDEN_SURFACE.read_text())
        engine = PredictionEngine(store=ProfileStore(tmp_path / "store"))
        with BackgroundServer(engine=engine, workers=2) as server:
            with ServiceClient(port=server.port) as c:
                cold = c.predict("rodinia.nn", scale=SCALE)
                assert c.predict("rodinia.nn", scale=SCALE) == cold
                c.predict("rodinia.nn", cores=16, scale=SCALE)
                c.sweep("rodinia.nn", scale=SCALE)
                c.compare("rodinia.nn", scale=SCALE)
                with pytest.raises(ServiceError) as bad:
                    c.predict("rodinia.nn", config="nosuch", scale=SCALE)
                assert bad.value.status == 400
                health = c.healthz()
                text = c.metrics()
        assert _key_paths(health) == golden["healthz_paths"]
        assert _mix_counts(health) == golden["counts"]
        families, samples = _exposition(text)
        assert sorted(samples) == golden["series"]
        # The one HELP text set_gauges' formula changed: the work
        # queue's gauges no longer end "in this process".
        expected = {
            name: [kind, help_.removesuffix(" in this process")]
            for name, (kind, help_) in golden["families"].items()
        }
        assert families == expected
        # Each projected gauge reads the count /healthz reports.
        engine_health, session = health["engine"], health["engine"]["session"]
        for prefix, snapshot in (
            ("repro_engine", {
                key: engine_health[key] for key in (
                    "errors", "profiles_built", "profiles_from_store",
                    "predictions_run", "simulations_run",
                )
            }),
            ("repro_expand", session["expand_engine"]),
            ("repro_ilp_kernel", session["ilp_kernel"]),
            ("repro_store", engine_health["store"]),
            ("repro_coalescer", health["coalescer"]),
        ):
            for name, value in snapshot.items():
                if isinstance(value, (int, float)):
                    assert samples[f"{prefix}_{name}"] == value, name
        for kind in ("requests", "computed"):
            for request_kind, n in engine_health[kind].items():
                series = f"repro_engine_{kind}{{kind={request_kind}}}"
                assert samples[series] == n


class TestHitPath:
    """Result-cache hits are answered on the event loop from the cached
    body: no coalescer, no executor hop, the same counters a computed
    answer moves and the same bytes."""

    PREDICT = f"/v1/predict?benchmark=rodinia.nn&scale={SCALE}"

    @pytest.fixture()
    def hot(self):
        """A dedicated engine + server, so counter deltas are exact."""
        engine = PredictionEngine(store=None)
        with BackgroundServer(engine=engine, workers=2) as srv:
            with ServiceClient(port=srv.port) as c:
                yield engine, srv, c

    @pytest.mark.parametrize("kind", ["predict", "sweep", "compare"])
    def test_repeat_bypasses_coalescer(self, hot, kind):
        engine, _, client = hot
        call = {
            "predict": lambda: client.predict("rodinia.nn", scale=SCALE),
            "sweep": lambda: client.sweep(
                "rodinia.nn", configs=["smallest", "base"], scale=SCALE
            ),
            "compare": lambda: client.compare("rodinia.nn", scale=SCALE),
        }[kind]
        first = call()
        before = client.healthz()
        assert call() == first
        after = client.healthz()
        moved = after["engine"]["requests"][kind] - (
            before["engine"]["requests"][kind]
        )
        assert moved == 1
        for name in ("submitted", "batches"):
            assert after["coalescer"][name] == before["coalescer"][name]
        cache0 = before["engine"]["result_cache"]
        cache1 = after["engine"]["result_cache"]
        assert cache1["hits"] - cache0["hits"] == 1
        assert cache1["misses"] == cache0["misses"]

    def test_cache_accounting_is_exact(self, hot):
        """N repeats and M distinct misses move hits by exactly N and
        misses by exactly M: the loop lookup never counts a miss that
        the engine's own lookup counts again."""
        engine, _, client = hot
        client.predict("rodinia.nn", scale=SCALE)
        before = client.healthz()["engine"]
        n_repeats, m_misses = 5, 3
        for _ in range(n_repeats):
            client.predict("rodinia.nn", scale=SCALE)
        for cores in range(1, m_misses + 1):
            client.predict("rodinia.nn", cores=cores, scale=SCALE)
        after = client.healthz()["engine"]
        cache0, cache1 = before["result_cache"], after["result_cache"]
        assert cache1["hits"] - cache0["hits"] == n_repeats
        assert cache1["misses"] - cache0["misses"] == m_misses
        assert (
            after["requests"]["predict"] - before["requests"]["predict"]
            == n_repeats + m_misses
        )
        assert (
            after["computed"]["predict"] - before["computed"]["predict"]
            == m_misses
        )

    def test_hit_during_drain_gets_503(self, hot):
        _, server, client = hot
        client.predict("rodinia.nn", scale=SCALE)
        # Drain flips this flag before anything else; holding it set
        # is the drain window without racing the connection teardown.
        server.service.draining = True
        with pytest.raises(ServiceTimeout) as exc_info:
            client.predict("rodinia.nn", scale=SCALE, retries=0)
        assert exc_info.value.status == 503
        assert "draining" in exc_info.value.payload["error"]
        assert exc_info.value.retry_after is not None

    def test_generation_bump_recomputes_within_ttl(self, tmp_path):
        from repro.experiments.store import ProfileStore

        store = ProfileStore(tmp_path / "store")
        engine = PredictionEngine(store=store)
        with BackgroundServer(engine=engine, workers=2) as server:
            _, _, first = _raw_get(server.port, self.PREDICT)
            store.bump_generation()
            time.sleep(engine._GEN_CHECK_TTL_S)
            status, _, body = _raw_get(server.port, self.PREDICT)
        assert status == 200
        assert engine.health()["invalidations"] == 1
        assert engine.health()["computed"]["predict"] == 2
        key = ServiceRequest("predict", "rodinia.nn", scale=SCALE).key()
        payload = engine.results.get(key).payload
        assert body == json.dumps(payload).encode() == first

    @pytest.mark.parametrize("deadline", ["soon", "0", "-3"])
    def test_malformed_deadline_is_400_on_a_hit(self, hot, deadline):
        _, server, client = hot
        client.predict("rodinia.nn", scale=SCALE)
        status, _, body = _raw_get(
            server.port, self.PREDICT, {"X-Deadline-Ms": deadline}
        )
        assert status == 400
        assert "X-Deadline-Ms" in json.loads(body)["error"]

    def test_hit_trace_has_route_span_only(self, hot):
        _, server, client = hot
        client.predict("rodinia.nn", scale=SCALE)
        rid = "hit-path-trace-1"
        status, headers, _ = _raw_get(
            server.port, self.PREDICT, {"X-Request-Id": rid}
        )
        assert status == 200
        assert headers["X-Request-Id"] == rid
        assert headers["X-Worker-Id"] == "0"
        trace = client.debug_trace(rid)
        assert trace["status"] == 200
        names = [s["name"] for s in trace["spans"]]
        assert names == ["route"]

    def test_hit_body_is_the_encoded_engine_payload(self, hot):
        engine, server, client = hot
        client.predict("rodinia.nn", scale=SCALE)
        status, headers, body = _raw_get(server.port, self.PREDICT)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        key = ServiceRequest("predict", "rodinia.nn", scale=SCALE).key()
        payload = engine.results.get(key).payload
        assert body == json.dumps(payload).encode()


def _read_response(sock, buf: bytearray) -> tuple:
    """One whole HTTP response off ``sock``: (status, headers, body)."""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            head = bytes(buf[:end]).decode("latin-1").split("\r\n")
            headers = dict(
                line.split(": ", 1) for line in head[1:] if line
            )
            total = end + 4 + int(headers["Content-Length"])
            if len(buf) >= total:
                body = bytes(buf[end + 4:total])
                del buf[:total]
                return int(head[0].split()[1]), headers, body
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        buf += chunk


class TestLoopAnswers:
    """A result-cache miss whose profile and prediction memo are
    resident (a new core count at a predicted point) is built on the
    event loop: no admission, coalescer or executor hop, and the bytes
    and counters of a computed answer."""

    PREDICT = f"/v1/predict?benchmark=rodinia.nn&scale={SCALE}"

    @pytest.fixture()
    def warm(self):
        """A dedicated server whose engine predicted rodinia.nn at
        ``base`` x 4 cores, so counter deltas are exact."""
        engine = PredictionEngine(store=None)
        with BackgroundServer(engine=engine, workers=2) as srv:
            with ServiceClient(port=srv.port) as c:
                c.predict("rodinia.nn", scale=SCALE)
                yield engine, srv, c

    def test_warm_miss_moves_the_loop_counter_only(self, warm):
        _, server, client = warm
        before = client.healthz()
        status, _, body = _raw_get(server.port, self.PREDICT + "&cores=16")
        after = client.healthz()
        assert status == 200
        assert body == encode_json(PredictionEngine(store=None).predict(
            "rodinia.nn", cores=16, scale=SCALE
        ))
        loop = [h["admission"]["loop_answered"] for h in (before, after)]
        assert loop[1] == loop[0] + 1
        for name in ("submitted", "batches"):
            assert after["coalescer"][name] == before["coalescer"][name]
        # Counted as the executor counts a computed answer.
        e0, e1 = before["engine"], after["engine"]
        for counts in ("requests", "computed"):
            assert e1[counts]["predict"] - e0[counts]["predict"] == 1
        assert e1["predictions_run"] - e0["predictions_run"] == 1
        r0, r1 = e0["result_cache"], e1["result_cache"]
        assert (r1["hits"], r1["misses"]) == (r0["hits"], r0["misses"] + 1)
        c0, c1 = e0["session"]["counters"], e1["session"]["counters"]
        assert c1["predictions"] == c0["predictions"] + 1
        assert c1["schedules"] == c0["schedules"]
        # The repeat is a result-cache hit.
        assert _raw_get(server.port, self.PREDICT + "&cores=16")[2] == body
        assert client.healthz()["admission"]["loop_answered"] == loop[1]

    def test_cold_miss_moves_the_coalescer_only(self, warm):
        _, _, client = warm
        before = client.healthz()
        client.predict("rodinia.nn", config="small", scale=SCALE)
        after = client.healthz()
        assert (
            after["admission"]["loop_answered"]
            == before["admission"]["loop_answered"]
        )
        for name in ("submitted", "batches"):
            assert after["coalescer"][name] == before["coalescer"][name] + 1

    def test_resident_sweep_is_answered_on_the_loop(self, warm):
        _, _, client = warm
        points = ["smallest", "base"]
        client.sweep("rodinia.nn", configs=points, scale=SCALE)
        before = client.healthz()
        payload = client.sweep(
            "rodinia.nn", configs=points, cores=8, scale=SCALE
        )
        middle = client.healthz()
        assert payload == PredictionEngine(store=None).sweep(
            "rodinia.nn", configs=points, cores=8, scale=SCALE
        )
        assert (
            middle["admission"]["loop_answered"]
            == before["admission"]["loop_answered"] + 1
        )
        assert middle["coalescer"]["submitted"] == (
            before["coalescer"]["submitted"]
        )
        # One point without a memo sends the whole sweep to the executor.
        client.sweep("rodinia.nn", configs=["small", "base"], scale=SCALE)
        after = client.healthz()
        assert after["admission"]["loop_answered"] == (
            middle["admission"]["loop_answered"]
        )
        assert after["coalescer"]["submitted"] == (
            middle["coalescer"]["submitted"] + 1
        )

    def test_draining_server_refuses_a_warm_miss(self, warm):
        _, server, client = warm
        server.service.draining = True
        with pytest.raises(ServiceTimeout) as exc_info:
            client.predict("rodinia.nn", cores=16, scale=SCALE, retries=0)
        assert exc_info.value.status == 503
        assert "draining" in exc_info.value.payload["error"]
        assert server.service.loop_answered == 0

    def test_warm_miss_never_computes(self, warm, monkeypatch):
        from repro.core import rppm
        from repro.core.session import Session

        def refuse(*args, **kwargs):
            raise AssertionError("a warm miss must not compute")

        monkeypatch.setattr(Session, "cost_cache", refuse)
        monkeypatch.setattr(rppm, "_phases", refuse)
        _, _, client = warm
        payload = client.predict("rodinia.nn", cores=16, scale=SCALE)
        assert payload["cores"] == 16
        assert client.healthz()["admission"]["loop_answered"] == 1

    def test_warm_miss_trace_keeps_engine_and_predict_spans(self, warm):
        _, server, client = warm
        rid = "loop-answer-trace-1"
        status, _, _ = _raw_get(
            server.port, self.PREDICT + "&cores=16", {"X-Request-Id": rid}
        )
        assert status == 200
        names = [s["name"] for s in client.debug_trace(rid)["spans"]]
        assert names == ["route", "engine", "predict"]

    def test_pipelined_burst_does_not_starve_another_connection(self, warm):
        """Connection A writes 200 warm misses in one write; connection
        B's one request is answered before A's burst is half done.
        Reading a buffered request and draining below the high-water
        mark never yield to the event loop, so without a yield per loop
        answer B would wait for all 200."""
        _, server, _ = warm
        tag = uuid.uuid4().hex[:8]
        cores = range(5, 205)
        burst = b"".join(
            f"GET {self.PREDICT}&cores={n} HTTP/1.1\r\nHost: t\r\n"
            f"X-Request-Id: {tag}-a-{n}\r\n\r\n".encode()
            for n in cores
        )
        probe = (
            f"GET {self.PREDICT} HTTP/1.1\r\nHost: t\r\n"
            f"X-Request-Id: {tag}-b\r\n\r\n"
        ).encode()
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as a, socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as b:
            a_buf, b_buf = bytearray(), bytearray()

            def exchange(sock, buf, suffix: bytes) -> None:
                sock.sendall(probe.replace(b"-b\r", suffix + b"\r"))
                assert _read_response(sock, buf)[0] == 200

            for sock, buf in ((a, a_buf), (b, b_buf)):  # both accepted
                exchange(sock, buf, b"-first")
            a.sendall(burst)
            b.sendall(probe)
            assert _read_response(b, b_buf)[0] == 200
            answers = [_read_response(a, a_buf) for _ in cores]
            # A connection serves its next request only after it has
            # recorded the trace of the one before.
            for sock, buf in ((a, a_buf), (b, b_buf)):
                exchange(sock, buf, b"-last")
        assert [json.loads(body)["cores"] for _, _, body in answers] == (
            list(cores)
        )
        finished = [
            t["trace_id"]
            for t in reversed(TRACE_RING.summaries(TRACE_RING.capacity))
            if t["trace_id"].startswith(tag)
        ]
        before_b = finished[:finished.index(f"{tag}-b")]
        assert sum(tid.startswith(f"{tag}-a-") for tid in before_b) < 100


class TestConcurrentServing:
    def test_32_identical_requests_one_computation(self):
        """The acceptance property: >= 32 simultaneous identical
        requests collapse to a single engine computation."""
        engine = PredictionEngine(store=None)
        n_clients = 32
        results = []
        errors = []
        barrier = threading.Barrier(n_clients)

        def hit(port):
            try:
                with ServiceClient(port=port) as c:
                    barrier.wait(timeout=30)
                    results.append(
                        c.predict("rodinia.bfs", scale=SCALE)
                    )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        with BackgroundServer(engine=engine, workers=2) as server:
            threads = [
                threading.Thread(target=hit, args=(server.port,))
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with ServiceClient(port=server.port) as probe:
                health = probe.healthz()

        assert not errors
        assert len(results) == n_clients
        assert all(r == results[0] for r in results)
        # Exactly one engine computation served all 32 requests;
        # duplicates either collapsed in flight or hit the result LRU.
        assert health["engine"]["computed"]["predict"] == 1
        collapsed = health["coalescer"]["collapsed"]
        engine_requests = health["engine"]["requests"]["predict"]
        assert collapsed + engine_requests == n_clients

    def test_store_inventory_does_not_hold_the_loop(
        self, tmp_path, monkeypatch
    ):
        """``/v1/profiles`` lists the store off the event loop: while
        its listing is held, ``/healthz`` on a second connection still
        answers."""
        from repro.experiments.store import ProfileStore

        listing = threading.Event()
        release = threading.Event()
        real = ProfileStore.list_keys

        def held(self, kind):
            listing.set()
            release.wait(timeout=30)
            return real(self, kind)

        monkeypatch.setattr(ProfileStore, "list_keys", held)
        engine = PredictionEngine(store=ProfileStore(tmp_path))
        inventory = []

        with BackgroundServer(engine=engine, workers=2) as server:
            def fetch():
                with ServiceClient(port=server.port, retries=0) as c:
                    inventory.append(c.profiles())

            thread = threading.Thread(target=fetch, daemon=True)
            thread.start()
            try:
                assert listing.wait(timeout=30)
                with ServiceClient(
                    port=server.port, timeout=5.0, retries=0
                ) as probe:
                    assert probe.healthz()["status"] == "ok"
            finally:
                release.set()
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert inventory[0]["store"]["profiles"] == 0

    def test_loadgen_record_schema(self):
        engine = PredictionEngine(store=None)
        with BackgroundServer(engine=engine, workers=2) as server:
            record = run_loadgen(
                "127.0.0.1", server.port,
                benchmark="rodinia.nn", scale=SCALE,
                duration_s=0.4, concurrency=4,
            )
        assert record["schema"] == 4
        assert record["requests"] > 0
        assert record["ok"] == record["requests"]
        assert record["errors"] == 0
        assert record["unexplained_errors"] == 0
        assert record["hung_workers"] == 0
        assert record["throughput_rps"] > 0
        assert record["goodput_rps"] == record["throughput_rps"]
        assert 0.0 <= record["cache_hit_rate"] <= 1.0
        assert record["latency_ms"]["p50"] <= record["latency_ms"]["p99"]


class TestServiceBench:
    def test_quick_bench_writes_record(self, tmp_path, monkeypatch):
        from repro.experiments import bench
        from repro.experiments.bench import (
            check_service, run_service_bench,
        )
        out = tmp_path / "BENCH_service.json"
        # overload/fleet scenarios and the serving obs gate are
        # exercised by their own tests and CI jobs; here only the
        # record shape and error floors.
        monkeypatch.setattr(
            bench, "run_serving_obs_bench", lambda scale: {}
        )
        record = run_service_bench(
            quick=True, output=str(out), duration_s=0.4,
            concurrency=4, scale=SCALE, overload=False, fleet=False,
        )
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == 4
        assert on_disk["mode"] == "quick"
        assert on_disk["warm"]["requests"] == record["warm"]["requests"]
        # Floors are enforced in CI via `repro bench --quick --check`
        # (with the overload scenarios); here only the record shape
        # and the error floors.
        assert not [
            f for f in check_service(record)
            if "error rate" in f or "unexplained" in f
        ]


class TestServingObsGate:
    """``bench --check``'s ceiling on what span tracing adds to the
    server CPU of a hot ``/v1/predict``."""

    def test_record_times_the_loop_in_interleaved_pairs(
        self, monkeypatch
    ):
        from repro.experiments import bench

        monkeypatch.setattr(bench, "SERVE_OBS_PAIRS", 3)
        monkeypatch.setattr(bench, "SERVE_OBS_REQUESTS", 20)
        record = bench.run_serving_obs_bench(scale=SCALE)
        assert record["pairs"] == len(record["ratios"]) == 3
        assert record["requests"] == 20
        assert record["traced_us"] > 0 and record["untraced_us"] > 0
        assert record["overhead_frac"] == pytest.approx(
            float(np.median(record["ratios"])) - 1.0
        )
        assert obs_enabled()  # the toggle is restored

    def test_a_dead_client_fails_the_run_instead_of_hanging_it(
        self, monkeypatch
    ):
        import multiprocessing

        from repro.experiments import bench

        def kill_client_then_time(run_on, run_off, pairs, clock):
            for child in multiprocessing.active_children():
                if child.name == "repro-obs-client":
                    child.kill()
                    child.join(timeout=30)
            run_on()

        monkeypatch.setattr(bench, "SERVE_OBS_REQUESTS", 5)
        monkeypatch.setattr(bench, "SERVE_OBS_TIMEOUT_S", 30.0)
        monkeypatch.setattr(
            bench, "_paired_cpu_ratios", kill_client_then_time
        )
        started = time.monotonic()
        with pytest.raises((EOFError, OSError)):
            bench.run_serving_obs_bench(scale=SCALE)
        assert time.monotonic() - started < 30.0
        assert obs_enabled()  # the toggle is restored

    def test_ceiling_and_pair_count_gate(self):
        from repro.experiments.bench import (
            SERVE_OBS_PAIRS, SERVICE_FLOORS, check_service,
        )

        warm = {
            "throughput_rps": 5000.0, "attempts": 10, "errors": 0,
            "unexplained_errors": 0, "malformed_shed": 0,
            "malformed_503": 0, "hung_workers": 0,
        }
        ceiling = SERVICE_FLOORS["obs_max_overhead"]
        record = {"warm": warm, "obs": {
            "pairs": SERVE_OBS_PAIRS, "overhead_frac": ceiling - 0.01,
        }}
        assert check_service(record) == []
        record["obs"]["overhead_frac"] = ceiling + 0.01
        assert len(check_service(record)) == 1
        record["obs"] = {"pairs": SERVE_OBS_PAIRS - 1, "overhead_frac": 0.0}
        assert len(check_service(record)) == 1


class TestRetryBudget:
    """``max_elapsed_s``: honored Retry-After hints cannot extend the
    retry loop unboundedly (:class:`ServiceRetryBudgetExceeded`)."""

    @staticmethod
    def _client(**kwargs):
        from repro.service.client import ServiceClient

        kwargs.setdefault("retries", 5)
        kwargs.setdefault("backoff_s", 0.001)
        return ServiceClient(port=1, **kwargs)

    def test_huge_retry_after_trips_the_budget(self, monkeypatch):
        from repro.service.client import (
            ServiceRetryBudgetExceeded, ServiceTimeout,
        )

        client = self._client(max_elapsed_s=0.5)

        def always_503(*args, **kwargs):
            raise ServiceTimeout(
                503, {"error": "draining"}, retry_after=3600.0
            )

        monkeypatch.setattr(client, "_request_once", always_503)
        slept = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", slept.append
        )
        with pytest.raises(ServiceRetryBudgetExceeded) as excinfo:
            client.healthz()
        # The budget tripped *before* sleeping out the server hint.
        assert not slept
        assert excinfo.value.max_elapsed_s == 0.5
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.__cause__, ServiceTimeout)

    def test_budget_exhaustion_by_accumulated_attempts(
        self, monkeypatch
    ):
        from repro.service.client import (
            ServiceRetryBudgetExceeded, ServiceOverloaded,
        )

        client = self._client(retries=100, max_elapsed_s=0.05)

        def always_shed(*args, **kwargs):
            raise ServiceOverloaded(
                429, {"error": "shed"}, retry_after=0.02
            )

        monkeypatch.setattr(client, "_request_once", always_shed)
        with pytest.raises(ServiceRetryBudgetExceeded) as excinfo:
            client.healthz()
        # A few short sleeps fit, then the budget ends the loop long
        # before the 100-attempt budget would have.
        assert excinfo.value.attempts < 10
        assert client.backoff_slept_s <= 0.05 + 0.02

    def test_within_budget_retries_proceed(self, monkeypatch):
        from repro.service.client import ServiceTimeout

        client = self._client(retries=3, max_elapsed_s=30.0)
        attempts = []

        def flaky(*args, **kwargs):
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceTimeout(
                    503, {"error": "drain"}, retry_after=0.001
                )
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client.healthz() == {"status": "ok"}
        assert len(attempts) == 3
        assert client.retried == 2

    def test_budget_disabled_with_none(self, monkeypatch):
        from repro.service.client import ServiceTimeout

        client = self._client(retries=2, max_elapsed_s=None)

        def always_503(*args, **kwargs):
            raise ServiceTimeout(
                503, {"error": "draining"}, retry_after=0.001
            )

        monkeypatch.setattr(client, "_request_once", always_503)
        # Attempts, not elapsed time, end the loop: the plain typed
        # error surfaces once retries are spent.
        with pytest.raises(ServiceTimeout):
            client.healthz()
        assert client.retried == 2

    def test_non_retryable_unaffected_by_budget(self, monkeypatch):
        from repro.service.client import ServiceError

        client = self._client(max_elapsed_s=0.0)

        def bad_request(*args, **kwargs):
            raise ServiceError(400, {"error": "malformed"})

        monkeypatch.setattr(client, "_request_once", bad_request)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 400
