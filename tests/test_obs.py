"""The unified telemetry plane: registry, spans, logging, budgets.

Covers the :mod:`repro.obs` primitives in isolation (metric family
semantics, Prometheus exposition golden schema, span nesting into
traces, the ``REPRO_OBS`` gate, structured log lines) plus the
``error_budget()`` edge cases the observability surface alerts on.
HTTP-level coverage (``/metrics``, ``X-Request-Id``, the trace
endpoint) lives in ``tests/test_service.py``; chaos coverage of the
``obs.emit`` fault point lives in ``tests/test_faults.py``.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Trace,
    TraceRing,
    configure_logging,
    dropped_emits,
    get_logger,
    render_registries,
    root_span,
    set_enabled,
    span,
)
from repro.obs import tracing
from repro.service.engine import ERROR_BUDGET_THRESHOLDS, error_budget


@pytest.fixture(autouse=True)
def _obs_on():
    """Spans on for these tests regardless of the environment."""
    set_enabled(True)
    yield
    set_enabled(True)


class TestMetricFamilies:
    def test_counter_inc_and_value(self):
        m = MetricsRegistry()
        c = m.counter("test_total", "help text")
        c.inc()
        c.inc(41)
        assert c.value() == 42

    def test_labeled_counter_children_and_total(self):
        m = MetricsRegistry()
        c = m.counter("reqs_total", "h", labels=("route",))
        c.labels(route="/a").inc(2)
        c.labels(route="/b").inc(3)
        assert c.labels(route="/a").value() == 2
        assert c.value() == 5  # family value sums children

    def test_label_names_are_validated(self):
        m = MetricsRegistry()
        c = m.counter("x_total", "h", labels=("route",))
        with pytest.raises(ValueError):
            c.labels(wrong="/a")

    def test_gauge_set_and_inc(self):
        m = MetricsRegistry()
        g = m.gauge("depth", "h")
        g.set(7)
        g.inc(-2)
        assert g.value() == 5

    def test_histogram_cumulative_buckets(self):
        m = MetricsRegistry()
        h = m.histogram("lat", "h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = render_registries([m])
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 5.55" in text

    def test_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        a = m.counter("same_total", "h")
        b = m.counter("same_total", "h")
        assert a is b

    def test_kind_mismatch_is_an_error(self):
        m = MetricsRegistry()
        m.counter("name_clash", "h")
        with pytest.raises(ValueError):
            m.gauge("name_clash", "h")

    def test_collectors_refresh_at_render_and_never_fail(self):
        m = MetricsRegistry()
        state = {"depth": 3}
        m.register_collector(
            "ok", lambda reg: reg.gauge("queue_depth", "h").set(
                state["depth"]
            )
        )
        m.register_collector(
            "broken", lambda reg: 1 / 0
        )  # must not break the scrape
        text = m.render()
        assert "queue_depth 3" in text
        state["depth"] = 9
        assert "queue_depth 9" in m.render()

    def test_collector_keyed_replacement(self):
        m = MetricsRegistry()
        m.register_collector(
            "owner", lambda reg: reg.gauge("v", "h").set(1)
        )
        m.register_collector(
            "owner", lambda reg: reg.gauge("v", "h").set(2)
        )
        assert "v 2" in m.render()
        assert "v 1" not in m.render()


class TestPrometheusExposition:
    """Golden-schema test for the text exposition format (0.0.4)."""

    def test_golden_document(self):
        m = MetricsRegistry()
        c = m.counter(
            "repro_http_requests_total", "HTTP requests",
            labels=("route", "status"),
        )
        c.labels(route="/v1/predict", status="200").inc(3)
        m.gauge("repro_queue_depth", "Queue depth").set(2)
        h = m.histogram(
            "repro_stage_seconds", "Stage wall time",
            labels=("stage",), buckets=(0.5, 1.0),
        )
        h.labels(stage="replay").observe(0.25)
        assert m.render() == (
            "# HELP repro_http_requests_total HTTP requests\n"
            "# TYPE repro_http_requests_total counter\n"
            'repro_http_requests_total{route="/v1/predict",'
            'status="200"} 3\n'
            "# HELP repro_queue_depth Queue depth\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 2\n"
            "# HELP repro_stage_seconds Stage wall time\n"
            "# TYPE repro_stage_seconds histogram\n"
            'repro_stage_seconds_bucket{stage="replay",le="0.5"} 1\n'
            'repro_stage_seconds_bucket{stage="replay",le="1"} 1\n'
            'repro_stage_seconds_bucket{stage="replay",le="+Inf"} 1\n'
            'repro_stage_seconds_sum{stage="replay"} 0.25\n'
            'repro_stage_seconds_count{stage="replay"} 1\n'
        )

    def test_label_value_escaping(self):
        m = MetricsRegistry()
        c = m.counter("esc_total", "h", labels=("v",))
        c.labels(v='a"b\\c\nd').inc()
        assert 'esc_total{v="a\\"b\\\\c\\nd"} 1' in m.render()

    def test_merge_renders_both_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("from_a_total", "h").inc()
        b.counter("from_b_total", "h").inc()
        text = render_registries([a, b])
        assert "from_a_total 1" in text
        assert "from_b_total 1" in text


class TestSpans:
    def test_nested_spans_record_parent_child(self):
        trace = Trace("t1")
        with root_span(trace, "outer"):
            with span("inner", detail="x"):
                pass
        d = trace.to_dict()
        by_name = {s["name"]: s for s in d["spans"]}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == (
            by_name["outer"]["span_id"]
        )
        assert by_name["inner"]["attrs"] == {"detail": "x"}
        assert all(s["duration_ms"] >= 0 for s in d["spans"])

    def test_span_without_active_trace_only_feeds_histogram(self):
        from repro.obs.metrics import REGISTRY

        with span("orphan.stage"):
            pass
        text = REGISTRY.render()
        assert 'repro_stage_seconds_count{stage="orphan.stage"}' in text

    def test_disabled_gate_skips_recording(self):
        set_enabled(False)
        trace = Trace("t2")
        try:
            with root_span(trace, "ghost"):
                with span("ghost.inner"):
                    pass
        finally:
            set_enabled(True)
        assert trace.spans == []

    def test_to_dict_format_is_pinned(self, monkeypatch):
        """Keys, their order, 3-decimal rounding, the (start_ms,
        span_id) order and attrs stringification, for a fixed span
        sequence on a fixed clock; a non-scalar attr reads as ``str()``
        of its value when the span was recorded, not when the trace is
        read."""
        trace = Trace("pinned-trace-01")
        trace._perf0 = 100.0
        trace.started_unix_s = 1700000000.25
        config = ["base", 4]
        clock = iter([
            100.0001,  # route opens
            100.0012344, 100.0012344,  # engine, then predict, open
            100.0014844, 100.0017344,  # predict, then engine, close
            100.0021007,  # route closes
            100.003,  # finish
        ])
        monkeypatch.setattr(tracing, "_perf_counter", clock.__next__)
        with root_span(trace, "route"):
            with span(
                "engine", kind="predict", cores=4, scale=0.5, warm=True
            ):
                with span("predict", config=config, none=None):
                    pass
                config.append("later")
        d = trace.to_dict()
        assert d == {
            "trace_id": "pinned-trace-01",
            "started_unix_s": 1700000000.25,
            "status": None, "route": None, "method": None,
            "duration_ms": None,
            "spans": [
                {"span_id": 1, "parent_id": None, "name": "route",
                 "start_ms": 0.1, "duration_ms": 2.001},
                {"span_id": 2, "parent_id": 1, "name": "engine",
                 "start_ms": 1.234, "duration_ms": 0.5,
                 "attrs": {"kind": "predict", "cores": 4,
                           "scale": 0.5, "warm": True}},
                {"span_id": 3, "parent_id": 2, "name": "predict",
                 "start_ms": 1.234, "duration_ms": 0.25,
                 "attrs": {"config": "['base', 4]", "none": "None"}},
            ],
        }
        assert list(d) == [
            "trace_id", "started_unix_s", "status", "route", "method",
            "duration_ms", "spans",
        ]
        assert [list(s) for s in d["spans"]][1] == [
            "span_id", "parent_id", "name", "start_ms", "duration_ms",
            "attrs",
        ]
        trace.finish(status=200, route="/v1/predict", method="GET")
        d = trace.to_dict()
        assert (d["status"], d["route"], d["method"]) == (
            200, "/v1/predict", "GET"
        )
        assert d["duration_ms"] == 3.0
        ring = TraceRing(capacity=4)
        ring.put(trace)
        assert ring.summaries() == [{
            "trace_id": "pinned-trace-01", "route": "/v1/predict",
            "status": 200, "duration_ms": d["duration_ms"], "spans": 3,
        }]

    def test_one_trace_from_many_threads_stays_whole(self):
        """Engine threads record into the trace their root span opens
        while other threads record into it too, with no lock: ids stay
        unique and dense, every parent is a recorded span, nothing is
        dropped."""
        trace = Trace("stress")
        dropped = dropped_emits()
        threads_n, rounds = 8, 60  # more threads than cores
        failures = []

        def work() -> None:
            try:
                for _ in range(rounds):
                    with root_span(trace, "stress.outer", n=1):
                        with span("stress.inner"):
                            with span("stress.leaf", tag=("x",)):
                                pass
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work) for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        spans = trace.to_dict()["spans"]
        ids = sorted(s["span_id"] for s in spans)
        assert ids == list(range(1, threads_n * rounds * 3 + 1))
        recorded = set(ids)
        assert all(
            s["parent_id"] is None or s["parent_id"] in recorded
            for s in spans
        )
        assert sum(s["parent_id"] is None for s in spans) == (
            threads_n * rounds
        )
        order = [(s["start_ms"], s["span_id"]) for s in spans]
        assert order == sorted(order)
        assert dropped_emits() == dropped

    def test_trace_ring_is_a_fifo(self):
        """``get`` reorders nothing; a re-put id moves to the newest
        end."""
        ring = TraceRing(capacity=3)
        a = Trace("a")
        for trace in (a, Trace("b"), Trace("c")):
            ring.put(trace)
        assert ring.get("a") is a
        ring.put(Trace("d"))
        assert ring.get("a") is None  # oldest put, read or not
        again = Trace("c")
        ring.put(again)
        assert ring.get("c") is again
        assert [s["trace_id"] for s in ring.summaries()] == ["c", "d"]
        assert len(ring) == 2  # the first put of c still holds a slot
        ring.put(Trace("e"))
        assert [s["trace_id"] for s in ring.summaries()] == ["e", "c", "d"]
        assert len(ring) == 3

    def test_trace_ring_takes_racing_writers_and_a_reader(self):
        """Writers put into one ring while a reader lists it, switching
        threads as often as the interpreter allows: nothing raises and
        the ring ends full, round after round."""
        batches = [[Trace(f"{k}-{i}") for i in range(2000)] for k in range(8)]

        def race(ring: TraceRing) -> list:
            failures = []
            done = threading.Event()

            def guarded(fn, *args) -> None:
                try:
                    fn(*args)
                except BaseException as exc:  # asserted on below
                    failures.append(exc)

            def write(batch) -> None:
                for trace in batch:
                    ring.put(trace)

            def read() -> None:
                while not done.is_set():
                    ring.summaries()
                    ring.get("0-0")

            reader = threading.Thread(target=guarded, args=(read,))
            writers = [
                threading.Thread(target=guarded, args=(write, batch))
                for batch in batches
            ]
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
            assert not any(t.is_alive() for t in (reader, *writers))
            return failures

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ring = TraceRing(capacity=4)
                assert race(ring) == []
                assert len(ring) == ring.capacity
        finally:
            sys.setswitchinterval(interval)

    def test_trace_ring_evicts_oldest(self):
        ring = TraceRing(capacity=2)
        for tid in ("a", "b", "c"):
            ring.put(Trace(tid))
        assert ring.get("a") is None
        assert ring.get("b") is not None
        assert ring.get("c") is not None
        assert len(ring) == 2
        ids = [s["trace_id"] for s in ring.summaries()]
        assert ids == ["c", "b"]  # most recent first


class TestStructuredLogging:
    def test_json_lines_carry_event_fields_and_request_id(self):
        stream = io.StringIO()
        configure_logging(
            level="info", json_mode=True, stream=stream
        )
        log = get_logger("test")
        trace = Trace("req-42")
        with root_span(trace, "unit"):
            log.info("unit.event", answer=42)
        record = json.loads(stream.getvalue())
        assert record["event"] == "unit.event"
        assert record["answer"] == 42
        assert record["request_id"] == "req-42"
        assert record["level"] == "info"

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging(
            level="warning", json_mode=True, stream=stream
        )
        log = get_logger("test")
        log.info("dropped.event")
        log.warning("kept.event")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "kept.event"

    def test_human_mode_renders_key_values(self):
        stream = io.StringIO()
        configure_logging(
            level="info", json_mode=False, stream=stream
        )
        get_logger("test").info("service.listening", port=8188)
        line = stream.getvalue()
        assert "service.listening" in line
        assert "port=8188" in line


class TestErrorBudgetEdges:
    """Edge cases of the pure alerting function ``/healthz`` embeds."""

    @staticmethod
    def _health(hits=0, misses=0, store=None, requests=None):
        health = {"result_cache": {"hits": hits, "misses": misses}}
        if store is not None:
            health["store"] = store
        if requests is not None:
            health["requests"] = requests
        return health

    def test_zero_traffic_window_is_ok(self):
        budget = error_budget(self._health())
        assert budget["ok"] is True
        assert budget["result_cache_hit_rate"] is None
        assert budget["shed_rate"] == 0.0

    def test_hit_rate_exactly_at_threshold_does_not_alert(self):
        # The collapse test is strict-less-than: exactly 50% over
        # exactly min_lookups is still within budget.
        n = ERROR_BUDGET_THRESHOLDS["min_lookups"]
        budget = error_budget(self._health(hits=n // 2, misses=n // 2))
        assert budget["result_cache_hit_rate"] == 0.5
        assert budget["cache_hit_collapse"] is False
        assert budget["ok"] is True

    def test_one_lookup_under_grace_never_collapses(self):
        n = ERROR_BUDGET_THRESHOLDS["min_lookups"]
        budget = error_budget(self._health(hits=0, misses=n - 1))
        assert budget["cache_hit_collapse"] is False

    def test_collapse_just_past_both_thresholds(self):
        n = ERROR_BUDGET_THRESHOLDS["min_lookups"]
        budget = error_budget(self._health(hits=0, misses=n))
        assert budget["cache_hit_collapse"] is True
        assert budget["ok"] is False

    def test_corruption_streak_exact_threshold_alarms(self):
        # The streak alarm is >=: exactly max_corruption_streak fires.
        k = ERROR_BUDGET_THRESHOLDS["max_corruption_streak"]
        budget = error_budget(
            self._health(store={"corruption_streak": k})
        )
        assert budget["corruption_alarm"] is True
        assert budget["ok"] is False
        below = error_budget(
            self._health(store={"corruption_streak": k - 1})
        )
        assert below["corruption_alarm"] is False
        assert below["ok"] is True

    def test_corruption_streak_reset_clears_the_alarm(
        self, tmp_path, small_profile
    ):
        # Through the real store: corrupt artifacts build the streak,
        # one healthy load resets it, and the budget verdict follows.
        from repro.experiments.store import ProfileStore

        store = ProfileStore(tmp_path / "store")
        k = ERROR_BUDGET_THRESHOLDS["max_corruption_streak"]
        for i in range(k):
            key = ProfileStore.profile_key("streak", i, 1.0, 4096)
            store.save_profile(key, small_profile).write_text("garbage")
            assert store.load_profile(key) is None  # quarantined
        health = store.health()
        assert health["corrupt"] == health["quarantined"] == k
        assert health["quarantine"] == {"profiles": k}
        budget = error_budget({"store": health})
        assert budget["corruption_streak"] == k
        assert budget["corruption_alarm"] is True
        assert budget["ok"] is False
        key = ProfileStore.profile_key("streak", k, 1.0, 4096)
        store.save_profile(key, small_profile)
        assert store.load_profile(key) is not None
        budget = error_budget({"store": store.health()})
        assert budget["corruption_streak"] == 0
        assert budget["corruption_alarm"] is False
        assert budget["ok"] is True

    def test_shed_rate_accounts_admission(self):
        budget = error_budget(
            self._health(requests={"predict": 6}),
            admission={"shed": 2},
        )
        assert budget["shed"] == 2
        assert budget["shed_rate"] == 0.25
