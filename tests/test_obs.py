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

import pytest

from repro.obs import (
    MetricsRegistry,
    Trace,
    TraceRing,
    configure_logging,
    get_logger,
    render_registries,
    set_enabled,
    span,
)
from repro.obs.tracing import activate, deactivate, new_trace
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
        trace = new_trace("t1")
        token = activate(trace)
        try:
            with span("outer"):
                with span("inner", detail="x"):
                    pass
        finally:
            deactivate(token)
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
        trace = new_trace("t2")
        token = activate(trace)
        try:
            with span("ghost"):
                pass
        finally:
            deactivate(token)
            set_enabled(True)
        assert trace.spans == []

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
        trace = new_trace("req-42")
        token = activate(trace)
        try:
            log.info("unit.event", answer=42)
        finally:
            deactivate(token)
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
