"""Chaos suite: fault injection, crash-safe store, serving failures.

Exercises :mod:`repro.testing.faults` itself, then uses it to prove
the robustness contracts: corrupt/stale artifacts are quarantined and
counted (never silently trusted or silently dropped), a crash between
temp-file write and rename leaves no partial artifact and is healed
by ``prune``, the serving plane converts injected engine/transport
failures into typed errors without dying, and the error budget turns
counter degradation into explicit alerts.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time
from pathlib import Path

import pytest

from repro.experiments.store import SCHEMA_VERSION, ProfileStore
from repro.service.engine import (
    ERROR_BUDGET_THRESHOLDS,
    PredictionEngine,
    error_budget,
)
from repro.testing.faults import (
    FAULTS,
    POINTS,
    SimulatedCrash,
    flip_bit,
    inject,
)

SCALE = 0.15


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "cache")


def _saved_profile(store, small_profile):
    key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
    path = store.save_profile(key, small_profile)
    return key, path


def _backdate(path, seconds=3600.0):
    """Age a file past the sweep's temp guard."""
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestFaultInjector:
    def test_unarmed_fire_is_passthrough(self):
        assert FAULTS.fire("store.read", b"data") == b"data"
        assert FAULTS.fire("nonexistent.point") is None

    def test_inject_error_raises_and_disarms(self):
        with inject("store.read", error=OSError("disk on fire")) as f:
            assert FAULTS.active("store.read")
            with pytest.raises(OSError, match="disk on fire"):
                FAULTS.fire("store.read", b"x")
        assert f.fired == 1
        assert not FAULTS.active("store.read")
        assert FAULTS.fire("store.read", b"x") == b"x"

    def test_error_factory(self):
        with inject("store.read", error=lambda: ValueError("fresh")):
            with pytest.raises(ValueError, match="fresh"):
                FAULTS.fire("store.read")
            with pytest.raises(ValueError, match="fresh"):
                FAULTS.fire("store.read")

    def test_times_bounds_firing(self):
        with inject("store.read", error=OSError(), times=1) as f:
            with pytest.raises(OSError):
                FAULTS.fire("store.read", b"x")
            # Budget spent: the point reverts to passthrough.
            assert FAULTS.fire("store.read", b"x") == b"x"
        assert f.fired == 1

    def test_lifo_nesting(self):
        with inject("store.read", mutate=lambda b: b + b"outer"):
            with inject("store.read", mutate=lambda b: b + b"inner"):
                assert FAULTS.fire("store.read", b".") == b".inner"
            assert FAULTS.fire("store.read", b".") == b".outer"

    def test_delay(self):
        with inject("engine.compute", delay_s=0.05):
            t0 = time.perf_counter()
            FAULTS.fire("engine.compute")
            assert time.perf_counter() - t0 >= 0.05

    def test_fired_counter_survives_disarm(self):
        with inject("store.write"):
            FAULTS.fire("store.write")
            FAULTS.fire("store.write")
        assert FAULTS.fired["store.write"] == 2
        FAULTS.reset()
        assert FAULTS.fired == {}

    def test_flip_bit(self):
        data = b"\x00\x00"
        assert flip_bit(data, offset=1, bit=3) == b"\x00\x08"
        assert flip_bit(b"") == b""
        # Involution: flipping twice restores the original.
        assert flip_bit(flip_bit(data, 0, 7), 0, 7) == data

    def test_points_catalogue(self):
        # The compiled-in fault points; drift here means production
        # hooks were renamed without updating the catalogue.
        assert set(POINTS) == {
            "store.read", "store.write", "store.crash",
            "engine.compute", "server.respond", "obs.emit",
            "queue.claim", "queue.lease", "queue.heartbeat",
        }


class TestStoreQuarantine:
    def test_corrupt_artifact_is_quarantined(self, store, small_profile):
        key, path = _saved_profile(store, small_profile)
        path.write_text("{ not json at all")
        assert store.load_profile(key) is None
        # Evidence moved, not destroyed; counted; visible in health.
        assert not path.exists()
        qpath = store.root / "quarantine" / "profiles" / path.name
        assert qpath.exists()
        health = store.health()
        assert health["corrupt"] == 1
        assert health["quarantined"] == 1
        assert health["quarantine"] == {"profiles": 1}
        assert store.stats()["quarantine/profiles"]["artifacts"] == 1

    def test_stale_schema_is_quarantined(self, store, small_profile):
        key, path = _saved_profile(store, small_profile)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load_profile(key) is None
        assert not path.exists()
        assert store.health()["schema_stale"] == 1

    def test_corruption_streak_breaks_on_healthy_load(
        self, store, small_profile
    ):
        for i in range(3):
            key = ProfileStore.profile_key("chaos", i, 1.0, 4096)
            path = store.save_profile(key, small_profile)
            path.write_text("garbage")
            assert store.load_profile(key) is None
        assert store.health()["corruption_streak"] == 3
        key, _ = _saved_profile(store, small_profile)
        assert store.load_profile(key) is not None
        health = store.health()
        assert health["corruption_streak"] == 0
        assert health["max_corruption_streak"] == 3

    def test_injected_read_error_is_counted_not_quarantined(
        self, store, small_profile
    ):
        key, path = _saved_profile(store, small_profile)
        with inject("store.read", error=OSError("EIO")):
            assert store.load_profile(key) is None
        assert store.health()["io_errors"] == 1
        # The artifact itself is fine: it loads once the disk heals.
        assert path.exists()
        assert store.load_profile(key) is not None

    def test_bitflip_on_read_quarantines(self, store, small_profile):
        key, path = _saved_profile(store, small_profile)
        with inject("store.read", mutate=flip_bit, times=1):
            assert store.load_profile(key) is None
        assert store.health()["corrupt"] == 1

    def test_quarantine_recompute_heals(self, store, small_profile):
        key, path = _saved_profile(store, small_profile)
        path.write_text("garbage")
        assert store.load_profile(key) is None
        # The caller's recompute-and-resave heals the published slot.
        store.save_profile(key, small_profile)
        assert store.load_profile(key) is not None


class TestStoreWrites:
    def test_dropped_write_counted_when_lenient(
        self, tmp_path, small_profile
    ):
        store = ProfileStore(tmp_path / "cache", strict=False)
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        with inject("store.write", error=OSError("ENOSPC")):
            store.save_profile(key, small_profile)  # must not raise
        assert store.health()["dropped_writes"] == 1
        assert store.load_profile(key) is None

    def test_strict_write_raises(self, store, small_profile):
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        with inject("store.write", error=OSError("ENOSPC")):
            with pytest.raises(OSError):
                store.save_profile(key, small_profile)
        assert store.health()["dropped_writes"] == 0


class TestCrashSafety:
    def test_crash_mid_write_leaves_no_partial_artifact(
        self, store, small_profile
    ):
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        path = store._path("profiles", key, "json")
        with inject("store.crash", error=SimulatedCrash()):
            with pytest.raises(SimulatedCrash):
                store.save_profile(key, small_profile)
        # Published path untouched; only an orphan temp file remains.
        assert not path.exists()
        orphans = list((store.root / "profiles").glob("*.tmp"))
        assert len(orphans) == 1
        # Loads see a plain miss — no corruption, no io_errors.
        assert store.load_profile(key) is None
        health = store.health()
        assert health["corrupt"] == 0
        assert health["io_errors"] == 0

    def test_crash_preserves_previous_version(self, store, small_profile):
        key, path = _saved_profile(store, small_profile)
        before = path.read_bytes()
        with inject("store.crash", error=SimulatedCrash()):
            with pytest.raises(SimulatedCrash):
                store.save_profile(key, small_profile)
        # The atomic rename never happened: readers still get the
        # last good version, bit for bit.
        assert path.read_bytes() == before
        assert store.load_profile(key) is not None

    def test_prune_reclaims_orphan_tmp(self, store, small_profile):
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        with inject("store.crash", error=SimulatedCrash()):
            with pytest.raises(SimulatedCrash):
                store.save_profile(key, small_profile)
        (orphan,) = (store.root / "profiles").glob("*.tmp")
        _backdate(orphan)
        keep_key, keep_path = _saved_profile(store, small_profile)
        out = store.prune(stale_only=True)
        # Orphan swept even though the good artifact is current.
        assert out["profiles"]["removed"] == 1
        assert not list((store.root / "profiles").glob("*.tmp"))
        assert keep_path.exists()
        # Idempotent: nothing left to reclaim.
        assert store.prune()["profiles"]["removed"] == 1  # keep_path
        assert store.load_profile(keep_key) is None

    def test_prune_spares_a_fresh_tmp(self, store, small_profile):
        """A temp no older than the guard may be a live writer's
        between its write and its rename: a prune leaves it."""
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        with inject("store.crash", error=SimulatedCrash()):
            with pytest.raises(SimulatedCrash):
                store.save_profile(key, small_profile)
        (orphan,) = (store.root / "profiles").glob("*.tmp")
        assert store.prune(stale_only=True)["profiles"]["removed"] == 0
        assert orphan.exists()
        _backdate(orphan)
        assert store.prune(stale_only=True)["profiles"]["removed"] == 1
        assert not orphan.exists()

    def test_store_survives_crash_then_retry(self, store, small_profile):
        key = ProfileStore.profile_key("chaos", 1, 1.0, 4096)
        with inject("store.crash", error=SimulatedCrash(), times=1):
            with pytest.raises(SimulatedCrash):
                store.save_profile(key, small_profile)
            # The 'restarted process' retries and succeeds.
            store.save_profile(key, small_profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.to_dict() == small_profile.to_dict()


class TestPruneRaces:
    def test_prune_tolerates_vanishing_files(
        self, store, small_profile, monkeypatch
    ):
        key, path = _saved_profile(store, small_profile)
        ghost = store.root / "profiles" / ("f" * 64 + ".json")
        ghost.write_text("{}")
        real = os.scandir

        def scandir(directory):
            with real(directory) as listing:
                entries = list(listing)
            if Path(directory) == path.parent and ghost.exists():
                ghost.unlink()  # a concurrent prune won the race
            return contextlib.nullcontext(entries)

        monkeypatch.setattr(os, "scandir", scandir)
        # The ghost was listed, then vanished before its stat: skipped,
        # and the real artifact is still swept.
        out = store.prune()
        assert out["profiles"]["removed"] == 1

    def test_prune_skips_files_gone_before_unlink(
        self, store, small_profile, monkeypatch
    ):
        _, path = _saved_profile(store, small_profile)
        other = store.save_profile(
            ProfileStore.profile_key("chaos", 2, 1.0, 4096), small_profile
        )
        size = path.stat().st_size
        real = Path.stat

        def stat(self, *args, **kwargs):
            st = real(self, *args, **kwargs)
            if self == other:
                os.unlink(other)  # a concurrent prune won the race
            return st

        monkeypatch.setattr(Path, "stat", stat)
        # ``other`` was listed and stat-ed, then vanished before its
        # unlink: skipped and not counted, in files or bytes.
        out = store.prune()
        assert out["profiles"] == {"removed": 1, "bytes": size}
        assert not path.exists() and not other.exists()

    def test_default_prune_preserves_quarantine(
        self, store, small_profile
    ):
        key, path = _saved_profile(store, small_profile)
        path.write_text("garbage")
        assert store.load_profile(key) is None
        store.prune()
        assert store.stats()["quarantine/profiles"]["artifacts"] == 1
        # Explicit opt-in empties the evidence tree.
        out = store.prune(kinds=["quarantine"])
        assert out["quarantine"]["removed"] == 1
        assert "quarantine/profiles" not in {
            k: v for k, v in store.stats().items()
            if v["artifacts"] > 0
        }

    def test_stats_tolerates_missing_root(self, tmp_path):
        store = ProfileStore(tmp_path / "never-created")
        assert store.stats() == {}
        assert store.prune() == {}


class TestErrorBudget:
    @staticmethod
    def _health(**store_counts):
        counters = {
            "writes": 0, "dropped_writes": 0, "io_errors": 0,
            "corrupt": 0, "schema_stale": 0, "quarantined": 0,
            "quarantine_failed": 0, "corruption_streak": 0,
            "max_corruption_streak": 0, "quarantine": {},
        }
        counters.update(store_counts)
        return {
            "requests": {"predict": 100},
            "result_cache": {"hits": 90, "misses": 10},
            "store": counters,
        }

    def test_healthy_budget_is_ok(self):
        budget = error_budget(self._health())
        assert budget["ok"]
        assert budget["alerts"] == []

    def test_corruption_streak_alarms(self):
        streak = ERROR_BUDGET_THRESHOLDS["max_corruption_streak"]
        budget = error_budget(
            self._health(corruption_streak=streak)
        )
        assert not budget["ok"]
        assert budget["corruption_alarm"]
        assert any("corruption" in a for a in budget["alerts"])

    def test_dropped_writes_alarm(self):
        budget = error_budget(self._health(dropped_writes=2))
        assert not budget["ok"]
        assert any("dropped" in a for a in budget["alerts"])

    def test_cache_collapse_needs_volume(self):
        # Below min_lookups a low hit rate is cold start, not collapse.
        health = self._health()
        health["result_cache"] = {"hits": 1, "misses": 20}
        budget = error_budget(health)
        assert not budget["cache_hit_collapse"]
        health["result_cache"] = {"hits": 10, "misses": 90}
        budget = error_budget(health)
        assert budget["cache_hit_collapse"]
        assert not budget["ok"]

    def test_shed_rate_from_admission(self):
        budget = error_budget(
            self._health(), admission={"shed": 100}
        )
        assert budget["shed"] == 100
        assert budget["shed_rate"] == pytest.approx(0.5)

    def test_no_store_section_is_fine(self):
        health = self._health()
        del health["store"]
        assert error_budget(health)["ok"]


class TestServingChaos:
    """The serving plane under injected failures.

    One shared server per test keeps these fast; every test asserts
    both the typed failure AND that the server survives to serve the
    next request.
    """

    def _boot(self):
        from repro.service.server import BackgroundServer

        return BackgroundServer(
            engine=PredictionEngine(store=None), workers=2
        )

    def test_engine_fault_is_typed_500_and_survivable(self):
        from repro.service.client import ServiceClient, ServiceError

        with self._boot() as server:
            with ServiceClient(port=server.port) as client:
                with inject(
                    "engine.compute",
                    error=RuntimeError("cosmic ray"),
                    times=1,
                ):
                    with pytest.raises(ServiceError) as err:
                        client.predict(
                            benchmark="rodinia.nn", scale=SCALE,
                            retries=0,
                        )
                assert err.value.status == 500
                # Same request, fault exhausted: full recovery.
                result = client.predict(
                    benchmark="rodinia.nn", scale=SCALE
                )
                assert result["total_cycles"] > 0

    def test_engine_delay_holds_cold_misses_only(self):
        """``engine.compute`` fires on the compute path only: a warm
        miss (new core count, resident memo) is answered on the event
        loop well inside an injected 0.2 s delay, a cold miss (new
        point) still waits for it."""
        from repro.service.client import ServiceClient

        with self._boot() as server:
            with ServiceClient(port=server.port) as client:
                client.predict(benchmark="rodinia.nn", scale=SCALE)
                with inject("engine.compute", delay_s=0.2) as fault:
                    t0 = time.perf_counter()
                    warm = client.predict(
                        benchmark="rodinia.nn", cores=16, scale=SCALE,
                        retries=0,
                    )
                    warm_s = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    cold = client.predict(
                        benchmark="rodinia.nn", config="small",
                        scale=SCALE, retries=0,
                    )
                    cold_s = time.perf_counter() - t0
        assert warm["cores"] == 16 and cold["config"] == "small"
        assert warm_s < 0.1
        assert cold_s >= 0.2
        assert fault.fired == 1

    def test_stampede_draws_all_reach_admission(self):
        """Every stampede draw needs the executor, so admission admits
        or sheds at least 95 % of the window's attempts.  Were draws
        answered on the event loop, only those before the first
        computation at each point would get there."""
        from repro.service.loadgen import _scenario_stampede

        rec = _scenario_stampede("rodinia.nn", SCALE, duration_s=1.0)
        assert rec["unexplained_errors"] == 0 and rec["hung_workers"] == 0
        assert rec["ok"] > 0 and rec["shed"] > 0
        assert rec["admitted"] + rec["shed"] >= 0.95 * rec["attempts"]
        assert rec["loop_answered"] <= 0.05 * rec["attempts"]

    def test_corrupted_response_is_protocol_error(self):
        from repro.service.client import (
            ServiceClient, ServiceProtocolError,
        )

        def corrupt_body(blob):
            return blob[:-1] + b"~"  # valid HTTP, invalid JSON body

        with self._boot() as server:
            with ServiceClient(port=server.port) as client:
                with inject(
                    "server.respond", mutate=corrupt_body, times=1
                ):
                    with pytest.raises(ServiceProtocolError) as err:
                        client.predict(
                            benchmark="rodinia.nn", scale=SCALE,
                            retries=0,
                        )
                # Diagnosable from the exception alone: status + a
                # snippet of the offending bytes (first 200 of them).
                assert err.value.status == 200
                snippet = err.value.payload["body"]
                assert snippet.startswith('{"benchmark"')
                assert len(snippet) <= 200
                assert client.predict(
                    benchmark="rodinia.nn", scale=SCALE
                )["total_cycles"] > 0

    def test_reset_mid_response_is_counted_and_survivable(self):
        from repro.service.client import ServiceClient

        with self._boot() as server:
            with ServiceClient(port=server.port) as client:
                with inject(
                    "server.respond",
                    error=ConnectionResetError("peer gone"),
                    times=1,
                ):
                    # The client's single reconnect-and-retry of a
                    # dropped keep-alive request absorbs the reset.
                    result = client.predict(
                        benchmark="rodinia.nn", scale=SCALE,
                        retries=1,
                    )
                assert result["total_cycles"] > 0
                health = client.healthz()
                assert health["admission"]["response_failures"] == 1

    def test_broken_telemetry_sink_never_fails_a_request(self):
        # Telemetry is best-effort by construction: every span the
        # request path emits hits a sink that raises, yet the request
        # completes normally — only the drop counter moves.
        from repro.obs import dropped_emits
        from repro.service.client import ServiceClient

        with self._boot() as server:
            with ServiceClient(port=server.port) as client:
                dropped_before = dropped_emits()
                with inject(
                    "obs.emit", error=RuntimeError("sink down")
                ) as fault:
                    result = client.predict(
                        benchmark="rodinia.nn", scale=SCALE,
                        retries=0,
                    )
                assert result["total_cycles"] > 0
                # The fault actually fired (spans were emitted) and
                # every failed emit was swallowed into the counter.
                assert fault.fired > 0
                assert dropped_emits() - dropped_before == fault.fired
                # Sink restored: the next request still works and the
                # metrics surface is intact.
                assert client.predict(
                    benchmark="rodinia.nn", scale=SCALE
                )["total_cycles"] > 0
                assert "repro_stage_seconds" in client.metrics()

    def test_span_swallows_sink_errors_directly(self):
        from repro.obs import span

        with inject("obs.emit", error=RuntimeError("sink down")):
            with span("unit.test"):  # must not raise
                value = 41 + 1
        assert value == 42

    def test_boot_timeout_failure_names_the_thread(self):
        from repro.service.server import BackgroundServer

        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(RuntimeError, match="failed to start"):
                BackgroundServer(
                    engine=PredictionEngine(store=None),
                    port=port, boot_timeout=5.0,
                ).start()
        finally:
            blocker.close()
