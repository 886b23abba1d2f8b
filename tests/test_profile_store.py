"""Tests for the on-disk profile store and the parallel run pipeline."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.arch.presets import table_iv_config
from repro.experiments.store import (
    SCHEMA_VERSION,
    ProfileStore,
    fingerprint,
)
from repro.experiments.suites import BenchmarkRef, RunCache


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def ref():
    return BenchmarkRef("rodinia", "nw")


@pytest.fixture(scope="module")
def base_cfg():
    return table_iv_config("base")


class TestFingerprint:
    def test_deterministic(self, base_cfg):
        assert fingerprint(base_cfg) == fingerprint(base_cfg)

    def test_distinguishes_configs(self, base_cfg):
        other = table_iv_config("base", cores=2)
        assert fingerprint(base_cfg) != fingerprint(other)

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_profile_key_components(self):
        base = ProfileStore.profile_key("x", 1, 1.0, 4096)
        assert ProfileStore.profile_key("x", 2, 1.0, 4096) != base
        assert ProfileStore.profile_key("x", 1, 2.0, 4096) != base
        assert ProfileStore.profile_key("x", 1, 1.0, 512) != base


class TestProfileRoundTrip:
    def test_save_load(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        store.save_profile(key, small_profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.to_dict() == small_profile.to_dict()

    def test_missing_is_none(self, store):
        assert store.load_profile("0" * 64) is None

    def test_corrupt_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        path.write_text("{ not json at all")
        assert store.load_profile(key) is None

    def test_truncated_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        path.write_bytes(path.read_bytes()[: 40])
        assert store.load_profile(key) is None

    def test_stale_version_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load_profile(key) is None


class TestRunCacheStore:
    SCALE = 0.15

    def test_second_cache_hits_disk(self, store, ref, monkeypatch):
        cache = RunCache(scale=self.SCALE, store=store)
        p1 = cache.profile(ref)

        # A fresh cache must satisfy the profile from disk without
        # recomputing.
        import repro.experiments.suites as suites_mod

        def boom(*a, **k):  # pragma: no cover - only on failure
            raise AssertionError("profile_workload should not run")

        monkeypatch.setattr(suites_mod, "profile_workload", boom)
        cache2 = RunCache(scale=self.SCALE, store=store)
        p2 = cache2.profile(ref)
        assert p2.to_dict() == p1.to_dict()

    def test_corrupt_entry_recomputes_and_heals(self, store, ref):
        cache = RunCache(scale=self.SCALE, store=store)
        p1 = cache.profile(ref)
        key = cache._profile_key(ref)
        store._path("profiles", key, "json").write_text("garbage")
        cache2 = RunCache(scale=self.SCALE, store=store)
        assert cache2.profile(ref).to_dict() == p1.to_dict()
        # The recompute re-saved a valid entry.
        assert store.load_profile(key) is not None

    def test_prediction_round_trip(self, store, ref, base_cfg):
        cache = RunCache(scale=self.SCALE, store=store)
        pred = cache.prediction(ref, base_cfg)
        cache2 = RunCache(scale=self.SCALE, store=store)
        pred2 = cache2.prediction(ref, base_cfg)
        assert pred2.total_cycles == pred.total_cycles
        assert pred2.workload == pred.workload


class TestPrefetch:
    SCALE = 0.15

    def test_serial_prefetch_fills_cache(self, base_cfg):
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        cache = RunCache(scale=self.SCALE)
        done = cache.prefetch(refs, configs=[base_cfg], workers=1)
        assert sorted(done) == sorted(r.label for r in refs)
        # Everything is now memoised; a second prefetch is a no-op.
        assert cache.prefetch(refs, configs=[base_cfg], workers=1) == []

    def test_parallel_matches_serial(self, base_cfg):
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        par = RunCache(scale=self.SCALE)
        done = par.prefetch(refs, configs=[base_cfg], workers=2)
        assert sorted(done) == sorted(r.label for r in refs)
        ser = RunCache(scale=self.SCALE)
        for r in refs:
            assert par.profile(r).to_dict() == ser.profile(r).to_dict()
            assert (
                par.prediction(r, base_cfg).total_cycles
                == ser.prediction(r, base_cfg).total_cycles
            )

    def test_parallel_persists_to_store(self, store, base_cfg):
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        cache = RunCache(scale=self.SCALE, store=store)
        cache.prefetch(refs, configs=[base_cfg], workers=2)
        for r in refs:
            assert store.load_profile(cache._profile_key(r)) is not None
        # The content-addressed ILP tables persisted too — written by
        # the workers themselves (atomic renames make that safe), so
        # cross-run table sharing works on the parallel path as well.
        assert list((store.root / "ilptables").glob("*.json"))

    def test_incremental_config_uses_cached_artifacts(
        self, store, base_cfg
    ):
        """Adding one design point to a warm store only pays for the
        new point: the worker reads the satisfied profile/results back
        from disk instead of recomputing (and the merged results match
        an all-serial run)."""
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        small_cfg = table_iv_config("small")
        warm = RunCache(scale=self.SCALE, store=store)
        warm.prefetch(refs, configs=[base_cfg], workers=2,
                      simulate=True)

        cache = RunCache(scale=self.SCALE, store=store)
        done = cache.prefetch(
            refs, configs=[base_cfg, small_cfg], workers=2,
            simulate=True,
        )
        assert sorted(done) == sorted(r.label for r in refs)
        serial = RunCache(scale=self.SCALE)
        for ref in refs:
            for cfg in (base_cfg, small_cfg):
                assert (
                    cache.prediction(ref, cfg).total_cycles
                    == serial.prediction(ref, cfg).total_cycles
                )
                assert (
                    cache.simulation(ref, cfg).total_cycles
                    == serial.simulation(ref, cfg).total_cycles
                )

    def test_warm_store_prefetch_is_noop(
        self, store, base_cfg, monkeypatch
    ):
        """A fresh process with a warm disk store must satisfy profiles,
        predictions AND simulations from disk — no recompute, no worker
        dispatch."""
        refs = [BenchmarkRef("rodinia", "nw")]
        cache = RunCache(scale=self.SCALE, store=store)
        cache.prefetch(
            refs, configs=[base_cfg], workers=1, simulate=True
        )

        import repro.experiments.suites as suites_mod

        def boom(*a, **k):  # pragma: no cover - only on failure
            raise AssertionError("warm prefetch must not recompute")

        monkeypatch.setattr(suites_mod, "profile_workload", boom)
        monkeypatch.setattr(suites_mod, "predict", boom)
        monkeypatch.setattr(suites_mod, "simulate", boom)
        cache2 = RunCache(scale=self.SCALE, store=store)
        assert cache2.prefetch(
            refs, configs=[base_cfg], workers=2, simulate=True
        ) == []
        for kind in ("prediction", "simulation"):
            key = cache2._result_key(kind, refs[0], base_cfg)
            assert key in cache2._memo

    def test_warm_store_prefetch_builds_no_spec(
        self, store, base_cfg, monkeypatch
    ):
        """Store keys take the seed from the benchmark reference, so a
        fully warm prefetch never builds a workload spec."""
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        RunCache(scale=self.SCALE, store=store).prefetch(
            refs, configs=[base_cfg], workers=1, simulate=True
        )

        import repro.experiments.suites as suites_mod

        def boom(*a, **k):  # pragma: no cover - only on failure
            raise AssertionError("a warm prefetch must build no spec")

        monkeypatch.setattr(suites_mod, "build_workload", boom)
        assert RunCache(scale=self.SCALE, store=store).prefetch(
            refs, configs=[base_cfg], workers=2, simulate=True
        ) == []


class TestStoreKeysUnchanged:
    """The keys every warm store was filled under: the recipe over the
    seed of the built spec, for every benchmark, scale and Table IV
    point."""

    @pytest.mark.parametrize("scale", [0.05, 0.5, 1.0])
    def test_keys_match_the_spec_seed_recipe(self, scale):
        from repro.arch.presets import TABLE_IV
        from repro.experiments.suites import build_workload, full_suite

        configs = [table_iv_config(name, cores=4) for name in TABLE_IV]
        cache = RunCache(scale=scale)
        for ref in full_suite():
            seed = build_workload(ref, scale).seed
            assert cache._profile_key(ref) == ProfileStore.profile_key(
                ref.label, seed, scale, 4096
            )
            for kind in ("prediction", "simulation"):
                for config in configs:
                    assert cache._result_key(
                        kind, ref, config
                    ) == ProfileStore.result_key(
                        kind, ref.label, seed, scale, config
                    )


class TestTraceKind:
    """The content-addressed ``traces`` kind behind the TraceCache."""

    def _spec(self, seed=3):
        from tests.conftest import barrier_workload
        return barrier_workload(seed=seed)

    def test_trace_key_tracks_spec_content(self):
        assert ProfileStore.trace_key(
            self._spec(seed=1)
        ) != ProfileStore.trace_key(self._spec(seed=2))
        assert ProfileStore.trace_key(
            self._spec(seed=1)
        ) == ProfileStore.trace_key(self._spec(seed=1))

    def test_save_load_roundtrip(self, store):
        from repro.workloads.engine import expand
        spec = self._spec()
        trace = expand(spec)
        key = ProfileStore.trace_key(spec)
        store.save_trace(key, trace)
        loaded = store.load_trace(key)
        assert loaded is not None
        assert loaded.content_digest() == trace.content_digest()

    def test_corrupt_trace_is_none(self, store):
        from repro.workloads.engine import expand
        spec = self._spec()
        key = ProfileStore.trace_key(spec)
        path = store.save_trace(key, expand(spec))
        path.write_bytes(b"garbage")
        assert store.load_trace(key) is None

    def test_stale_trace_is_none(self, store):
        # An arena written under another schema version: a counted
        # schema miss, never a load.
        from repro.workloads.engine import expand, pack_trace_arena
        spec = self._spec()
        key = ProfileStore.trace_key(spec)
        trace = expand(spec)
        path = store.save_trace(key, trace)
        path.write_bytes(pack_trace_arena(trace, meta={
            "schema": SCHEMA_VERSION + 1,
            "digest": trace.content_digest(),
        }))
        assert store.load_trace(key) is None
        assert store.health()["schema_stale"] == 1


class TestStatsAndPrune:
    def _populate(self, store, small_profile):
        from repro.workloads.engine import expand
        from tests.conftest import barrier_workload
        store.save_profile(
            ProfileStore.profile_key("a", 1, 1.0, 4096), small_profile
        )
        store.save_profile(
            ProfileStore.profile_key("b", 2, 1.0, 4096), small_profile
        )
        spec = barrier_workload(seed=4)
        store.save_trace(ProfileStore.trace_key(spec), expand(spec))

    def test_stats_counts_and_bytes(self, store, small_profile):
        assert store.stats() == {}
        self._populate(store, small_profile)
        stats = store.stats()
        assert stats["profiles"]["artifacts"] == 2
        assert stats["traces"]["artifacts"] == 1
        assert stats["traces"]["bytes"] > 0

    def test_prune_all(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune()
        assert removed["profiles"]["removed"] == 2
        assert removed["traces"]["removed"] == 1
        assert store.stats()["profiles"]["artifacts"] == 0

    def test_prune_kind_restricted(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(kinds=["traces"])
        assert list(removed) == ["traces"]
        assert store.stats()["profiles"]["artifacts"] == 2
        assert store.stats()["traces"]["artifacts"] == 0

    def test_prune_dry_run_removes_nothing(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(dry_run=True)
        assert removed["profiles"]["removed"] == 2
        assert store.stats()["profiles"]["artifacts"] == 2

    def test_prune_stale_only(self, store, small_profile):
        self._populate(store, small_profile)
        key = ProfileStore.profile_key("stale", 9, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        removed = store.prune(stale_only=True)
        assert removed["profiles"]["removed"] == 1
        assert store.load_profile(
            ProfileStore.profile_key("a", 1, 1.0, 4096)
        ) is not None

    def test_prune_age_filter_keeps_young(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(older_than_s=3600.0)
        assert all(v["removed"] == 0 for v in removed.values())

    def test_inventory_and_health_stat_no_artifact(
        self, store, small_profile, monkeypatch
    ):
        """``list_keys`` (the ``/v1/profiles`` inventory) and
        ``health()`` (every scrape) run on the serving event loop: they
        type entries from the directory listing, so their cost does
        not grow by a ``stat()`` per stored artifact."""
        for i in range(12):
            store.save_profile(
                ProfileStore.profile_key("bulk", i, 1.0, 4096),
                small_profile,
            )
        bad = store.save_profile(
            ProfileStore.profile_key("bad", 0, 1.0, 4096), small_profile
        )
        bad.write_text("garbage")
        assert store.load_profile(
            ProfileStore.profile_key("bad", 0, 1.0, 4096)
        ) is None  # one quarantined artifact too
        calls = []
        real = os.stat

        def counting_stat(path, *args, **kwargs):
            calls.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        keys = [store.list_keys(kind)
                for kind in ("profiles", "ilptables", "traces")]
        health = store.health()
        monkeypatch.undo()
        assert len(keys[0]) == 12 and keys[1] == keys[2] == []
        assert health["quarantine"] == {"profiles": 1}
        assert calls == []


HOUR = 3600.0

#: ``prune`` arguments -> the files of :meth:`TestPruneDryRun._fill` the
#: sweep removes.  No age guard on artifact kinds without
#: ``older_than_s`` (the future-dated artifact goes too); done markers
#: age against ``older_than_s or 0``; orphan leases and enqueue temps
#: must be at least ``max(older_than_s, 60)`` seconds old.
PRUNES = {
    "all": ({}, {"old", "young", "stale", "future", "orphan_tmp"}),
    "stale_only": ({"stale_only": True}, {"stale", "orphan_tmp"}),
    "older_than": ({"older_than_s": HOUR}, {"old", "stale", "orphan_tmp"}),
    "quarantine": ({"kinds": ["quarantine"]}, {"evidence"}),
    "queue": ({"kinds": ["queue"]}, {"done", "orphan_lease", "enqueue_tmp"}),
}


class TestPruneDryRun:
    @staticmethod
    def _file(path, age_s=0.0, data="{}"):
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            path.write_text(data)
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def _fill(self, store, small_profile) -> dict:
        """Every file of a store holding artifacts, quarantine evidence
        and queue debris, by name."""
        root = store.root

        def profile(label, age_s):
            key = ProfileStore.profile_key(label, 1, 1.0, 4096)
            return self._file(store.save_profile(key, small_profile), age_s)

        stale = profile("stale", 2 * HOUR)
        envelope = json.loads(stale.read_text())
        envelope["schema"] = SCHEMA_VERSION - 1
        stale.write_text(json.dumps(envelope))
        queue = root / "queue"
        return {
            "old": profile("old", 2 * HOUR),
            "young": profile("young", 0.0),
            "stale": self._file(stale, 2 * HOUR),
            "future": self._file(
                store.save_result("predictions", "f" * 64, {"cycles": 1}),
                -HOUR,
            ),
            "orphan_tmp": self._file(
                root / "profiles" / "k.json1a2b.tmp", 2 * HOUR, "partial"
            ),
            "evidence": self._file(
                root / "quarantine" / "profiles" / "bad.json", 2 * HOUR
            ),
            "done": self._file(queue / "done" / "aged.json", 2 * HOUR),
            "future_done": self._file(queue / "done" / "new.json", -HOUR),
            "orphan_lease": self._file(
                queue / "leases" / "dead.lease", 2 * HOUR
            ),
            "young_lease": self._file(queue / "leases" / "racing.lease"),
            "enqueue_tmp": self._file(
                queue / "jobs" / "p5-k.json.tmp-owner-1", 2 * HOUR
            ),
            "young_tmp": self._file(
                queue / "events" / "e.json.tmp-owner-2"
            ),
            "job": self._file(queue / "jobs" / "p5-live.json"),
            "live_lease": self._file(
                queue / "leases" / "live.lease", 2 * HOUR
            ),
        }

    @staticmethod
    def _sizes(store) -> dict:
        return {
            path: path.stat().st_size for path in store.root.rglob("*")
            if path.is_file() and path.name != "GENERATION"
        }

    @pytest.mark.parametrize("prune", sorted(PRUNES))
    def test_dry_run_reports_what_the_sweep_removes(
        self, store, small_profile, prune
    ):
        kwargs, removed = PRUNES[prune]
        files = self._fill(store, small_profile)
        before = self._sizes(store)
        assert set(before) == set(files.values())

        dry = store.prune(dry_run=True, **kwargs)
        assert self._sizes(store) == before
        assert store.generation() == 0

        real = store.prune(**kwargs)
        assert real == dry
        gone = set(before) - set(self._sizes(store))
        assert gone == {files[name] for name in removed}
        assert sum(e["removed"] for e in real.values()) == len(gone)
        assert sum(e["bytes"] for e in real.values()) == sum(
            before[path] for path in gone
        )
        # Queue debris is coordination state: removing it alone
        # invalidates nothing resident.
        assert store.generation() == (0 if prune == "queue" else 1)
