"""The Session cache plane: constructors, memos, health.

A :class:`~repro.core.session.Session` is the one surface callers use
to share trace expansions, ILP tables, branch statistics, segment
precompute and Eq.-1 memos across the pipeline.  These tests pin its
constructors, the cost-memo identity rules, the warning-free session
path, and the consolidated health snapshot.
"""

from __future__ import annotations

import pytest

from repro.arch.presets import table_iv_config
from repro.core.rppm import predict
from repro.core.session import Session
from repro.experiments.scaling import run_scaling_curve
from repro.experiments.store import ProfileStore
from repro.experiments.suites import BenchmarkRef, RunCache, build_workload
from repro.profiler import ilp_batch
from repro.profiler.profiler import profile_workload
from repro.service.engine import PredictionEngine
from repro.simulator.multicore import simulate
from tests.conftest import barrier_workload


@pytest.fixture()
def session(tmp_path):
    return Session(store=ProfileStore(tmp_path / "store"))


class TestConstructors:
    def test_from_store_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        s = Session.from_store()
        assert s.store is not None
        assert s.store.root == tmp_path / "cachedir"
        assert not s.store.strict  # must degrade, never abort
        assert s.health()["durable"] is True

    def test_from_store_explicit_root(self, tmp_path):
        s = Session.from_store(tmp_path / "explicit")
        assert s.store.root == tmp_path / "explicit"

    def test_ephemeral_has_no_store(self):
        s = Session.ephemeral()
        assert s.store is None
        assert s.traces.store is None
        assert s.ilp.store is None
        assert s.health()["durable"] is False

    def test_component_caches_share_the_store(self, session):
        assert session.traces.store is session.store
        assert session.ilp.store is session.store


class TestPipelineThreading:
    def test_profile_predict_simulate_through_one_session(self, session):
        spec = barrier_workload(seed=41)
        config = table_iv_config("base")
        profile = profile_workload(spec, session=session)
        pred = predict(profile, config, session=session)
        sim = simulate(spec, config, session=session)
        assert pred.total_cycles > 0 and sim.total_cycles > 0
        counters = session.counters
        assert counters["profiles"] == 1
        assert counters["predictions"] == 1
        assert counters["simulations"] == 1
        # One expansion served profiling and simulation.
        tstats = session.traces.stats()
        assert tstats["misses"] == 1 and tstats["hits"] == 1

    def test_session_results_match_sessionless(self):
        spec = barrier_workload(seed=43)
        config = table_iv_config("base")
        bare_profile = profile_workload(spec)
        with_session = profile_workload(spec, session=Session.ephemeral())
        assert with_session.to_dict() == bare_profile.to_dict()
        assert (
            predict(with_session, config, session=Session.ephemeral())
            .total_cycles
            == predict(bare_profile, config).total_cycles
        )

    def test_warm_session_profile_is_identical(self, session):
        spec = barrier_workload(seed=47)
        cold = profile_workload(spec, session=session)
        warm = profile_workload(spec, session=session)
        assert warm.to_dict() == cold.to_dict()
        assert session.prep.stats()["hits"] > 0
        assert session.branches.stats()["hits"] > 0

    def test_cost_cache_memoizes_per_profile_and_config(self, session):
        spec = barrier_workload(seed=53)
        profile = profile_workload(spec, session=session)
        base = table_iv_config("base")
        big = table_iv_config("biggest")
        a = session.cost_cache(profile, base)
        assert session.cost_cache(profile, base) is a
        assert session.cost_cache(profile, big) is not a
        # A different profile object under an explicit key replaces
        # the entry instead of serving a stale memo.
        reloaded = profile_workload(spec, session=Session.ephemeral())
        k1 = session.cost_cache(profile, base, key="pk")
        k2 = session.cost_cache(reloaded, base, key="pk")
        assert k2 is not k1

    def test_run_scaling_curve_accepts_session(self, session):
        curve = run_scaling_curve(
            "nn", thread_counts=(1, 2), scale=0.05, session=session
        )
        assert len(curve.points) == 2
        assert session.counters["profiles"] == 2


class TestRunCacheIntegration:
    def test_run_cache_builds_a_session(self, tmp_path):
        store = ProfileStore(tmp_path / "rc")
        rc = RunCache(scale=0.05, store=store)
        assert rc.session.store is store

    def test_run_cache_accepts_shared_session(self, session):
        rc = RunCache(scale=0.05, session=session)
        assert rc.session is session
        assert rc.store is session.store

    def test_run_cache_rejects_conflicting_store_and_session(
        self, session, tmp_path
    ):
        with pytest.raises(ValueError):
            RunCache(
                scale=0.05,
                store=ProfileStore(tmp_path / "other"),
                session=session,
            )


class TestDeprecatedShims:
    """The per-cache keywords are gone; the session path warns nothing."""

    def test_no_warning_on_session_path(self, recwarn):
        profile_workload(
            barrier_workload(seed=71), session=Session.ephemeral()
        )
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]


class TestHealth:
    def test_health_reports_every_cache(self, session):
        spec = barrier_workload(seed=73)
        profile = profile_workload(spec, session=session)
        predict(profile, table_iv_config("base"), session=session)
        health = session.health()
        assert health["trace_cache"]["misses"] == 1
        assert health["ilp_cache"]["misses"] >= 1
        assert health["branch_cache"]["misses"] >= 1
        assert health["prep_cache"]["misses"] >= 1
        assert health["cost_caches"] == 1
        assert health["counters"]["profiles"] == 1
        assert health["counters"]["predictions"] == 1
        assert "workloads" in health["expand_engine"]
        assert "pools" in health["ilp_kernel"]
        assert "dropped_writes" in health["store"]

    def test_counters_show_the_prediction_memo(self, session):
        """``predictions`` counts calls and ``schedules`` phase-2 runs:
        core counts share one run, another Table IV point does not."""
        profile = profile_workload(barrier_workload(seed=79), session=session)
        for point, cores in (("base", 4), ("base", 16), ("big", 4)):
            predict(profile, table_iv_config(point, cores=cores),
                    session=session)
        counters = session.health()["counters"]
        assert counters["predictions"] == 3
        assert counters["schedules"] == 2

    def test_ilp_memo_stays_bounded_across_scales(self, monkeypatch):
        """A long-lived session (``repro serve``'s) profiling one
        benchmark at many scales keeps at most ``MAX_ILP_TABLES`` ILP
        tables, and counts each lookup exactly once."""
        monkeypatch.setattr(ilp_batch, "MAX_ILP_TABLES", 8)
        session = Session.ephemeral()
        lookups = []
        get = session.ilp.get
        monkeypatch.setattr(
            session.ilp, "get", lambda key: lookups.append(key) or get(key)
        )
        for i in range(12):
            spec = build_workload(BenchmarkRef("rodinia", "nn"), 0.05 + i / 1e3)
            profile_workload(session.traces.get(spec), session=session)
            stats = session.health()["ilp_cache"]
            assert stats["entries"] <= 8
        assert stats["hits"] + stats["misses"] == len(lookups)
        assert stats["evictions"] > 0

    def test_healthz_counters_show_the_prediction_memo(self):
        """The same counters ride /healthz as engine.session.counters:
        a new core count on a warm (benchmark, point) is one more
        prediction and no schedule."""
        engine = PredictionEngine(store=None)
        engine.predict("rodinia.nn", "base", cores=4, scale=0.05)
        before = engine.health()["session"]["counters"]
        engine.predict("rodinia.nn", "base", cores=16, scale=0.05)
        after = engine.health()["session"]["counters"]
        assert before["schedules"] == 1
        assert after["predictions"] == before["predictions"] + 1
        assert after["schedules"] == before["schedules"]
