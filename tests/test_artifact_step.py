"""One load-or-compute step for stored profiles, predictions and
simulations, shared by the batch and serving planes.

:meth:`repro.core.session.Session.artifact` is the only code that
reads or publishes those artifacts; ``RunCache`` (``repro report``,
the work queue) and ``PredictionEngine`` (``repro serve``, ``repro
compare``) each keep a memo in front of it.  So a simulation one plane
stored answers the other, and a fleet simulates a point once.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
import repro.service.engine as engine_mod
from repro.arch.presets import table_iv_config
from repro.core.session import Session
from repro.experiments.store import ProfileStore
from repro.experiments.suites import BenchmarkRef, RunCache
from repro.service.engine import PredictionEngine

PACKAGE = Path(repro.__file__).parent
#: The step itself and the store whose methods it calls.
OWNERS = {
    PACKAGE / "core" / "session.py",
    PACKAGE / "experiments" / "store.py",
}
#: Store methods only the owners may call, on any object.
STORE_METHODS = {"load_profile", "save_profile", "load_result", "save_result"}

SCALE = 0.1
NN = BenchmarkRef("rodinia", "nn")


def _calls(tree):
    """``(line, method)`` of every call of a store method in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STORE_METHODS
        ):
            yield node.lineno, node.func.attr


class TestOneStep:
    def test_only_the_session_calls_the_store_methods(self):
        offenders = [
            f"{path.relative_to(PACKAGE)}:{line}: .{method}()"
            for path in sorted(PACKAGE.rglob("*.py")) if path not in OWNERS
            for line, method in sorted(_calls(ast.parse(path.read_text())))
        ]
        assert not offenders, (
            "reach stored artifacts through Session.artifact:\n"
            + "\n".join(offenders)
        )

    def test_the_guard_sees_the_step_itself(self):
        source = (PACKAGE / "core" / "session.py").read_text()
        assert {m for _, m in _calls(ast.parse(source))} == STORE_METHODS


class TestSessionArtifact:
    def test_computes_publishes_then_loads(self, tmp_path):
        session = Session(store=ProfileStore(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return {"cycles": 7}

        assert session.artifact("simulations", "k" * 64, compute) == (
            {"cycles": 7}, True
        )
        assert session.artifact("simulations", "k" * 64, compute) == (
            {"cycles": 7}, False
        )
        assert len(calls) == 1
        assert session.store.counters.snapshot()["writes"] == 1

    def test_profiles_round_trip_as_json(self, tmp_path, small_profile):
        session = Session(store=ProfileStore(tmp_path))
        session.artifact("profiles", "p" * 64, lambda: small_profile)
        loaded, computed = session.artifact("profiles", "p" * 64)
        assert not computed
        assert loaded.to_dict() == small_profile.to_dict()
        assert (tmp_path / "profiles" / f"{'p' * 64}.json").exists()

    def test_a_miss_without_compute_is_none(self, tmp_path):
        session = Session(store=ProfileStore(tmp_path))
        assert session.artifact("predictions", "m" * 64) == (None, False)

    def test_without_a_store_every_call_computes(self):
        session = Session.ephemeral()
        assert session.artifact("simulations", "k", lambda: 3) == (3, True)
        assert session.artifact("simulations", "k", lambda: 4) == (4, True)
        assert session.artifact("simulations", "k") == (None, False)


def _no_simulation(*args, **kwargs):  # pragma: no cover - only on failure
    raise AssertionError("the stored simulation must be read, not rerun")


class TestReuseAcrossPlanes:
    def test_compare_reads_the_simulation_report_stored(
        self, tmp_path, monkeypatch
    ):
        expected = PredictionEngine().compare("rodinia.nn", scale=SCALE)
        store = ProfileStore(tmp_path / "store")
        # What ``repro report figure4`` stores for one benchmark.
        RunCache(scale=SCALE, store=store).prefetch(
            [NN], configs=(table_iv_config("base"),), workers=1,
            simulate=True,
        )
        monkeypatch.setattr(engine_mod, "simulate", _no_simulation)
        engine = PredictionEngine(store=store)
        assert engine.compare("rodinia.nn", scale=SCALE) == expected
        health = engine.health()
        assert health["simulations_run"] == 0
        assert health["profiles_from_store"] == 1
        assert health["profiles_built"] == 0

    def test_two_engines_simulate_a_new_point_once(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        first, second = PredictionEngine(store=store), PredictionEngine(
            store=store
        )
        answer = first.compare("rodinia.nn", config="small", scale=SCALE)
        assert first.health()["simulations_run"] == 1
        assert second.compare(
            "rodinia.nn", config="small", scale=SCALE
        ) == answer
        assert second.health()["simulations_run"] == 0
        assert second.health()["profiles_from_store"] == 1

    def test_the_engine_stores_under_the_run_cache_key(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        PredictionEngine(store=store).compare("rodinia.nn", scale=SCALE)
        cache = RunCache(scale=SCALE, store=store)
        key = cache._result_key("simulation", NN, table_iv_config("base"))
        assert store.list_keys("simulations") == [key]
        assert store.list_keys("profiles") == [cache._profile_key(NN)]
        assert store.list_keys("predictions") == []
