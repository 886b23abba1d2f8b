"""Unit tests for RPPM's end-to-end prediction and the baselines."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.presets import TABLE_IV, table_iv_config
from repro.core.baselines import predict_crit, predict_main
from repro.core.cpi_stack import COMPONENTS
from repro.core.rppm import predict
from repro.core.session import Session
from repro.experiments.bench import QUICK_BENCHMARKS
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.generator import expand

from tests.conftest import (
    barrier_workload,
    make_epoch,
    single_thread_workload,
)


class TestPredictionStructure:
    def test_per_thread_results(self, small_profile, base_config):
        result = predict(small_profile, base_config)
        assert len(result.threads) == small_profile.n_threads
        assert result.n_instructions == small_profile.n_instructions

    def test_total_is_timeline_end(self, small_profile, base_config):
        result = predict(small_profile, base_config)
        assert result.total_cycles == pytest.approx(
            result.timeline.end_time
        )

    def test_sync_component_equals_idle(self, small_profile, base_config):
        result = predict(small_profile, base_config)
        for t in result.threads:
            assert t.stack.sync == pytest.approx(t.idle_cycles)
            assert t.total_cycles == t.active_cycles + t.idle_cycles

    def test_deterministic(self, small_profile, base_config):
        a = predict(small_profile, base_config)
        b = predict(small_profile, base_config)
        assert a.total_cycles == b.total_cycles

    def test_average_stack_instruction_count(self, small_profile,
                                             base_config):
        result = predict(small_profile, base_config)
        assert result.average_stack().instructions == (
            result.n_instructions
        )

    def test_workload_and_config_recorded(self, small_profile,
                                          base_config):
        result = predict(small_profile, base_config)
        assert result.workload == small_profile.name
        assert result.config == base_config.name


class TestSynchronizationPrediction:
    def test_imbalanced_barrier_creates_idle(self, base_config):
        b = WorkloadBuilder("imbalanced", 4, seed=7)
        b.spawn_workers()
        b.barrier(lambda tid: make_epoch(500 if tid else 4000))
        profile = profile_workload(expand(b.join_all()))
        result = predict(profile, base_config)
        workers = result.threads[1:]
        assert all(w.idle_cycles > 0 for w in workers)
        assert result.threads[0].idle_cycles < workers[0].idle_cycles

    def test_balanced_barrier_little_idle(self, base_config):
        profile = profile_workload(barrier_workload())
        result = predict(profile, base_config)
        for t in result.threads:
            assert t.idle_cycles < 0.25 * t.active_cycles

    def test_critical_path_dominates(self, base_config):
        """Overall time is at least any thread's active time."""
        profile = profile_workload(barrier_workload())
        result = predict(profile, base_config)
        assert result.total_cycles >= max(
            t.active_cycles for t in result.threads
        ) - 1e-9


class TestBaselines:
    def test_main_uses_thread_zero_only(self, small_profile, base_config):
        from repro.core.epoch_model import (
            EpochCostCache, predict_epoch_cycles,
        )
        cache = EpochCostCache(small_profile, base_config)
        t0 = small_profile.threads[0]
        expected = sum(
            predict_epoch_cycles(cache, t0, s)[0] for s in t0.segments
        )
        assert predict_main(small_profile, base_config) == pytest.approx(
            expected
        )

    def test_crit_at_least_main_when_main_lightest(self, base_config):
        """Parsec-style: main does bookkeeping, workers do the work."""
        b = WorkloadBuilder("parsec_like", 4, seed=5)
        b.spawn_workers(make_epoch(200, code_region=0))
        for tid in b.workers:
            b.compute(tid, make_epoch(5000))
        profile = profile_workload(expand(b.join_all()))
        assert predict_crit(profile, base_config) > predict_main(
            profile, base_config
        )

    def test_rppm_includes_sync_baselines_do_not(self, base_config):
        b = WorkloadBuilder("staggered", 3, seed=5)
        b.spawn_workers()
        # Alternate heavy thread across two barrier phases: every
        # phase's critical thread differs, so per-thread sums (CRIT)
        # miss the serialization.
        b.barrier({0: make_epoch(200), 1: make_epoch(4000),
                   2: make_epoch(200)})
        b.barrier({0: make_epoch(200), 1: make_epoch(200),
                   2: make_epoch(4000)})
        profile = profile_workload(expand(b.join_all()))
        rppm = predict(profile, base_config).total_cycles
        crit = predict_crit(profile, base_config)
        assert rppm > crit

    def test_single_thread_all_approaches_agree(self, base_config):
        profile = profile_workload(
            single_thread_workload(make_epoch(4000))
        )
        rppm = predict(profile, base_config).total_cycles
        assert predict_main(profile, base_config) == pytest.approx(rppm)
        assert predict_crit(profile, base_config) == pytest.approx(rppm)


class TestAgainstSimulation:
    """Coarse accuracy guards on the unit-level workloads."""

    def test_balanced_barrier_within_30pct(self, small_trace,
                                           small_profile, base_config):
        sim = simulate(small_trace, base_config).total_cycles
        pred = predict(small_profile, base_config).total_cycles
        assert pred == pytest.approx(sim, rel=0.30)

    def test_rppm_tracks_configuration_changes(self, small_trace,
                                               small_profile):
        """One profile, two machines: prediction follows simulation."""
        for point in ("smallest", "biggest"):
            cfg = table_iv_config(point)
            sim = simulate(small_trace, cfg).total_cycles
            pred = predict(small_profile, cfg).total_cycles
            assert pred == pytest.approx(sim, rel=0.35)

    def test_prediction_is_much_faster_than_simulation(
        self, small_trace, small_profile, base_config
    ):
        import time
        t0 = time.perf_counter()
        predict(small_profile, base_config)
        t_pred = time.perf_counter() - t0
        t0 = time.perf_counter()
        simulate(small_trace, base_config)
        t_sim = time.perf_counter() - t0
        assert t_pred < t_sim


def _sha256(records) -> str:
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


class TestGoldenDigest:
    """Pins every profiled and predicted number bit-exactly: a change to
    the profiler, Eq. 1 or the phase-2 replay that moves one counter,
    one histogram bin or one cycle fails here."""

    PROFILE_GOLDEN = (
        "fec7a75bab4b49a28eee1bb3919a6539"
        "00f9c9aa12ea9d0481a030a62934b3a4"
    )
    PREDICTION_GOLDEN = (
        "5ee362bbc5b47a029d5ee5f533f80299"
        "d7631e684b20b220a1b49880673912a7"
    )

    @pytest.fixture(scope="class")
    def profiles(self):
        session = Session.ephemeral()
        return [
            profile_workload(
                build_workload(BenchmarkRef("rodinia", name), 0.25),
                session=session,
            )
            for name in QUICK_BENCHMARKS
        ]

    @staticmethod
    def _record(result):
        return {
            "total_cycles": result.total_cycles,
            "threads": [
                [t.instructions, t.active_cycles, t.idle_cycles,
                 [getattr(t.stack, c) for c in COMPONENTS]]
                for t in result.threads
            ],
        }

    def test_profile_digest_pinned(self, profiles):
        digest = _sha256([profile.to_dict() for profile in profiles])
        assert digest == self.PROFILE_GOLDEN

    def test_prediction_digest_pinned(self, profiles):
        session = Session.ephemeral()
        records = [
            self._record(predict(
                profile, table_iv_config(point, cores=cores),
                session=session,
            ))
            for profile in profiles
            for point in ("smallest", "biggest")
            for cores in (1, 4)
        ]
        assert _sha256(records) == self.PREDICTION_GOLDEN


def test_repredicts_perfbench_validate_pins():
    """Every RPPM cycle count pinned in the repository benchmark's
    validate grid (26 benchmarks x 5 Table IV points, Parsec's lock,
    condition-variable and pipeline idioms included) re-predicts
    exactly.  The pin file is only read."""
    pins_path = (
        Path(__file__).resolve().parent.parent
        / "perfbench" / "digests" / "validate.json"
    )
    pins = json.loads(pins_path.read_text())
    configs = {
        point: table_iv_config(point, cores=pins["cores"])
        for point in TABLE_IV
    }
    session = Session.ephemeral()
    mismatches = []
    checked = 0
    for label, grid in sorted(pins["grid"].items()):
        suite, name = label.split(".", 1)
        profile = profile_workload(
            build_workload(BenchmarkRef(suite, name), pins["scale"]),
            session=session,
        )
        for point, cycles in grid.items():
            predicted = predict(profile, configs[point], session=session)
            checked += 1
            if float(predicted.total_cycles) != cycles[0]:
                mismatches.append((label, point))
    assert checked == 130
    assert mismatches == []
