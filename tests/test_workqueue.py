"""Tests for the crash-safe work queue (:mod:`repro.experiments.workqueue`).

The lease lifecycle is the robustness substance: exactly one claimer
can win a key however many race it, an expired lease is always
re-claimable, a heartbeating owner can never be stolen from, and a
zombie owner (one whose lease was taken over) can never publish a
completion over its successor.  Alongside the lifecycle: idempotent
execution through the Worker loop, the fleet's warm-fill enqueue, the
quarantine of job files that no longer parse, the effect audit over
the event logs, the prefetch fallback, and the store durability
counters.
"""

import json
import os
import threading
import time

import pytest

from repro.experiments.store import ProfileStore
from repro.experiments.suites import BenchmarkRef
from repro.experiments.workqueue import (
    Job,
    JobExecutor,
    WorkQueue,
    Worker,
    effect_audit,
    plan_suite_jobs,
)
from repro.testing.faults import FAULTS, SimulatedCrash, inject


@pytest.fixture(autouse=True)
def _reset_faults():
    yield
    FAULTS.reset()


def make_queue(tmp_path, owner="w1", lease_s=5.0, heartbeat_s=None):
    return WorkQueue(
        tmp_path, lease_s=lease_s, heartbeat_s=heartbeat_s, owner=owner
    )


def profile_job(benchmark="hotspot", chunk=4096):
    return Job(kind="profile", suite="rodinia", benchmark=benchmark,
               chunk=chunk)


def expire(lease, by_s=3600.0):
    """Backdate a lease's mtime so it reads as long-expired."""
    past = time.time() - by_s
    os.utime(lease.path, (past, past))


class TestJob:
    def test_key_is_deterministic_content_address(self):
        a, b = profile_job(), profile_job()
        assert a.key == b.key
        assert a.key != profile_job(chunk=8192).key
        assert a.key != Job(
            kind="predict", suite="rodinia", benchmark="hotspot",
            config="base",
        ).key

    def test_payload_round_trip(self):
        job = Job(kind="simulate", suite="parsec", benchmark="canneal",
                  scale=0.5, chunk=2048, config="big", cores=8)
        assert Job.from_payload(job.to_payload()) == job

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            Job(kind="teleport", suite="rodinia", benchmark="nn")

    def test_predict_requires_config(self):
        with pytest.raises(ValueError, match="need a config"):
            Job(kind="predict", suite="rodinia", benchmark="nn")

    def test_profiles_claim_before_predictions(self, tmp_path):
        queue = make_queue(tmp_path)
        jobs = plan_suite_jobs(
            [type("R", (), {"suite": "rodinia", "name": "nn"})()],
            configs=["base"], simulate=True,
        )
        queue.enqueue_many(jobs)
        kinds = [
            queue._read_job(p).kind for p in queue._pending_paths()
        ]
        assert kinds[0] == "profile"
        assert sorted(kinds[1:]) == ["predict", "simulate"]


class TestEnqueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.enqueue(profile_job()) is True
        assert queue.enqueue(profile_job()) is False
        assert queue.pending() == 1

    def test_done_marker_blocks_reenqueue(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        queue.complete(lease, computed=True)
        assert queue.enqueue(profile_job()) is False
        assert queue.pending() == 0

    def test_crash_mid_enqueue_publishes_no_job(self, tmp_path):
        queue = make_queue(tmp_path)
        with inject("store.crash", error=SimulatedCrash()):
            with pytest.raises(SimulatedCrash):
                queue.enqueue(profile_job())
        assert queue.pending() == 0
        (orphan,) = queue.jobs_dir.glob("*.tmp*")
        # The queue prune leaves a temp that may still be renamed...
        store = ProfileStore(tmp_path)
        assert store.prune_queue()["queue/tmp"]["removed"] == 0
        # ...and sweeps it once past the guard age.
        past = time.time() - 3600.0
        os.utime(orphan, (past, past))
        assert store.prune_queue()["queue/tmp"]["removed"] == 1
        assert not orphan.exists()
        assert queue.enqueue(profile_job()) is True
        assert queue.pending() == 1


class TestLeaseLifecycle:
    def test_second_claimer_loses(self, tmp_path):
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        assert q1.claim_next() is not None
        assert q2.claim_next() is None

    def test_claim_race_exactly_one_winner(self, tmp_path):
        """Property: N claimers x M rounds, one O_EXCL winner each.

        The ``queue.claim`` fault point widens the decide-to-create
        window far past anything a real fleet would produce.
        """
        rounds, claimers = 12, 6
        with inject("queue.claim", delay_s=0.003):
            for rnd in range(rounds):
                job = profile_job(chunk=4096 + rnd)
                make_queue(tmp_path, "enq").enqueue(job)
                winners = []
                lock = threading.Lock()
                start = threading.Barrier(claimers)

                def claim(i):
                    queue = make_queue(tmp_path, f"racer{i}")
                    start.wait()
                    lease = queue.claim_next()
                    if lease is not None:
                        with lock:
                            winners.append(lease)

                threads = [
                    threading.Thread(target=claim, args=(i,))
                    for i in range(claimers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(winners) == 1, f"round {rnd}"
                make_queue(tmp_path, "enq").complete(
                    winners[0], computed=False
                )

    def test_expired_lease_always_reclaimable(self, tmp_path):
        q1 = make_queue(tmp_path, "dead")
        q2 = make_queue(tmp_path, "alive")
        for rnd in range(8):
            job = profile_job(chunk=4096 + rnd)
            q1.enqueue(job)
            lease = q1.claim_next()
            expire(lease)
            stolen = q2.claim_next()
            assert stolen is not None
            assert stolen.owner == "alive"
            q2.complete(stolen, computed=False)

    def test_live_lease_not_stealable(self, tmp_path):
        q1 = make_queue(tmp_path, "owner", lease_s=5.0)
        q2 = make_queue(tmp_path, "thief", lease_s=5.0)
        q1.enqueue(profile_job())
        q1.claim_next()
        assert q2.claim_next() is None

    def test_heartbeat_prevents_takeover(self, tmp_path):
        """An owner renewing within the lease can never be stolen."""
        q1 = make_queue(tmp_path, "owner", lease_s=0.2)
        q2 = make_queue(tmp_path, "thief", lease_s=0.2)
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        deadline = time.monotonic() + 0.8  # four lease periods
        while time.monotonic() < deadline:
            assert q1.heartbeat(lease) is True
            assert q2.claim_next() is None
            time.sleep(0.05)
        assert not lease.lost
        assert q1.complete(lease, computed=True) is True

    def test_zombie_never_publishes_over_successor(self, tmp_path):
        q1 = make_queue(tmp_path, "zombie")
        q2 = make_queue(tmp_path, "survivor")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        expire(lease)
        stolen = q2.claim_next()
        assert stolen is not None
        # The zombie learns through its next heartbeat...
        assert q1.heartbeat(lease) is False
        assert lease.lost
        # ...and its completion is an abandon, not a publication.
        assert q1.complete(lease, computed=True) is False
        assert q1.done_count() == 0
        assert q2.complete(stolen, computed=True) is True
        assert q2.done_count() == 1
        # The abandon also must not have unlinked the survivor's
        # artifacts: exactly one done marker, job gone.
        assert q2.pending() == 0

    def test_heartbeat_fault_abandons(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        with inject("queue.heartbeat", error=OSError("disk gone")):
            assert queue.heartbeat(lease) is False
        assert lease.lost
        assert queue.complete(lease, computed=True) is False

    def test_takeover_fault_backs_off(self, tmp_path):
        """A fault in the steal window aborts the takeover cleanly."""
        q1 = make_queue(tmp_path, "dead")
        q2 = make_queue(tmp_path, "alive")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        expire(lease)
        with inject("queue.lease", error=OSError("io"), times=1):
            assert q2.claim_next() is None
        # Next scan (fault exhausted) succeeds.
        assert q2.claim_next() is not None

    def test_release_returns_job_to_pool(self, tmp_path):
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        q1.release(lease)
        assert q2.claim_next() is not None

    def test_duplicate_completion_counted_not_trusted(self, tmp_path):
        """Two computed completions of one key = 1 duplicate effect."""
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        l1 = q1.claim_next()
        expire(l1)
        l2 = q2.claim_next()
        # Force the zombie to miss the takeover (no heartbeat): both
        # publish "computed" completions.
        l1.lost = False
        q2.complete(l2, computed=True)
        q1.complete(l1, computed=True)
        audit = effect_audit(q1)
        assert audit["completions"] == 2
        assert audit["duplicate_completions"] == 1
        assert audit["duplicate_effects"] == 1
        assert audit["lost_jobs"] == 0


class TestWorker:
    def test_worker_drains_and_is_idempotent(self, tmp_path):
        store = ProfileStore(tmp_path, strict=False)
        refs = [type("R", (), {"suite": "rodinia", "name": "nn"})()]
        jobs = plan_suite_jobs(refs, scale=0.05, configs=["base"])
        queue = make_queue(tmp_path)
        assert queue.enqueue_many(jobs) == len(jobs)
        worker = Worker(queue, executor=JobExecutor(store))
        assert worker.run() == len(jobs)
        assert queue.drained()
        counters = queue.counters.snapshot()
        first_completed = counters["completed"]
        assert first_completed >= len(jobs)
        assert store.load_profile(
            worker.executor._run_cache(0.05, 4096)._profile_key(
                BenchmarkRef("rodinia", "nn")
            )
        ) is not None

    def test_worker_holds_lease_across_slow_job(self, tmp_path):
        """The heartbeat thread outlives a job longer than the lease."""

        class SlowExecutor:
            def execute(self, job):
                time.sleep(0.5)
                return True

        queue = make_queue(tmp_path, lease_s=0.2, heartbeat_s=0.05)
        thief = make_queue(tmp_path, "thief", lease_s=0.2)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        worker = Worker(queue, executor=SlowExecutor())
        stolen = []
        done = threading.Event()

        def prowl():
            while not done.wait(0.05):
                got = thief.claim_next()
                if got is not None:
                    stolen.append(got)

        prowler = threading.Thread(target=prowl)
        prowler.start()
        try:
            assert worker.run_one(lease) is True
        finally:
            done.set()
            prowler.join()
        assert not stolen
        assert queue.done_count() == 1

    def test_failed_execution_releases_the_job(self, tmp_path):
        class FailingExecutor:
            calls = 0

            def execute(self, job):
                FailingExecutor.calls += 1
                raise RuntimeError("boom")

        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        worker = Worker(queue, executor=FailingExecutor())
        assert worker.run_one(lease) is False
        assert queue.done_count() == 0
        # The job is claimable again — not lost, not done.
        assert queue.claim_next() is not None


class TestFleetWarmFill:
    def test_enqueues_the_presets_the_engines_store_lacks(
        self, tmp_path, small_profile
    ):
        """Keys and chunk come from the worker's engine: a preset
        stored under ``engine.profile_key`` is skipped, the others are
        enqueued once, with the engine's chunk."""
        from repro.service.engine import PredictionEngine
        from repro.service.fleet import _warm_fill

        store = ProfileStore(tmp_path, strict=False)
        engine = PredictionEngine(store=store, chunk=512)
        store.save_profile(
            engine.profile_key(BenchmarkRef("rodinia", "nn"), 0.5),
            small_profile,
        )
        presets = (("rodinia.nn", 0.5), ("rodinia.bfs", 0.25), ("nn", 0.25))
        assert _warm_fill(engine, presets) == 2
        assert _warm_fill(engine, presets) == 0
        queue = make_queue(tmp_path)
        assert queue.pending() == 2
        assert {queue.claim_next().job for _ in range(2)} == {
            Job(kind="profile", suite="rodinia", benchmark=name,
                scale=0.25, chunk=512)
            for name in ("bfs", "nn")
        }


class TestQuarantine:
    """A job file no worker can parse must leave the pending set, or a
    draining worker waits for it forever."""

    @pytest.mark.parametrize("body", [
        # Written under another QUEUE_SCHEMA.
        json.dumps({"schema": 0, "job": {
            "kind": "profile", "suite": "rodinia", "benchmark": "nn",
        }}),
        # A kind this build does not run (e.g. the retired
        # bench-baseline).
        json.dumps({"schema": 1, "job": {
            "kind": "bench-baseline", "suite": "rodinia",
            "benchmark": "nn",
        }}),
        # Corrupt JSON.
        '{"schema": 1, "job": {',
        # A benchmark this build does not know (renamed, hand-written).
        json.dumps({"schema": 1, "job": {
            "kind": "profile", "suite": "rodinia", "benchmark": "nbody",
        }}),
        # A Table IV point this build does not know.
        json.dumps({"schema": 1, "job": {
            "kind": "predict", "suite": "rodinia", "benchmark": "nn",
            "config": "huge",
        }}),
    ], ids=["stale-schema", "unknown-kind", "corrupt-json",
            "unknown-benchmark", "unknown-point"])
    def test_draining_worker_quarantines_and_exits(self, tmp_path, body):
        queue = make_queue(tmp_path)
        queue.jobs_dir.mkdir(parents=True)
        bad = queue.jobs_dir / "p0-unreadable.json"
        bad.write_text(body)
        before = queue.counters.snapshot()["quarantined"]

        class NeverRuns:
            def execute(self, job):  # pragma: no cover - only on failure
                raise AssertionError("an unreadable job was executed")

        worker = Worker(queue, executor=NeverRuns(), drain=True)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "draining worker never exited"
        assert queue.pending() == 0
        assert (queue.quarantine_dir / bad.name).read_text() == body
        assert queue.quarantine_dir == tmp_path / "quarantine" / "jobs"
        assert queue.stats()["quarantined"] == 1
        assert queue.counters.snapshot()["quarantined"] == before + 1
        # The claim's lease went with it.
        assert queue.live_leases() == {}


class TestObservability:
    def test_work_metrics_exported(self, tmp_path):
        from repro.obs import REGISTRY

        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        queue.complete(queue.claim_next(), computed=True)
        text = REGISTRY.render()
        assert "repro_work_claimed" in text
        assert "repro_work_completed" in text
        assert "repro_work_lease_age_seconds" in text

    def test_event_log_survives_torn_tail(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        queue.complete(queue.claim_next(), computed=True)
        log = next(queue.events_dir.glob("*.jsonl"))
        with open(log, "ab") as fh:
            fh.write(b'{"event": "cla')  # a SIGKILL'd writer's tail
        events = queue.read_events()
        assert [e["event"] for e in events] == ["enqueue", "claim",
                                                "complete"]


class TestPrefetchFallbacks:
    def test_broken_pool_degrades_to_serial(self, tmp_path, monkeypatch):
        """A dead worker pool must not kill the report."""
        from concurrent.futures.process import BrokenProcessPool

        import repro.experiments.suites as suites
        from repro.experiments.suites import BenchmarkRef, RunCache

        class ExplodingPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

        monkeypatch.setattr(
            suites, "ProcessPoolExecutor", ExplodingPool
        )
        cache = RunCache(
            scale=0.05, store=ProfileStore(tmp_path, strict=False)
        )
        refs = [BenchmarkRef("rodinia", "nn"),
                BenchmarkRef("rodinia", "bfs")]
        done = cache.prefetch(refs, workers=2)
        assert sorted(done) == ["rodinia.bfs", "rodinia.nn"]
        for ref in refs:
            assert cache._profile_key(ref) in cache._memo


class TestWorkFloors:
    """``check_work`` floor logic over synthetic records (the real
    scenarios run in the CI work-smoke job via ``run_work_bench``)."""

    @staticmethod
    def good_record():
        return {
            "schema": 1,
            "mode": "quick",
            "scenarios": {
                "kill_mid_lease": {
                    "killed": True, "reclaim_lease_periods": 1.0,
                    "lost_jobs": 0, "duplicate_effects": 0,
                    "report_identical": 1, "survivors_hung": 0,
                },
                "stale_takeover": {
                    "takeover_claims": 1, "zombie_published": 0,
                    "lost_jobs": 0,
                },
                "duplicate_claim_race": {
                    "max_winners": 1, "min_winners": 1,
                },
            },
        }

    def test_clean_record_clears_floors(self):
        from repro.experiments.bench import check_work

        assert check_work(self.good_record()) == []

    @pytest.mark.parametrize("scenario,field,bad,needle", [
        ("kill_mid_lease", "reclaim_lease_periods", 5.0, "re-claimed"),
        ("kill_mid_lease", "lost_jobs", 1, "lost"),
        ("kill_mid_lease", "duplicate_effects", 1, "idempotence"),
        ("kill_mid_lease", "report_identical", 0, "bit-identical"),
        ("kill_mid_lease", "survivors_hung", 1, "drain"),
        ("kill_mid_lease", "killed", False, "never killed"),
        ("stale_takeover", "zombie_published", 1, "zombie"),
        ("stale_takeover", "takeover_claims", 0, "takeover"),
        ("duplicate_claim_race", "max_winners", 2, "one O_EXCL"),
    ])
    def test_each_floor_trips(self, scenario, field, bad, needle):
        from repro.experiments.bench import check_work

        record = self.good_record()
        record["scenarios"][scenario][field] = bad
        failures = check_work(record)
        assert failures, f"{scenario}.{field}={bad} slipped through"
        assert any(needle in f for f in failures)


class TestStoreDurability:
    def test_fsync_failure_counts_io_error_but_publishes(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.store as store_mod

        def broken_fsync(fd):
            raise OSError("fsync unsupported")

        monkeypatch.setattr(store_mod.os, "fsync", broken_fsync)
        store = ProfileStore(tmp_path, strict=True)
        store.save_result("results", "k" * 16, {"x": 1})
        # The artifact is published (atomicity intact)...
        assert store.load_result("results", "k" * 16) == {"x": 1}
        # ...but the lost durability is accounted.
        assert store.counters.snapshot()["io_errors"] >= 1

    def test_fsync_happy_path_counts_nothing(self, tmp_path):
        store = ProfileStore(tmp_path, strict=True)
        store.save_result("results", "h" * 16, {"x": 2})
        assert store.counters.snapshot()["io_errors"] == 0
        assert store.counters.snapshot()["writes"] == 1
