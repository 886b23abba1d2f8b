"""The one event-count primitive, :class:`repro.counters.Counters`."""

import sys
import threading

from repro.counters import Counters


class TestCounters:
    def test_declared_names_start_at_zero(self):
        assert Counters("a", "b").snapshot() == {"a": 0, "b": 0}

    def test_bump_and_add(self):
        counters = Counters("a")
        counters.bump("a")
        counters.bump("b", by=3)
        counters.add(a=2, c=5)
        assert counters.snapshot() == {"a": 3, "b": 3, "c": 5}

    def test_snapshot_is_a_copy(self):
        counters = Counters("a")
        counters.snapshot()["a"] = 99
        assert counters.snapshot() == {"a": 0}

    def test_no_update_is_lost_under_contention(self):
        # A switch interval of 1 us preempts threads between the read
        # and the write of an unlocked increment, so a lost update
        # would show.
        n_threads, rounds = 8, 20000
        counters = Counters()
        start = threading.Barrier(n_threads, timeout=30)

        def hammer() -> None:
            start.wait()
            for _ in range(rounds):
                counters.bump("bumped")
                counters.add(added=2, bumped=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counters.snapshot() == {
            "bumped": 2 * n_threads * rounds,
            "added": 2 * n_threads * rounds,
        }
