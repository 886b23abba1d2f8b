"""Tests for the one process supervisor (:mod:`repro.supervise`).

``repro work run`` and ``repro serve --workers N`` both run their
children through :class:`~repro.supervise.Supervisor`; these tests pin
its contract on trivial children: a dead child is respawned in its
slot, nothing is respawned when respawn is off or the supervisor is
stopping, a child that ignores SIGTERM is SIGKILLed after the
timeout, and ``run`` restores the signal handlers it replaced.
"""

import signal
import time
from pathlib import Path

from repro.supervise import Supervisor


def _sleep(seconds):
    time.sleep(seconds)


def _ignore_sigterm(ready_path):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    Path(ready_path).touch()
    time.sleep(60)


def _sleeper(seconds, slots=1, **kwargs):
    return Supervisor(
        _sleep, lambda slot: (seconds,), slots=slots, name="test-sleep",
        **kwargs,
    )


def _wait_dead(proc, timeout_s=10.0):
    proc.join(timeout=timeout_s)
    assert not proc.is_alive()


class TestSupervisor:
    def test_dead_child_is_respawned_in_its_slot(self):
        sup = _sleeper(60, slots=2, stop_timeout_s=5.0)
        sup.start()
        try:
            first, victim = sup._procs[0], sup._procs[1]
            assert sup.kill(1) == victim.pid
            _wait_dead(victim)
            assert sup.poll() == 2
            assert sup.respawns == 1
            assert sup._procs[0] is first
            assert sup._procs[1] is not victim
            assert sup._procs[1].is_alive()
            children = list(sup._procs.values())
        finally:
            sup.stop()
        assert not any(proc.is_alive() for proc in children)

    def test_no_respawn_when_off_or_stopping(self):
        off = _sleeper(0, respawn=False)
        off.start()
        _wait_dead(off._procs[0])
        assert off.poll() == 0
        sup = _sleeper(0)
        sup.start()
        _wait_dead(sup._procs[0])
        assert sup.poll(respawn=False) == 0
        sup.stopping.set()
        assert sup.poll() == 0
        assert off.respawns == sup.respawns == 0
        off.stop()
        sup.stop()

    def test_sigterm_ignoring_child_is_killed_after_timeout(
        self, tmp_path
    ):
        ready = tmp_path / "ready"
        sup = Supervisor(
            _ignore_sigterm, lambda slot: (str(ready),), slots=1,
            name="test-stubborn", stop_timeout_s=0.5,
        )
        sup.start()
        proc = sup._procs[0]
        deadline = time.monotonic() + 10.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "child never installed SIG_IGN"
        start = time.monotonic()
        sup.stop()
        elapsed = time.monotonic() - start
        assert not proc.is_alive()
        assert proc.exitcode == -signal.SIGKILL
        assert 0.5 <= elapsed < 5.0

    def test_run_returns_when_done_and_restores_signal_handlers(self):
        before = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        # Children that finish their work exit; once ``done`` holds
        # they are not respawned and ``run`` returns.
        sup = _sleeper(0, slots=2)
        sup.start()
        children = list(sup._procs.values())
        sup.run(done=lambda: True)
        assert sup.respawns == 0
        assert not any(proc.is_alive() for proc in children)
        for sig, handler in before.items():
            assert signal.getsignal(sig) is handler
