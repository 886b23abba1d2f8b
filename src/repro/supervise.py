"""One process supervisor for the batch and serving planes.

``repro work run --workers N`` and ``repro serve --workers N`` both
keep N worker processes alive under one parent, and both do it
through :class:`Supervisor`:

* children start from the ``spawn`` context — a fresh interpreter,
  safe in a parent that runs threads — one per numbered slot;
* a child that dies is respawned in its slot, unless respawn is off
  or the supervisor is stopping;
* :meth:`Supervisor.stop` sends SIGTERM to every live child (each
  finishes what it holds and exits), then SIGKILLs any child that
  outstays the timeout;
* :meth:`Supervisor.run` turns SIGINT/SIGTERM into a stop and restores
  the previous handlers before it returns.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import threading
import time
from typing import Callable, Dict, Optional, Sequence

from repro.obs import get_logger

_log = get_logger("repro.supervise")

#: How often the supervision loop looks for dead children.
POLL_S = 0.1


class Supervisor:
    """Keeps one spawn-context child process alive in each slot.

    Each child runs ``target(*args(slot))``.  ``target`` must be a
    module-level function (spawn pickles it by import path); ``args``
    runs in the parent at every (re)spawn, so a respawned child gets
    arguments built from the parent's current state.
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Callable[[int], Sequence[object]],
        slots: int,
        name: str,
        respawn: bool = True,
        stop_timeout_s: float = 30.0,
    ) -> None:
        self.target = target
        self.args = args
        self.slots = max(1, int(slots))
        self.name = name
        self.respawn = respawn
        self.stop_timeout_s = float(stop_timeout_s)
        #: Children respawned after dying.
        self.respawns = 0
        self.stopping = threading.Event()
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._ctx = multiprocessing.get_context("spawn")
        self._watcher: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn a child in every slot."""
        for slot in range(self.slots):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        proc = self._ctx.Process(
            target=self.target,
            args=tuple(self.args(slot)),
            name=f"{self.name}-{slot}",
        )
        proc.start()
        self._procs[slot] = proc

    def poll(self, respawn: bool = True) -> int:
        """One supervision step: respawn dead children; returns alive.

        ``respawn=False``, a supervisor built with ``respawn=False``
        and a stopping one all leave dead children dead.
        """
        alive = 0
        for slot, proc in list(self._procs.items()):
            if proc.is_alive():
                alive += 1
                continue
            if not (respawn and self.respawn) or self.stopping.is_set():
                continue
            _log.warning(
                "supervise.child_died",
                child=proc.name, exitcode=proc.exitcode,
            )
            self.respawns += 1
            self._spawn(slot)
            alive += 1
        return alive

    def kill(self, slot: int) -> Optional[int]:
        """SIGKILL the child in ``slot`` (chaos hook); returns its pid."""
        proc = self._procs.get(slot)
        if proc is None or not proc.is_alive():
            return None
        proc.kill()
        return proc.pid

    def watch(self) -> None:
        """Run the respawn loop on a daemon thread until :meth:`stop`."""
        if self._watcher is not None:
            return

        def _loop() -> None:
            while not self.stopping.wait(POLL_S):
                self.poll()

        self._watcher = threading.Thread(
            target=_loop, name=f"{self.name}-watch", daemon=True
        )
        self._watcher.start()

    def run(self, done: Optional[Callable[[], bool]] = None) -> None:
        """Supervise in this thread until stopped, signalled or done.

        Spawns the children unless :meth:`start` already did.  Once
        ``done()`` returns True the children's work is finished: the
        dead are no longer respawned, and the loop ends when none is
        alive.  It also ends when no child is alive and respawn is
        off.  SIGINT and SIGTERM stop it.  Either way the previous
        signal handlers are restored, then :meth:`stop` drains the
        children.
        """
        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError):  # not the main thread
                previous[sig] = signal.signal(
                    sig, lambda _signum, _frame: self.stopping.set()
                )
        try:
            if not self._procs:
                self.start()
            while not self.stopping.is_set():
                finished = done is not None and done()
                alive = self.poll(respawn=not finished)
                if not alive and (finished or not self.respawn):
                    break
                self.stopping.wait(POLL_S)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()

    def stop(self) -> None:
        """SIGTERM every live child, SIGKILL those still up after
        ``stop_timeout_s``.  Idempotent."""
        self.stopping.set()
        if self._watcher is not None:
            self._watcher.join(timeout=2.0)
            self._watcher = None
        procs = list(self._procs.values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + self.stop_timeout_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                _log.warning(
                    "supervise.kill_escalation",
                    child=proc.name, pid=proc.pid,
                )
                proc.kill()
                proc.join(timeout=5.0)
        self._procs.clear()


__all__ = ["POLL_S", "Supervisor"]
