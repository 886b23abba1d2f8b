"""Test-support instrumentation shipped with the production tree.

:mod:`repro.testing.faults` is the chaos harness: named fault points
compiled into the store and the serving plane, armed by tests (or an
operator drill) to prove that every failure mode — store I/O errors,
bit-flipped payloads, slow engine calls, connection resets, crashes
mid-write — degrades to a typed, counted, recoverable state.
:mod:`repro.testing.specs` holds executable specs: slow reference
versions that tests and ``repro bench`` check fast paths against.
"""

from repro.testing.faults import FAULTS, FaultInjector, SimulatedCrash, inject

__all__ = ["FAULTS", "FaultInjector", "SimulatedCrash", "inject"]
