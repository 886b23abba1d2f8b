"""Executable specs: slow, obviously-right versions of production code.

Each function here is what a production fast path must equal, kept so
that tests and ``repro bench`` can check the fast path against it.

:func:`fingerprint_reference` and :func:`trace_key_reference` are the
artifact store's original key derivation: canonicalize the whole
structure into JSON-ready values, then ``json.dumps`` it.
:func:`repro.experiments.store.fingerprint` writes the same bytes in
one pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

from repro.experiments.store import SCHEMA_VERSION
from repro.workloads.spec import WorkloadSpec


def _canonical(obj: Any) -> Any:
    """JSON-serializable canonical form of configs/keys (deterministic)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def fingerprint_reference(obj: Any) -> str:
    """Stable SHA-256 hex digest of an arbitrary key structure."""
    payload = json.dumps(
        _canonical(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trace_key_reference(spec: WorkloadSpec) -> str:
    """Content address of an expanded trace: the full spec."""
    return fingerprint_reference({
        "kind": "trace",
        "schema": SCHEMA_VERSION,
        "spec": _canonical(spec),
    })
