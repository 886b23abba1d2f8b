"""Prediction-as-a-service: the serving layer over the RPPM engines.

The paper's pitch is *rapid* prediction; this package makes the
reproduction serve it: a long-lived engine keeps profiles, ILP tables
and epoch-cost memos resident (:mod:`~repro.service.engine`), an
asyncio single-flight coalescer runs each distinct computation as one
engine-thread job, however many identical requests wait on it
(:mod:`~repro.service.batching`; cached answers skip it), and a
stdlib HTTP/JSON front end
(:mod:`~repro.service.server`, ``python -m repro serve``) exposes
``/v1/predict``, ``/v1/compare``, ``/v1/sweep``, ``/v1/profiles`` and
``/healthz`` to clients (:mod:`~repro.service.client`) and the
closed-loop load generator (:mod:`~repro.service.loadgen`).
``--workers N`` runs N such services as a pre-fork fleet
(:mod:`~repro.service.fleet`).
"""

from repro.service.batching import Coalescer
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceProtocolError,
    ServiceRetryBudgetExceeded,
    ServiceTimeout,
)
from repro.service.engine import (
    PredictionEngine,
    ServiceRequest,
    error_budget,
    format_compare,
    format_prediction,
)
from repro.service.loadgen import run_loadgen, run_overload_scenarios
from repro.service.server import BackgroundServer, PredictionService

__all__ = [
    "BackgroundServer",
    "Coalescer",
    "PredictionEngine",
    "PredictionService",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceProtocolError",
    "ServiceRetryBudgetExceeded",
    "ServiceTimeout",
    "ServiceRequest",
    "error_budget",
    "format_compare",
    "format_prediction",
    "run_loadgen",
    "run_overload_scenarios",
]
