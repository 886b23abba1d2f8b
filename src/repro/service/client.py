"""Thin synchronous client for the prediction service.

``http.client`` over one keep-alive connection — the dependency-free
counterpart of the server, used by the tests, the load generator and
any scripting against a running ``python -m repro serve``.

Failure semantics are *typed* (the client half of the overload
contract the server publishes):

* :class:`ServiceOverloaded` — HTTP 429 admission shed; carries the
  server's ``Retry-After`` hint.
* :class:`ServiceTimeout` — HTTP 503 (deadline expiry, draining) or a
  transport-level socket timeout.
* :class:`ServiceProtocolError` — the response body was not the JSON
  the protocol promises; carries the status code and a body snippet.
* :class:`ServiceError` — any other non-2xx response (400/404/500…).

Retries: overload and timeout responses (plus transport drops) are
retried up to ``retries`` times with jittered exponential backoff
that honors the server's ``Retry-After``.  4xx client errors are
never retried — repeating a malformed request cannot fix it.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Optional, Sequence, Tuple
from urllib.parse import urlencode


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(
        self,
        status: Optional[int],
        payload: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload
        #: Parsed ``Retry-After`` header (seconds), when present.
        self.retry_after = retry_after


class ServiceOverloaded(ServiceError):
    """429: admission control shed this request; back off and retry."""


class ServiceTimeout(ServiceError):
    """503 deadline expiry / draining, or a socket-level timeout."""


class ServiceProtocolError(ServiceError):
    """The response body violated the JSON protocol.

    ``payload['body']`` holds a snippet of the offending bytes so the
    failure is diagnosable from the exception alone.
    """


class ServiceRetryBudgetExceeded(ServiceError):
    """The retry loop ran out of *time* before it ran out of attempts.

    Raised when honoring server backoff hints would push the total
    retry time past ``max_elapsed_s`` — an adversarial (or badly
    misconfigured) server could otherwise extend a "2 retries" call
    indefinitely via large ``Retry-After`` values.  Chains the last
    underlying failure as ``__cause__``.
    """

    def __init__(
        self, elapsed_s: float, max_elapsed_s: float, attempts: int
    ) -> None:
        ServiceError.__init__(self, None, {
            "error": (
                f"retry budget exhausted after {attempts} attempt(s): "
                f"{elapsed_s:.2f}s elapsed of {max_elapsed_s:.2f}s "
                f"allowed"
            ),
        })
        self.elapsed_s = elapsed_s
        self.max_elapsed_s = max_elapsed_s
        self.attempts = attempts


#: Statuses worth retrying: overload shed and deadline/drain refusals.
_RETRYABLE_STATUSES = (429, 503)


def _typed_error(
    status: int, payload: dict, retry_after: Optional[float]
) -> ServiceError:
    if status == 429:
        return ServiceOverloaded(status, payload, retry_after)
    if status == 503:
        return ServiceTimeout(status, payload, retry_after)
    return ServiceError(status, payload, retry_after)


class ServiceClient:
    """One keep-alive connection to a prediction service.

    ``retries``/``backoff_s``/``backoff_cap_s`` govern the retry loop
    for overloaded (429), unavailable (503) and transport-dropped
    requests; ``retries=0`` surfaces every failure immediately (the
    mode the overload benchmarks use to count sheds exactly).
    ``max_elapsed_s`` caps the *total* time the loop may spend,
    attempts included — the bound ``Retry-After`` hints cannot extend.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        max_elapsed_s: Optional[float] = 60.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.max_elapsed_s = max_elapsed_s
        self._rng = rng if rng is not None else random.Random()
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Retry observability (the loadgen reports these).
        self.retried = 0
        self.backoff_slept_s = 0.0
        #: ``X-Worker-Id`` of the last response — which fleet worker
        #: served us.  ``None`` before any response (or against a
        #: pre-fleet server that does not send the header).
        self.last_worker_id: Optional[str] = None

    # -- plumbing -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request and read its response: ``(response,
        body)``.  A socket timeout raises :class:`ServiceTimeout`; a
        stale keep-alive connection (server restarted, idle timeout)
        gets one reconnect before a transport error propagates."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                return response, response.read()
            except socket.timeout:
                self.close()
                raise ServiceTimeout(
                    None,
                    {"error": f"no response within {self.timeout}s"},
                )
            except (
                http.client.HTTPException, ConnectionError, OSError
            ):
                self.close()
                if attempt:
                    raise

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        """One attempt: returns the decoded 2xx payload or raises a
        typed :class:`ServiceError` / transport exception."""
        payload = json.dumps(body).encode() if body is not None else None
        send_headers = dict(headers or {})
        if payload:
            send_headers.setdefault("Content-Type", "application/json")
        response, data = self._exchange(method, path, payload, send_headers)
        retry_after = _parse_retry_after(
            response.getheader("Retry-After")
        )
        worker = response.getheader("X-Worker-Id")
        if worker is not None:
            self.last_worker_id = worker
        try:
            decoded = json.loads(data)
        except ValueError:
            raise ServiceProtocolError(
                response.status,
                {
                    "error": "response body is not valid JSON",
                    "body": data[:200].decode(errors="replace"),
                },
                retry_after,
            )
        if response.status >= 400:
            raise _typed_error(response.status, decoded, retry_after)
        return decoded

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
        retries: Optional[int] = None,
    ) -> dict:
        """Request with jittered-exponential-backoff retries.

        Honors ``Retry-After``: when the server says how long to back
        off, that wins over the exponential schedule (plus jitter, so
        a shed stampede does not return as a synchronized stampede).
        ``max_elapsed_s`` bounds the whole loop: a retry whose delay
        would land past the budget raises
        :class:`ServiceRetryBudgetExceeded` instead of sleeping —
        honored hints must never extend total retry time unboundedly.
        """
        budget = self.retries if retries is None else max(0, retries)
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, headers)
            except ServiceError as exc:
                retryable = exc.status is None or (
                    exc.status in _RETRYABLE_STATUSES
                )
                if not retryable or attempt >= budget:
                    raise
                delay = self._backoff(attempt, exc.retry_after)
                cause: BaseException = exc
            except (
                http.client.HTTPException, ConnectionError, OSError
            ) as exc:
                if attempt >= budget:
                    raise
                delay = self._backoff(attempt, None)
                cause = exc
            if self.max_elapsed_s is not None:
                elapsed = time.monotonic() - started
                if elapsed + delay > self.max_elapsed_s:
                    raise ServiceRetryBudgetExceeded(
                        elapsed, self.max_elapsed_s, attempt + 1
                    ) from cause
            attempt += 1
            self.retried += 1
            self.backoff_slept_s += delay
            time.sleep(delay)

    def _backoff(
        self, attempt: int, retry_after: Optional[float]
    ) -> float:
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        # Full jitter over the exponential window; a server-provided
        # Retry-After floors the delay (honor it, never undercut it).
        delay = base * (0.5 + self._rng.random() / 2.0)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    @staticmethod
    def _query(**params) -> str:
        return urlencode(
            {k: v for k, v in params.items() if v not in (None, "", ())}
        )

    @staticmethod
    def _deadline_headers(
        deadline_ms: Optional[float],
    ) -> Optional[dict]:
        if deadline_ms is None:
            return None
        return {"X-Deadline-Ms": f"{deadline_ms:g}"}

    def _request_text(self, path: str) -> str:
        """GET a non-JSON (text) endpoint — ``/metrics``."""
        response, data = self._exchange("GET", path)
        if response.status >= 400:
            raise ServiceError(
                response.status,
                {"error": data[:200].decode(errors="replace")},
            )
        return data.decode("utf-8", errors="replace")

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus exposition document from ``/metrics``."""
        return self._request_text("/metrics")

    def debug_trace(self, trace_id: str) -> dict:
        """Span breakdown of a recent request by its ``X-Request-Id``."""
        return self._request("GET", f"/v1/debug/trace/{trace_id}")

    def profiles(self) -> dict:
        return self._request("GET", "/v1/profiles")

    def predict(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
        deadline_ms: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> dict:
        query = self._query(
            benchmark=benchmark, config=config, cores=cores, scale=scale
        )
        return self._request(
            "GET", f"/v1/predict?{query}",
            headers=self._deadline_headers(deadline_ms),
            retries=retries,
        )

    def compare(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
        deadline_ms: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> dict:
        query = self._query(
            benchmark=benchmark, config=config, cores=cores, scale=scale
        )
        return self._request(
            "GET", f"/v1/compare?{query}",
            headers=self._deadline_headers(deadline_ms),
            retries=retries,
        )

    def sweep(
        self,
        benchmark: str,
        configs: Sequence[str] = (),
        cores: int = 4,
        scale: float = 1.0,
        deadline_ms: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> dict:
        body = {
            "benchmark": benchmark,
            "cores": cores,
            "scale": scale,
        }
        if configs:
            body["configs"] = list(configs)
        return self._request(
            "POST", "/v1/sweep", body=body,
            headers=self._deadline_headers(deadline_ms),
            retries=retries,
        )


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        parsed = float(value)
    except ValueError:
        return None
    return parsed if parsed >= 0 else None


__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceProtocolError",
    "ServiceRetryBudgetExceeded",
    "ServiceTimeout",
]
