"""Structured logging: one event name plus key=value fields per line.

Wraps stdlib :mod:`logging` (no new dependencies).  Two output modes:

- human (default): ``12:00:01 INFO  service.listening host=127.0.0.1``
- JSON (``--log-json``): one object per line with ``ts``, ``level``,
  ``event``, ``request_id`` (when a trace is active) and the fields.

``configure_logging`` installs a single handler on the ``repro``
logger; calling it again reconfigures in place, so tests and the CLI
can flip modes freely.  Log lines inside a request automatically carry
the request id from the active trace.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, Optional, TextIO

from repro.obs.tracing import current_request_id

__all__ = ["StructLogger", "configure_logging", "get_logger"]

_ROOT = "repro"
_json_mode = False
_configured = False

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def configure_logging(
    level: str = "info",
    json_mode: bool = False,
    stream: Optional[TextIO] = None,
) -> None:
    """Install (or replace) the single handler on the ``repro`` logger."""
    global _json_mode, _configured
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {sorted(_LEVELS)}")
    _json_mode = json_mode
    logger = logging.getLogger(_ROOT)
    logger.setLevel(_LEVELS[level])
    logger.propagate = False
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    _configured = True


def ensure_configured() -> None:
    """Default setup for entry points that skip ``configure_logging``."""
    if not _configured:
        configure_logging()


class StructLogger:
    """Event-style logger: ``log.info("service.listening", port=8188)``."""

    def __init__(self, name: str = _ROOT):
        if name != _ROOT and not name.startswith(_ROOT + "."):
            name = f"{_ROOT}.{name}"
        self._logger = logging.getLogger(name)

    def _log(self, level: int, event: str, **fields: Any) -> None:
        if not self._logger.isEnabledFor(level):
            return
        request_id = current_request_id()
        if _json_mode:
            record = {
                "ts": round(time.time(), 3),
                "level": logging.getLevelName(level).lower(),
                "event": event,
            }
            if request_id is not None:
                record["request_id"] = request_id
            record.update(fields)
            line = json.dumps(record, default=str, separators=(",", ":"))
        else:
            stamp = time.strftime("%H:%M:%S")
            parts = [stamp, logging.getLevelName(level).ljust(7), event]
            if request_id is not None:
                parts.append(f"request_id={request_id}")
            parts.extend(f"{k}={v}" for k, v in fields.items())
            line = " ".join(str(p) for p in parts)
        self._logger.log(level, line)

    def debug_enabled(self) -> bool:
        """True when :meth:`debug` lines are emitted, so a caller can
        skip building their fields otherwise."""
        return self._logger.isEnabledFor(logging.DEBUG)

    def debug(self, event: str, **fields: Any) -> None:
        self._log(logging.DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self._log(logging.INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._log(logging.WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self._log(logging.ERROR, event, **fields)


def get_logger(name: str = _ROOT) -> StructLogger:
    return StructLogger(name)
