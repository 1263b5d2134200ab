"""Structured JSON logging with trace-id correlation.

Log records are rendered as one JSON object per line: timestamp, level,
logger, message, the active trace id (from :mod:`repro.obs.tracing`, or an
explicit ``trace_id`` extra), and any other ``extra`` fields the caller
attached.  Libraries log through :func:`get_logger` without configuring
anything — records are dropped unless an entry point called
:func:`configure_logging`, so embedding the server in tests or benchmarks
stays silent by default while ``caplog`` still sees every record.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from typing import IO, Dict, Optional

from repro.obs import tracing

__all__ = [
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
]

#: Attributes every LogRecord carries; anything else came in via ``extra``.
_STANDARD_ATTRS = frozenset(vars(logging.makeLogRecord({}))) | {
    "message", "asctime", "taskName",
}


class JsonLogFormatter(logging.Formatter):
    """Render each record as a single JSON object with trace correlation."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, object] = {
            "ts": self.formatTime(record, datefmt="%Y-%m-%dT%H:%M:%S")
                  + f".{int(record.msecs):03d}Z",
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None)
        if trace_id is None:
            trace = tracing.current_trace()
            trace_id = trace.trace_id if trace is not None else None
        if trace_id is not None:
            payload["trace_id"] = trace_id
        for key, value in record.__dict__.items():
            if key in _STANDARD_ATTRS or key in payload:
                continue
            payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=repr)

    def formatTime(self, record, datefmt=None):  # noqa: N802 (logging API)
        import time as _time
        return _time.strftime(datefmt or "%Y-%m-%dT%H:%M:%S",
                              _time.gmtime(record.created))


_configure_lock = threading.Lock()


def get_logger(name: str) -> logging.Logger:
    """The ``repro``-namespaced logger for ``name``."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


def configure_logging(level: int = logging.INFO,
                      stream: Optional[IO[str]] = None) -> logging.Logger:
    """Attach the JSON handler to the ``repro`` logger tree (idempotent).

    Entry points (``__main__`` modules, tools) call this once; library code
    never does, so importing ``repro`` cannot hijack a host application's
    logging configuration.
    """
    root = logging.getLogger("repro")
    with _configure_lock:
        root.setLevel(level)
        for handler in root.handlers:
            if getattr(handler, "_repro_json_handler", False):
                handler.setLevel(level)
                return root
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(JsonLogFormatter())
        handler.setLevel(level)
        handler._repro_json_handler = True  # type: ignore[attr-defined]
        root.addHandler(handler)
        root.propagate = False
    return root
