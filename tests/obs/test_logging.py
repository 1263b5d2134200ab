"""Tests for JSON logging and trace correlation."""

import io
import json
import logging

from repro.obs.logging import JsonLogFormatter, configure_logging, get_logger
from repro.obs.tracing import Trace, activate


def format_record(**kwargs):
    record = logging.makeLogRecord({
        "name": "repro.test", "levelno": logging.INFO, "levelname": "INFO",
        "msg": "hello %s", "args": ("world",), **kwargs,
    })
    return json.loads(JsonLogFormatter().format(record))


class TestJsonFormatter:
    def test_basic_fields(self):
        payload = format_record()
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"
        assert payload["message"] == "hello world"
        assert payload["ts"].endswith("Z")

    def test_extras_are_included(self):
        payload = format_record(event="boot", port=8080)
        assert payload["event"] == "boot"
        assert payload["port"] == 8080

    def test_ambient_trace_id_is_attached(self):
        with activate(Trace("trace-42")):
            payload = format_record()
        assert payload["trace_id"] == "trace-42"

    def test_explicit_trace_id_wins(self):
        with activate(Trace("ambient")):
            payload = format_record(trace_id="explicit")
        assert payload["trace_id"] == "explicit"

    def test_unserialisable_extras_fall_back_to_repr(self):
        payload = format_record(thing=object())
        assert "object object" in payload["thing"]

    def test_exceptions_are_rendered(self):
        try:
            raise ValueError("boom")
        except ValueError:
            import sys
            payload = format_record(exc_info=sys.exc_info())
        assert "ValueError: boom" in payload["exception"]


class TestConfigureLogging:
    def test_idempotent_single_handler(self):
        stream = io.StringIO()
        root = logging.getLogger("repro")
        saved = (list(root.handlers), root.propagate, root.level)
        try:
            configure_logging(logging.INFO, stream=stream)
            configure_logging(logging.DEBUG, stream=stream)
            json_handlers = [handler for handler in root.handlers
                             if getattr(handler, "_repro_json_handler", False)]
            assert len(json_handlers) == 1
            assert json_handlers[0].level == logging.DEBUG
            assert root.propagate is False
        finally:
            # Restore the session's logging state: configure_logging turns
            # propagation off, which would hide later caplog assertions on
            # "repro.*" loggers in unrelated tests.
            root.handlers[:], root.propagate, level = saved
            root.setLevel(level)

    def test_get_logger_namespaces(self):
        assert get_logger("access").name == "repro.access"
        assert get_logger("repro.access").name == "repro.access"
