"""``repro.obs`` — stdlib-only observability: metrics, tracing, logging.

Three pillars, threaded through every serving layer:

* :mod:`repro.obs.registry` + :mod:`repro.obs.prometheus` — typed metric
  instruments (counters, gauges, fixed-bucket histograms with labels)
  rendered as Prometheus text exposition v0.0.4 at
  ``GET /v1/metrics?format=prometheus``.
* :mod:`repro.obs.tracing` — per-request trace ids propagated over the
  ``X-Trace-Id`` header, with per-stage spans recorded context-locally
  and returned in an opt-in ``debug.trace`` response section.
* :mod:`repro.obs.logging` — structured JSON logs correlated by trace id.
* :mod:`repro.obs.profile` — a sampling profiler over
  ``sys._current_frames()`` behind ``GET /v1/debug/profile``.
* :mod:`repro.obs.top` — a live terminal view that windows two
  consecutive scrapes of any node's Prometheus exposition.

See ``docs/observability.md`` for the full contract.
"""

from repro.obs.logging import JsonLogFormatter, configure_logging, get_logger
from repro.obs.profile import SamplingProfiler, profile_endpoint
from repro.obs.prometheus import (CONTENT_TYPE, parse_exposition,
                                  render_exposition, validate_exposition)
from repro.obs.registry import (DEFAULT_LATENCY_BUCKETS, MetricsRegistry)
from repro.obs.tracing import (Trace, activate, annotate_span, capture_context,
                               current_trace, new_trace_id, record_span,
                               resume_context, sanitize_trace_id, span)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "JsonLogFormatter",
    "MetricsRegistry",
    "SamplingProfiler",
    "Trace",
    "activate",
    "annotate_span",
    "capture_context",
    "configure_logging",
    "current_trace",
    "get_logger",
    "new_trace_id",
    "parse_exposition",
    "profile_endpoint",
    "record_span",
    "render_exposition",
    "resume_context",
    "sanitize_trace_id",
    "span",
    "validate_exposition",
]
