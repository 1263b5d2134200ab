"""Exception hierarchy shared by every ``repro`` subsystem.

Keeping all exceptions in one module lets callers catch the broad
:class:`ReproError` when they only care about "something in the library
failed", while still being able to catch precise subclasses (for instance
:class:`VocabularyError` when a concept is missing from a taxonomy).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class TripleError(ReproError):
    """Raised for malformed triples or terms (e.g. empty subject)."""


class ParseError(ReproError):
    """Raised when a Turtle-like document cannot be parsed.

    Attributes
    ----------
    line:
        One-based line number at which the problem was found, or ``None``
        when the error is not attached to a specific line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NamespaceError(ReproError):
    """Raised for unknown or conflicting namespace prefixes."""


class VocabularyError(ReproError):
    """Raised when a concept or relation is missing from a vocabulary."""


class TaxonomyError(ReproError):
    """Raised for malformed taxonomies (cycles, unknown concepts, ...)."""


class DistanceError(ReproError):
    """Raised for invalid distance configurations (e.g. weights not summing to 1)."""


class EmbeddingError(ReproError):
    """Raised when FastMap cannot embed the requested objects."""


class IndexError_(ReproError):
    """Raised for invalid index operations (named with a trailing underscore
    to avoid shadowing the built-in :class:`IndexError`)."""


class PartitionError(ReproError):
    """Raised for partition-management failures (no capacity, unknown id, ...)."""


class ClusterError(ReproError):
    """Raised by the simulated cluster (unknown node, undeliverable message)."""


class QueryError(ReproError):
    """Raised for invalid queries (negative k, negative radius, ...)."""


class ExtractionError(ReproError):
    """Raised when the NLP pipeline cannot extract triples from a sentence."""


class EvaluationError(ReproError):
    """Raised for malformed evaluation inputs (empty ground truth, ...)."""


class WorkloadError(ReproError):
    """Raised when a synthetic workload cannot be generated as requested."""


class ObservabilityError(ReproError):
    """Raised for invalid metric registrations or malformed expositions."""


class SchemaError(ReproError):
    """Raised when a wire payload does not match the server's request schema.

    Attributes
    ----------
    field:
        Dotted path of the offending field (e.g. ``"queries[2].k"``), or
        ``None`` when the problem is not attached to a specific field.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class ServerClosingError(ReproError):
    """Raised when a request reaches a server that is shutting down.

    Mapped to HTTP 503 (not a client error): the request was well-formed
    and a retry against a healthy instance would succeed.
    """


class ShardError(ReproError):
    """Raised when shard servers cannot answer a partition scan.

    Carries the structured partial-failure report of a scatter-gather: which
    partitions failed (and why) and which completed, so a caller knows
    exactly how much of the fan-out succeeded.  Mapped to HTTP 502 — the
    coordinator is healthy, a backend behind it is not.

    Attributes
    ----------
    details:
        ``{"failed": {partition_id: reason}, "completed": [partition_id]}``.
    """

    def __init__(self, message: str, *, failed: dict | None = None,
                 completed: list | None = None):
        self.details = {
            "failed": dict(failed or {}),
            "completed": list(completed or ()),
        }
        super().__init__(message)


class AdmissionError(ReproError):
    """Raised when admission control rejects a query before execution.

    Mapped to HTTP 503 with a ``Retry-After`` header: the request was
    well-formed but the server is shedding load (queue full, or the
    predicted queue wait exceeds the query's deadline) and retrying later
    is the right move.

    Attributes
    ----------
    reason:
        Why the query was shed: ``"queue_full"`` or ``"deadline"``.
    retry_after:
        Seconds the client should wait before retrying (the value of the
        ``Retry-After`` response header).
    """

    def __init__(self, message: str, *, reason: str = "queue_full",
                 retry_after: float = 1.0):
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(message)


class ServerError(ReproError):
    """Raised by the HTTP client when the server reports a failure.

    Attributes
    ----------
    status:
        The HTTP status code of the response.
    kind:
        The error type the server reported (e.g. ``"SchemaError"``), or
        ``None`` when the response carried no structured error payload.
    retry_after:
        Seconds the server asked the client to wait before retrying (the
        ``Retry-After`` response header), or ``None`` when absent.
    """

    def __init__(self, message: str, status: int = 500, kind: str | None = None,
                 retry_after: float | None = None):
        self.status = status
        self.kind = kind
        self.retry_after = retry_after
        super().__init__(message)
