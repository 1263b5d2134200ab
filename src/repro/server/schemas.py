"""Wire schemas of the HTTP front end: request validation, response shaping.

Every ``repro.server`` endpoint speaks JSON.  This module is the single
place where untrusted wire payloads are turned into the typed objects the
serving stack works on (:class:`~repro.service.planner.QuerySpec`,
:class:`~repro.rdf.triple.Triple`) and where results are rendered back into
JSON-native dictionaries.  Validation failures raise
:class:`~repro.errors.SchemaError` carrying the dotted field path, which the
HTTP layer renders as a structured ``400`` error body — the transport never
sees a malformed payload reach the engine.

Terms on the wire
-----------------
A term may be written two ways, interchangeably in every position:

* as compact text, the paper's Turtle-like syntax — ``"OBSW001"``,
  ``"Fun:accept_cmd"`` (parsed with ``term_from_text``);
* as the lossless dictionary form of :mod:`repro.io.serialization` —
  ``{"kind": "concept", "name": "accept_cmd", "prefix": "Fun"}`` or
  ``{"kind": "literal", "value": "42", "datatype": "int"}``.

See ``docs/server.md`` for the full request/response reference.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.cost import SearchCost
from repro.errors import (AdmissionError, ReproError, SchemaError,
                          ServerClosingError, ShardError)
from repro.io.serialization import match_to_dict, term_from_dict, triple_to_dict
from repro.rdf.terms import Term, term_from_text
from repro.rdf.triple import Triple, TriplePattern
from repro.service.engine import QueryResult
from repro.service.planner import QueryKind, QuerySpec

__all__ = [
    "MAX_BATCH_QUERIES",
    "MAX_BATCH_INSERTS",
    "PartialInsertError",
    "parse_term",
    "parse_triple",
    "parse_pattern",
    "parse_query_request",
    "parse_insert_request",
    "parse_shard_scan_request",
    "render_result",
    "render_results",
    "render_partition_row",
    "render_partition_scan",
    "error_body",
    "status_for",
]

#: Upper bounds on batch sizes, so one request cannot monopolise the engine.
MAX_BATCH_QUERIES = 1024
MAX_BATCH_INSERTS = 4096


# -- field plumbing ------------------------------------------------------------------------

def _require_object(payload: Any, field: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise SchemaError(
            f"expected a JSON object, got {type(payload).__name__}", field=field
        )
    return payload


def _reject_unknown(payload: Dict[str, Any], allowed: Tuple[str, ...], field: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SchemaError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}", field=field
        )


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", field=field)
    return float(value)


# -- terms, triples, patterns --------------------------------------------------------------

def parse_term(value: Any, field: str = "term") -> Term:
    """One wire term: compact text or the dictionary form."""
    if isinstance(value, str):
        if not value.strip():
            raise SchemaError("a textual term cannot be empty", field=field)
        try:
            return term_from_text(value)
        except ReproError as error:
            raise SchemaError(str(error), field=field) from error
    if isinstance(value, dict):
        # Validate field types *before* building the term: Concept/Literal
        # never type-check their fields, and a non-string name would pass
        # deep into the engine (for an insert: after the WAL append already
        # made the poison record durable and unreplayable).
        for key, entry in value.items():
            if not isinstance(entry, str):
                raise SchemaError(
                    f"term dictionary field {key!r} must be a string, "
                    f"got {type(entry).__name__}", field=field,
                )
        try:
            return term_from_dict(value)
        except (ReproError, KeyError) as error:
            raise SchemaError(f"invalid term dictionary: {error}", field=field) from error
    raise SchemaError(
        f"a term must be a string or a term dictionary, got {type(value).__name__}",
        field=field,
    )


def parse_triple(payload: Any, field: str = "triple") -> Triple:
    """One wire triple: an object with ``subject`` / ``predicate`` / ``object``."""
    payload = _require_object(payload, field)
    _reject_unknown(payload, ("subject", "predicate", "object"), field)
    terms = []
    for position in ("subject", "predicate", "object"):
        if position not in payload:
            raise SchemaError(f"missing required field {position!r}", field=field)
        terms.append(parse_term(payload[position], field=f"{field}.{position}"))
    try:
        return Triple(*terms)
    except ReproError as error:
        raise SchemaError(str(error), field=field) from error


def parse_pattern(payload: Any, field: str = "pattern") -> TriplePattern:
    """An optional-position triple pattern; absent positions are wildcards."""
    payload = _require_object(payload, field)
    _reject_unknown(payload, ("subject", "predicate", "object"), field)
    terms: Dict[str, Optional[Term]] = {}
    for position in ("subject", "predicate", "object"):
        value = payload.get(position)
        if value is None or value == "*":
            terms[position] = None
        else:
            terms[position] = parse_term(value, field=f"{field}.{position}")
    if all(term is None for term in terms.values()):
        raise SchemaError("a pattern needs at least one bound position", field=field)
    return TriplePattern(subject=terms["subject"], predicate=terms["predicate"],
                         object=terms["object"])


# -- query requests ------------------------------------------------------------------------

_QUERY_FIELDS = {
    QueryKind.KNN: ("triple", "k", "pattern", "deadline", "allow_partial"),
    QueryKind.RANGE: ("triple", "radius", "pattern", "deadline", "allow_partial"),
}


def _parse_query(payload: Any, kind: QueryKind, field: str) -> QuerySpec:
    payload = _require_object(payload, field)
    _reject_unknown(payload, _QUERY_FIELDS[kind], field)
    if "triple" not in payload:
        raise SchemaError("missing required field 'triple'", field=field)
    triple = parse_triple(payload["triple"], field=f"{field}.triple")

    pattern: Optional[TriplePattern] = None
    if payload.get("pattern") is not None:
        pattern = parse_pattern(payload["pattern"], field=f"{field}.pattern")

    deadline: Optional[float] = None
    if payload.get("deadline") is not None:
        deadline = _number(payload["deadline"], f"{field}.deadline")
        if deadline <= 0:
            raise SchemaError("a deadline must be a positive number of seconds",
                              field=f"{field}.deadline")

    allow_partial = payload.get("allow_partial", False)
    if not isinstance(allow_partial, bool):
        raise SchemaError(
            f"expected a boolean, got {type(allow_partial).__name__}",
            field=f"{field}.allow_partial",
        )

    try:
        if kind is QueryKind.KNN:
            k = payload.get("k", 3)
            if isinstance(k, bool) or not isinstance(k, int):
                raise SchemaError(f"expected an integer, got {type(k).__name__}",
                                  field=f"{field}.k")
            return QuerySpec.k_nearest(triple, k, pattern=pattern, deadline=deadline,
                                       allow_partial=allow_partial)
        if "radius" not in payload:
            raise SchemaError("missing required field 'radius'", field=field)
        radius = _number(payload["radius"], f"{field}.radius")
        return QuerySpec.range_query(triple, radius, pattern=pattern,
                                     deadline=deadline, allow_partial=allow_partial)
    except SchemaError:
        raise
    except ReproError as error:
        raise SchemaError(str(error), field=field) from error


def parse_query_request(body: Any, kind: QueryKind) -> Tuple[List[QuerySpec], bool]:
    """A query endpoint body: one query object, or ``{"queries": [...]}``.

    Returns the parsed specs and whether the request was *batched* — a
    batched request gets a ``{"results": [...]}`` envelope back even for a
    single-element batch, so clients can treat the response shape as a
    function of the request shape.
    """
    body = _require_object(body, "body")
    if "queries" in body:
        _reject_unknown(body, ("queries",), "body")
        queries = body["queries"]
        if not isinstance(queries, list):
            raise SchemaError(
                f"expected an array, got {type(queries).__name__}", field="queries"
            )
        if not queries:
            raise SchemaError("a batch needs at least one query", field="queries")
        if len(queries) > MAX_BATCH_QUERIES:
            raise SchemaError(
                f"a batch may hold at most {MAX_BATCH_QUERIES} queries, "
                f"got {len(queries)}", field="queries"
            )
        specs = [
            _parse_query(entry, kind, f"queries[{position}]")
            for position, entry in enumerate(queries)
        ]
        return specs, True
    return [_parse_query(body, kind, "body")], False


# -- shard scan requests -------------------------------------------------------------------

_SHARD_FIELDS = {
    QueryKind.KNN: ("coordinates", "k"),
    QueryKind.RANGE: ("coordinates", "radius"),
}


def parse_shard_scan_request(body: Any, kind: QueryKind) -> Tuple[Tuple[float, ...], float]:
    """A shard scan body: embedded query coordinates plus ``k`` or ``radius``.

    Shards never embed: the coordinator projects the query triple once and
    ships raw coordinates, so a shard needs neither the semantic distance
    nor the FastMap space.  Returns ``(coordinates, parameter)`` where the
    parameter is ``k`` (as a float-free int) for k-NN scans and the radius
    for range scans.
    """
    body = _require_object(body, "body")
    _reject_unknown(body, _SHARD_FIELDS[kind], "body")
    if "coordinates" not in body:
        raise SchemaError("missing required field 'coordinates'", field="body")
    raw = body["coordinates"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("expected a non-empty array of numbers",
                          field="coordinates")
    coordinates = tuple(
        _number(value, f"coordinates[{position}]") for position, value in enumerate(raw)
    )
    if kind is QueryKind.KNN:
        k = body.get("k", 3)
        if isinstance(k, bool) or not isinstance(k, int):
            raise SchemaError(f"expected an integer, got {type(k).__name__}", field="k")
        if k < 1:
            raise SchemaError(f"k must be >= 1, got {k}", field="k")
        return coordinates, k
    if "radius" not in body:
        raise SchemaError("missing required field 'radius'", field="body")
    radius = _number(body["radius"], "radius")
    if radius < 0:
        raise SchemaError("the range radius must be non-negative", field="radius")
    return coordinates, radius


# -- insert requests -----------------------------------------------------------------------

def _parse_insert(payload: Any, field: str) -> Tuple[Triple, Optional[str]]:
    payload = _require_object(payload, field)
    _reject_unknown(payload, ("triple", "document_id"), field)
    if "triple" not in payload:
        raise SchemaError("missing required field 'triple'", field=field)
    triple = parse_triple(payload["triple"], field=f"{field}.triple")
    document_id = payload.get("document_id")
    if document_id is not None and not isinstance(document_id, str):
        raise SchemaError(
            f"expected a string, got {type(document_id).__name__}",
            field=f"{field}.document_id",
        )
    return triple, document_id


def parse_insert_request(body: Any) -> Tuple[List[Tuple[Triple, Optional[str]]], bool]:
    """An insert body: one insert object, or ``{"inserts": [...]}``.

    Returns ``(inserts, batched)`` with ``inserts`` a list of
    ``(triple, document_id)`` pairs in request order.
    """
    body = _require_object(body, "body")
    if "inserts" in body:
        _reject_unknown(body, ("inserts",), "body")
        inserts = body["inserts"]
        if not isinstance(inserts, list):
            raise SchemaError(
                f"expected an array, got {type(inserts).__name__}", field="inserts"
            )
        if not inserts:
            raise SchemaError("a batch needs at least one insert", field="inserts")
        if len(inserts) > MAX_BATCH_INSERTS:
            raise SchemaError(
                f"a batch may hold at most {MAX_BATCH_INSERTS} inserts, "
                f"got {len(inserts)}", field="inserts"
            )
        return [
            _parse_insert(entry, f"inserts[{position}]")
            for position, entry in enumerate(inserts)
        ], True
    return [_parse_insert(body, "body")], False


class PartialInsertError(RuntimeError):
    """A batch insert failed mid-way after some triples were already durable.

    Deliberately *not* a :class:`ReproError`: the batch passed schema
    validation, so a mid-batch failure is a storage-layer event and maps to
    500.  ``details`` (surfaced in the error body) tells the client exactly
    what was applied: those inserts are WAL-durable and queryable, and a
    retry of the whole batch adds nothing for them.
    """

    def __init__(self, message: str, *, accepted: int, first_seq: int, last_seq: int):
        super().__init__(message)
        self.details = {
            "accepted": accepted, "first_seq": first_seq, "last_seq": last_seq,
        }


# -- responses -----------------------------------------------------------------------------

def render_result(result: QueryResult) -> Dict[str, Any]:
    """One served query as a JSON-native dictionary (see ``docs/server.md``).

    ``degraded`` appears only on partial answers (``allow_partial`` queries
    that lost partitions): a complete answer has no key, so clients can
    treat its presence as the degradation signal.
    """
    payload = {
        "matches": [match_to_dict(match) for match in result.matches],
        "cached": result.cached,
        "timed_out": result.timed_out,
        "error": result.error,
        "latency_ms": result.latency_seconds * 1000.0,
    }
    if result.degraded is not None:
        payload["degraded"] = result.degraded
    return payload


def render_results(results: List[QueryResult], batched: bool) -> Dict[str, Any]:
    """The endpoint body: a bare result, or a ``{"results": [...]}`` envelope."""
    if batched:
        return {"results": [render_result(result) for result in results]}
    return render_result(results[0])


def render_partition_row(point) -> Dict[str, Any]:
    """One row of a shard's row table: embedded coordinates + lossless triple."""
    return {"coordinates": list(point.coordinates),
            "triple": triple_to_dict(point.label)}


def render_partition_scan(partition_id: str, rows_id: str, rows, *,
                          nodes_visited: int, points_examined: int,
                          elapsed_seconds: float, cost: SearchCost) -> Dict[str, Any]:
    """One shard scan as a JSON-native dictionary.

    ``rows`` is the scan's answer as ``[row, distance]`` pairs, nearest
    first: ``row`` indexes the table the shard numbered at boot and
    publishes at ``GET /v1/shard/rows``, ``rows_id`` names that table, and
    the coordinator resolves a row to its point and triple only while the
    two ids agree.  Shards do not know document provenance (the coordinator
    owns the provenance map and dresses merged results itself).  JSON
    floats round-trip exactly in Python, so the coordinator's merge sees
    bit-identical distances.  The ``cost`` counters cross the wire so the
    coordinator can report cluster-wide work.
    """
    return {
        "partition_id": partition_id,
        "rows_id": rows_id,
        "rows": rows,
        "nodes_visited": nodes_visited,
        "points_examined": points_examined,
        "latency_ms": elapsed_seconds * 1000.0,
        "cost": cost.to_dict(),
    }


# -- errors --------------------------------------------------------------------------------

def status_for(error: Exception) -> int:
    """Map an exception to the HTTP status the endpoint responds with.

    Client-caused failures — malformed payloads, invalid parameters, unknown
    vocabulary terms — are :class:`~repro.errors.ReproError` subclasses and
    map to ``400``; a request reaching a shutting-down server is ``503``
    (retryable, not the client's fault), as is one shed by admission
    control (which additionally carries a ``Retry-After`` hint); a
    scatter-gather that lost one or more shard backends is ``502`` (the
    front end is healthy, a backend is not); anything else is a
    server-side ``500``.
    """
    if isinstance(error, (ServerClosingError, AdmissionError)):
        return 503
    if isinstance(error, ShardError):
        return 502
    return 400 if isinstance(error, ReproError) else 500


def error_body(error: Exception) -> Dict[str, Any]:
    """The structured error payload every non-2xx response carries."""
    payload: Dict[str, Any] = {
        "error": {"type": type(error).__name__, "message": str(error)}
    }
    field = getattr(error, "field", None)
    if field is not None:
        payload["error"]["field"] = field
    details = getattr(error, "details", None)
    if isinstance(details, dict):
        payload["error"]["details"] = details
    reason = getattr(error, "reason", None)
    if isinstance(reason, str):
        payload["error"]["reason"] = reason
    retry_after = getattr(error, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        payload["error"]["retry_after"] = float(retry_after)
    return payload
