"""Per-request client context, carried on a contextvar.

The HTTP handler stashes the identity header of the request it is serving
— ``X-Client-Id``, admission control's rate-limit key — so the app layer
can read it without threading header plumbing through every
``post_routes`` callable, whose signature is shared by apps that will
never care (:class:`~repro.server.shard.ShardApp` has no clients).

A contextvar, not a thread-local: the value is scoped to the request that
set it (the ``request_context`` manager restores the previous value on
exit), and code the handler calls into — however deep — sees exactly its
own request's context.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["RequestContext", "current_context", "request_context",
           "CLIENT_ID_HEADER"]

#: The header admission control keys per-client rate limits on.
CLIENT_ID_HEADER = "X-Client-Id"

#: Longest accepted header value; anything longer is truncated (client ids
#: key admission control's bucket map — unbounded attacker-chosen strings
#: must not become unbounded memory).
MAX_VALUE_LENGTH = 256


@dataclass(frozen=True, slots=True)
class RequestContext:
    """The identity header of the request currently being served."""

    client_id: Optional[str] = None


_EMPTY = RequestContext()

_current: ContextVar[RequestContext] = ContextVar("repro_request_context",
                                                  default=_EMPTY)


def _clean(value: Optional[str]) -> Optional[str]:
    if value is None:
        return None
    value = value.strip()[:MAX_VALUE_LENGTH]
    return value or None


def current_context() -> RequestContext:
    """The serving request's context (all-``None`` outside a request)."""
    return _current.get()


@contextlib.contextmanager
def request_context(*, client_id: Optional[str] = None) -> Iterator[RequestContext]:
    """Install a request's identity header for the duration of a block."""
    context = RequestContext(client_id=_clean(client_id))
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)
