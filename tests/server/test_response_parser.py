"""``ResponseParser``: the response side of ``protocol.py``'s framing, pinned.

The coordinator's shard connection reads with it, so these are the rules
that decide what a shard's bytes mean: whatever the chunking, one verdict;
every buffer under the request side's caps; and ``started`` telling "the
server had already closed this keep-alive socket" (nothing arrived: safe
to retry) from "the response was cut short" (not).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.server.protocol import (MAX_BODY_BYTES, MAX_HEADER_BYTES,
                                   MAX_HEADER_COUNT, MAX_REQUEST_LINE_BYTES,
                                   ResponseParser, WireResponse)

SEED = 0xC0FFEE

_BODY = json.dumps({"partition_id": "P1", "rows": [[3, 0.25], [0, 0.5]]}).encode()


def _wire(status: int = 200, body: bytes = _BODY, **fields) -> bytes:
    """A response exactly as the servers put it on the wire."""
    response = WireResponse(status=status, body=body, **fields)
    return response.encode_head() + response.body


def _fed(data: bytes, sizes=None) -> ResponseParser:
    parser = ResponseParser()
    if sizes is None:
        parser.feed(data)
        return parser
    position = 0
    for size in sizes:
        parser.feed(data[position:position + size])
        position += size
    parser.feed(data[position:])
    return parser


class TestWellFormed:
    def test_a_server_response_frames_in_one_read(self):
        parser = _fed(_wire(trace_id="abc123"))
        assert parser.state == "complete" and parser.error is None
        response = parser.response
        assert (response.status, response.reason, response.version) == (200, "OK", (1, 1))
        assert response.body == _BODY
        assert response.headers.get("x-trace-id") == "abc123"
        assert response.headers.get("Content-Type") == "application/json"
        assert response.keep_alive
        assert parser.remainder == 0

    def test_any_split_of_the_reads_gives_the_same_response(self):
        data = _wire()
        rng = random.Random(SEED)
        for _ in range(200):
            cuts = sorted(rng.sample(range(1, len(data)), rng.randint(1, 8)))
            sizes = [b - a for a, b in zip([0] + cuts, cuts)]
            parser = _fed(data, sizes)
            assert parser.state == "complete", sizes
            assert parser.response.body == _BODY
            assert parser.response.status == 200

    def test_one_byte_at_a_time(self):
        data = _wire(status=502, body=b'{"error": {"type": "ShardError"}}')
        parser = ResponseParser()
        for position in range(len(data)):
            assert parser.state not in ("complete", "error")
            parser.feed(data[position:position + 1])
        assert parser.state == "complete"
        assert parser.response.status == 502
        assert parser.response.reason == "Bad Gateway"

    def test_an_empty_body_completes_at_the_blank_line(self):
        parser = _fed(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
        assert parser.state == "complete"
        assert parser.response.body == b""

    def test_connection_close_is_reported(self):
        assert not _fed(_wire(close=True)).response.keep_alive
        assert not _fed(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n").response.keep_alive

    def test_bytes_past_the_body_are_left_in_remainder(self):
        parser = _fed(_wire() + b"HTTP/1.1 200")
        assert parser.state == "complete"
        assert parser.response.body == _BODY
        assert parser.remainder == len(b"HTTP/1.1 200")

    def test_a_reason_phrase_may_be_absent_or_hold_spaces(self):
        assert _fed(b"HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n").response.reason == ""
        assert _fed(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"
                    ).response.reason == "Service Unavailable"


class TestMalformed:
    @pytest.mark.parametrize("head", [
        b"\x16\x03\x01 this is not http\r\n\r\n",
        b"HTTP/1.1\r\n\r\n",                                  # truncated status line
        b"HTTP/1.1 20\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 \xb2\xb2\xb2 OK\r\nContent-Length: 0\r\n\r\n",  # digits, not decimals
        b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\n\r\n",                   # a request, not a response
    ])
    def test_a_bad_status_line_is_an_error(self, head):
        parser = _fed(head)
        assert parser.state == "error"
        assert parser.error.error_type == "BadResponse"
        assert "status line" in parser.error.message
        assert parser.started

    @pytest.mark.parametrize("headers, said", [
        (b"", "''"),                                          # missing
        (b"Content-Length: banana\r\n", "banana"),
        (b"Content-Length: -5\r\n", "-5"),
        (b"Content-Length: 1e3\r\n", "1e3"),
        (b"Content-Length: \xb2\r\n", "\xb2"),
        (b"Content-Length: 12\r\nTransfer-Encoding: chunked\r\n", "12"),
    ])
    def test_a_body_needs_a_numeric_content_length(self, headers, said):
        parser = _fed(b"HTTP/1.1 200 OK\r\n" + headers + b"\r\n" + b"x" * 12)
        assert parser.state == "error"
        assert "Content-Length" in parser.error.message
        assert said in parser.error.message

    def test_a_body_over_the_cap_is_refused_before_it_is_read(self):
        parser = _fed(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
        assert parser.state == "error"
        assert "exceeds" in parser.error.message
        at_cap = _fed(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % MAX_BODY_BYTES)
        assert at_cap.state == "body"

    def test_an_oversized_status_line_is_refused_without_a_newline(self):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 200 " + b"O" * (MAX_REQUEST_LINE_BYTES + 1))
        assert parser.state == "error"
        assert "status line exceeds" in parser.error.message

    def test_an_oversized_header_line_is_refused_mid_stream(self):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 200 OK\r\nX-Pad: ")
        fed = 0
        while parser.state == "headers" and fed <= MAX_HEADER_BYTES:
            parser.feed(b"p" * 1024)
            fed += 1024
        # refused once the cap is crossed, with no newline ever seen
        assert parser.state == "error" and fed > MAX_HEADER_BYTES - 1024
        assert parser.error.error_type == "HeadersTooLarge"

    def test_too_many_header_lines_are_refused(self):
        lines = b"".join(b"X-%d: v\r\n" % n for n in range(MAX_HEADER_COUNT + 1))
        parser = _fed(b"HTTP/1.1 200 OK\r\n" + lines + b"Content-Length: 0\r\n\r\n")
        assert parser.state == "error"
        assert parser.error.error_type == "HeadersTooLarge"

    def test_a_header_without_a_colon_is_an_error(self):
        parser = _fed(b"HTTP/1.1 200 OK\r\nnot-a-header\r\nContent-Length: 0\r\n\r\n")
        assert parser.state == "error"

    def test_feeding_after_an_error_changes_nothing(self):
        parser = _fed(b"nonsense\r\n")
        verdict = parser.error
        parser.feed(_wire())
        assert parser.state == "error" and parser.error is verdict


class TestEarlyClose:
    """What the parser knows when ``recv`` returns ``b""``: the caller's
    retry-or-fail decision reads exactly these two attributes."""

    def test_nothing_arrived(self):
        parser = ResponseParser()
        assert parser.state == "line" and not parser.started

    def test_blank_lines_alone_do_not_start_a_response(self):
        parser = _fed(b"\r\n\r\n")
        assert parser.state == "line" and not parser.started

    @pytest.mark.parametrize("cut", [1, 8, 16, 40, -1])
    def test_any_first_byte_starts_it_and_it_stays_incomplete(self, cut):
        data = _wire()
        parser = _fed(data[:cut])
        assert parser.started
        assert parser.state in ("line", "headers", "body")
        assert parser.error is None
