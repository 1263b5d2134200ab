"""ShardTopology parsing and validation."""

from __future__ import annotations

import pytest

from repro.coordinator import ShardTopology
from repro.errors import ShardError


def test_parse_inline_form():
    topology = ShardTopology.parse(
        "P0=http://127.0.0.1:9000, P1=http://127.0.0.1:9001,"
    )
    assert topology.partition_ids == ("P0", "P1")
    assert topology.url_of("P1") == "http://127.0.0.1:9001"


def test_parse_strips_trailing_slash():
    topology = ShardTopology.parse("P0=http://host:9000/")
    assert topology.url_of("P0") == "http://host:9000"


def test_parse_rejects_entries_without_separator():
    with pytest.raises(ShardError, match="PARTITION_ID=http"):
        ShardTopology.parse("P0;http://host:9000")


def test_rejects_empty_topology():
    with pytest.raises(ShardError, match="at least one shard"):
        ShardTopology.parse("")


def test_rejects_non_http_urls():
    with pytest.raises(ShardError, match="http base URL"):
        ShardTopology({"P0": "ftp://host"})


def test_unknown_partition_is_a_shard_error():
    topology = ShardTopology.parse("P0=http://host:9000")
    with pytest.raises(ShardError, match="no shard serves partition 'P9'"):
        topology.url_of("P9")


def test_missing_reports_uncovered_partitions():
    topology = ShardTopology.parse("P0=http://host:9000")
    assert topology.missing(["P0", "P1", "P2"]) == ["P1", "P2"]
    assert topology.missing(["P0"]) == []
