"""Shared fixtures for the coordinator (scatter-gather) test suite.

Two deployment shapes are exercised:

* **in-process HTTP shards** — one :class:`SemTreeServer` per partition
  over a :class:`ShardApp`, on ephemeral loopback ports.  Real sockets and
  real wire schemas, without subprocess start-up cost; used by most tests.
* **real subprocesses** — ``python -m repro.server --shard`` /
  ``python -m repro.coordinator`` via :mod:`repro.coordinator.launcher`;
  used by the acceptance oracle in ``test_subprocess_cluster.py``.
"""

from __future__ import annotations

import pytest

from coordinator_corpus import build_corpus_index
from repro.coordinator import (CoordinatorApp, HttpShardTransport, ShardedIndex,
                               ShardTopology)
from repro.ingest import IngestingIndex
from repro.server import SemTreeServer, ServerApp, ShardApp


@pytest.fixture(scope="module")
def corpus_index():
    """One built multi-partition index per test module (building is slow)."""
    index, triples = build_corpus_index()
    data_partitions = [
        partition.partition_id for partition in index.tree.partitions
        if partition.point_count > 0
    ]
    assert len(data_partitions) >= 2, "the corpus must span multiple partitions"
    return index, triples, data_partitions


@pytest.fixture
def shard_fleet(corpus_index):
    """In-process HTTP shard servers for every data partition of the index.

    Yields ``(servers_by_partition, topology)``; everything is torn down at
    test exit (servers the test already closed are skipped).
    """
    index, _, data_partitions = corpus_index
    servers = {}
    for partition_id in data_partitions:
        app = ShardApp.from_index(index, partition_id)
        servers[partition_id] = SemTreeServer(app).serve_background()
    topology = ShardTopology({
        partition_id: server.url for partition_id, server in servers.items()
    })
    yield servers, topology
    for server in servers.values():
        if not server.app.closed:
            server.close()


@pytest.fixture
def make_transport():
    """Factory for HTTP shard transports that are closed at test exit."""
    transports = []

    def build(topology: ShardTopology, **kwargs) -> HttpShardTransport:
        transport = HttpShardTransport(topology, **kwargs)
        transports.append(transport)
        return transport

    yield build
    for transport in transports:
        transport.close()


@pytest.fixture
def make_tier(corpus_index, shard_fleet, make_transport, tmp_path):
    """``build(role) -> app`` for each tier, over the shared corpus index."""
    index, _, data_partitions = corpus_index
    _, topology = shard_fleet
    apps = []

    def build(role: str):
        if role == "server":
            app = ServerApp(IngestingIndex(index, tmp_path / "wal.jsonl"))
        elif role == "shard":
            app = ShardApp.from_index(index, data_partitions[0])
        else:
            app = CoordinatorApp(ShardedIndex(index, make_transport(topology)))
        apps.append(app)
        return app

    yield build
    for app in apps:
        app.close()
