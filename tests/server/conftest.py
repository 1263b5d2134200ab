"""Shared fixtures for the HTTP front-end test suite.

Every end-to-end test boots a *real* server: a
:class:`~repro.server.http.SemTreeServer` on an ephemeral port of the
loopback interface, talked to through the stdlib
:class:`~repro.workloads.http_client.ServerClient`.
"""

from __future__ import annotations

import pytest

from server_corpus import ALL_TRIPLES, BASE_TRIPLES
from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.server import SemTreeServer, ServerApp
from repro.server.bootstrap import vocabulary_hints
from repro.workloads import ServerClient


@pytest.fixture(scope="session")
def distance():
    # Built over the hints of every triple the suite may store, exactly the
    # construction `derive_distance` reproduces from the on-disk state.
    actors, parameter_values = vocabulary_hints(ALL_TRIPLES)
    return build_requirement_distance(
        build_requirement_vocabularies(actors, parameter_values)
    )


@pytest.fixture
def make_base(distance):
    """Factory building a fresh, deterministic base index over BASE_TRIPLES."""

    def build() -> SemTreeIndex:
        index = SemTreeIndex(distance, SemTreeConfig(
            dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=8,
        ))
        index.add_triples(BASE_TRIPLES)
        index.build()
        return index

    return build


@pytest.fixture
def make_server(make_base, tmp_path):
    """Factory booting a live server; everything is torn down at test exit.

    Returns ``start(**kwargs) -> (server, client)``; ``server_kwargs`` are
    forwarded to :class:`SemTreeServer` (timeouts, fault plan, wire cache),
    ``compaction_threshold`` to the :class:`IngestingIndex`, every other
    keyword argument to :class:`ServerApp`.  The WAL lands in
    ``tmp_path/wal.jsonl`` and the default checkpoint path is
    ``tmp_path/snapshot.json``.
    """
    started = []

    def start(*, compaction_threshold: int = 64, wal_name: str = "wal.jsonl",
              server_kwargs=None, **app_kwargs):
        live = IngestingIndex(make_base(), tmp_path / wal_name,
                              compaction_threshold=compaction_threshold)
        app_kwargs.setdefault("checkpoint_path", tmp_path / "snapshot.json")
        app = ServerApp(live, **app_kwargs)
        server = SemTreeServer(app, **(server_kwargs or {})).serve_background()
        started.append(server)
        return server, ServerClient(server.url)

    yield start
    for server in started:
        if not server.app.closed:
            server.close(checkpoint=False)
