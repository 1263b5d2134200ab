"""The drain contract, pinned: ``close()`` finishes in-flight work first.

``SemTreeServer.close`` promises that every
request whose bytes arrived before shutdown completes fully — handler
runs, response written back — before the app (engine, WAL) is
torn down and the shutdown checkpoint is cut.  These tests hold a request
in flight with a latency fault and close the server under it, in-process
and over a real SIGTERM to the CLI.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from server_corpus import BASE_TRIPLES, INSERT_TRIPLES
from repro.coordinator.launcher import _spawn
from repro.core import SemTreeConfig, SemTreeIndex
from repro.faults import FaultPlan, FaultSpec
from repro.ingest import IngestingIndex
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.server import SemTreeServer, ServerApp
from repro.server.bootstrap import vocabulary_hints
from repro.workloads import ServerClient

SLOW_KNN = [FaultSpec(operation="handle", target="/v1/knn",
                      kind="latency", latency=0.8, max_fires=1)]


class TestInProcessDrain:
    def test_close_waits_for_the_in_flight_response(self, make_server):
        server, _ = make_server(
            server_kwargs={"fault_plan": FaultPlan(SLOW_KNN)})
        outcome = {}

        def slow_request():
            with ServerClient(server.url) as client:
                client.insert(INSERT_TRIPLES[0])
                outcome["payload"] = client.knn(BASE_TRIPLES[0], 3)
                outcome["finished_at"] = time.monotonic()

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.3)  # the knn is now parked inside the latency fault
        wal_seq = server.close()  # default: checkpoint on the way out
        closed_at = time.monotonic()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert outcome["payload"]["error"] is None
        assert outcome["payload"]["matches"]
        # The response was on the wire before close() — and therefore the
        # checkpoint — returned.
        assert outcome["finished_at"] <= closed_at
        assert wal_seq is not None and wal_seq >= 1  # the insert is covered

    def test_new_connections_are_refused_after_close(self, make_server):
        server, _ = make_server()
        address = server.server_address
        server.close(checkpoint=False)
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2).close()


class TestSigtermDrain:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A snapshot + truncated WAL a CLI server can boot from."""
        actors, values = vocabulary_hints(BASE_TRIPLES + INSERT_TRIPLES)
        distance = build_requirement_distance(
            build_requirement_vocabularies(actors, values))
        base = SemTreeIndex(distance, SemTreeConfig(
            dimensions=3, bucket_size=4, max_partitions=2,
            partition_capacity=8))
        base.add_triples(BASE_TRIPLES)
        base.build()
        root = tmp_path_factory.mktemp("drain")
        live = IngestingIndex(base, root / "wal.jsonl")
        app = ServerApp(live, checkpoint_path=root / "snapshot.json")
        server = SemTreeServer(app).serve_background()
        with ServerClient(server.url) as client:
            client.insert_many(INSERT_TRIPLES[:2])
        server.close()
        return root

    def test_sigterm_mid_request_finishes_then_checkpoints(self, checkpoint):
        env = dict(os.environ)
        env["REPRO_FAULTS"] = json.dumps(
            [spec.to_dict() for spec in SLOW_KNN])
        managed = _spawn(
            ["-m", "repro.server",
             "--snapshot", str(checkpoint / "snapshot.json"),
             "--wal", str(checkpoint / "wal.jsonl"),
             "--port", "0", "--quiet"],
            role="server", env=env)
        outcome = {}
        try:
            def slow_request():
                with ServerClient(managed.url) as client:
                    outcome["payload"] = client.knn(BASE_TRIPLES[0], 3)

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.3)  # in flight, parked inside the latency fault
            code = managed.terminate(timeout=30.0)
            worker.join(timeout=10.0)
            assert code == 0
            assert not worker.is_alive()
            assert outcome["payload"]["error"] is None
            assert outcome["payload"]["matches"]
            output = managed.process.stdout.read()
            assert "checkpointed through wal_seq" in output, output
        finally:
            managed.kill()
