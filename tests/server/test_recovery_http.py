"""Boot → serve → insert → die → recover round trips over real servers."""

from __future__ import annotations

import pytest

from server_corpus import (ACTORS, BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES,
                           canonical)
from repro.core import SemTreeConfig, SemTreeIndex
from repro.server import ServerApp, SemTreeServer, derive_distance, recover_index
from repro.server.bootstrap import harvest_triples, vocabulary_hints
from repro.workloads import ServerClient


def oracle_index(distance, extra_triples):
    """A from-scratch rebuild over base + extras: the recovery ground truth."""
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=8,
    ))
    index.add_triples(BASE_TRIPLES)
    index.build()
    index.insert_triples(extra_triples)
    return index


class TestBootstrapHelpers:
    def test_harvest_finds_snapshot_and_wal_triples(self, make_server, tmp_path):
        server, client = make_server()
        client.insert_many(INSERT_TRIPLES[:4])
        server.close()  # checkpoint to tmp_path/snapshot.json
        harvested = harvest_triples(tmp_path / "snapshot.json", tmp_path / "wal.jsonl")
        assert set(BASE_TRIPLES) <= set(harvested)
        assert set(INSERT_TRIPLES[:4]) <= set(harvested)

    def test_vocabulary_hints(self):
        actors, parameters = vocabulary_hints(BASE_TRIPLES + INSERT_TRIPLES)
        assert set(actors) == set(ACTORS)
        assert "start-up" in parameters["CmdType"]
        assert "volt-frame" in parameters["TmType"]

    def test_harvest_walks_past_malformed_term_dicts(self, tmp_path):
        # A dict that *looks* like a triple but has incomplete term dicts
        # must be skipped, not crash the boot (term_from_dict raises
        # KeyError on a missing name, not ParseError).
        import json

        from repro.io.serialization import triple_to_dict
        snapshot = tmp_path / "weird.json"
        snapshot.write_text(json.dumps({
            "decoy": {"subject": {"kind": "concept"}, "predicate": {},
                      "object": {"kind": "literal"}},
            "real": triple_to_dict(BASE_TRIPLES[0]),
        }))
        assert harvest_triples(snapshot) == [BASE_TRIPLES[0]]

    def test_derived_distance_matches_original(self, make_server, tmp_path, distance):
        server, client = make_server()
        client.insert_many(INSERT_TRIPLES)
        server.close()
        derived = derive_distance(tmp_path / "snapshot.json", tmp_path / "wal.jsonl")
        for left in QUERY_TRIPLES:
            for right in BASE_TRIPLES + INSERT_TRIPLES:
                assert derived(left, right) == pytest.approx(distance(left, right))


class TestKillAndRecover:
    def test_clean_shutdown_then_reboot(self, make_server, tmp_path, distance):
        server, client = make_server()
        client.insert_many(INSERT_TRIPLES, document_id="stream")
        server.close()  # graceful: fold, checkpoint, truncate WAL

        recovered = recover_index(tmp_path / "snapshot.json", tmp_path / "wal.jsonl")
        with SemTreeServer(ServerApp(recovered)) as reborn:
            reborn.serve_background()
            reborn_client = ServerClient(reborn.url)
            oracle = oracle_index(distance, INSERT_TRIPLES)
            for triple in QUERY_TRIPLES:
                wire = reborn_client.knn(triple, 3)
                assert canonical(wire["matches"]) == \
                    canonical(oracle.k_nearest(triple, 3))

    def test_crash_without_checkpoint_recovers_from_wal_tail(
            self, make_server, tmp_path, distance):
        server, client = make_server()
        client.insert_many(INSERT_TRIPLES[:3])
        server.app.index.checkpoint(tmp_path / "snapshot.json")  # mid-flight checkpoint
        client.insert_many(INSERT_TRIPLES[3:])                   # WAL tail only
        server.close(checkpoint=False)                           # "crash": no new snapshot

        recovered = recover_index(tmp_path / "snapshot.json", tmp_path / "wal.jsonl")
        assert len(recovered) == len(BASE_TRIPLES) + len(INSERT_TRIPLES)
        assert recovered.statistics()["replayed"] == len(INSERT_TRIPLES) - 3
        oracle = oracle_index(distance, INSERT_TRIPLES)
        for triple in QUERY_TRIPLES:
            assert canonical(recovered.k_nearest(triple, 3)) == \
                canonical(oracle.k_nearest(triple, 3))

    def test_a_tail_at_the_threshold_is_folded_before_the_first_answer(
            self, make_server, tmp_path):
        server, client = make_server(compaction_threshold=10_000)
        server.app.index.checkpoint(tmp_path / "snapshot.json")
        client.insert_many(INSERT_TRIPLES[:4])                   # WAL tail only
        server.close(checkpoint=False)

        recovered = recover_index(tmp_path / "snapshot.json", tmp_path / "wal.jsonl",
                                  compaction_threshold=4)
        assert len(recovered.delta) == 4
        with SemTreeServer(ServerApp(recovered)) as reborn:
            reborn.serve_background()
            info = ServerClient(reborn.url).index_info()
        assert info["delta_points"] == 0
        assert info["points"] == len(BASE_TRIPLES) + 4

    def test_recovered_server_accepts_further_inserts(self, make_server, tmp_path):
        server, client = make_server()
        client.insert(INSERT_TRIPLES[0])
        server.close()

        recovered = recover_index(tmp_path / "snapshot.json", tmp_path / "wal.jsonl")
        app = ServerApp(recovered, checkpoint_path=tmp_path / "snapshot.json")
        with SemTreeServer(app) as reborn:
            reborn.serve_background()
            reborn_client = ServerClient(reborn.url)
            response = reborn_client.insert(INSERT_TRIPLES[1])
            assert response["seq"] == 2  # numbering continues across the checkpoint
            result = reborn_client.knn(INSERT_TRIPLES[1], 1)
            assert result["matches"][0]["text"] == str(INSERT_TRIPLES[1])


class TestIngestingIndexRequired:
    def test_plain_index_rejected(self, make_base, tmp_path):
        from repro.errors import QueryError
        with pytest.raises(QueryError, match="IngestingIndex"):
            ServerApp(make_base())
