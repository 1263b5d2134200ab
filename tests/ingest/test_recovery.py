"""Durable recovery: checkpoint snapshot + WAL tail replay answers identically."""

import pathlib

import pytest

from ingest_corpus import INSERT_TRIPLES, QUERY_TRIPLES, canonical
from repro.errors import ParseError
from repro.ingest import IngestingIndex
from repro.service.snapshot import read_snapshot_payload


def oracle_index(make_base, inserted):
    oracle = make_base()
    for triple, document_id in inserted:
        oracle.insert_triple(triple, document_id=document_id)
    return oracle


def assert_answers_identical(recovered, oracle):
    for query in QUERY_TRIPLES:
        for k in (1, 3, 6):
            assert canonical(recovered.k_nearest(query, k)) == \
                canonical(oracle.k_nearest(query, k))
        for radius in (0.1, 0.3):
            assert canonical(recovered.range_query(query, radius)) == \
                canonical(oracle.range_query(query, radius))


class TestCheckpointRecover:
    def test_kill_and_recover_answers_identically(self, make_base, distance, tmp_path):
        """The acceptance scenario: checkpoint, keep inserting, die without a
        clean shutdown, recover from snapshot + WAL tail."""
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        inserted = [(triple, f"doc-{position}")
                    for position, triple in enumerate(INSERT_TRIPLES)]

        live = IngestingIndex(make_base(), wal_path, compaction_threshold=3)
        for triple, document_id in inserted[:4]:
            live.insert(triple, document_id=document_id)
        live.compact()
        live.checkpoint(snap_path, compact_first=False, truncate_wal=False)
        for triple, document_id in inserted[4:]:
            live.insert(triple, document_id=document_id)
        # no close(), no final checkpoint: simulate a crash
        del live

        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        assert len(recovered) == len(make_base()) + len(inserted)
        assert len(recovered.delta) == len(inserted) - 4  # the replayed tail
        assert_answers_identical(recovered, oracle_index(make_base, inserted))

    def test_recover_reads_the_snapshot_once(self, make_base, distance, tmp_path,
                                             monkeypatch):
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.insert(INSERT_TRIPLES[0])
        live.checkpoint(snap_path)
        live.insert(INSERT_TRIPLES[1])
        live.close()
        reads = []
        read_text = pathlib.Path.read_text

        def counting_read_text(path, *args, **kwargs):
            if path == snap_path:
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", counting_read_text)
        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        assert len(reads) == 1
        assert (recovered.applied_seq, len(recovered.delta)) == (1, 1)

    def test_recovery_restores_provenance(self, make_base, distance, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.checkpoint(snap_path)
        live.insert(INSERT_TRIPLES[0], document_id="doc-x")
        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        (match,) = recovered.k_nearest(INSERT_TRIPLES[0], 1)
        assert "doc-x" in match.documents

    def test_replay_does_not_duplicate_snapshotted_provenance(self, make_base,
                                                              distance, tmp_path):
        """Regression: the snapshot persists provenance of delta-resident
        inserts too, so the WAL-tail replay must not register it again."""
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.insert(INSERT_TRIPLES[0], document_id="doc-x")
        (before,) = live.k_nearest(INSERT_TRIPLES[0], 1)
        # snapshot while the insert is still delta-resident (in the WAL tail)
        live.checkpoint(snap_path, compact_first=False, truncate_wal=False)

        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        (after,) = recovered.k_nearest(INSERT_TRIPLES[0], 1)
        assert after.documents == before.documents == ("doc-x",)

    def test_checkpoint_overwrite_is_atomic(self, make_base, tmp_path):
        """The snapshot is written to a staging file and renamed into place,
        so no moment exists at which the old recovery point is gone."""
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.checkpoint(snap_path)
        first = snap_path.read_text()
        live.insert(INSERT_TRIPLES[0])
        live.checkpoint(snap_path)
        assert snap_path.read_text() != first
        assert not snap_path.with_suffix(".json.staging").exists()

    def test_checkpoint_defaults_fold_and_truncate(self, make_base, distance, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path, compaction_threshold=100)
        for triple in INSERT_TRIPLES[:5]:
            live.insert(triple)
        applied = live.checkpoint(snap_path)
        assert applied == 5
        assert read_snapshot_payload(snap_path)["wal_seq"] == 5
        assert len(live.wal) == 0          # everything is covered by the snapshot
        assert len(live.delta) == 0        # compact_first folded the delta
        live.insert(INSERT_TRIPLES[5])     # sequence numbering continues
        assert live.wal.last_seq == 6

        recovered = IngestingIndex.recover(snap_path, wal_path, distance)
        inserted = [(triple, None) for triple in INSERT_TRIPLES[:6]]
        assert_answers_identical(recovered, oracle_index(make_base, inserted))

    def test_recovered_index_keeps_ingesting_and_compacting(self, make_base, distance,
                                                            tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path, compaction_threshold=2)
        live.insert(INSERT_TRIPLES[0])
        live.checkpoint(snap_path, compact_first=True, truncate_wal=True)

        recovered = IngestingIndex.recover(snap_path, wal_path, distance,
                                           compaction_threshold=2)
        for triple in INSERT_TRIPLES[1:4]:
            recovered.insert(triple)
        recovered.compact()
        inserted = [(triple, None) for triple in INSERT_TRIPLES[:4]]
        assert_answers_identical(recovered, oracle_index(make_base, inserted))

    def test_recover_insert_crash_recover_loses_nothing(self, make_base, distance,
                                                        tmp_path):
        """Regression: after a truncating checkpoint, a recovered process must
        keep WAL numbering past the snapshot's applied seq — otherwise its
        inserts are invisible to the *next* recovery's tail replay."""
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        live = IngestingIndex(make_base(), wal_path)
        live.insert(INSERT_TRIPLES[0])
        live.checkpoint(snap_path)      # folds, snapshots wal_seq=1, truncates
        live.close()

        second = IngestingIndex.recover(snap_path, wal_path, distance)
        assert second.wal.last_seq == 1  # numbering continues past the snapshot
        for triple in INSERT_TRIPLES[1:4]:
            second.insert(triple)
        del second                       # crash again, no checkpoint

        third = IngestingIndex.recover(snap_path, wal_path, distance)
        assert third.statistics()["replayed"] == 3
        inserted = [(triple, None) for triple in INSERT_TRIPLES[:4]]
        assert_answers_identical(third, oracle_index(make_base, inserted))

    def test_constructor_replays_a_dirty_wal(self, make_base, tmp_path):
        """Crash before any checkpoint: a rebuilt base + full WAL replay."""
        wal_path = tmp_path / "wal.jsonl"
        live = IngestingIndex(make_base(), wal_path)
        for triple in INSERT_TRIPLES[:3]:
            live.insert(triple)
        del live

        reopened = IngestingIndex(make_base(), wal_path)
        assert len(reopened.delta) == 3
        assert reopened.statistics()["replayed"] == 3
        inserted = [(triple, None) for triple in INSERT_TRIPLES[:3]]
        assert_answers_identical(reopened, oracle_index(make_base, inserted))

    def test_recover_rejects_a_non_snapshot(self, distance, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(ParseError):
            IngestingIndex.recover(bogus, tmp_path / "wal.jsonl", distance)
