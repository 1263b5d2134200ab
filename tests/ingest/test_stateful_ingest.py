"""A stateful model test of the live index.

Hypothesis drives one :class:`IngestingIndex` and the :class:`QueryEngine`
serving it (result cache on) through random sequences of inserts, k-NN and
range queries, threshold folds, checkpoints and crash-and-recover steps
(both objects dropped without a checkpoint, then rebuilt from the last
snapshot + WAL).  The model is the list of embedded points: the base
index's plus one per acknowledged insert.  Every answer must equal a linear
scan over it.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from ingest_corpus import (ACTORS, BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES,
                           canonical)
from repro.core import SemTreeConfig, SemTreeIndex
from repro.core.semtree import SemanticMatch
from repro.ingest import IngestingIndex
from repro.requirements import (build_requirement_distance,
                                build_requirement_vocabularies)
from repro.service import QueryEngine, QuerySpec

DISTANCE = build_requirement_distance(build_requirement_vocabularies(ACTORS))
TRIPLES = st.sampled_from(BASE_TRIPLES + INSERT_TRIPLES + QUERY_TRIPLES)


def make_base() -> SemTreeIndex:
    index = SemTreeIndex(DISTANCE, SemTreeConfig(
        dimensions=3, bucket_size=2, max_partitions=2, partition_capacity=4,
    ))
    index.add_triples(BASE_TRIPLES)
    index.build()
    return index


class LiveIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="stateful-ingest-"))
        self.wal_path = self.directory / "wal.jsonl"
        self.snapshot_path = self.directory / "snapshot.json"
        base = make_base()
        self.model = list(base.tree.points())
        self._open(IngestingIndex(base, self.wal_path, compaction_threshold=3))

    def _open(self, live: IngestingIndex) -> None:
        self.live = live
        self.engine = QueryEngine(live, workers=2, cache_capacity=64)

    def _scan(self, query, radius=float("inf")):
        """Every model point within ``radius`` of ``query``, canonical form."""
        point = self.live.embed_query(query)
        return canonical(SemanticMatch(stored.label, distance)
                         for stored in self.model
                         if (distance := point.distance_to(stored)) <= radius)

    @rule(triple=TRIPLES)
    def insert(self, triple):
        self.live.insert(triple)
        self.model.append(self.live.embed_query(triple))

    @rule(query=TRIPLES, k=st.integers(min_value=1, max_value=6))
    def knn(self, query, k):
        served = canonical(self.engine.execute(QuerySpec.k_nearest(query, k)).matches)
        scan = self._scan(query)
        # Stored triples tied at the k-th distance may be kept in any order:
        # the distances match, and so does everything strictly closer.
        edge = scan[:k][-1][0]
        assert [distance for distance, _ in served] == \
            [distance for distance, _ in scan[:k]]
        assert [match for match in served if match[0] < edge] == \
            [match for match in scan if match[0] < edge]
        assert {match for match in served if match[0] == edge} <= \
            {match for match in scan if match[0] == edge}

    @rule(query=TRIPLES, radius=st.sampled_from([0.05, 0.2, 0.4]))
    def range(self, query, radius):
        served = self.engine.execute(QuerySpec.range_query(query, radius))
        assert canonical(served.matches) == self._scan(query, radius)

    @rule()
    def maybe_compact(self):
        self.live.maybe_compact()

    @rule()
    def checkpoint(self):
        self.live.checkpoint(self.snapshot_path)

    @rule()
    def crash_and_recover(self):
        # The process dies: its WAL descriptor closes (IngestingIndex.close
        # writes nothing), no checkpoint is taken, and whatever the WAL and
        # the last snapshot hold is all the rebuilt index gets.
        self.live.close()
        if self.snapshot_path.exists():
            live = IngestingIndex.recover(self.snapshot_path, self.wal_path,
                                          DISTANCE, compaction_threshold=3)
        else:
            live = IngestingIndex(make_base(), self.wal_path,
                                  compaction_threshold=3)
        self._open(live)

    def teardown(self):
        self.live.close()
        shutil.rmtree(self.directory, ignore_errors=True)


LiveIndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestLiveIndexMachine = LiveIndexMachine.TestCase
