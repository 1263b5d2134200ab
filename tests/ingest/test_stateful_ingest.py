"""Stateful model tests of the live index, in process and over HTTP.

Hypothesis drives random sequences of inserts (new or present triples, with
or without a document id), k-NN and range queries, folds, checkpoints and
crash-and-recover steps.  The model is what the index is: a set of triples,
each with the document ids it arrived with (kept once each).  Every answer
must equal a linear scan over the model, provenance included — a cached
match dressed with stale provenance fails the comparison.

* :class:`LiveIndexMachine` drives one :class:`IngestingIndex` and the
  :class:`QueryEngine` serving it (result cache on); a crash drops both
  without a checkpoint and rebuilds them from the last snapshot + WAL.
* :class:`ServedIndexMachine` drives a :class:`ServerApp` behind a
  :class:`SemTreeServer` with the wire cache on, through one
  :class:`ServerClient`; it retries inserts by resending their body, and a
  restart closes the server without a checkpoint and recovers it from
  snapshot + WAL on the same port, so the client's next request meets a
  dead keep-alive socket.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ingest_corpus import BASE_TRIPLES, INSERT_TRIPLES, QUERY_TRIPLES
from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.requirements import (build_requirement_distance,
                                build_requirement_vocabularies)
from repro.server import SemTreeServer, ServerApp
from repro.server.bootstrap import recover_index, vocabulary_hints
from repro.service import QueryEngine, QuerySpec
from repro.workloads import ServerClient

ACTORS, PARAMETERS = vocabulary_hints(BASE_TRIPLES + INSERT_TRIPLES + QUERY_TRIPLES)
#: Recorded in every checkpoint, so a recovery rebuilds this very distance.
HINTS = {"actors": ACTORS, "parameters": PARAMETERS}
DISTANCE = build_requirement_distance(build_requirement_vocabularies(ACTORS, PARAMETERS))
TRIPLES = st.sampled_from(BASE_TRIPLES + INSERT_TRIPLES + QUERY_TRIPLES)
DOCUMENTS = st.one_of(st.none(), st.sampled_from(["d1", "d2", "d3"]))
RADII = st.sampled_from([0.0, 0.05, 0.2, 0.4])
#: Asked after every step, so a cached answer meets every later write.
PROBES = (BASE_TRIPLES[0], INSERT_TRIPLES[0])


def make_base() -> SemTreeIndex:
    index = SemTreeIndex(DISTANCE, SemTreeConfig(
        dimensions=3, bucket_size=2, max_partitions=2, partition_capacity=4,
    ))
    index.add_triples(BASE_TRIPLES)
    index.build()
    return index


def answer(matches):
    """(distance, text, documents) per match, ties ordered by text."""
    return sorted((round(distance, 9), text, tuple(documents))
                  for distance, text, documents in matches)


class SetModel(RuleBasedStateMachine):
    """The model (triple → document ids) and the checks against it."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="stateful-ingest-"))
        self.wal_path = self.directory / "wal.jsonl"
        self.snapshot_path = self.directory / "snapshot.json"
        self.model = {triple: [] for triple in BASE_TRIPLES}
        self._points = {}  # every index the run opens shares one fitted space

    def _remember(self, triple, document_id) -> None:
        documents = self.model.setdefault(triple, [])
        if document_id is not None and document_id not in documents:
            documents.append(document_id)

    def _scan(self, query, radius=float("inf")):
        """Every model triple within ``radius`` of ``query``, in :func:`answer` form."""
        def embed(triple):
            if triple not in self._points:
                self._points[triple] = self.live.embed_query(triple)
            return self._points[triple]

        point = embed(query)
        return answer((distance, str(triple), documents)
                      for triple, documents in self.model.items()
                      if (distance := point.distance_to(embed(triple))) <= radius)

    def _check_knn(self, served, query, k) -> None:
        scan = self._scan(query)
        # Stored triples tied at the k-th distance may be kept in any order:
        # the distances match, and so does everything strictly closer.
        edge = scan[:k][-1][0]
        assert [match[0] for match in served] == [match[0] for match in scan[:k]]
        assert [match for match in served if match[0] < edge] == \
            [match for match in scan if match[0] < edge]
        assert {match for match in served if match[0] == edge} <= \
            {match for match in scan if match[0] == edge}

    def _check_range(self, served, query, radius) -> None:
        assert served == self._scan(query, radius)

    @invariant()
    def answers_equal_a_scan(self):
        for probe in PROBES:
            self.knn(probe, 3)
            self.range(probe, 0.2)

    def teardown(self):
        self._close()
        shutil.rmtree(self.directory, ignore_errors=True)


class LiveIndexMachine(SetModel):
    def __init__(self):
        super().__init__()
        self._open(IngestingIndex(make_base(), self.wal_path, compaction_threshold=3))

    def _open(self, live: IngestingIndex) -> None:
        self.live = live
        self.engine = QueryEngine(live, workers=2, cache_capacity=64)

    def _close(self) -> None:
        self.live.close()

    def _served(self, spec):
        return answer((match.distance, str(match.triple), match.documents)
                      for match in self.engine.execute(spec).matches)

    @rule(triple=TRIPLES, document_id=DOCUMENTS)
    def insert(self, triple, document_id):
        self.live.insert(triple, document_id=document_id)
        self._remember(triple, document_id)

    @rule(query=TRIPLES, k=st.integers(min_value=1, max_value=6))
    def knn(self, query, k):
        self._check_knn(self._served(QuerySpec.k_nearest(query, k)), query, k)

    @rule(query=TRIPLES, radius=RADII)
    def range(self, query, radius):
        self._check_range(self._served(QuerySpec.range_query(query, radius)),
                          query, radius)

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

    @invariant()
    def holds_one_point_per_triple(self):
        assert len(self.live) == len(self.model)


class ServedIndexMachine(SetModel):
    def __init__(self):
        super().__init__()
        live = IngestingIndex(make_base(), self.wal_path, compaction_threshold=3,
                              vocabulary_hints=HINTS)
        live.checkpoint(self.snapshot_path)
        self._serve(live, port=0)
        self.client = ServerClient(self.server.url)

    @property
    def live(self) -> IngestingIndex:
        return self.server.app.index

    def _serve(self, live: IngestingIndex, port: int) -> None:
        self.server = SemTreeServer(ServerApp(live), port=port,
                                    wire_cache=True).serve_background()

    def _close(self) -> None:
        self.client.close()
        self.server.close(checkpoint=False)

    def _served(self, path, payload):
        return answer((match["distance"], match["text"], match["documents"])
                      for match in self.client.request("POST", path, payload)["matches"])

    @rule(triple=TRIPLES, document_id=DOCUMENTS)
    def insert(self, triple, document_id):
        self.client.insert(triple, document_id=document_id)
        self._remember(triple, document_id)

    @rule(triple=TRIPLES, document_id=DOCUMENTS)
    def retried_insert(self, triple, document_id):
        first = self.client.insert(triple, document_id=document_id)
        assert self.client.insert(triple, document_id=document_id) == first
        self._remember(triple, document_id)

    @rule(query=TRIPLES, k=st.integers(min_value=1, max_value=6))
    def knn(self, query, k):
        self._check_knn(self._served("/v1/knn", ServerClient.knn_payload(query, k)),
                        query, k)

    @rule(query=TRIPLES, radius=RADII)
    def range(self, query, radius):
        self._check_range(
            self._served("/v1/range", ServerClient.range_payload(query, radius)),
            query, radius)

    @rule()
    def restart(self):
        port = self.server.bound_port
        self.server.close(checkpoint=False)
        self._serve(recover_index(self.snapshot_path, self.wal_path,
                                  compaction_threshold=3), port=port)

    @invariant()
    def serves_one_point_per_triple(self):
        assert self.client.index_info()["points"] == len(self.model)


LiveIndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestLiveIndexMachine = LiveIndexMachine.TestCase

ServedIndexMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None)
TestServedIndexMachine = ServedIndexMachine.TestCase
