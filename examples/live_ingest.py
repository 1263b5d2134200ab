"""Live ingestion: stream inserts while serving queries, then crash and recover.

The walkthrough behind ``docs/ingest.md``:

1. build a small requirements index and wrap it in an
   :class:`~repro.ingest.ingesting.IngestingIndex` (write-ahead log + delta
   segment);
2. stream inserts *while* answering queries through the
   :class:`~repro.service.engine.QueryEngine` — no quiescing, the insert
   that crosses the compaction threshold folds the delta into the tree
   (the server's rule too), and every answer matches an index rebuilt from
   scratch;
3. checkpoint, keep inserting, "crash", and recover from snapshot + WAL
   tail with identical answers.

Run with::

    PYTHONPATH=src python examples/live_ingest.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.rdf import Triple
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.service import QueryEngine, QuerySpec

ACTORS = ["OBSW001", "OBSW002", "OBSW003", "OBSW004"]

BASE_TRIPLES = [
    Triple.of("OBSW001", "Fun:accept_cmd", "CmdType:start-up"),
    Triple.of("OBSW001", "Fun:send_msg", "MsgType:heartbeat"),
    Triple.of("OBSW002", "Fun:enable_mode", "ModeType:safe-mode"),
    Triple.of("OBSW002", "Fun:accept_cmd", "CmdType:shutdown"),
    Triple.of("OBSW003", "Fun:withhold_tm", "TmType:volt-frame"),
]

STREAM = [
    Triple.of("OBSW003", "Fun:acquire_in", "InType:gps"),
    Triple.of("OBSW003", "Fun:send_msg", "MsgType:pong"),
    Triple.of("OBSW003", "Fun:transmit_tm", "TmType:new-frame"),
    Triple.of("OBSW004", "Fun:accept_cmd", "CmdType:reset"),
    Triple.of("OBSW004", "Fun:enable_mode", "ModeType:survival-mode"),
    Triple.of("OBSW004", "Fun:block_cmd", "CmdType:start-up"),
    Triple.of("OBSW004", "Fun:send_msg", "MsgType:ping"),
    Triple.of("OBSW004", "Fun:transmit_tm", "TmType:temp-frame"),
]

QUERY = Triple.of("OBSW003", "Fun:transmit_tm", "TmType:new-frame")


def build_base(distance) -> SemTreeIndex:
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=8,
    ))
    index.add_triples(BASE_TRIPLES)
    return index.build()


def canonical(matches):
    return sorted((round(m.distance, 9), str(m.triple)) for m in matches)


def main() -> None:
    distance = build_requirement_distance(build_requirement_vocabularies(ACTORS))
    workdir = Path(tempfile.mkdtemp(prefix="semtree-ingest-"))
    wal_path = workdir / "wal.jsonl"
    snap_path = workdir / "snapshot.json"

    live = IngestingIndex(build_base(distance), wal_path, compaction_threshold=3)
    spec = QuerySpec.k_nearest(QUERY, 3)

    print(f"Base index: {len(live)} triples, generation {live.generation}")
    with QueryEngine(live, workers=2) as engine:
        for position, triple in enumerate(STREAM, start=1):
            live.insert(triple, document_id=f"doc-{position}")
            live.maybe_compact()    # the inserter that crosses the threshold folds
            result = engine.execute(spec)
            best = result.matches[0]
            print(f"  insert #{position}: delta={len(live.delta):>2}  "
                  f"gen={live.generation}  cached={str(result.cached):5}  "
                  f"best={best.triple} @ {best.distance:.3f}")

        # every answer equals a from-scratch rebuild over base + stream prefix
        oracle = build_base(distance)
        oracle.insert_triples(STREAM)
        live_answer = canonical(engine.execute(spec).matches)
        print("Answers equal a full rebuild:",
              live_answer == canonical(oracle.k_nearest(QUERY, 3)))

        stats = live.statistics()
        print(f"Ingested {stats['inserts']} triples at "
              f"{stats['ingest_qps']:.0f} inserts/sec, "
              f"{stats['compactions']} compactions")

    # -- checkpoint, keep writing, crash, recover ---------------------------------------
    live.checkpoint(snap_path)
    extra = Triple.of("OBSW001", "Fun:block_cmd", "CmdType:shutdown")
    live.insert(extra)          # after the checkpoint: lives only in the WAL
    del live                    # simulate a crash (no close, no new snapshot)

    recovered = IngestingIndex.recover(snap_path, wal_path, distance)
    oracle = build_base(distance)
    oracle.insert_triples(STREAM + [extra])
    identical = canonical(recovered.k_nearest(QUERY, 3)) == \
        canonical(oracle.k_nearest(QUERY, 3))
    print(f"Recovered from snapshot + WAL tail "
          f"(replayed {recovered.statistics()['replayed']} records)")
    print("Recovered service answers identically:", identical)


if __name__ == "__main__":
    main()
