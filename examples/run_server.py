"""Run the HTTP server as a real OS process: boot, query, insert, kill, recover.

The walkthrough behind ``docs/server.md``:

1. build a small requirements index, wrap it in an
   :class:`~repro.ingest.ingesting.IngestingIndex` and write the checkpoint
   snapshot + WAL a server boots from;
2. spawn ``python -m repro.server`` as a subprocess, wait for it to listen,
   and drive it with the stdlib :class:`~repro.workloads.ServerClient`:
   single and batched k-NN over HTTP, a live insert, metrics;
3. terminate the process (SIGTERM → graceful checkpoint-on-exit), boot a
   *second* server from the files the first one left behind, and check it
   still knows the triple inserted over HTTP.

Run with::

    PYTHONPATH=src python examples/run_server.py
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.rdf import Triple
from repro.requirements import build_requirement_distance, build_requirement_vocabularies
from repro.workloads import ServerClient

ACTORS = ["OBSW001", "OBSW002", "OBSW003", "OBSW004"]

BASE_TRIPLES = [
    Triple.of("OBSW001", "Fun:accept_cmd", "CmdType:start-up"),
    Triple.of("OBSW001", "Fun:send_msg", "MsgType:heartbeat"),
    Triple.of("OBSW002", "Fun:enable_mode", "ModeType:safe-mode"),
    Triple.of("OBSW002", "Fun:accept_cmd", "CmdType:shutdown"),
    Triple.of("OBSW003", "Fun:withhold_tm", "TmType:volt-frame"),
]

INSERTED = Triple.of("OBSW004", "Fun:block_cmd", "CmdType:start-up")
QUERY = Triple.of("OBSW001", "Fun:accept_cmd", "CmdType:start-up")


def write_boot_state(workdir: Path) -> None:
    """Build the index once and leave a checkpoint + empty WAL on disk."""
    distance = build_requirement_distance(build_requirement_vocabularies(ACTORS))
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=8,
    ))
    index.add_triples(BASE_TRIPLES)
    index.build()
    with IngestingIndex(index, workdir / "wal.jsonl") as live:
        live.checkpoint(workdir / "snapshot.json")


def spawn_server(workdir: Path) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro.server`` and wait until it prints its URL."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--snapshot", str(workdir / "snapshot.json"),
         "--wal", str(workdir / "wal.jsonl"),
         "--port", "0", "--quiet"],
        stdout=subprocess.PIPE, text=True,
    )
    url = None
    for line in process.stdout:
        print(f"  [server] {line.rstrip()}")
        if line.startswith("listening on "):
            url = line.split("listening on ", 1)[1].strip()
            break
    if url is None:
        raise RuntimeError("the server exited before listening")
    return process, url


def wire_cache_hits(client: ServerClient) -> int:
    """Requests the server answered from its wire-byte cache so far."""
    for line in client.metrics_prometheus().splitlines():
        if line.startswith("repro_wire_cache_hits_total "):
            return int(float(line.split()[1]))
    return 0


def drain(process: subprocess.Popen) -> None:
    for line in process.stdout:
        print(f"  [server] {line.rstrip()}")
    process.wait(timeout=30)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="semtree-server-"))
    write_boot_state(workdir)
    print(f"Boot state written to {workdir}")

    process, url = spawn_server(workdir)
    client = ServerClient(url)
    client.wait_ready()

    health = client.health()
    print(f"Server healthy: {health['points']} points, "
          f"generation {health['generation']}")

    result = client.knn(QUERY, 3)
    print("Top-3 over HTTP:")
    for match in result["matches"]:
        print(f"  {match['text']}  @ {match['distance']:.3f}")

    payloads = [ServerClient.knn_payload(t, 2) for t in BASE_TRIPLES]
    client.knn_batch(payloads)           # cold: the engine runs all five
    hits = wire_cache_hits(client)
    # Warm, identical repeat: the event loop replays the first answer's
    # bytes (its "cached": false included); the engine never sees it.
    batch = client.knn_batch(payloads)
    replayed = wire_cache_hits(client) - hits
    print(f"Batched: {len(batch)} results, "
          f"{replayed * len(batch)} served from cache on repeat")

    response = client.insert(INSERTED, document_id="ops-manual")
    print(f"Inserted over HTTP: wal seq {response['seq']}, "
          f"delta size {response['delta_points']}")
    best = client.knn(INSERTED, 1)["matches"][0]
    print(f"Immediately queryable: {best['text']} @ {best['distance']:.3f} "
          f"(documents={best['documents']})")

    metrics = client.metrics()
    print(f"Metrics: {metrics['server']['requests']['knn']} k-NN requests, "
          f"{metrics['serving']['queries']} queries run by the engine "
          f"(result-cache hit rate {metrics['cache']['hit_rate']:.2f}), "
          f"{metrics['ingest']['inserts']} inserts")

    print("Sending SIGTERM (graceful shutdown: checkpoint-on-exit) ...")
    process.send_signal(signal.SIGTERM)
    drain(process)

    process, url = spawn_server(workdir)
    client = ServerClient(url)
    client.wait_ready()
    best = client.knn(INSERTED, 1)["matches"][0]
    survived = best["text"] == str(INSERTED) and best["documents"] == ["ops-manual"]
    print(f"Recovered server still knows the HTTP-inserted triple: {survived}")
    process.send_signal(signal.SIGTERM)
    drain(process)


if __name__ == "__main__":
    main()
