#!/usr/bin/env python3
"""CI chaos smoke: kill/restart real shard replicas under load, stay exact.

Boots the acceptance deployment — two ``python -m repro.server --shard``
replica processes per data partition plus a ``python -m repro.coordinator``
— and then misbehaves at it, asserting after every stage that availability
held and that every answered query carried *exactly* the single-server
baseline's distances (replication must never change an answer):

1. **Flaky replica** — one replica of one partition is launched with a
   ``$REPRO_FAULTS`` plan injecting HTTP 503 into ~35% of its scans.  The
   coordinator's retry/failover must absorb every injected failure:
   availability 100%, ``retries`` counted in ``/v1/metrics``.
2. **Crash** — a different partition's primary replica is SIGKILLed
   mid-workload.  Zero failed queries (the survivor serves), the dead
   replica's circuit opens, ``/v1/healthz`` reports the partition at one
   healthy replica.
3. **Restart** — the killed replica is relaunched on its old port; under
   light query load the half-open probe must readmit it and ``/v1/healthz``
   must return to two healthy replicas.
4. **Overload** — a second coordinator with ``--max-queue-depth 2`` sheds
   a 4-query batch with 503 + ``Retry-After`` while a single query still
   answers, and the shed lands in the admission counters and the
   Prometheus exposition.

Exit status 0 on success, 1 with one line per failure — what the CI
chaos-smoke job keys off.  Run from the repository root::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.coordinator import launch_coordinator, launch_shard, shutdown_processes
from repro.core import SemTreeConfig, SemTreeIndex
from repro.errors import ServerError
from repro.ingest import IngestingIndex
from repro.requirements import (
    GeneratorConfig,
    RequirementsGenerator,
    build_requirement_distance,
    build_requirement_vocabularies,
)
from repro.server import SemTreeServer, ServerApp
from repro.server.bootstrap import vocabulary_hints
from repro.workloads import ServerClient

#: The flaky replica's server-side fault plan: deterministic (seeded) 503s
#: on roughly a third of its partition scans, nothing else.
FLAKY_PLAN = json.dumps({
    "seed": 23,
    "faults": [{"operation": "handle", "target": "/v1/shard/",
                "kind": "http_5xx", "status": 503, "probability": 0.35}],
})

CLIENT_THREADS = 4
STAGE_REQUESTS = 48
RECOVERY_TIMEOUT = 30.0


def build_corpus(tmp_dir: Path):
    """The requirements corpus, indexed, checkpointed, with its oracle."""
    corpus = RequirementsGenerator(GeneratorConfig(
        documents=5, requirements_per_document=4, sentences_per_requirement=2,
        actors=8, seed=11,
    )).generate()
    vocabularies = build_requirement_vocabularies(
        corpus.actor_names, corpus.parameter_values)
    index = SemTreeIndex(
        build_requirement_distance(vocabularies),
        SemTreeConfig(dimensions=3, bucket_size=4, max_partitions=4,
                      partition_capacity=16))
    triples = []
    for document in corpus.documents:
        rdf_document = document.to_rdf_document()
        triples.extend(rdf_document.triples)
        index.add_document(rdf_document)
    index.build()
    actors, parameters = vocabulary_hints(triples)
    live = IngestingIndex(
        index, tmp_dir / "wal.jsonl",
        vocabulary_hints={"actors": actors, "parameters": parameters})
    snapshot = tmp_dir / "snapshot.json"
    live.checkpoint(snapshot)
    live.close()
    partitions = [p.partition_id for p in index.tree.partitions
                  if p.point_count > 0]
    return index, triples, snapshot, partitions


def stage_payloads(triples, seed: int) -> List[Tuple[str, Dict]]:
    """``STAGE_REQUESTS`` seeded queries over ``triples``: 60 % k-NN (k=3),
    the rest range (radius 0.15)."""
    rng = random.Random(seed)
    payloads = []
    for _ in range(STAGE_REQUESTS):
        triple = triples[rng.randrange(len(triples))]
        if rng.random() < 0.6:
            payloads.append(("/v1/knn", ServerClient.knn_payload(triple, 3)))
        else:
            payloads.append(("/v1/range", ServerClient.range_payload(triple, 0.15)))
    return payloads


def oracle_answers(index, tmp_dir: Path, workloads) -> List[List[List[float]]]:
    """Every stage workload answered by one in-process server (the oracle)."""
    live = IngestingIndex(index, tmp_dir / "oracle-wal.jsonl")
    app = ServerApp(live, workers=2)
    answers = []
    with SemTreeServer(app).serve_background() as server:
        with ServerClient(server.url) as client:
            for payloads in workloads:
                answers.append([
                    [round(m["distance"], 9)
                     for m in client.request("POST", path, body)["matches"]]
                    for path, body in payloads
                ])
    return answers


def run_stage(url: str, payloads, expected,
              *, mid_run_hook=None) -> Tuple[float, List[str]]:
    """Replay a workload from CLIENT_THREADS clients, checking every answer.

    Returns ``(availability, problems)``; ``mid_run_hook`` (the crash) runs
    on the main thread after the first half of the workload, so queries
    provably continue past it.
    """
    problems: List[str] = []
    lock = threading.Lock()
    succeeded = 0

    def replay(indices: List[int]) -> None:
        nonlocal succeeded
        client = ServerClient(url, timeout=30.0)
        try:
            for position in indices:
                path, body = payloads[position]
                try:
                    reply = client.request("POST", path, body)
                except Exception as error:  # noqa: BLE001 - the availability metric
                    with lock:
                        problems.append(
                            f"request {position} ({path}) failed: {error}")
                    continue
                got = [round(m["distance"], 9) for m in reply["matches"]]
                if got != expected[position]:
                    with lock:
                        problems.append(
                            f"request {position} ({path}) answered "
                            f"{got} instead of {expected[position]}")
                    continue
                with lock:
                    succeeded += 1
        finally:
            client.close()

    def run_half(indices: List[int]) -> None:
        shards: List[List[int]] = [[] for _ in range(CLIENT_THREADS)]
        for order, position in enumerate(indices):
            shards[order % CLIENT_THREADS].append(position)
        threads = [threading.Thread(target=replay, args=(shard,))
                   for shard in shards if shard]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    half = len(payloads) // 2
    run_half(list(range(half)))
    if mid_run_hook is not None:
        mid_run_hook()
    run_half(list(range(half, len(payloads))))
    return succeeded / len(payloads), problems


def port_of(url: str) -> int:
    return urllib.parse.urlsplit(url).port


def run_chaos() -> List[str]:
    problems: List[str] = []
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp_dir = Path(tmp)
        index, triples, snapshot, partitions = build_corpus(tmp_dir)
        if len(partitions) < 2:
            return [f"corpus built only {len(partitions)} data partitions"]
        flaky_partition, crash_partition = partitions[0], partitions[1]

        # Fresh payloads per stage (no deliberate repeats, fresh seeds): a
        # coordinator cache hit runs no scatter, and a masked scatter would
        # make the whole exercise vacuous.
        workloads = [stage_payloads(triples, seed=100 + stage) for stage in range(4)]
        expected = oracle_answers(index, tmp_dir, workloads)

        fleet: Dict[str, List] = {}
        processes = []
        try:
            for partition_id in partitions:
                env = None
                if partition_id == flaky_partition:
                    env = {**os.environ, "REPRO_FAULTS": FLAKY_PLAN}
                primary = launch_shard(snapshot, partition_id, env=env)
                secondary = launch_shard(snapshot, partition_id)
                fleet[partition_id] = [primary, secondary]
                processes.extend([primary, secondary])
            shards = {pid: [managed.url for managed in group]
                      for pid, group in fleet.items()}
            coordinator = launch_coordinator(
                snapshot, shards,
                extra_args=["--failure-threshold", "3",
                            "--reset-timeout", "1"])
            processes.append(coordinator)

            # Stage 1: the flaky replica's injected 503s are absorbed.
            availability, stage_problems = run_stage(
                coordinator.url, workloads[0], expected[0])
            problems.extend(stage_problems)
            if availability < 1.0:
                problems.append(
                    f"stage 1 availability {availability:.3f} < 1.0 "
                    "with a healthy replica present")
            with ServerClient(coordinator.url) as client:
                failover = client.metrics()["shards"]["failover"]
            if failover[flaky_partition]["retries"] < 1:
                problems.append(
                    "stage 1: no retries counted — the fault plan never "
                    f"fired ({failover[flaky_partition]})")

            # Stage 2: SIGKILL the crash partition's primary mid-workload.
            victim = fleet[crash_partition][0]
            victim_port = port_of(victim.url)
            availability, stage_problems = run_stage(
                coordinator.url, workloads[1], expected[1],
                mid_run_hook=victim.kill)
            problems.extend(stage_problems)
            if availability < 1.0:
                problems.append(
                    f"stage 2 availability {availability:.3f} < 1.0 "
                    "after killing one of two replicas")
            with ServerClient(coordinator.url) as client:
                metrics = client.metrics()
                health = client.health()
            crashed = metrics["shards"]["failover"][crash_partition]
            if crashed["retries"] < 1:
                problems.append(f"stage 2: the crash cost no retries ({crashed})")
            if crashed["circuit_opens"] < 1:
                problems.append(
                    f"stage 2: the dead replica's circuit never opened ({crashed})")
            partition_health = health["partitions"][crash_partition]
            if partition_health["healthy"] > 1:
                problems.append(
                    f"stage 2: healthz still counts the dead replica "
                    f"({partition_health})")

            # Stage 3: restart on the old port; probes must readmit it.
            fleet[crash_partition][0] = launch_shard(
                snapshot, crash_partition, port=victim_port)
            processes.append(fleet[crash_partition][0])
            recovered = False
            deadline = time.monotonic() + RECOVERY_TIMEOUT
            with ServerClient(coordinator.url) as client:
                probe_payloads = iter(workloads[2] * 10)
                while time.monotonic() < deadline:
                    path, body = next(probe_payloads)
                    try:
                        client.request("POST", path, body)
                    except ServerError:
                        pass  # a half-open probe losing the race is fine
                    entry = client.health()["partitions"][crash_partition]
                    if entry["healthy"] == 2 and entry["open"] == 0:
                        recovered = True
                        break
                    time.sleep(0.25)
            if not recovered:
                problems.append(
                    f"stage 3: restarted replica not readmitted within "
                    f"{RECOVERY_TIMEOUT:.0f}s")
            availability, stage_problems = run_stage(
                coordinator.url, workloads[2], expected[2])
            problems.extend(stage_problems)
            if availability < 1.0:
                problems.append(
                    f"stage 3 availability {availability:.3f} < 1.0 "
                    "after the replica rejoined")

            # Stage 4: overload a second coordinator; it must shed, not die.
            throttled = launch_coordinator(
                snapshot, shards, extra_args=["--max-queue-depth", "2"])
            processes.append(throttled)
            with ServerClient(throttled.url) as client:
                batch = [body for path, body in workloads[3]
                         if path == "/v1/knn"][:4]
                try:
                    client.knn_batch(batch)
                    problems.append(
                        "stage 4: a 4-query batch slipped past queue depth 2")
                except ServerError as error:
                    if error.status != 503:
                        problems.append(
                            f"stage 4: shed with {error.status}, wanted 503")
                    if error.kind != "AdmissionError":
                        problems.append(
                            f"stage 4: shed kind {error.kind!r}, wanted "
                            "'AdmissionError'")
                    if error.retry_after is None:
                        problems.append("stage 4: no Retry-After header on 503")
                path, body = workloads[3][0]
                reply = client.request("POST", path, body)
                got = [round(m["distance"], 9) for m in reply["matches"]]
                if got != expected[3][0]:
                    problems.append(
                        "stage 4: the admitted query answered wrongly under "
                        "overload")
                admission = client.metrics()["coordinator"]["admission"]
                if admission["shed"].get("queue_full", 0) < 1:
                    problems.append(
                        f"stage 4: shed not counted ({admission['shed']})")
                exposition = client.metrics_prometheus()
                if "repro_requests_shed_total" not in exposition:
                    problems.append(
                        "stage 4: repro_requests_shed_total missing from "
                        "the exposition")
        finally:
            shutdown_processes(processes)
    return problems


def main() -> int:
    problems = run_chaos()
    for problem in problems:
        print(f"chaos smoke: {problem}", file=sys.stderr)
    if not problems:
        print("chaos smoke: injected 503s absorbed, replica crash survived "
              "with 100% availability and exact answers, restarted replica "
              "readmitted, overload shed with 503 + Retry-After")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
