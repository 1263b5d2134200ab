#!/usr/bin/env python3
"""CI observability smoke: boot a server, scrape it, validate the exposition.

Boots a real :class:`~repro.server.http.SemTreeServer` over a small
synthetic corpus on an ephemeral loopback port, then checks the
observability surface end to end:

1. ``GET /v1/metrics?format=prometheus`` answers with the v0.0.4 content
   type, parses, and passes every exposition invariant
   (:func:`~repro.obs.prometheus.validate_exposition`);
2. the core metric families are present — including the per-query cost
   counters (``repro_query_cost_total``);
3. the exposition agrees with the JSON ``/v1/metrics`` payload on every
   count that has both faces (:data:`FACES` — the two are read from the
   same instruments);
4. a request with ``X-Debug-Trace`` returns a span tree carrying the
   client's ``X-Trace-Id`` and a cost annotation on its ``execute`` span;
5. ``GET /v1/debug/profile`` returns collapsed stacks with ``repro.*``
   frames, and the window :mod:`repro.obs.top` computes from two
   exposition scrapes around the generated traffic counts its queries.

A second stage launches a *real* shard fleet (``python -m repro.server
--shard`` subprocesses plus a ``python -m repro.coordinator``) and checks
the same surface across processes: cluster-wide cost annotations in a
traced response, the same JSON-versus-exposition agreement on the shards
and the coordinator, the profile endpoint and ``top``'s window (on a
shard, executed scans stand in for queries) on every tier, and one run of
``python -m repro.obs.top`` against the coordinator.

Exit status 0 on success, 1 with one line per failure — what the CI
observability job keys off.  Run from the repository root::

    PYTHONPATH=src python tools/obs_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.ingest import IngestingIndex
from repro.obs.prometheus import CONTENT_TYPE, parse_exposition, validate_exposition
from repro.obs.top import scrape, window
from repro.requirements import (
    GeneratorConfig,
    RequirementsGenerator,
    build_requirement_distance,
    build_requirement_vocabularies,
)
from repro.core import SemTreeConfig, SemTreeIndex
from repro.server import SemTreeServer, ServerApp

CORE_FAMILIES = {
    "repro_build_info",
    "repro_uptime_seconds",
    "repro_http_requests_total",
    "repro_http_bytes_total",
    "repro_queries_total",
    "repro_queries_executed_total",
    "repro_query_latency_seconds",
    "repro_query_cost_total",
    "repro_queue_wait_seconds",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_inserts_total",
    "repro_index_points",
    "repro_index_generation",
    "repro_engine_workers",
}

#: ``(JSON path, series, label)`` for every count with a JSON and an
#: exposition face.  A ``*`` level fans out over a data-keyed dictionary; its
#: key is the series' ``label`` value.
_ENGINE_FACES = [
    ("serving.executed", "repro_queries_executed_total", None),
    ("serving.served_from_cache", "repro_queries_cached_total", None),
    ("serving.timeouts", "repro_query_timeouts_total", None),
    ("serving.errors", "repro_query_errors_total", None),
    ("serving.degraded", "repro_queries_degraded_total", None),
    ("serving.overlay_retries", "repro_overlay_retries_total", None),
    ("serving.queries_by_kind.*", "repro_queries_total", "kind"),
    ("serving.partition_loads.*", "repro_partition_visits_total", "partition"),
    ("serving.cost.*", "repro_query_cost_total", "counter"),
    ("cache.hits", "repro_cache_hits_total", None),
    ("cache.misses", "repro_cache_misses_total", None),
    ("cache.evictions", "repro_cache_evictions_total", None),
    ("cache.invalidations", "repro_cache_invalidations_total", None),
]


def _process_faces(section: str):
    return [
        (f"{section}.requests.*", "repro_http_requests_total", "endpoint"),
        (f"{section}.admission.admitted", "repro_requests_admitted_total", None),
        (f"{section}.admission.shed.*", "repro_requests_shed_total", "reason"),
    ]


FACES = {
    "server": _ENGINE_FACES + _process_faces("server") + [
        ("ingest.inserts", "repro_inserts_total", None),
        ("ingest.replayed", "repro_wal_replayed_total", None),
        ("ingest.compactions", "repro_compactions_total", None),
        ("ingest.points_compacted", "repro_points_compacted_total", None),
    ],
    "shard": [
        ("shard.nodes_visited", "repro_shard_nodes_visited_total", None),
        ("shard.points_examined", "repro_shard_points_examined_total", None),
        ("shard.cost.*", "repro_query_cost_total", "counter"),
        ("shard.requests.*", "repro_http_requests_total", "endpoint"),
    ],
    "coordinator": _ENGINE_FACES + _process_faces("coordinator") + [
        ("shards.queries", "repro_scatter_queries_total", None),
        ("shards.degraded_queries", "repro_degraded_queries_total", None),
        ("shards.per_shard.*.scans", "repro_shard_scans_total", "partition"),
        ("shards.per_shard.*.failures", "repro_shard_scan_failures_total", "partition"),
        ("shards.failover.*.retries", "repro_shard_retries_total", "partition"),
        ("shards.failover.*.failovers", "repro_shard_failovers_total", "partition"),
        ("shards.failover.*.circuit_shed", "repro_shard_circuit_shed_total", "partition"),
        ("shards.failover.*.circuit_opens", "repro_shard_circuit_opens_total", "partition"),
    ],
}


def json_values(payload, path: str):
    """``[(label value or None, value)]`` at ``path`` of a JSON payload."""
    found = [(None, payload)]
    for segment in path.split("."):
        if segment == "*":
            found = [(key, value) for _, node in found for key, value in node.items()]
        else:
            found = [(label, node[segment]) for label, node in found]
    return found


def compare_faces(url: str, tier: str) -> list[str]:
    """Disagreements between the two ``/v1/metrics`` formats of one process."""
    families = parse_exposition(
        fetch(f"{url}/v1/metrics?format=prometheus")[2].decode("utf-8"))
    payload = json.loads(fetch(f"{url}/v1/metrics")[2])
    problems = []
    for path, series, label in FACES[tier]:
        exposed = {sample.labels.get(label): sample.value
                   for sample in families[series].samples} if series in families else {}
        for label_value, value in json_values(payload, path):
            if (series, label_value) == ("repro_http_requests_total", "metrics"):
                continue    # the two reads being compared are themselves counted
            if exposed.get(label_value) != value:
                problems.append(
                    f"{tier}: {path} [{label_value}] is {value!r} in JSON, "
                    f"{series} is {exposed.get(label_value)!r}")
    return problems


def walk_spans(node):
    yield node
    for child in node.get("children", ()):
        yield from walk_spans(child)


def cost_of(trace, span_name: str):
    """The ``cost`` annotation of the first span named ``span_name``."""
    for root in trace.get("spans", ()):
        for node in walk_spans(root):
            if node.get("name") == span_name:
                return (node.get("meta") or {}).get("cost")
    return None


def build_server(tmp_dir: Path):
    corpus = RequirementsGenerator(GeneratorConfig(
        documents=4, requirements_per_document=4, sentences_per_requirement=2,
        actors=8, seed=7,
    )).generate()
    vocabularies = build_requirement_vocabularies(
        corpus.actor_names, corpus.parameter_values)
    index = SemTreeIndex(build_requirement_distance(vocabularies), SemTreeConfig(
        dimensions=3, bucket_size=4, max_partitions=2, partition_capacity=16,
    ))
    triples = []
    for document in corpus.documents:
        rdf_document = document.to_rdf_document()
        triples.extend(rdf_document.triples)
        index.add_document(rdf_document)
    index.build()
    live = IngestingIndex(index, tmp_dir / "wal.jsonl")
    app = ServerApp(live, workers=2,
                    checkpoint_path=tmp_dir / "snapshot.json")
    return SemTreeServer(app).serve_background(), triples


def fetch(url: str, *, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def post(url: str, payload: dict, *, headers: dict | None = None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), \
            json.loads(response.read())


def run_smoke() -> list[str]:
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        server, triples = build_server(Path(tmp))
        try:
            # Traffic first, so counters and histograms are non-trivial;
            # the scrapes around it bracket the window top would show.
            from repro.workloads import ServerClient

            before, started = scrape(server.url), time.monotonic()
            with ServerClient(server.url) as client:
                for triple in triples[:4]:
                    client.knn(triple, 3)
                    client.knn(triple, 3)       # cache hit
            problems.extend(check_window(server.url, before, started, "server"))

            status, headers, raw = fetch(
                f"{server.url}/v1/metrics?format=prometheus")
            if status != 200:
                problems.append(f"prometheus endpoint answered {status}")
            if headers.get("Content-Type") != CONTENT_TYPE:
                problems.append(
                    f"wrong content type: {headers.get('Content-Type')!r}")
            families = parse_exposition(raw.decode("utf-8"))
            problems.extend(validate_exposition(families))
            missing = CORE_FAMILIES - set(families)
            if missing:
                problems.append(f"missing core families: {sorted(missing)}")

            # The JSON payload and the exposition must agree.
            problems.extend(compare_faces(server.url, "server"))

            # Tracing: opt-in span tree with the client's trace id, whose
            # execute span carries the query's cost-counter annotation.
            from repro.io.serialization import triple_to_dict
            status, headers, traced = post(
                f"{server.url}/v1/knn",
                {"triple": triple_to_dict(triples[0]), "k": 7},
                headers={"X-Trace-Id": "obs-smoke-1", "X-Debug-Trace": "1"})
            if headers.get("X-Trace-Id") != "obs-smoke-1":
                problems.append("X-Trace-Id was not echoed")
            trace = traced.get("debug", {}).get("trace")
            if not trace or trace.get("trace_id") != "obs-smoke-1":
                problems.append("debug trace missing or with wrong trace id")
            elif not trace.get("spans"):
                problems.append("debug trace has no spans")
            else:
                cost = cost_of(trace, "execute")
                if not cost or cost.get("distance_computations", 0) <= 0:
                    problems.append(
                        f"traced execute span has no cost annotation: {cost}")

            # Cost counters must reach the exposition too.
            families = parse_exposition(
                fetch(f"{server.url}/v1/metrics?format=prometheus")[2]
                .decode("utf-8"))
            cost_series = {
                dict(sample.labels).get("counter"): sample.value
                for sample in families["repro_query_cost_total"].samples
            } if "repro_query_cost_total" in families else {}
            if cost_series.get("distance_computations", 0) <= 0:
                problems.append(
                    f"exposition cost counters are empty: {cost_series}")

            # Sampling profiler: collapsed stacks with repro frames.
            status, _, collapsed = fetch(
                f"{server.url}/v1/debug/profile?seconds=0.3&format=collapsed")
            if status != 200:
                problems.append(f"profile endpoint answered {status}")
            lines = collapsed.decode("utf-8").strip().splitlines()
            if not lines:
                problems.append("profile returned no stacks")
            elif not any("repro." in line for line in lines):
                problems.append("no repro frames in the profile")
        finally:
            server.close(checkpoint=False)
    return problems


def run_fleet_smoke() -> list[str]:
    """The same surface across a real coordinator + shard subprocess fleet."""
    from repro.coordinator import (launch_coordinator, launch_shards,
                                   shutdown_processes)
    from repro.core import SemTreeConfig, SemTreeIndex
    from repro.io.serialization import triple_to_dict
    from repro.server.bootstrap import vocabulary_hints

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="obs-smoke-fleet-") as tmp:
        tmp_dir = Path(tmp)
        corpus = RequirementsGenerator(GeneratorConfig(
            documents=5, requirements_per_document=4,
            sentences_per_requirement=2, actors=8, seed=11,
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

        data_partitions = [p.partition_id for p in index.tree.partitions
                           if p.point_count > 0]
        if len(data_partitions) < 2:
            return [f"fleet corpus built only {len(data_partitions)} "
                    "data partitions"]
        fleet = []
        try:
            shards = launch_shards(snapshot, data_partitions)
            fleet.extend(shards)
            coordinator = launch_coordinator(
                snapshot, {shard.partition_id: shard.url for shard in shards})
            fleet.append(coordinator)

            before = {managed.url: scrape(managed.url) for managed in fleet}
            started = time.monotonic()
            _, _, traced = post(
                f"{coordinator.url}/v1/knn",
                {"triple": triple_to_dict(triples[0]), "k": 5},
                headers={"X-Debug-Trace": "1"})
            trace = traced.get("debug", {}).get("trace", {})
            cost = cost_of(trace, "execute")
            if not cost or cost.get("distance_computations", 0) <= 0:
                problems.append(
                    f"fleet execute span has no cost annotation: {cost}")
            scan_costs = [
                (node.get("meta") or {}).get("cost")
                for root in trace.get("spans", ())
                for node in walk_spans(root)
                if node.get("name") == "shard_scan"
            ]
            if len(scan_costs) != len(shards) or not all(scan_costs):
                problems.append(
                    f"expected {len(shards)} annotated shard_scan spans, "
                    f"got {scan_costs}")
            elif cost and cost.get("distance_computations") != sum(
                    c.get("distance_computations", 0) for c in scan_costs):
                problems.append(
                    "cluster-wide cost does not sum the shard scans")

            # Both metrics formats agree, cost counters included; the
            # profile answers and top's window counts the traced query (a
            # shard's scan) — on every tier of the fleet.
            for managed in fleet:
                problems.extend(check_window(managed.url, before[managed.url],
                                             started, managed.role))
                problems.extend(compare_faces(managed.url, managed.role.split()[0]))
                status, _, collapsed = fetch(
                    f"{managed.url}/v1/debug/profile"
                    "?seconds=0.2&format=collapsed")
                if status != 200 or not collapsed.decode("utf-8").strip():
                    problems.append(f"{managed.role}: empty profile")
            problems.extend(check_top_cli(coordinator.url))
        finally:
            shutdown_processes(fleet)
    return problems


def check_window(url: str, before, started: float, role: str) -> list[str]:
    """``top``'s window from ``before`` to a scrape now must count queries."""
    entry = window(scrape(url), before, time.monotonic() - started)
    if entry["queries"] <= 0:
        return [f"{role}: top's window counted no queries: {entry}"]
    return []


def check_top_cli(url: str) -> list[str]:
    """``python -m repro.obs.top`` exits 0 and draws a window with a qps line."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs.top", "--url", url,
         "--iterations", "2", "--interval", "0.2", "--no-clear"],
        capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        return [f"repro.obs.top exited {done.returncode}: {done.stderr.strip()}"]
    if not any(line.startswith("qps ") for line in done.stdout.splitlines()):
        return [f"repro.obs.top drew no qps line: {done.stdout!r}"]
    return []


def main() -> int:
    problems = run_smoke()
    problems += run_fleet_smoke()
    for problem in problems:
        print(f"obs smoke: {problem}", file=sys.stderr)
    if not problems:
        print("obs smoke: exposition valid, core series present, formats "
              "agree, tracing round-trips, cost accounting sums across the "
              "fleet, profile and top's windows answer on every tier")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
