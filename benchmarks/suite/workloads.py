"""The six workloads.  Each takes :class:`Settings` and returns an :class:`Outcome`.

A timed run (``trace=False``) sets up twice (``setup_s`` is the median),
measures one window and reports the end-to-end metrics.  A traced
run sets up once, measures the same window while scraping ``/v1/metrics``
around it, then replays a fixed sample of the stream through the span onion
and reports the per-layer metrics.  Both check answers against an oracle.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.distributed import DistributedSemTree
from repro.core.semtree import SemTreeIndex
from repro.ingest import IngestingIndex
from repro.workloads import ServerClient

from . import corpora, loadgen, oracle, stats
from .corpora import Request, RequirementsInputs
from .loadgen import ProcessGroup, Window
from .replica import CountingDistance, Replica, load_checkpoint, replay
from .spans import Tracer

__all__ = ["Settings", "Outcome", "Scale", "WORKLOADS", "SPEC", "run"]

SPEC: Dict[str, Any] = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WHY = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
END_TO_END = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]

#: Closed-loop client connections for HTTP workloads (``nproc`` is 2 on the
#: reference box; the servers need the other core).
CLIENTS = 2
#: Complete set-ups per timed run; ``setup_s`` is their median.  The driver's
#: time cap leaves room for two (a fleet set-up takes 3 s).
SETUP_REPEATS = 2
ORACLE_SAMPLE = 200
SEMANTIC_K, SEMANTIC_RADIUS = 5, 0.15
CORE_K, CORE_RADIUS = 10, 0.05


@dataclass(frozen=True)
class Scale:
    """Sizes a workload runs at; the smoke test shrinks them."""

    synthetic_points: int = corpora.SYNTHETIC_POINTS
    synthetic_queries: int = 20_000
    requirement_triples: int = corpora.REQUIREMENT_TRIPLES
    cold_pool: int = 320
    stream_length: int = 60_000
    #: Unmeasured calls before an in-process window opens.
    warmup_calls: int = 400
    trace_requests_inprocess: int = 1000
    trace_requests_http: int = 400


@dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    trace: bool
    scale: Scale = Scale()
    spans_path: Optional[pathlib.Path] = None
    #: CPUs the server subprocesses are confined to (``None`` = not pinned).
    server_cpus: Optional[Tuple[int, ...]] = None


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per operation type: attempted / succeeded / failed / mismatched, and the
    #: sample count and supported tail percentile behind each latency metric.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Named pass/fail checks with a human-readable detail.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    conditions: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def _new_outcome(settings: Settings) -> Outcome:
    """A traced run reports every per-layer metric: 0 where a layer does no work."""
    return Outcome(metrics=dict.fromkeys(PER_LAYER, 0.0) if settings.trace else {})


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _us(seconds: float) -> float:
    return seconds * 1_000_000.0


# -- shared reporting ----------------------------------------------------------------------

def _record_window(outcome: Outcome, window: Window, verdict: oracle.Verdict) -> None:
    """Fold the window's counts and the oracle's verdict into the outcome."""
    outcome.attempted += window.total_attempted
    outcome.failed += window.total_failed + verdict.mismatched
    for op in sorted(window.attempted):
        outcome.counts[op] = {
            "attempted": window.attempted[op],
            "succeeded": window.attempted[op] - window.failed.get(op, 0),
            "failed": window.failed.get(op, 0),
            "latency_samples": len(window.samples.get(op, [])),
            "supported_tail": stats.supported_tail(len(window.samples.get(op, []))),
        }
    outcome.counts["oracle"] = {"checked": verdict.checked,
                                "mismatched": verdict.mismatched}
    for example in verdict.examples:
        outcome.check("oracle", False, example)
    outcome.check("window_not_exhausted", not window.exhausted,
                  "no client may run out of pre-generated requests")


def _latency_metrics(outcome: Outcome, window: Window, *, timed: bool) -> None:
    """Latency per query type: the median (timed runs) or the tails (traced runs).

    p50 and p95 are taken from the median slice; p99 over the whole window,
    where a stall that a median slice hides still shows.
    """
    for op in ("knn", "range"):
        if timed:
            outcome.metrics[f"{op}_p50_ms"] = _ms(window.quantile(op, 0.50))
        else:
            latencies = sorted(window.latencies(op))
            outcome.metrics[f"{op}_p95_ms"] = _ms(window.quantile(op, 0.95))
            outcome.metrics[f"{op}_p99_ms"] = _ms(
                stats.percentile(latencies, 0.99) if latencies else 0.0)


def _end_to_end(outcome: Outcome, *, setup: Sequence[float], window: Window,
                rss_mb: float) -> None:
    outcome.metrics["setup_s"] = statistics.median(setup)
    outcome.metrics["qps"] = window.rate()
    _latency_metrics(outcome, window, timed=True)
    outcome.metrics["peak_rss_mb"] = rss_mb
    outcome.conditions["error_rate"] = outcome.failed / max(outcome.attempted, 1)


def _layer_p50(layers: Dict[str, Dict[str, List[float]]], name: str, kind: str) -> float:
    values = layers.get(name, {}).get(kind, [])
    return statistics.median(values) if values else 0.0


def _cost_metrics(outcome: Outcome, costs: Sequence[Any]) -> None:
    """Mean work counters per executed query (exact repeats under a fixed seed)."""
    if not costs:
        return
    queries = len(costs)
    squared = sum(cost.squared_distance_rows for cost in costs)
    outcome.metrics["core.distance_computations_per_query"] = (
        sum(cost.distance_computations for cost in costs) / queries)
    outcome.metrics["core.buckets_scanned_per_query"] = (
        sum(cost.buckets_scanned for cost in costs) / queries)
    outcome.metrics["core.squared_rows_per_query"] = squared / queries
    outcome.metrics["core.pruned_ratio"] = (
        sum(cost.pruned_by_radius for cost in costs) / squared if squared else 0.0)


def _replay_knn(number: int) -> bool:
    """In-process replays mix 60 % k-NN with 40 % range, like the HTTP streams."""
    return number % 5 < 3


def _finish_trace(outcome: Outcome, tracer: Tracer, settings: Settings) -> None:
    if settings.spans_path is not None:
        outcome.conditions["spans_written"] = tracer.write(settings.spans_path)


# -- core_100k -----------------------------------------------------------------------------

def core_100k(settings: Settings) -> Outcome:
    scale = settings.scale
    outcome = _new_outcome(settings)
    loadgen.reset_own_peak_rss()
    points = corpora.synthetic_points(settings.seed, scale.synthetic_points)
    queries = corpora.synthetic_queries(points, scale.synthetic_queries, settings.seed + 1)
    outcome.conditions["corpus"] = {"points": len(points), "queries": len(queries)}
    outcome.conditions["load"] = {"threads": 1, "warmup_calls": scale.warmup_calls}

    builds: List[float] = []
    tree: Optional[DistributedSemTree] = None
    for _ in range(1 if settings.trace else SETUP_REPEATS):
        tree = None  # release the previous build before timing the next
        started = time.perf_counter()
        tree = corpora.synthetic_tree(points)
        builds.append(time.perf_counter() - started)
    assert tree is not None

    window = loadgen.run_inprocess_window(
        [("knn", lambda query: tree.k_nearest_state(query, CORE_K)),
         ("range", lambda query: tree.range_query_state(query, CORE_RADIUS))],
        queries, warmup_calls=scale.warmup_calls, seconds=settings.seconds)

    reference = oracle.PointOracle(tree.points(), kernel="numpy")
    verdict = oracle.Verdict()
    # a linear scan of 100k points takes 10 ms: half the usual sample
    for position, query in enumerate(
            oracle.sample(queries, ORACLE_SAMPLE // 2, settings.seed)):
        if position % 2 == 0:
            found = tree.k_nearest_state(query, CORE_K).results.neighbours()
            op, parameter = "knn", float(CORE_K)
        else:
            found = tree.range_query_state(query, CORE_RADIUS).sorted_results()
            op, parameter = "range", CORE_RADIUS
        reference.check(verdict, op, query, parameter,
                        [(n.point.label, n.distance) for n in found])
    _record_window(outcome, window, verdict)

    if not settings.trace:
        _end_to_end(outcome, setup=builds, window=window,
                    rss_mb=loadgen.peak_rss_mb([os.getpid()]))
        return outcome

    tracer = Tracer()
    costs = []
    for number, query in enumerate(queries[:scale.trace_requests_inprocess]):
        tracer.request = number
        with tracer.span("core.search"):
            if _replay_knn(number):
                state = tree.k_nearest_state(query, CORE_K)
            else:
                state = tree.range_query_state(query, CORE_RADIUS)
        costs.append(state.cost)
    layers = tracer.layer_samples()
    outcome.metrics["core.search.self_ms"] = _ms(_layer_p50(layers, "core.search", "self"))
    outcome.metrics["core.insert_us_per_point"] = _us(builds[0] / len(points))
    outcome.metrics["build_per_s"] = len(points) / builds[0]
    outcome.metrics["trace.coverage"] = 1.0  # the one layer is the whole call
    _cost_metrics(outcome, costs)
    _latency_metrics(outcome, window, timed=False)
    _finish_trace(outcome, tracer, settings)
    return outcome


# -- the requirements corpus ---------------------------------------------------------------

@dataclass
class _Built:
    index: SemTreeIndex
    seconds: float
    fit_seconds: float = 0.0
    distance: Optional[CountingDistance] = None


def _build_requirements(inputs: RequirementsInputs, *, traced: bool) -> _Built:
    """The timed build; a traced one also times ``fit`` and counts distance calls."""
    distance = CountingDistance(corpora.requirements_distance(inputs)) if traced else None
    fit = Tracer()
    started = time.perf_counter()
    index = corpora.requirements_index(inputs, distance)
    if traced:
        fit.wrap(index.embedder, "fit", "embedding.fit")
    corpora.build_requirements_index(index)
    seconds = time.perf_counter() - started
    return _Built(index, seconds, sum(fit.durations("embedding.fit")), distance)


def _distance_us(distance: Callable[[Any, Any], float], inputs: RequirementsInputs,
                 seed: int) -> float:
    """Steady-state cost of one triple-distance evaluation (memo caches warm)."""
    pairs = [(query, inputs.triples[(seed + 7 * position) % len(inputs.triples)])
             for position, query in enumerate(inputs.query_triples[:1500])]
    for a, b in pairs:
        distance(a, b)
    started = time.perf_counter()
    for a, b in pairs:
        distance(a, b)
    return _us((time.perf_counter() - started) / len(pairs))


def semantic_lib(settings: Settings) -> Outcome:
    scale = settings.scale
    outcome = _new_outcome(settings)
    loadgen.reset_own_peak_rss()
    inputs = corpora.requirements_inputs(settings.seed, scale.requirement_triples)
    outcome.conditions["corpus"] = {"triples": len(inputs.triples),
                                    "query_triples": len(inputs.query_triples)}
    outcome.conditions["load"] = {"threads": 1, "warmup_calls": scale.warmup_calls}
    builds: List[_Built] = []
    for _ in range(1 if settings.trace else SETUP_REPEATS):
        builds.append(_build_requirements(inputs, traced=settings.trace))
    built = builds[-1]
    index = built.index
    build_calls = built.distance.calls if built.distance else 0

    window = loadgen.run_inprocess_window(
        [("knn", lambda triple: index.k_nearest(triple, SEMANTIC_K)),
         ("range", lambda triple: index.range_query(triple, SEMANTIC_RADIUS))],
        inputs.query_triples, warmup_calls=scale.warmup_calls, seconds=settings.seconds)

    reference = oracle.PointOracle(index.tree.points(), kernel="scalar")
    verdict = oracle.Verdict()
    for position, triple in enumerate(
            oracle.sample(inputs.query_triples, ORACLE_SAMPLE, settings.seed)):
        query = index.embed_query(triple)
        if position % 2 == 0:
            found, op, parameter = index.k_nearest(triple, SEMANTIC_K), "knn", SEMANTIC_K
        else:
            found, op, parameter = (index.range_query(triple, SEMANTIC_RADIUS), "range",
                                    SEMANTIC_RADIUS)
        reference.check(verdict, op, query, float(parameter),
                        [(match.triple, match.distance) for match in found])
    _record_window(outcome, window, verdict)

    if not settings.trace:
        _end_to_end(outcome, setup=[b.seconds for b in builds], window=window,
                    rss_mb=loadgen.peak_rss_mb([os.getpid()]))
        return outcome

    assert built.distance is not None
    tracer = Tracer()
    tracer.wrap(index, "embed_query", "embedding.transform")
    tracer.wrap(index, "search_k_nearest", "core.search")
    tracer.wrap(index, "search_range", "core.search")
    costs = []
    calls_before = built.distance.calls
    sample = inputs.query_triples[:scale.trace_requests_inprocess]
    for number, triple in enumerate(sample):
        tracer.request = number
        with tracer.span("semantic.query"):
            point = index.embed_query(triple)
            if _replay_knn(number):
                result = index.search_k_nearest(point, SEMANTIC_K)
            else:
                result = index.search_range(point, SEMANTIC_RADIUS)
        costs.append(result.cost)
    calls = built.distance.calls - calls_before
    layers = tracer.layer_samples()
    outcome.metrics["core.search.self_ms"] = _ms(_layer_p50(layers, "core.search", "self"))
    outcome.metrics["embedding.transform_ms"] = _ms(
        _layer_p50(layers, "embedding.transform", "total"))
    outcome.metrics["semantics.distance_calls_per_build_triple"] = (
        build_calls / len(inputs.triples))
    whole = _layer_p50(layers, "semantic.query", "total")
    parts = sum(_layer_p50(layers, name, "self")
                for name in ("semantic.query", "embedding.transform", "core.search"))
    outcome.metrics["trace.coverage"] = parts / whole if whole else 0.0
    outcome.metrics["embedding.fit_s"] = built.fit_seconds
    outcome.metrics["semantics.distance_us"] = _distance_us(built.distance, inputs,
                                                            settings.seed)
    outcome.metrics["semantics.distance_calls_per_embed"] = calls / len(sample)
    outcome.metrics["build_per_s"] = len(inputs.triples) / built.seconds
    _cost_metrics(outcome, costs)
    _latency_metrics(outcome, window, timed=False)
    _finish_trace(outcome, tracer, settings)
    return outcome


# -- HTTP workloads ------------------------------------------------------------------------

@dataclass
class _Deployment:
    """One booted deployment of the requirements index and how long each part took."""

    built: _Built
    snapshot: pathlib.Path
    wal: pathlib.Path
    front_url: str
    front: Any
    shard_urls: Dict[str, str]
    commands: List[List[str]]
    setup_seconds: float
    save_seconds: float
    boot_seconds: float


def _deploy(group: ProcessGroup, inputs: RequirementsInputs, attempt: int, *,
            fleet: bool, traced: bool) -> _Deployment:
    """Corpus build + checkpoint + process boot to READY: what ``setup_s`` times."""
    started = time.perf_counter()
    first_command = len(group.commands)
    built = _build_requirements(inputs, traced=traced)
    directory = group.directory / f"deploy-{attempt}"
    directory.mkdir()
    snapshot, wal = directory / "snapshot.json", directory / "wal.jsonl"
    saving = time.perf_counter()
    with IngestingIndex(built.index, wal,
                        vocabulary_hints=inputs.vocabulary_hints) as live:
        live.checkpoint(snapshot)
    booting = time.perf_counter()
    shard_urls: Dict[str, str] = {}
    if fleet:
        partitions = [p.partition_id for p in built.index.tree.partitions
                      if p.point_count > 0]
        # all shards boot at once; each is waited for in turn
        starting = [(pid, group.start("repro.server", [
            "--snapshot", str(snapshot), "--shard", pid, "--port", "0", "--quiet"]))
            for pid in partitions]
        for pid, process in starting:
            shard_urls[pid] = group.wait_ready(process, f"shard {pid}", pid).url
        topology = ",".join(f"{pid}={url}" for pid, url in sorted(shard_urls.items()))
        front = group.spawn("repro.coordinator", [
            "--snapshot", str(snapshot), "--shards", topology, "--port", "0", "--quiet"],
            "coordinator")
    else:
        front = group.spawn("repro.server", [
            "--snapshot", str(snapshot), "--wal", str(wal), "--port", "0", "--quiet"],
            "server")
    ready = time.perf_counter()
    return _Deployment(built, snapshot, wal, front.url, front, shard_urls,
                       group.commands[first_command:], setup_seconds=ready - started,
                       save_seconds=booting - saving, boot_seconds=ready - booting)


def _cold(index: SemTreeIndex, inputs: RequirementsInputs, settings: Settings) -> List[Request]:
    pool = corpora.distinct_point_triples(index, inputs.query_triples,
                                          settings.scale.cold_pool)
    return corpora.cold_stream(pool, settings.seed)


def _zipf(index: SemTreeIndex, inputs: RequirementsInputs, settings: Settings) -> List[Request]:
    return corpora.zipf_stream(inputs.query_triples, settings.seed,
                               settings.scale.stream_length)


def _read_write(index: SemTreeIndex, inputs: RequirementsInputs,
                settings: Settings) -> List[Request]:
    return corpora.read_write_stream(inputs.query_triples, inputs.insert_triples,
                                     settings.seed, settings.scale.stream_length)


def _hit_rate(before: loadgen.Series, after: loadgen.Series, prefix: str) -> float:
    hits = loadgen.delta(before, after, f"{prefix}_hits_total")
    misses = loadgen.delta(before, after, f"{prefix}_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def _query_matches(client: ServerClient, request: Request) -> bytes:
    raw, _ = client.request_bytes("POST", request.path, request.data)
    return raw


def _durability(outcome: Outcome, group: ProcessGroup, deployment: _Deployment,
                inputs: RequirementsInputs, window: Window, kept_reads, settings: Settings
                ) -> Tuple[oracle.Verdict, float, float, int]:
    """http_rw's second half: find every insert, crash, recover, find them again.

    Returns ``(read verdict, recover seconds, replay records/s, WAL bytes)``.
    """
    acknowledged = window.acknowledged
    expected_points = len(inputs.triples) + len(acknowledged)
    probes = [corpora.range_request(request.triple, 0.0) for request, _ in
              oracle.sample(acknowledged, ORACLE_SAMPLE // 4, settings.seed)]

    def inserts_found(url: str, label: str) -> None:
        with ServerClient(url) as client:
            points = client.index_info()["points"]
            missing = 0
            for probe in probes:
                matches = oracle.matches_of(_query_matches(client, probe))
                if (probe.triple, 0.0) not in matches:
                    missing += 1
        outcome.check(f"inserts_counted_{label}", points == expected_points,
                      f"{points} points, expected {expected_points}")
        outcome.check(f"inserts_found_{label}", missing == 0,
                      f"{missing} of {len(probes)} sampled inserts not at distance 0")

    inserts_found(deployment.front_url, "before_crash")
    wal_bytes = deployment.wal.stat().st_size
    group.stop(deployment.front, kill=True)

    # Recover in-process from a copy of the same bytes: times the replay and
    # yields the point set the recovered server must answer from.
    wal_copy = deployment.wal.with_name("wal-copy.jsonl")
    shutil.copyfile(deployment.wal, wal_copy)
    base, _, hints, payload, _ = load_checkpoint(deployment.snapshot)
    replaying = time.perf_counter()
    with IngestingIndex(base, wal_copy, applied_seq=int(payload.get("wal_seq", 0)),
                        vocabulary_hints=hints) as recovered:
        replay_seconds = time.perf_counter() - replaying
        replayed = len(recovered.delta)
        reference = oracle.PointOracle(
            list(base.tree.points()) + list(recovered.delta.points()), kernel="scalar")
    outcome.check("replay_covers_acknowledged", replayed == len(acknowledged),
                  f"replayed {replayed} WAL records, {len(acknowledged)} acknowledged")

    relaunching = time.perf_counter()
    front = group.spawn("repro.server", [
        "--snapshot", str(deployment.snapshot), "--wal", str(deployment.wal),
        "--port", "0", "--quiet"], "server (recovered)")
    with ServerClient(front.url) as client:
        health = client.health()
    recover_seconds = time.perf_counter() - relaunching
    outcome.check("recovered_healthy", health["status"] == "ok", str(health))
    deployment.front, deployment.front_url = front, front.url
    inserts_found(front.url, "after_recovery")

    # Exact read check on the quiesced, recovered server; reads that raced
    # with inserts during the window are only checked for membership.
    embed = deployment.built.index.embed_query
    reads = [request for request, _ in
             oracle.sample(kept_reads, ORACLE_SAMPLE // 2, settings.seed)]
    with ServerClient(front.url) as client:
        verdict = oracle.check_responses(
            reference, embed, [(request, _query_matches(client, request))
                               for request in reads])
    raced = oracle.check_responses(reference, embed,
                                   oracle.sample(kept_reads, ORACLE_SAMPLE, settings.seed + 1),
                                   exact=False)
    verdict.checked += raced.checked
    verdict.mismatched += raced.mismatched
    verdict.examples.extend(raced.examples)
    return (verdict, recover_seconds,
            replayed / replay_seconds if replay_seconds else 0.0, wal_bytes)


def _http_workload(settings: Settings, make_stream: Callable[..., List[Request]], *,
                   warmup_requests: int, fleet: bool = False, read_write: bool = False,
                   cold: bool = False) -> Outcome:
    """``warmup_requests`` is per client: enough to leave the cold-start regime."""
    scale = settings.scale
    outcome = _new_outcome(settings)
    inputs = corpora.requirements_inputs(settings.seed, scale.requirement_triples)
    with ProcessGroup(settings.server_cpus) as group:
        deployments: List[_Deployment] = []
        for attempt in range(1 if settings.trace else SETUP_REPEATS):
            group.stop_all()
            deployments.append(_deploy(group, inputs, attempt, fleet=fleet,
                                       traced=settings.trace))
        deployment = deployments[-1]
        index = deployment.built.index
        build_calls = deployment.built.distance.calls if deployment.built.distance else 0
        stream = make_stream(index, inputs, settings)
        outcome.conditions["corpus"] = {
            "triples": len(inputs.triples), "query_triples": len(inputs.query_triples),
            "insert_triples": len(inputs.insert_triples), "stream_requests": len(stream),
            "snapshot_bytes": deployment.snapshot.stat().st_size,
        }

        before: loadgen.Series = {}

        def scrape_at_open() -> None:
            before.update(loadgen.scrape(deployment.front_url)[0])

        window = loadgen.run_http_window(
            deployment.front_url, corpora.split_round_robin(stream, CLIENTS),
            warmup_requests=warmup_requests, seconds=settings.seconds,
            at_open=scrape_at_open if settings.trace else None)
        after, payload = loadgen.scrape(deployment.front_url)
        rss_mb = loadgen.peak_rss_mb(group.pids())
        outcome.conditions["server_argv"] = deployment.commands
        outcome.conditions["load"] = {"clients": CLIENTS, "closed_loop": True,
                                      "warmup_requests_per_client": warmup_requests,
                                      "server_cpus": settings.server_cpus}

        kept_reads = [(request, raw) for request, raw in window.kept
                      if request.op != "insert"]
        if read_write:
            verdict, recover_seconds, replay_per_s, wal_bytes = _durability(
                outcome, group, deployment, inputs, window, kept_reads, settings)
        else:
            reference = oracle.PointOracle(index.tree.points(), kernel="scalar")
            verdict = oracle.check_responses(
                reference, index.embed_query,
                oracle.sample(kept_reads, ORACLE_SAMPLE, settings.seed))
        _record_window(outcome, window, verdict)

        # Cache state is set by the traffic; check that it came out as designed.
        result_hits = _hit_rate(before, after, "repro_cache")
        wire_hits = _hit_rate(before, after, "repro_wire_cache")
        outcome.conditions["cache_state"] = {"result_cache_hit_rate": result_hits,
                                             "wire_cache_hit_rate": wire_hits}
        if cold:
            outcome.check("caches_miss", result_hits < 0.02 and wire_hits < 0.02,
                          f"result {result_hits:.4f}, wire {wire_hits:.4f}")
        elif not read_write:
            # the wire cache sits in front: the result cache only sees its misses
            outcome.check("wire_cache_hits", wire_hits > 0.5,
                          f"result {result_hits:.4f}, wire {wire_hits:.4f}")
        if read_write:
            compactions = loadgen.delta({}, after, "repro_compactions_total")
            outcome.check("several_compactions", compactions >= 2,
                          f"{compactions:g} compactions since boot")

        if not settings.trace:
            _end_to_end(outcome, setup=[d.setup_seconds for d in deployments],
                        window=window, rss_mb=rss_mb)
            return outcome

        # ---- the traced half: scrape deltas, then the onion replay ----
        metrics = outcome.metrics
        metrics["service.cache.hit_rate"] = result_hits
        metrics["server.wire_cache.hit_rate"] = wire_hits
        metrics["service.cache.evictions"] = loadgen.delta(
            before, after, "repro_cache_evictions_total")
        metrics["service.queue_wait_ms_p99"] = _ms(stats.bucket_quantile(
            loadgen.bucket_deltas(before, after, "repro_queue_wait_seconds"), 0.99))
        metrics["server.bytes_per_response"] = window.body_bytes / max(
            window.total_attempted - window.total_failed, 1)
        metrics["build_per_s"] = len(inputs.triples) / deployment.built.seconds
        metrics["server.boot_s"] = deployment.boot_seconds
        metrics["service.snapshot.save_s"] = deployment.save_seconds
        metrics["service.snapshot.bytes_per_point"] = (
            deployment.snapshot.stat().st_size / len(inputs.triples))
        metrics["coordinator.retries"] = sum(
            loadgen.delta(before, after, name) for name in (
                "repro_shard_retries_total", "repro_shard_failovers_total",
                "repro_shard_hedges_total"))
        _latency_metrics(outcome, window, timed=False)
        if read_write:
            metrics["insert_p50_ms"] = _ms(window.quantile("insert", 0.50))
            metrics["insert_p95_ms"] = _ms(window.quantile("insert", 0.95))
            metrics["recover_s"] = recover_seconds
            metrics["ingest.replay_per_s"] = replay_per_s
            metrics["ingest.wal.bytes_per_insert"] = (
                wal_bytes / len(window.acknowledged) if window.acknowledged else 0.0)
            metrics["ingest.compactions"] = loadgen.delta(
                before, after, "repro_compactions_total")
            metrics["ingest.compaction_ms_p50"] = _ms(stats.bucket_quantile(
                loadgen.bucket_deltas(before, after, "repro_compaction_seconds"), 0.5))
            metrics["ingest.compaction_ms_max"] = float(
                payload["ingest"]["compaction_ms"]["max"])

        tracer = Tracer()
        replica = Replica(tracer, deployment.snapshot,
                          deployment.snapshot.with_name("replica-wal.jsonl"),
                          shard_urls=deployment.shard_urls if fleet else None)
        try:
            sample = stream[-scale.trace_requests_http:] if cold else (
                stream[:scale.trace_requests_http])
            calls_before = replica.distance.calls
            replay(tracer, deployment.front_url, replica, sample)
            calls = replica.distance.calls - calls_before
            layers = tracer.layer_samples()
            embeds = len(tracer.durations("embedding.transform"))
            _replica_metrics(outcome, layers, replica, fleet=fleet)
            if fleet:
                _fleet_metrics(outcome, tracer, layers, replica, index, sample)
            metrics["service.snapshot.load_s"] = replica.load_seconds
            metrics["embedding.fit_s"] = deployment.built.fit_seconds
            metrics["semantics.distance_calls_per_build_triple"] = (
                build_calls / len(inputs.triples))
            metrics["semantics.distance_us"] = _distance_us(replica.distance, inputs,
                                                            settings.seed)
            if embeds:
                metrics["semantics.distance_calls_per_embed"] = calls / embeds
        finally:
            replica.close()
        _finish_trace(outcome, tracer, settings)
        return outcome


#: The replica's layers, outermost first; their self times add up to the
#: in-process share of a round trip.
_REPLICA_LAYERS = ("server.protocol.parse", "server.dispatch", "server.schemas.parse",
                   "service.engine", "server.schemas.render", "embedding.transform",
                   "index.search", "core.search", "coordinator.shard_scan",
                   "ingest.insert", "ingest.wal.append")


def _replica_metrics(outcome: Outcome, layers: Dict[str, Dict[str, List[float]]],
                     replica: Replica, *, fleet: bool) -> None:
    metrics = outcome.metrics
    metrics["server.protocol.parse_us"] = _us(_layer_p50(layers, "server.protocol.parse", "total"))
    metrics["server.schemas.parse_us"] = _us(_layer_p50(layers, "server.schemas.parse", "total"))
    metrics["server.schemas.render_us"] = _us(_layer_p50(layers, "server.schemas.render", "total"))
    metrics["server.dispatch.self_ms"] = _ms(_layer_p50(layers, "server.dispatch", "self"))
    metrics["service.engine.self_ms"] = _ms(_layer_p50(layers, "service.engine", "self"))
    metrics["embedding.transform_ms"] = _ms(_layer_p50(layers, "embedding.transform", "total"))
    metrics["core.search.self_ms"] = _ms(_layer_p50(layers, "core.search", "self"))
    metrics["ingest.insert.self_ms"] = _ms(_layer_p50(layers, "ingest.insert", "self"))
    metrics["ingest.wal.append_us"] = _us(_layer_p50(layers, "ingest.wal.append", "total"))
    _cost_metrics(outcome, [cost for _, cost in replica.app.costs])

    roundtrip = layers["client.roundtrip"]["total"]
    in_process = [parse + dispatch for parse, dispatch in zip(
        layers["server.protocol.parse"]["total"], layers["server.dispatch"]["total"])]
    beyond = statistics.median(
        [trip - inside for trip, inside in zip(roundtrip, in_process)])
    name = "coordinator.edge.self_ms" if fleet else "server.transport.self_ms"
    metrics[name] = _ms(max(beyond, 0.0))
    covered = sum(_layer_p50(layers, layer, "self") for layer in _REPLICA_LAYERS)
    metrics["trace.coverage"] = covered / statistics.median(roundtrip)
    outcome.conditions["trace"] = {
        "requests": len(roundtrip),
        "client_roundtrip_p50_ms": _ms(statistics.median(roundtrip)),
        "replica_p50_ms": _ms(statistics.median(in_process)),
        # the subprocess answered faster than the replica could: the wire
        # cache served the median request, which the replica does not have
        "replica_exceeds_roundtrip": beyond < 0.0,
    }


def _fleet_metrics(outcome: Outcome, tracer: Tracer,
                   layers: Dict[str, Dict[str, List[float]]], replica: Replica,
                   index: SemTreeIndex, sample: Sequence[Request]) -> None:
    metrics = outcome.metrics
    scans = sorted(tracer.durations("coordinator.shard_scan"))
    metrics["coordinator.shard_roundtrip_ms_p50"] = _ms(stats.percentile(scans, 0.5))
    metrics["coordinator.shard_roundtrip_ms_p99"] = _ms(stats.percentile(scans, 0.99))
    metrics["coordinator.scatter_gather.self_ms"] = _ms(_layer_p50(layers, "index.search", "self"))
    # fan-out: shard scans per executed search, by kind
    spans = tracer.resolved()
    scans_of: Dict[int, int] = {}
    for item in spans:
        if item["name"] == "coordinator.shard_scan":
            scans_of[item["request"]] = scans_of.get(item["request"], 0) + 1
    for op in ("knn", "range"):
        fan = [scans_of[number] for number, request in enumerate(sample)
               if request.op == op and number in scans_of]
        metrics[f"coordinator.fan_out_per_{op}"] = sum(fan) / len(fan) if fan else 0.0
    # the same queries on the single-node index: how much extra work scatter does
    cluster = sum(cost.distance_computations for _, cost in replica.app.costs)
    single = 0
    for request in sample:
        point = index.embed_query(request.triple)
        if request.op == "knn":
            single += index.search_k_nearest(point, int(request.parameter)
                                             ).cost.distance_computations
        else:
            single += index.search_range(point, request.parameter).cost.distance_computations
    metrics["coordinator.cost_ratio_vs_single"] = cluster / single if single else 0.0


def http_cold(settings: Settings) -> Outcome:
    return _http_workload(settings, _cold, warmup_requests=250, cold=True)


def http_zipf(settings: Settings) -> Outcome:
    # throughput keeps climbing while the hot head settles into the caches;
    # 2 x 1500 requests get past the steep part of that ramp
    return _http_workload(settings, _zipf, warmup_requests=1500)


def http_rw(settings: Settings) -> Outcome:
    return _http_workload(settings, _read_write, warmup_requests=400, read_write=True)


def fleet_cold(settings: Settings) -> Outcome:
    return _http_workload(settings, _cold, warmup_requests=150, fleet=True, cold=True)


WORKLOADS: Dict[str, Callable[[Settings], Outcome]] = {
    "core_100k": core_100k,
    "semantic_lib": semantic_lib,
    "http_cold": http_cold,
    "http_zipf": http_zipf,
    "http_rw": http_rw,
    "fleet_cold": fleet_cold,
}


def run(name: str, settings: Settings) -> Outcome:
    outcome = WORKLOADS[name](settings)
    declared = PER_LAYER if settings.trace else END_TO_END
    outcome.metrics = {metric: outcome.metrics[metric] for metric in declared}
    return outcome
