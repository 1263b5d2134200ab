"""Seeded inputs: the two corpora and the request streams drawn over them.

Everything here is a pure function of the seed; the program under test only
ever sees what these functions return.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import SemTreeConfig, SemTreeIndex
from repro.core.distributed import DistributedSemTree
from repro.core.point import LabeledPoint
from repro.io.serialization import triple_to_dict
from repro.rdf.triple import Triple
from repro.requirements import (GeneratorConfig, RequirementsGenerator,
                                build_requirement_distance,
                                build_requirement_vocabularies)
from repro.semantics.triple_distance import TripleDistance
from repro.workloads import ServerClient
from repro.workloads.distributions import clustered_points
from repro.workloads.queries import perturbed_queries

from .stats import ZipfSampler

__all__ = ["SYNTHETIC_POINTS", "REQUIREMENT_TRIPLES", "DATA_PARTITIONS", "K_VALUES",
           "RADIUS_GRID", "Request", "RequirementsInputs", "synthetic_points",
           "synthetic_tree", "synthetic_queries", "requirements_inputs",
           "requirements_distance", "requirements_index", "build_requirements_index",
           "knn_request",
           "range_request", "insert_request", "distinct_point_triples", "cold_stream",
           "zipf_stream", "read_write_stream", "split_round_robin"]

#: Points of the *synthetic-100k* corpus (no semantic distance involved).
SYNTHETIC_POINTS = 100_000
SYNTHETIC_DIMENSIONS = 8

#: Distinct triples indexed from the *requirements* corpus.  The issue asked
#: for ~2.4k (a 14 s build); a run sets up three times inside the driver's
#: time cap, which leaves little over 1 s per build, so the corpus is cut to a
#: fixed 240 — the build is still FastMap + Wu-Palmer dominated.
REQUIREMENT_TRIPLES = 240
#: Data-bearing partitions the requirements index must end up with (the root
#: partition only routes), hence the shard count of ``fleet_cold``.
DATA_PARTITIONS = 4
_ACTORS = 32

K_VALUES: Tuple[int, ...] = tuple(range(1, 17))
RADIUS_GRID: Tuple[float, ...] = tuple(round(0.05 + 0.01 * step, 2) for step in range(16))

KNN_SHARE = 0.6
ZIPF_CATALOGUE = 20_000
ZIPF_S = 1.1
#: The issue's 10 % would fill the 256-point delta once per window at these
#: rates; 30 % lets the compactor complete several cycles in 8 s.
INSERT_SHARE = 0.3


# -- synthetic-100k ------------------------------------------------------------------------

def synthetic_points(seed: int, count: int = SYNTHETIC_POINTS) -> List[LabeledPoint]:
    return clustered_points(count, SYNTHETIC_DIMENSIONS, clusters=32, spread=0.05, seed=seed)


def synthetic_tree(points: Sequence[LabeledPoint]) -> DistributedSemTree:
    """Insert the points straight into the distributed tree (the timed build)."""
    tree = DistributedSemTree(SemTreeConfig(
        dimensions=SYNTHETIC_DIMENSIONS, bucket_size=32, max_partitions=4,
        partition_capacity=max(32, len(points) // 3),
    ))
    for point in points:
        tree.insert(point)
    return tree


def synthetic_queries(points: Sequence[LabeledPoint], count: int,
                      seed: int) -> List[LabeledPoint]:
    return list(perturbed_queries(points, count, jitter=0.02, seed=seed).queries)


# -- requirements --------------------------------------------------------------------------

@dataclass(frozen=True)
class RequirementsInputs:
    """The three seeded corpora of the requirements workloads.

    ``triples`` are indexed; ``query_triples`` (seed+1) and ``insert_triples``
    (seed+2) are novel — none is stored — so embedding them runs the semantic
    distance against the pivots instead of a table lookup.
    """

    triples: Tuple[Triple, ...]
    query_triples: Tuple[Triple, ...]
    insert_triples: Tuple[Triple, ...]
    actors: Tuple[str, ...]
    parameters: Dict[str, List[str]]

    @property
    def vocabulary_hints(self) -> Dict[str, object]:
        return {"actors": list(self.actors), "parameters": self.parameters}


def _corpus(seed: int, documents: int):
    return RequirementsGenerator(GeneratorConfig(
        documents=documents, requirements_per_document=10, sentences_per_requirement=3,
        actors=_ACTORS, inconsistency_rate=0.2, restatement_rate=0.2, seed=seed,
    )).generate()


def requirements_inputs(seed: int, triples: int = REQUIREMENT_TRIPLES) -> RequirementsInputs:
    # ~25 distinct triples per document; generate with headroom, then cut to
    # a fixed size so every seed indexes the same amount of data.
    stored_corpus = _corpus(seed, documents=max(4, triples // 18))
    stored = list(dict.fromkeys(stored_corpus.all_triples()))
    if len(stored) < triples:
        raise RuntimeError(f"seed {seed} generated {len(stored)} distinct triples, "
                           f"need {triples}")
    stored = stored[:triples]
    known = set(stored)
    queries = [t for t in dict.fromkeys(_corpus(seed + 1, documents=120).all_triples())
               if t not in known]
    inserts = [t for t in dict.fromkeys(_corpus(seed + 2, documents=250).all_triples())
               if t not in known]
    return RequirementsInputs(
        triples=tuple(stored), query_triples=tuple(queries), insert_triples=tuple(inserts),
        actors=tuple(stored_corpus.actor_names),
        parameters={prefix: list(values)
                    for prefix, values in stored_corpus.parameter_values.items()},
    )


def requirements_distance(inputs: RequirementsInputs) -> TripleDistance:
    return build_requirement_distance(
        build_requirement_vocabularies(list(inputs.actors), inputs.parameters))


def requirements_index(inputs: RequirementsInputs,
                       distance: Optional[TripleDistance] = None) -> SemTreeIndex:
    """The index with the stored triples registered, not built yet."""
    count = len(inputs.triples)
    index = SemTreeIndex(distance or requirements_distance(inputs), SemTreeConfig(
        dimensions=8, bucket_size=16, max_partitions=DATA_PARTITIONS + 1,
        partition_capacity=max(16, count // DATA_PARTITIONS),
    ))
    index.add_triples(inputs.triples)
    return index


def build_requirements_index(index: SemTreeIndex) -> SemTreeIndex:
    """The timed build: FastMap fit + tree inserts; checks the partition layout."""
    index.build()
    bearing = [p.partition_id for p in index.tree.partitions if p.point_count > 0]
    if len(bearing) != DATA_PARTITIONS:
        raise RuntimeError(f"expected {DATA_PARTITIONS} data-bearing partitions, "
                           f"got {bearing}")
    return index


# -- request streams -----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One pre-encoded request: ``op`` is ``knn``, ``range`` or ``insert``."""

    op: str
    path: str
    data: bytes
    triple: Triple
    parameter: float = 0.0


def knn_request(triple: Triple, k: int) -> Request:
    body = json.dumps(ServerClient.knn_payload(triple, k)).encode("utf-8")
    return Request("knn", "/v1/knn", body, triple, float(k))


def range_request(triple: Triple, radius: float) -> Request:
    body = json.dumps(ServerClient.range_payload(triple, radius)).encode("utf-8")
    return Request("range", "/v1/range", body, triple, radius)


def insert_request(triple: Triple) -> Request:
    body = json.dumps({"triple": triple_to_dict(triple)}).encode("utf-8")
    return Request("insert", "/v1/insert", body, triple)


def distinct_point_triples(index: SemTreeIndex, triples: Sequence[Triple],
                           count: int) -> List[Triple]:
    """The first ``count`` triples that embed to pairwise different points.

    The result cache keys on embedded coordinates, not on the triple, so a
    stream is only cache-cold if its *points* are distinct.
    """
    chosen: List[Triple] = []
    seen = set()
    for triple in triples:
        coordinates = index.embed_query(triple).coordinates
        if coordinates not in seen:
            seen.add(coordinates)
            chosen.append(triple)
            if len(chosen) == count:
                return chosen
    raise RuntimeError(f"only {len(chosen)} of {len(triples)} query triples embed to "
                       f"distinct points, need {count}")


def cold_stream(pool: Sequence[Triple], seed: int) -> List[Request]:
    """Every (triple, k) and (triple, radius) combination once, 60 % k-NN.

    ``pool`` must come from :func:`distinct_point_triples`; no request repeats,
    so planner dedup, result cache and wire cache all miss.
    """
    rng = random.Random(seed)
    knn = [knn_request(triple, k) for triple in pool for k in K_VALUES]
    ranges = [range_request(triple, radius) for triple in pool for radius in RADIUS_GRID]
    rng.shuffle(knn)
    rng.shuffle(ranges)
    stream: List[Request] = []
    while knn and ranges:
        stream.append(knn.pop() if rng.random() < KNN_SHARE else ranges.pop())
    return stream


def _catalogue(triples: Sequence[Triple], seed: int) -> List[Request]:
    rng = random.Random(seed)
    combos = [(triple, slot) for triple in triples for slot in range(len(K_VALUES))]
    rng.shuffle(combos)
    catalogue = []
    for triple, slot in combos[:ZIPF_CATALOGUE]:
        if rng.random() < KNN_SHARE:
            catalogue.append(knn_request(triple, K_VALUES[slot]))
        else:
            catalogue.append(range_request(triple, RADIUS_GRID[slot]))
    if len(catalogue) < ZIPF_CATALOGUE:
        raise RuntimeError(f"catalogue has {len(catalogue)} queries, need {ZIPF_CATALOGUE}")
    return catalogue


def zipf_stream(triples: Sequence[Triple], seed: int, count: int) -> List[Request]:
    """``count`` draws by rank (Zipf s=1.1) from 20 000 distinct queries."""
    catalogue = _catalogue(triples, seed)
    sampler = ZipfSampler(len(catalogue), ZIPF_S, seed)
    return [catalogue[rank] for rank in sampler.draws(count)]


def read_write_stream(triples: Sequence[Triple], inserts: Sequence[Triple], seed: int,
                      count: int) -> List[Request]:
    """The Zipf read stream with 30 % single-triple inserts mixed in.

    Insert triples are consumed in order and never repeated; the stream ends
    early rather than re-insert one.
    """
    rng = random.Random(seed + 1)
    reads = iter(zipf_stream(triples, seed, count))
    writes = iter(inserts)
    stream: List[Request] = []
    for _ in range(count):
        if rng.random() < INSERT_SHARE:
            triple = next(writes, None)
            if triple is None:
                break
            stream.append(insert_request(triple))
        else:
            stream.append(next(reads))
    return stream


def split_round_robin(stream: Sequence[Request], parts: int) -> List[List[Request]]:
    return [list(stream[offset::parts]) for offset in range(parts)]
