"""repro — a reproduction of *SemTree: an index for supporting semantic
retrieval of documents* (Amato et al., ICDE Workshops 2015).

The package is organised as one subpackage per subsystem:

* :mod:`repro.rdf` — triples, namespaces, Turtle-like parsing, triple store;
* :mod:`repro.semantics` — taxonomies, similarity measures, the weighted
  triple distance of Eq. (1);
* :mod:`repro.embedding` — FastMap and the triple embedder;
* :mod:`repro.cluster` — the simulated distributed environment;
* :mod:`repro.core` — the sequential and distributed SemTree index and the
  :class:`~repro.core.semtree.SemTreeIndex` facade;
* :mod:`repro.nlp` — controlled-English requirement sentences → triples;
* :mod:`repro.requirements` — the software-requirements case study
  (synthetic corpus, antinomy vocabulary, inconsistency detection);
* :mod:`repro.baselines` — linear-scan and sequential-tree baselines;
* :mod:`repro.workloads` — synthetic point/query workload generators;
* :mod:`repro.evaluation` — precision/recall, timing, experiment running;
* :mod:`repro.service` — the concurrent query-serving engine (result
  caching, batch execution, deadlines, index snapshots);
* :mod:`repro.ingest` — live ingestion (write-ahead log, delta index,
  threshold compaction) so inserts no longer quiesce queries;
* :mod:`repro.server` — the process-level HTTP front end over the serving
  stack (wire schemas, ``python -m repro.server``, checkpoint-on-exit).
"""

from repro.core.config import SemTreeConfig, SplitStrategy
from repro.core.semtree import SemanticMatch, SemTreeIndex
from repro.ingest.ingesting import IngestingIndex
from repro.ingest.wal import WriteAheadLog
from repro.rdf.triple import Triple, TriplePattern
from repro.semantics.triple_distance import DistanceWeights, TermDistance, TripleDistance
from repro.service.engine import QueryEngine, QueryResult
from repro.service.planner import QueryKind, QuerySpec
from repro.service.snapshot import load_index, save_index

__version__ = "1.8.0"

__all__ = [
    "SemTreeIndex",
    "SemanticMatch",
    "SemTreeConfig",
    "SplitStrategy",
    "Triple",
    "TriplePattern",
    "TripleDistance",
    "TermDistance",
    "DistanceWeights",
    "QueryEngine",
    "QueryResult",
    "QuerySpec",
    "QueryKind",
    "IngestingIndex",
    "WriteAheadLog",
    "save_index",
    "load_index",
    "__version__",
]
