"""Spans recorded from outside the program, around calls into its public functions.

The traced run replays one request at a time, so every span recorded while
request ``r`` is in flight belongs to ``r`` whichever thread ran it (the
engine and the scatter pool hand work to their own threads).  Spans are
kept in memory; parents are resolved afterwards from :data:`ONION`, the
fixed hierarchy of entry points the suite wraps.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import stats

__all__ = ["ONION", "Tracer"]

#: Span name -> the span names that may directly contain it.  A span's parent
#: is the shortest span of the same request, with one of these names, whose
#: interval contains it.  ``client.roundtrip`` (against the subprocess) and
#: the in-process replica (``server.protocol.parse`` + ``server.dispatch``)
#: run one after the other, so they are roots of their own.
ONION: Dict[str, Tuple[str, ...]] = {
    "client.roundtrip": (),
    "server.protocol.parse": (),
    "server.dispatch": (),
    "server.schemas.parse": ("server.dispatch",),
    "service.engine": ("server.dispatch",),
    "server.schemas.render": ("server.dispatch",),
    "ingest.insert": ("server.dispatch",),
    "ingest.wal.append": ("ingest.insert",),
    "embedding.transform": ("service.engine", "ingest.insert", "semantic.query"),
    "index.search": ("service.engine",),
    "core.search": ("index.search", "semantic.query"),
    "coordinator.shard_scan": ("index.search",),
    "semantic.query": (),
    "embedding.fit": (),
}


class Tracer:
    """In-memory span recorder for a sequential replay."""

    def __init__(self) -> None:
        self._raw: List[Tuple[str, int, float, float]] = []
        self.request = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if name not in ONION:
            raise KeyError(f"span {name!r} is not part of the onion")
        request = self.request
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, request, start, time.perf_counter())

    def record(self, name: str, request: int, start: float, end: float) -> None:
        # list.append is atomic; worker threads record without a lock
        self._raw.append((name, request, start, end))

    def wrap(self, target: Any, attribute: str, name: str) -> None:
        """Record a span around every call of ``target.attribute`` (a public
        method of an object the benchmark itself constructed)."""
        original: Callable[..., Any] = getattr(target, attribute)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(target, attribute, traced)

    def resolved(self) -> List[Dict[str, Any]]:
        """Every span as ``{id, name, request, start, end, parent}``."""
        spans = [
            {"id": index, "name": name, "request": request, "start": start,
             "end": end, "parent": None}
            for index, (name, request, start, end) in enumerate(self._raw)
        ]
        by_request: Dict[int, List[Dict[str, Any]]] = {}
        for item in spans:
            by_request.setdefault(item["request"], []).append(item)
        for group in by_request.values():
            for item in group:
                allowed = ONION[item["name"]]
                best: Optional[Dict[str, Any]] = None
                for other in group:
                    if (other["name"] in allowed and other["start"] <= item["start"]
                            and item["end"] <= other["end"]
                            and (best is None or other["end"] - other["start"]
                                 < best["end"] - best["start"])):
                        best = other
                if best is not None:
                    item["parent"] = best["id"]
        return spans

    def layer_samples(self) -> Dict[str, Dict[str, List[float]]]:
        """Per span name: wall-clock total and self seconds, one entry per request.

        Within one request a layer's spans are merged before measuring: four
        concurrent shard scans count the time at least one was running, not
        four times that, so self times of nested layers add up to the wall
        time of the outermost one.  A layer's self time is the union of its
        own spans minus the union of the spans directly below them.
        """
        spans = self.resolved()
        by_id = {item["id"]: item for item in spans}
        own: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
        below: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
        for item in spans:
            interval = (item["start"], item["end"])
            own.setdefault((item["name"], item["request"]), []).append(interval)
            if item["parent"] is not None:
                parent = by_id[item["parent"]]
                below.setdefault((parent["name"], item["request"]), []).append(interval)
        samples: Dict[str, Dict[str, List[float]]] = {}
        for (name, request), intervals in own.items():
            total = stats.union_length(intervals)
            slot = samples.setdefault(name, {"total": [], "self": []})
            slot["total"].append(total)
            slot["self"].append(total - stats.union_length(below.get((name, request), [])))
        return samples

    def durations(self, name: str) -> List[float]:
        """Every single span duration of one name (not summed per request)."""
        return [end - start for span_name, _, start, end in self._raw if span_name == name]

    def write(self, path: pathlib.Path) -> int:
        """Write the resolved spans as JSON lines; returns how many."""
        spans = self.resolved()
        with open(path, "w", encoding="utf-8") as handle:
            for item in spans:
                handle.write(json.dumps(item) + "\n")
        return len(spans)
