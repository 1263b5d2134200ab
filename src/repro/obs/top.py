"""``python -m repro.obs.top`` — a live terminal view over a node's metrics.

Scrapes any node's ``GET /v1/metrics?format=prometheus`` (server, shard,
coordinator, or anything else serving the exposition) every ``--interval``
seconds and diffs each scrape against the one before: the served process
keeps no history, and the windows shown are those ``top`` has seen since it
started.  Pure ANSI — no curses — so frames also work in CI logs.

Quantiles from deltas: subtracting two cumulative scrapes of a histogram's
buckets gives the latency distribution of just that window; a quantile is
the upper bound of the bucket it falls in (as ``histogram_quantile``
estimates).  Latency comes from ``repro_query_latency_seconds``, on a shard
from ``repro_shard_scan_seconds``; series a role lacks read ``None``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.prometheus import parse_exposition
from repro.workloads.http_client import ServerClient

__all__ = ["Windows", "flatten", "main", "render_dashboard", "scrape", "window"]

#: ANSI: clear the screen and home the cursor (one frame replaces the last).
_CLEAR = "\x1b[2J\x1b[H"

#: Windows kept, and rows of them shown under the headline block.
_TABLE_ROWS = 12

#: Histogram families consulted for the latency series, in preference order.
_LATENCY_FAMILIES = ("repro_query_latency_seconds", "repro_shard_scan_seconds")

_Scrape = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def flatten(exposition: str) -> _Scrape:
    """Parse exposition text into ``{(series name, sorted labels): value}``."""
    return {(sample.name, tuple(sorted(sample.labels.items()))): sample.value
            for family in parse_exposition(exposition).values()
            for sample in family.samples}


def scrape(url: str, timeout: float = 5.0) -> _Scrape:
    """GET ``{url}/v1/metrics?format=prometheus`` and flatten it."""
    with ServerClient(url, timeout=timeout) as client:
        return flatten(client.metrics_prometheus())


def _delta(current: _Scrape, previous: _Scrape, name: str,
           match: Optional[Dict[str, str]] = None) -> float:
    """Summed per-series increase of every series named ``name`` since
    ``previous`` (a new series counts from 0, a restarted one clamps to 0),
    restricted by ``match`` to series carrying every given label pair."""
    total = 0.0
    for (sample_name, labels), value in current.items():
        if sample_name != name:
            continue
        if match is not None:
            attached = dict(labels)
            if any(attached.get(k) != v for k, v in match.items()):
                continue
        total += max(0.0, value - previous.get((sample_name, labels), 0.0))
    return total


def _bucket_deltas(current: _Scrape, previous: _Scrape,
                   family: str) -> List[Tuple[float, float]]:
    """Per-bucket (non-cumulative) observation deltas, sorted by bound."""
    by_bound: Dict[float, float] = {}
    for (sample_name, labels), value in current.items():
        bound = dict(labels).get("le")
        if sample_name != f"{family}_bucket" or bound is None:
            continue
        increase = max(0.0, value - previous.get((sample_name, labels), 0.0))
        # float() reads the exposition's "+Inf" bound as infinity.
        by_bound[float(bound)] = by_bound.get(float(bound), 0.0) + increase
    # Cumulative -> per-bucket within the window.
    deltas: List[Tuple[float, float]] = []
    below = 0.0
    for bound in sorted(by_bound):
        deltas.append((bound, max(0.0, by_bound[bound] - below)))
        below = by_bound[bound]
    return deltas


def _quantile(deltas: List[Tuple[float, float]], q: float) -> Optional[float]:
    """The q-quantile's bucket upper bound, in seconds; None when empty."""
    total = sum(count for _, count in deltas)
    if total <= 0:
        return None
    target = q * total
    seen = 0.0
    last_finite = 0.0
    for bound, count in deltas:
        seen += count
        if bound != float("inf"):
            last_finite = bound
        if seen >= target:
            return last_finite if bound == float("inf") else bound
    return last_finite


def window(current: _Scrape, previous: _Scrape, elapsed: float) -> Dict[str, Any]:
    """The rates between two scrapes ``elapsed`` seconds apart."""
    latency_family = next(
        (name for name in _LATENCY_FAMILIES
         if any(key[0] == f"{name}_count" for key in current)), None)
    queries = _delta(current, previous, "repro_queries_total")
    if queries == 0.0 and latency_family is not None:
        # Shards have no query counter; executed scans stand in.
        queries = _delta(current, previous, f"{latency_family}_count")

    entry: Dict[str, Any] = {
        "ts": time.time(),
        "elapsed_seconds": elapsed,
        "queries": queries,
        "qps": queries / elapsed,
        "p50_ms": None,
        "p99_ms": None,
        "cache_hit_rate": None,
        "queue_wait_ms": None,
        "fan_out": None,
        "distance_computations": _delta(
            current, previous, "repro_query_cost_total",
            {"counter": "distance_computations"}),
    }

    if latency_family is not None:
        deltas = _bucket_deltas(current, previous, latency_family)
        for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            seconds = _quantile(deltas, q)
            entry[key] = seconds * 1000.0 if seconds is not None else None

    hits = _delta(current, previous, "repro_cache_hits_total")
    misses = _delta(current, previous, "repro_cache_misses_total")
    if hits + misses > 0:
        entry["cache_hit_rate"] = hits / (hits + misses)

    wait_sum = _delta(current, previous, "repro_queue_wait_seconds_sum")
    wait_count = _delta(current, previous, "repro_queue_wait_seconds_count")
    if wait_count > 0:
        entry["queue_wait_ms"] = wait_sum / wait_count * 1000.0

    scatters = _delta(current, previous, "repro_scatter_queries_total")
    scans = _delta(current, previous, "repro_shard_scans_total")
    if scatters > 0:
        entry["fan_out"] = scans / scatters
    return entry


class Windows:
    """The last ``_TABLE_ROWS`` windows between consecutive scrapes, oldest first."""

    def __init__(self):
        self.entries: Deque[Dict[str, Any]] = deque(maxlen=_TABLE_ROWS)
        self._previous: Optional[Tuple[_Scrape, float]] = None

    def observe(self, current: _Scrape,
                at: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Close the window ending at this scrape; None for the first one."""
        at = time.monotonic() if at is None else at
        entry = None
        if self._previous is not None:
            previous, previous_at = self._previous
            entry = window(current, previous, max(at - previous_at, 1e-9))
            self.entries.append(entry)
        self._previous = (current, at)
        return entry


def _fmt(value: Optional[float], pattern: str = "{:.1f}") -> str:
    return pattern.format(value) if value is not None else "-"


def render_dashboard(entries: Sequence[Dict[str, Any]], *, source: str = "",
                     interval: Optional[float] = None) -> str:
    """One text frame of the dashboard for the windows seen so far."""
    title = "repro top"
    if source:
        title += f" — {source}"
    if interval is not None:
        title += f"  (window {interval:g}s, {len(entries)} shown)"
    lines = [title, "=" * len(title)]
    if not entries:
        lines.append("no windows yet — the first closes at the next scrape")
        return "\n".join(lines) + "\n"

    latest = entries[-1]
    lines.append(
        f"qps {_fmt(latest.get('qps'))}   "
        f"p50 {_fmt(latest.get('p50_ms'))} ms   "
        f"p99 {_fmt(latest.get('p99_ms'))} ms   "
        f"cache {_fmt(latest.get('cache_hit_rate'), '{:.0%}')}   "
        f"queue {_fmt(latest.get('queue_wait_ms'), '{:.2f}')} ms   "
        f"fan-out {_fmt(latest.get('fan_out'))}"
    )
    header = (f"{'time':>8}  {'qps':>8}  {'p50 ms':>8}  {'p99 ms':>8}  "
              f"{'cache':>6}  {'queue ms':>8}  {'dist comps':>10}")
    lines += ["", header, "-" * len(header)]
    for entry in list(entries)[-_TABLE_ROWS:]:
        lines.append(
            f"{time.strftime('%H:%M:%S', time.localtime(entry['ts'])):>8}  "
            f"{_fmt(entry.get('qps')):>8}  "
            f"{_fmt(entry.get('p50_ms')):>8}  "
            f"{_fmt(entry.get('p99_ms')):>8}  "
            f"{_fmt(entry.get('cache_hit_rate'), '{:.0%}'):>6}  "
            f"{_fmt(entry.get('queue_wait_ms'), '{:.2f}'):>8}  "
            f"{int(entry.get('distance_computations') or 0):>10}"
        )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live terminal dashboard over a node's Prometheus "
                    "exposition (/v1/metrics?format=prometheus).",
    )
    parser.add_argument("--url", required=True,
                        help="base URL of any node (server, shard, coordinator)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between scrapes, i.e. the window length "
                             "(default 2)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="stop after this many frames; the first shows no "
                             "window yet (default: run forever)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of redrawing (for logs/CI)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    windows = Windows()
    frames = 0
    try:
        while args.iterations is None or frames < args.iterations:
            try:
                windows.observe(scrape(args.url))
                frame = render_dashboard(windows.entries, source=args.url,
                                         interval=args.interval)
            except (ReproError, OSError, ValueError) as error:
                frame = f"repro top — {args.url}\ncannot scrape metrics: {error}\n"
            sys.stdout.write(frame if args.no_clear else _CLEAR + frame)
            sys.stdout.flush()
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
