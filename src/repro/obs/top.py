"""``python -m repro.obs.top`` — a live terminal view over ``/v1/history``.

Polls any node's ``GET /v1/history`` endpoint (server, shard or
coordinator — they all expose the same ring buffer) and redraws a compact
dashboard: the latest window's headline numbers plus a table of the most
recent windows.  Pure ANSI — no curses, so it works inside CI logs, dumb
terminals and ``script(1)`` captures alike.

:func:`render_dashboard` is a pure function from the history payload to
the text frame, which is what the tests exercise; the polling loop around
it is deliberately thin.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServerError
from repro.workloads.http_client import ServerClient

__all__ = ["fetch_history", "main", "render_dashboard"]

#: ANSI: clear the screen and home the cursor (one frame replaces the last).
_CLEAR = "\x1b[2J\x1b[H"

#: Rows of recent windows shown under the headline block.
_TABLE_ROWS = 12


def fetch_history(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``{url}/v1/history`` and return the decoded payload."""
    with ServerClient(url, timeout=timeout) as client:
        return client.request("GET", "/v1/history")


def _fmt(value: Optional[float], pattern: str = "{:.1f}", none: str = "-") -> str:
    return pattern.format(value) if value is not None else none


def _clock(ts: Optional[float]) -> str:
    if ts is None:
        return "--:--:--"
    return time.strftime("%H:%M:%S", time.localtime(ts))


def render_dashboard(payload: Dict[str, Any], *, source: str = "") -> str:
    """One text frame of the dashboard for a ``/v1/history`` payload."""
    entries: List[Dict[str, Any]] = payload.get("entries", [])
    interval = payload.get("interval_seconds")
    lines: List[str] = []
    title = "repro top"
    if source:
        title += f" — {source}"
    if interval is not None:
        title += f"  (window {interval:g}s, {len(entries)} recorded)"
    lines.append(title)
    lines.append("=" * len(title))

    if not entries:
        lines.append("no history entries yet — the first window has not closed")
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
    lines.append("")
    header = (f"{'time':>8}  {'qps':>8}  {'p50 ms':>8}  {'p99 ms':>8}  "
              f"{'cache':>6}  {'queue ms':>8}  {'dist comps':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for entry in entries[-_TABLE_ROWS:]:
        lines.append(
            f"{_clock(entry.get('ts')):>8}  "
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
        description="Live terminal dashboard over a node's /v1/history.",
    )
    parser.add_argument("--url", required=True,
                        help="base URL of any node (server, shard, coordinator)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls (default 2)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="stop after this many frames (default: run forever)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of redrawing (for logs/CI)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    frames = 0
    try:
        while args.iterations is None or frames < args.iterations:
            try:
                payload = fetch_history(args.url)
                frame = render_dashboard(payload, source=args.url)
            except (ServerError, OSError, ValueError) as error:
                frame = f"repro top — {args.url}\ncannot fetch history: {error}\n"
            if not args.no_clear:
                sys.stdout.write(_CLEAR)
            sys.stdout.write(frame)
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
