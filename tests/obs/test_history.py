"""Tests for the windows ``repro.obs.top`` derives from two exposition scrapes.

The served process keeps no history: every window here is computed by
``top`` from two parsed Prometheus expositions of the same registry.
"""

from __future__ import annotations

import http.server
import threading

import pytest

from repro.obs.prometheus import CONTENT_TYPE
from repro.obs.registry import MetricsRegistry
from repro.obs.top import (_TABLE_ROWS, Windows, flatten, main, render_dashboard,
                           scrape, window)


@pytest.fixture
def serving_registry():
    """A registry shaped like a query server's: queries, latency, cache, cost."""
    registry = MetricsRegistry()
    queries = registry.counter("repro_queries_total", "help", ("kind",))
    latency = registry.histogram("repro_query_latency_seconds", "help",
                                 ("kind",), buckets=(0.001, 0.01, 0.1, 1.0))
    hits = registry.counter("repro_cache_hits_total", "help")
    misses = registry.counter("repro_cache_misses_total", "help")
    wait = registry.histogram("repro_queue_wait_seconds", "help",
                              buckets=(0.001, 0.01))
    cost = registry.counter("repro_query_cost_total", "help", ("counter",))
    return registry, {
        "queries": queries, "latency": latency, "hits": hits,
        "misses": misses, "wait": wait, "cost": cost,
    }


def _scrape(registry: MetricsRegistry):
    """What ``top`` reads off the wire: the parsed, flattened exposition."""
    return flatten(registry.render())


class TestMetricsHistory:
    def test_tick_derives_rates_from_registry_deltas(self, serving_registry):
        registry, m = serving_registry
        before = _scrape(registry)

        for _ in range(8):
            m["queries"].labels("knn").inc()
            m["latency"].labels("knn").observe(0.005)
        m["queries"].labels("knn").inc()
        m["latency"].labels("knn").observe(0.5)
        m["hits"].inc(3)
        m["misses"].inc(1)
        m["wait"].observe(0.004)
        m["cost"].labels("distance_computations").inc(123)
        m["cost"].labels("buckets_scanned").inc(9)

        entry = window(_scrape(registry), before, 5.0)
        assert entry["queries"] == 9
        assert entry["qps"] == pytest.approx(9 / 5.0)
        assert entry["elapsed_seconds"] == 5.0
        # Quantiles are bucket upper bounds of the window's observations:
        # 8 of 9 landed in le=0.01, the slowest in le=1.0.
        assert entry["p50_ms"] == pytest.approx(10.0)
        assert entry["p99_ms"] == pytest.approx(1000.0)
        assert entry["cache_hit_rate"] == pytest.approx(0.75)
        assert entry["queue_wait_ms"] == pytest.approx(4.0)
        # Only the distance_computations label feeds the series.
        assert entry["distance_computations"] == 123
        assert entry["fan_out"] is None  # no scatter counters on a server

    def test_series_a_role_lacks_render_as_none(self):
        empty = _scrape(MetricsRegistry())
        entry = window(empty, empty, 1.0)
        assert entry["queries"] == 0
        assert entry["p50_ms"] is None
        assert entry["cache_hit_rate"] is None
        assert entry["fan_out"] is None

    def test_shard_scan_histogram_stands_in_for_queries(self):
        registry = MetricsRegistry()
        scans = registry.histogram("repro_shard_scan_seconds", "help",
                                   ("kind",), buckets=(0.01, 0.1))
        before = _scrape(registry)
        for _ in range(4):
            scans.labels("knn").observe(0.005)
        entry = window(_scrape(registry), before, 5.0)
        assert entry["queries"] == 4
        assert entry["p50_ms"] == pytest.approx(10.0)

    def test_ring_buffer_is_bounded(self, serving_registry):
        registry, m = serving_registry
        windows = Windows()
        assert windows.observe(_scrape(registry), at=0.0) is None  # baseline
        observations = _TABLE_ROWS + 2
        for second in range(1, observations + 1):
            m["queries"].labels("knn").inc(second)
            entry = windows.observe(_scrape(registry), at=float(second))
            assert entry["elapsed_seconds"] == 1.0
        assert [entry["queries"] for entry in windows.entries] == list(
            range(3, observations + 1))


class TestTopView:
    def test_render_dashboard_shows_headlines_and_table(self):
        entries = [{
            "ts": 1700000000.0, "elapsed_seconds": 5.0,
            "queries": 50.0, "qps": 10.0, "p50_ms": 2.0, "p99_ms": 9.0,
            "cache_hit_rate": 0.5, "queue_wait_ms": 0.25,
            "fan_out": 3.0, "distance_computations": 4200.0,
        }]
        frame = render_dashboard(entries, source="http://127.0.0.1:1",
                                 interval=5.0)
        assert "repro top — http://127.0.0.1:1" in frame
        assert "qps 10.0" in frame
        assert "p99 9.0 ms" in frame
        assert "cache 50%" in frame
        assert "fan-out 3.0" in frame
        assert "4200" in frame

    def test_render_dashboard_empty_payload(self):
        frame = render_dashboard([], interval=5.0)
        assert "no windows yet" in frame

    def test_main_polls_a_live_history_endpoint(self, serving_registry, capsys):
        registry, m = serving_registry

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                # Every scrape sees two more queries than the one before.
                m["queries"].labels("knn").inc(2)
                body = registry.render().encode("utf-8")
                exposed = self.path == "/v1/metrics?format=prometheus"
                self.send_response(200 if exposed else 404)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # keep the test output clean
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            assert ("repro_queries_total", (("kind", "knn"),)) in scrape(url)
            assert main(["--url", url, "--iterations", "2", "--interval", "0.05",
                         "--no-clear"]) == 0
        finally:
            server.shutdown()
            server.server_close()
        out = capsys.readouterr().out
        assert "repro top" in out
        first, second = out.split("repro top")[1:]
        assert "no windows yet" in first
        assert "qps " in second and "no windows yet" not in second

    def test_main_reports_unreachable_endpoints(self, capsys):
        assert main(["--url", "http://127.0.0.1:1", "--iterations", "1",
                     "--no-clear"]) == 0
        assert "cannot scrape metrics" in capsys.readouterr().out
