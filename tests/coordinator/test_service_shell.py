"""The service-shell contract, held for all three tiers at once.

Server, shard and coordinator share one :class:`~repro.server.shell.ServiceShell`;
these tests drive each tier through the same assertions, so a route or a
lifecycle guarantee cannot exist on one tier and quietly go missing on
another.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import __version__
from repro.errors import ServerClosingError, ServerError
from repro.obs.prometheus import parse_exposition
from repro.server import SemTreeServer
from repro.workloads import ServerClient

TIERS = ["server", "shard", "coordinator"]


def _endpoint_counts(client: ServerClient) -> dict:
    families = parse_exposition(client.metrics_prometheus())
    return {sample.labels["endpoint"]: sample.value
            for sample in families["repro_http_requests_total"].samples}


@pytest.mark.parametrize("role", TIERS)
def test_every_tier_answers_the_shell_routes(make_tier, role):
    app = make_tier(role)
    assert app.role == role
    with SemTreeServer(app).serve_background() as server, \
            ServerClient(server.url) as client:
        before = _endpoint_counts(client)
        assert client.health()["status"] == "ok"
        assert isinstance(client.metrics(), dict)
        assert "functions" in client.request(
            "GET", "/v1/debug/profile?seconds=0.05")
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/history")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/v1/metrics?format=xml")
        assert excinfo.value.status == 400
        after = _endpoint_counts(client)
    assert after["healthz"] == before.get("healthz", 0) + 1
    assert after["debug_profile"] == before.get("debug_profile", 0) + 1
    assert "history" not in after
    # One JSON read and the second exposition scrape; the rejected format
    # is not a metrics request.
    assert after["metrics"] == before["metrics"] + 2


@pytest.mark.parametrize("role", TIERS)
def test_every_tier_reports_its_build_and_uptime(make_tier, role):
    app = make_tier(role)
    families = parse_exposition(app.registry.render())
    (build,) = families["repro_build_info"].samples
    assert build.labels == {"role": role, "version": __version__}
    assert build.value == 1.0
    (uptime,) = families["repro_uptime_seconds"].samples
    assert 0.0 <= uptime.value <= app.uptime_seconds


@pytest.mark.parametrize("role", TIERS)
def test_concurrent_closes_tear_down_exactly_once(make_tier, role):
    app = make_tier(role)
    teardowns = []
    real_teardown = app._teardown
    app._teardown = lambda checkpoint: (teardowns.append(checkpoint),
                                        real_teardown(checkpoint))[1]

    barrier = threading.Barrier(8)

    def close():
        barrier.wait(timeout=10.0)
        app.close()

    threads = [threading.Thread(target=close) for _ in range(8)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(teardowns) == 1
    assert app.closed

    # Work endpoints refuse (503 on the wire); liveness still answers.
    guarded = {
        "server": lambda: app.handle_knn({}),
        "shard": lambda: app.shard_info({}),
        "coordinator": lambda: app.topology({}),
    }[role]
    with pytest.raises(ServerClosingError) as excinfo:
        guarded()
    assert role in str(excinfo.value)
    assert app.health({})["status"] == "closing"


@pytest.mark.parametrize("role", TIERS)
def test_a_tier_starts_only_its_transport_and_scatter_threads(make_tier,
                                                              corpus_index, role):
    """No profiler (``--profile`` off), no hedging, no background scraper:
    the loop, the transport workers and, on a coordinator, the scatter pool."""
    index, triples, _ = corpus_index
    before = set(threading.enumerate())
    app = make_tier(role)
    with SemTreeServer(app).serve_background() as server, \
            ServerClient(server.url) as client:
        client.health()
        client.metrics_prometheus()
        if role == "shard":
            coordinates = index.embed_query(triples[0]).coordinates
            client.request("POST", "/v1/shard/knn",
                           {"coordinates": list(coordinates), "k": 3})
        else:
            client.knn(triples[0], 3)
        started = {thread.name for thread in set(threading.enumerate()) - before}
    allowed = ("semtree-http_", "semtree-scatter_") if role == "coordinator" \
        else ("semtree-http_",)
    assert "semtree-http-loop" in started
    assert {name for name in started
            if name != "semtree-http-loop" and not name.startswith(allowed)} == set()
