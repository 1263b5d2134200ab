"""Admission control: shed decisions, 503 + Retry-After.

Unit tests drive :class:`AdmissionController` against a stub engine; the
end-to-end tests boot a real server and assert the HTTP contract — status
503, the structured ``reason``, and a ``Retry-After`` header the client
surfaces on :class:`ServerError`.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from server_corpus import INSERT_TRIPLES, QUERY_TRIPLES
from repro.errors import AdmissionError, QueryError, ServerError
from repro.faults import FaultPlan, FaultSpec
from repro.service.admission import AdmissionController
from repro.workloads import ServerClient


class StubEngine:
    def __init__(self, outstanding=0, wait=0.0):
        self._outstanding = outstanding
        self._wait = wait

    def outstanding(self):
        return self._outstanding

    def predicted_wait_seconds(self):
        return self._wait


class TestAdmissionController:
    def test_disabled_by_default_and_admits_everything(self):
        controller = AdmissionController(StubEngine(outstanding=10 ** 6))
        assert not controller.enabled
        controller.admit(queries=100)
        assert controller.snapshot()["admitted"] == 100

    def test_queue_full_sheds_with_retry_after(self):
        engine = StubEngine(outstanding=4, wait=2.5)
        controller = AdmissionController(engine, max_queue_depth=5)
        controller.admit()  # 4 + 1 <= 5
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(queries=2)  # 4 + 2 > 5
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after == pytest.approx(2.5)
        assert controller.snapshot()["shed"] == {"queue_full": 2}

    def test_deadline_rejection_uses_predicted_wait(self):
        controller = AdmissionController(StubEngine(wait=0.8),
                                         max_queue_depth=100)
        controller.admit(deadline=1.0)  # predicted wait fits the budget
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(deadline=0.5)
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.retry_after == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(QueryError):
            AdmissionController(StubEngine(), max_queue_depth=0)


class TestAdmissionOverHttp:
    def test_batch_larger_than_queue_depth_is_shed_with_headers(self, make_server):
        _, client = make_server(max_queue_depth=2)
        payloads = [ServerClient.knn_payload(t, 3) for t in QUERY_TRIPLES[:4]]
        with pytest.raises(ServerError) as excinfo:
            client.knn_batch(payloads)
        error = excinfo.value
        assert error.status == 503
        assert error.kind == "AdmissionError"
        assert error.retry_after is not None and error.retry_after >= 1.0
        # Within the depth limit the same server answers normally.
        assert client.knn(QUERY_TRIPLES[0], 3)["matches"] is not None

    def test_shed_counters_reach_metrics_and_prometheus(self, make_server):
        _, client = make_server(max_queue_depth=1)
        payload = ServerClient.knn_payload(QUERY_TRIPLES[0], 3)
        client.request("POST", "/v1/knn", payload)
        with pytest.raises(ServerError):
            client.knn_batch([payload, payload])  # 2 queries > depth 1
        admission = client.metrics()["server"]["admission"]
        assert admission["enabled"] is True
        assert admission["admitted"] == 1
        assert admission["shed"] == {"queue_full": 2}
        exposition = client.metrics_prometheus()
        assert 'repro_requests_shed_total{reason="queue_full"} 2' in exposition
        assert "repro_requests_admitted_total 1" in exposition

    def test_transport_sheds_at_enqueue_once_the_pool_holds_the_depth(
            self, make_server):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="latency", latency=1.0, max_fires=1)])
        server, client = make_server(max_queue_depth=1,
                                     server_kwargs={"fault_plan": plan})
        parked = threading.Thread(target=client.knn, args=(QUERY_TRIPLES[0], 3))
        parked.start()
        deadline = time.monotonic() + 5.0
        while plan.fired() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert plan.fired() == 1, "the first request is parked in its handler"
        with pytest.raises(ServerError) as excinfo:
            client.knn(QUERY_TRIPLES[1], 3)
        parked.join(10.0)
        assert not parked.is_alive()
        error = excinfo.value
        assert error.status == 503 and error.kind == "AdmissionError"
        assert error.retry_after is not None and error.retry_after >= 1.0
        assert 'repro_requests_shed_total{reason="queue_full"} 1' in \
            client.metrics_prometheus().splitlines()

    def test_enqueue_shed_spares_every_route_but_the_queries(self, make_server,
                                                             caplog):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="latency", latency=2.0, max_fires=1)])
        server, client = make_server(max_queue_depth=1,
                                     server_kwargs={"fault_plan": plan})
        parked = threading.Thread(target=client.knn, args=(QUERY_TRIPLES[0], 3))
        parked.start()
        deadline = time.monotonic() + 5.0
        while plan.fired() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert plan.fired() == 1, "the first request is parked in its handler"
        with caplog.at_level(logging.INFO, logger="repro.access"):
            assert client.health()["status"] == "ok"
            assert client.metrics()["server"]["admission"]["shed"] == {}
            assert "seq" in client.insert(INSERT_TRIPLES[0])
            with pytest.raises(ServerError) as excinfo:
                client.range(QUERY_TRIPLES[1], 0.2)
        parked.join(10.0)
        assert not parked.is_alive()
        assert excinfo.value.status == 503
        shed = [record for record in caplog.records
                if record.name == "repro.access" and record.status == 503]
        assert [(record.method, record.path) for record in shed] == \
            [("POST", "/v1/range")]
        assert 'repro_requests_shed_total{reason="queue_full"} 1' in \
            client.metrics_prometheus().splitlines()

    @pytest.mark.parametrize("route", ["/v1/healthz", "/v1/metrics", "/v1/insert"])
    def test_an_in_flight_non_query_does_not_fill_the_queue(self, make_server,
                                                            route):
        plan = FaultPlan([FaultSpec(operation="handle", target=route,
                                    kind="latency", latency=1.0, max_fires=1)])
        server, client = make_server(max_queue_depth=1,
                                     server_kwargs={"fault_plan": plan})
        parked_client = ServerClient(server.url)
        park = {
            "/v1/healthz": parked_client.health,
            "/v1/metrics": parked_client.metrics,
            "/v1/insert": lambda: parked_client.insert(INSERT_TRIPLES[0]),
        }[route]
        parked = threading.Thread(target=park)
        parked.start()
        deadline = time.monotonic() + 5.0
        while plan.fired() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert plan.fired() == 1, f"the {route} request is parked in its handler"
        try:
            assert client.knn(QUERY_TRIPLES[0], 3)["matches"]
        finally:
            parked.join(10.0)
            parked_client.close()
        assert not parked.is_alive()
        assert client.metrics()["server"]["admission"]["shed"] == {}

    def test_engine_exposes_admission_signals(self, make_server):
        server, client = make_server()
        engine = server.app.engine
        assert engine.outstanding() == 0
        assert engine.predicted_wait_seconds() == 0.0
        client.knn(QUERY_TRIPLES[0], 3)
        assert engine.mean_execution_seconds() > 0.0
        assert engine.outstanding() == 0, "settles back after execution"
