"""Fault injection: deterministic plans, and chaos at the HTTP handler.

The plan unit tests pin determinism (same seed + same call sequence =
same injections); the end-to-end tests boot a real server with a plan
wired in and assert each fault kind's observable wire behaviour.
"""

from __future__ import annotations

import time

import pytest

from server_corpus import QUERY_TRIPLES
from repro.errors import ReproError, ServerError
from repro.faults import FaultPlan, FaultSpec
from repro.ingest import IngestingIndex
from repro.server import ServerApp, SemTreeServer
from repro.workloads import ServerClient


class TestFaultSpec:
    def test_matching(self):
        spec = FaultSpec(operation="scan", target="P0")
        assert spec.matches("scan", "P0@http://a")
        assert not spec.matches("handle", "P0@http://a")
        assert not spec.matches("scan", "P1@http://a")
        assert FaultSpec().matches("anything", "anywhere")

    def test_validation(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="explode")
        with pytest.raises(ReproError):
            FaultSpec(latency=-1.0)
        with pytest.raises(ReproError):
            FaultSpec(probability=2.0)
        with pytest.raises(ReproError):
            FaultSpec(kind="http_5xx", status=404)
        with pytest.raises(ReproError):
            FaultSpec.from_dict({"kind": "latency", "bogus_field": 1})

    def test_round_trips_through_dict(self):
        spec = FaultSpec(operation="handle", target="/v1/knn", kind="http_5xx",
                         status=502, probability=0.5, skip_first=2, max_fires=3)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_first_matching_spec_wins(self):
        plan = FaultPlan([
            FaultSpec(target="/v1/knn", kind="latency", latency=0.1),
            FaultSpec(target="/v1", kind="error"),
        ])
        fault = plan.decide("handle", "/v1/knn")
        assert fault is not None and fault.kind == "latency"
        fault = plan.decide("handle", "/v1/range")
        assert fault is not None and fault.kind == "error"

    def test_skip_first_and_max_fires(self):
        plan = FaultPlan([FaultSpec(kind="error", skip_first=2, max_fires=1)])
        decisions = [plan.decide("handle", "/x") for _ in range(5)]
        assert [d is not None for d in decisions] == \
               [False, False, True, False, False]
        assert plan.fired() == 1
        assert plan.stats()[0]["seen"] == 5

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan([FaultSpec(kind="error", probability=0.5)],
                             seed=seed)
            return [plan.decide("handle", "/x") is not None for _ in range(32)]

        assert run(7) == run(7), "same seed replays identically"
        assert run(7) != run(8), "different seeds diverge"
        assert 0 < sum(run(7)) < 32, "the coin actually flips"

    def test_json_forms(self):
        plan = FaultPlan.from_json(
            '[{"operation": "handle", "kind": "latency", "latency": 0.05}]')
        assert len(plan) == 1
        seeded = FaultPlan.from_json(
            '{"seed": 3, "faults": [{"kind": "error"}]}')
        assert seeded.to_dict()["seed"] == 3
        with pytest.raises(ReproError):
            FaultPlan.from_json("not json")
        with pytest.raises(ReproError):
            FaultPlan.from_json('{"seed": 1, "oops": []}')

    def test_from_source_accepts_text_or_path(self, tmp_path):
        assert FaultPlan.from_source(None) is None
        assert FaultPlan.from_source("  ") is None
        inline = FaultPlan.from_source('[{"kind": "error"}]')
        assert inline is not None and len(inline) == 1
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('[{"kind": "latency", "latency": 0.1}]')
        loaded = FaultPlan.from_source(str(plan_file))
        assert loaded is not None and len(loaded) == 1

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", '[{"kind": "error"}]')
        plan = FaultPlan.from_env()
        assert plan is not None and len(plan) == 1


@pytest.fixture
def make_faulty_server(make_base, tmp_path):
    """Boot a live server with a fault plan wired into its HTTP handler."""
    started = []

    def start(plan: FaultPlan):
        live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
        app = ServerApp(live, checkpoint_path=None)
        server = SemTreeServer(app, fault_plan=plan).serve_background()
        started.append(server)
        return server, ServerClient(server.url)

    yield start
    for server in started:
        if not server.app.closed:
            server.close(checkpoint=False)


class TestHandlerInjection:
    def test_http_5xx_fault_answers_with_the_injected_status(self,
                                                             make_faulty_server):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="http_5xx", status=503, max_fires=1)])
        _, client = make_faulty_server(plan)
        payload = ServerClient.knn_payload(QUERY_TRIPLES[0], 3)
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/v1/knn", payload)
        assert excinfo.value.status == 503
        assert excinfo.value.kind == "InjectedFault"
        # Health checks never matched the target, and the budget is spent:
        # the next query sails through.
        assert client.health()["status"] == "ok"
        assert "matches" in client.request("POST", "/v1/knn", payload)

    def test_latency_fault_delays_but_answers(self, make_faulty_server):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="latency", latency=0.15, max_fires=1)])
        _, client = make_faulty_server(plan)
        started = time.perf_counter()
        result = client.knn(QUERY_TRIPLES[0], 3)
        assert time.perf_counter() - started >= 0.15
        assert "matches" in result

    def test_error_fault_resets_the_connection(self, make_faulty_server):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/insert",
                                    kind="error", max_fires=1)])
        _, client = make_faulty_server(plan)
        from server_corpus import INSERT_TRIPLES

        # A reset on a fresh connection surfaces as an error: only a
        # reused socket closed before any response byte is retried.
        with pytest.raises(ServerError):
            client.insert(INSERT_TRIPLES[0])
        result = client.insert(INSERT_TRIPLES[0])
        assert "seq" in result

    def test_slow_drip_fault_dribbles_the_full_body(self, make_faulty_server):
        plan = FaultPlan([FaultSpec(operation="handle", target="/v1/knn",
                                    kind="slow_drip", latency=0.1, max_fires=1)])
        _, client = make_faulty_server(plan)
        started = time.perf_counter()
        result = client.knn(QUERY_TRIPLES[0], 3)
        assert time.perf_counter() - started >= 0.1
        assert "matches" in result, "dripped, but byte-for-byte complete"

    def test_env_plan_reaches_the_server(self, make_base, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '[{"operation": "handle", "target": "/v1/range", '
            '"kind": "http_5xx", "status": 599, "max_fires": 1}]')
        live = IngestingIndex(make_base(), tmp_path / "wal_env.jsonl")
        app = ServerApp(live, checkpoint_path=None)
        server = SemTreeServer(app).serve_background()
        try:
            client = ServerClient(server.url)
            with pytest.raises(ServerError) as excinfo:
                client.range(QUERY_TRIPLES[0], 0.2)
            assert excinfo.value.status == 599
            assert server.fault_plan is not None and server.fault_plan.fired() == 1
        finally:
            server.close(checkpoint=False)
