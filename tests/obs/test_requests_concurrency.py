"""Concurrent observability reads (satellite of the request-lifecycle
layer): reader threads hammer the metrics renderer, registry stats and
DMV snapshot materialization while a multi-client service load runs.
Nothing may raise, and no reader may observe a torn row."""

import threading

import pytest

from repro.obs.export import requests_to_events, validate_events
from repro.obs.requests import REQUEST_STATES
from repro.service import PdwService
from repro.service.traffic import run_traffic
from repro.workloads.tpch_datagen import build_tpch_appliance

SCALE = 0.001
NODES = 4
READER_THREADS = 3
CLIENTS = 4
QUERIES_PER_CLIENT = 4


@pytest.fixture(scope="module")
def service():
    appliance, shell = build_tpch_appliance(scale=SCALE, node_count=NODES)
    svc = PdwService(appliance=appliance, shell=shell,
                     max_in_flight=CLIENTS)
    yield svc
    svc.close()


def _assert_untorn(service):
    """Invariants every concurrent snapshot must satisfy."""
    for record in service.requests.snapshot():
        assert record.status in REQUEST_STATES
        assert record.request_id.startswith("QID")
        for step in list(record.steps):
            assert step.kind in ("DMS", "Return")
    events = requests_to_events(service.requests)
    errors = validate_events(events)
    assert errors == [], errors
    stats = service.requests.stats()
    assert stats["retained"] <= stats["capacity"]
    text = service.metrics.render_prometheus()
    assert isinstance(text, str)
    service.refresh_system_views()


def test_concurrent_reads_during_service_hammer(service):
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            try:
                _assert_untorn(service)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)
                return

    readers = [threading.Thread(target=reader, name=f"dmv-reader-{i}")
               for i in range(READER_THREADS)]
    for thread in readers:
        thread.start()
    try:
        report = run_traffic(service, clients=CLIENTS,
                             queries_per_client=QUERIES_PER_CLIENT,
                             seed=2012)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
    assert failures == [], failures
    assert report.completed == CLIENTS * QUERIES_PER_CLIENT

    # Post-hammer: the recorder agrees with the traffic totals and the
    # DMV snapshot is internally consistent.
    finished = service.requests.stats()["finished"]
    assert sum(finished.values()) >= report.completed
    # The clients wrote the request and step series concurrently: none
    # of their updates may be lost.
    snapshot = service.metrics.snapshot()
    assert sum(snapshot["pdw_service_queries_total"].values()) == \
        finished.get("complete", 0) + finished.get("failed", 0)
    assert sum(snapshot["pdw_step_rows_total"].values()) == sum(
        sum(step.stats.node_rows.values())
        for record in service.requests.completed()
        if record.status == "complete" for step in record.steps)
    result = service.execute(
        "SELECT status, COUNT(*) AS n "
        "FROM sys.dm_pdw_exec_requests GROUP BY status")
    assert dict(result.rows).get("complete", 0) >= report.completed
