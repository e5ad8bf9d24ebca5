"""Unit tests for repro.obs.requests: lifecycle, flight recorder,
exports and the NULL_REQUESTS zero-overhead contract."""

import threading

import pytest

import repro.obs.requests as requests_module
from repro import PdwService, PdwSession
from repro.appliance.dms_runtime import StepExecutionStats
from repro.obs.export import (
    request_to_event,
    requests_to_events,
    validate_events,
)
from repro.obs.requests import (
    NULL_REQUEST,
    NULL_REQUESTS,
    REQUEST_STATES,
    RequestRegistry,
    TERMINAL_STATES,
)
from repro.obs.query_store import plan_shape_digest
from repro.pdw.dsql import DsqlPlan, DsqlStep
from repro.service.options import ExecutionOptions
from repro.workloads.tpch_datagen import build_tpch_appliance


# -- plan / stats stand-ins (the handle only duck-types its inputs) -----------


class FakeMovement:
    def __init__(self, description):
        self.description = description

    def describe(self):
        return self.description


class FakeStep:
    def __init__(self, index, sql, movement=None):
        self.index = index
        self.sql = sql
        self.movement = movement

    estimated_rows = 0.0
    label = DsqlStep.label
    kind_label = DsqlStep.kind_label


class FakePlan:
    def __init__(self, steps):
        self.steps = steps
        self.shape_hash = None
        self._step_facts = None

    step_facts = DsqlPlan.step_facts


def FakeStats(rows=10, nbytes=400, operation="Shuffle", elapsed=0.25,
              wall=0.01, node=2):
    """One step's stats, all of it done by ``node``: a DMS step's bytes
    are read there, a Return step's sent from there."""
    return StepExecutionStats(
        step_index=0, operation=operation, rows_moved=rows,
        elapsed_seconds=elapsed, wall_seconds=wall,
        node_rows={node: rows}, node_wall_seconds={node: wall},
        reader_bytes={node: nbytes} if operation else {},
        network_bytes={} if operation else {node: nbytes})


def make_plan():
    return FakePlan([
        FakeStep(0, "SELECT * FROM t", FakeMovement("Shuffle on k")),
        FakeStep(1, "SELECT * FROM TEMP_ID_1"),
    ])


class TestLifecycle:
    def test_ids_are_sequential(self):
        registry = RequestRegistry()
        assert registry.begin("a").request_id == "QID1"
        assert registry.begin("b").request_id == "QID2"

    def test_full_walk(self):
        registry = RequestRegistry()
        handle = registry.begin("SELECT 1", tenant="t1", priority="high")
        record = handle.record
        assert record.status == "queued"
        assert record.is_active
        assert registry.active() == [record]

        handle.compiling()
        assert record.status == "compiling"

        handle.begin_plan(make_plan())
        assert record.status == "running"
        assert record.step_count == 2
        assert record.plan_digest == ""  # hashed as it completes
        assert [s.kind for s in record.steps] == ["DMS", "Return"]
        assert record.steps[0].operation == "Shuffle on k"

        handle.begin_step(0)
        assert record.status == "moving data"  # DMS step
        assert record.current_step == 0

        # Per-node progress arrives with the step's stats, at its end;
        # until then the step reads as zeros.
        pending = record.steps[0].stats
        assert (pending.rows_moved, pending.moved_bytes(),
                pending.elapsed_seconds, pending.wall_seconds) == (0, 0, 0, 0)
        assert pending.node_rows == {}

        stats = FakeStats()
        handle.end_step(0, stats)
        assert record.status == "running"
        assert record.steps[0].status == "complete"
        assert record.steps[0].stats is stats  # kept, not copied
        assert stats.moved_node_bytes() == {2: 400}  # reader bytes

        handle.begin_step(1)
        assert record.status == "running"  # Return step, not DMS
        handle.end_step(1, FakeStats(rows=4, operation=None, nbytes=55,
                                     node=3))
        assert record.steps[1].stats.moved_bytes() == 55  # network bytes
        assert record.steps[1].stats.moved_node_bytes() == {3: 55}

        handle.complete(rows=4, cache_hit=True, queue_seconds=0.1,
                        compile_seconds=0.2, execute_seconds=0.3,
                        total_seconds=0.6, plan=make_plan())
        assert record.status == "complete"
        assert record.plan_digest == plan_shape_digest(make_plan())
        assert not record.is_active
        assert record.current_step == -1
        assert record.ended_at is not None
        assert registry.active() == []
        assert registry.completed() == [record]

    def test_every_status_is_a_known_state(self):
        registry = RequestRegistry()
        complete = registry.begin("a")
        complete.begin_plan(make_plan())
        complete.complete()
        registry.begin("b").failed("boom", total_seconds=0.1)
        registry.begin("c").rejected("queue full")
        live = registry.begin("d")
        for record in registry.snapshot():
            assert record.status in REQUEST_STATES
        assert registry.stats()["finished"] == {
            "complete": 1, "failed": 1, "rejected": 1}
        assert registry.find("QID4") is live.record
        assert registry.find("QID2").error == "boom"
        assert registry.find("QID999") is None

    def test_out_of_range_step_hooks_are_ignored(self):
        registry = RequestRegistry()
        handle = registry.begin("a")
        handle.begin_step(5)
        handle.end_step(5, FakeStats())
        assert handle.record.steps == []


class TestFlightRecorder:
    def test_ring_buffer_bounds_retention(self):
        registry = RequestRegistry(capacity=3)
        for i in range(5):
            registry.begin(f"q{i}").complete()
        retained = registry.completed()
        assert [r.sql for r in retained] == ["q2", "q3", "q4"]
        stats = registry.stats()
        assert stats["retained"] == 3
        assert stats["capacity"] == 3
        # the lifetime counts survive eviction
        assert stats["finished"]["complete"] == 5

    def test_slow_threshold(self):
        registry = RequestRegistry(slow_threshold_seconds=0.5)
        fast = registry.begin("fast")
        fast.complete(total_seconds=0.1)
        slow = registry.begin("slow")
        slow.complete(total_seconds=0.9)
        threshold = registry.slow_threshold_seconds
        assert [record.is_slow(threshold)
                for record in registry.completed()] == [False, True]
        assert registry.stats()["slow"] == 1

    def test_snapshot_orders_active_then_retained(self):
        registry = RequestRegistry()
        done = registry.begin("done")
        done.complete()
        live = registry.begin("live")
        assert registry.snapshot() == [live.record, done.record]


class TestExports:
    def _completed_registry(self):
        registry = RequestRegistry(slow_threshold_seconds=0.5)
        handle = registry.begin("SELECT 1", tenant="t9")
        handle.begin_plan(make_plan())
        handle.begin_step(0)
        handle.end_step(0, FakeStats())
        handle.complete(rows=3, cache_hit=True, compile_seconds=0.1,
                        execute_seconds=0.6, total_seconds=0.7)
        registry.begin("bad").failed("oops")
        return registry

    def test_events_validate_against_schema(self):
        registry = self._completed_registry()
        events = requests_to_events(registry)
        assert len(events) == 2
        assert validate_events(events) == []
        first = events[0]
        assert first["event"] == "request_complete"
        assert first["request_id"] == "QID1"
        assert first["cache_hit"] is True
        assert first["slow"] is True   # 0.7s >= 0.5s threshold
        assert first["step_actuals"][0]["rows"] == 10
        assert events[1]["status"] == "failed"
        assert events[1]["error"] == "oops"

    def test_event_rejects_extra_fields(self):
        event = request_to_event(
            self._completed_registry().completed()[0], 1.0)
        event["surprise"] = 1
        assert validate_events([event]) != []


@pytest.fixture(scope="module")
def counted_service():
    """Ten requests — nine complete, one failed — through a service
    whose flight recorder keeps four, on a private appliance."""
    appliance, shell = build_tpch_appliance(scale=0.001, node_count=2)
    registry = RequestRegistry(capacity=4, slow_threshold_seconds=0.0)
    service = PdwService(appliance=appliance, shell=shell,
                         requests=registry)
    try:
        results = [service.execute(
            f"SELECT n_name FROM nation WHERE n_nationkey < {k}")
            for k in range(9)]
        with pytest.raises(Exception):
            service.execute("SELECT no_such_column FROM nation")
    finally:
        service.close()
    return service, results


class TestServiceSeries:
    """The service writes each finished request's series once: counts
    stay exact past the recorder's capacity, and rendering reads."""

    def test_counts_are_exact(self, counted_service):
        service, results = counted_service
        assert len(service.requests.completed()) == 4
        snapshot = service.metrics.snapshot()
        queries = snapshot["pdw_service_queries_total"]
        assert sum(queries.values()) == 10
        assert queries[(("outcome", "failed"), ("priority", "normal"),
                        ("tenant", "default"))] == 1
        assert snapshot["pdw_service_rows_total"][()] == \
            sum(len(result.rows) for result in results) == 36
        # A zero threshold makes every finished request slow.
        assert snapshot["pdw_service_slow_total"][()] == 10
        assert "pdw_request_total" not in snapshot

    def test_rendering_is_idempotent(self, counted_service):
        service, _results = counted_service
        first = service.metrics_text()
        assert "pdw_service_queries_total" in first
        assert service.metrics_text() == first


class TestNullRegistry:
    """The disabled path must track nothing and allocate nothing."""

    def test_is_disabled(self):
        assert NULL_REQUESTS.enabled is False
        assert NULL_REQUEST.enabled is False
        assert RequestRegistry.enabled is True

    def test_begin_returns_shared_null_handle(self):
        handle = NULL_REQUESTS.begin("SELECT 1")
        assert handle is NULL_REQUEST
        assert handle.request_id is None

    def test_all_hooks_are_noops(self):
        NULL_REQUEST.compiling()
        NULL_REQUEST.begin_plan(make_plan())
        NULL_REQUEST.begin_step(0)
        NULL_REQUEST.end_step(0, FakeStats())
        NULL_REQUEST.complete(rows=5)
        NULL_REQUEST.failed("x")
        NULL_REQUEST.rejected("y")
        assert NULL_REQUESTS.active() == []
        assert NULL_REQUESTS.completed() == []
        assert NULL_REQUESTS.snapshot() == []
        assert NULL_REQUESTS.find("QID1") is None
        assert NULL_REQUESTS.stats()["finished"] == {}

    def test_disabled_path_allocates_no_records(self, tpch, monkeypatch):
        """With tracking off, a full compile+run must never construct a
        request record: every record constructor is booby-trapped."""
        def boom(*args, **kwargs):
            raise AssertionError(
                "request record allocated on the disabled path")

        for name in ("RequestRecord", "StepProgress", "RequestHandle"):
            monkeypatch.setattr(requests_module, name, boom)
        monkeypatch.setattr(requests_module, "plan_shape_digest", boom)

        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False))
        assert session.requests is NULL_REQUESTS
        result = session.run("SELECT COUNT(*) AS n FROM nation")
        assert result.rows == [(25,)]
        assert result.request_id is None


class TestConcurrentRegistry:
    def test_parallel_begin_complete_is_consistent(self):
        registry = RequestRegistry(capacity=1000)
        errors = []

        def worker(n):
            try:
                for i in range(50):
                    handle = registry.begin(f"w{n}-{i}")
                    handle.begin_plan(make_plan())
                    handle.begin_step(0)
                    handle.end_step(0, FakeStats(node=n))
                    handle.complete(rows=1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert registry.active() == []
        stats = registry.stats()
        assert stats["finished"]["complete"] == 200
        ids = [r.request_id for r in registry.completed()]
        assert len(set(ids)) == 200


class TestPlanDigest:
    def test_digest_is_stable_and_text_sensitive(self):
        plan_a = FakePlan([FakeStep(0, "SELECT a FROM t WHERE a = 1")])
        plan_a2 = FakePlan([FakeStep(0, "SELECT a FROM t WHERE a = 2")])
        plan_b = FakePlan([FakeStep(0, "SELECT b FROM t WHERE a = 1")])
        assert plan_shape_digest(plan_a) == plan_shape_digest(plan_a)
        assert plan_shape_digest(plan_a) == plan_shape_digest(plan_a2)
        assert plan_shape_digest(plan_a) != plan_shape_digest(plan_b)
        assert len(plan_shape_digest(plan_a)) == 12
        # Computed once per template, and kept on it.
        assert plan_a.shape_hash == plan_shape_digest(plan_a)

    def test_terminal_states_subset_of_states(self):
        assert TERMINAL_STATES <= set(REQUEST_STATES)


class TestOnePlanHash:
    """A template has one plan hash: the request DMV's ``plan_digest``
    is the Query Store's ``plan_hash``, whatever the cache did."""

    def test_a_template_has_one_hash_in_the_dmv_and_the_query_store(self):
        appliance, shell = build_tpch_appliance(scale=0.001, node_count=2)
        service = PdwService(appliance=appliance, shell=shell)
        template = ("SELECT c_name, o_orderdate FROM orders, customer "
                    "WHERE o_custkey = c_custkey AND o_totalprice > {}")
        uncached = ExecutionOptions(use_plan_cache=False)
        try:
            runs = [service.execute(template.format(1000)),    # miss
                    service.execute(template.format(1000)),    # hit
                    service.execute(template.format(90000)),   # hit
                    service.execute(template.format(1000),
                                    options=uncached)]
            assert [run.cache_hit for run in runs] == \
                [False, True, True, False]
            joined = service.execute(
                "SELECT r.request_id, r.plan_digest, q.execution_count "
                "FROM sys.dm_pdw_exec_requests r, "
                "sys.query_store_runtime_stats q "
                "WHERE r.plan_digest = q.plan_hash "
                "AND r.status = 'complete'")
        finally:
            service.close()
        assert sorted(row[0] for row in joined.rows) == \
            sorted(run.request_id for run in runs)
        assert len({row[1] for row in joined.rows}) == 1
        assert {row[2] for row in joined.rows} == {4}
