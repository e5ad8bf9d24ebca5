"""The sys.dm_pdw_* system views, queried through the ordinary
parse -> optimize -> execute path from sessions, the service and the
CLI — including step-granularity visibility of in-flight queries."""

import json
import threading

import pytest

from repro import PdwSession, PdwService
from repro.obs.requests import RequestRegistry
from repro.pdw.dsql import StepKind
from repro.service import ExecutionOptions
from repro.obs.system_views import (
    SYSTEM_VIEW_NAMES,
    mentions_system_views,
    register_system_views,
    system_view_defs,
)
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES

SCALE = 0.001
NODES = 4

JOIN_SQL = ("SELECT COUNT(*) AS n FROM orders, customer "
            "WHERE o_custkey = c_custkey")


@pytest.fixture(scope="module")
def obs_env():
    """A private appliance: system-view registration and refreshes must
    not touch the suite-wide shared fixture."""
    return build_tpch_appliance(scale=SCALE, node_count=NODES)


@pytest.fixture()
def session(obs_env):
    appliance, shell = obs_env
    return PdwSession(appliance=appliance, shell=shell)


class TestRegistration:
    def test_defs_cover_all_views(self):
        defs = system_view_defs()
        assert tuple(t.name for t in defs) == SYSTEM_VIEW_NAMES
        for table in defs:
            assert table.is_system
            assert not table.is_temp

    def test_register_is_idempotent_and_version_neutral(self, obs_env):
        appliance, _shell = obs_env
        before = appliance.schema_version
        register_system_views(appliance)
        register_system_views(appliance)
        assert appliance.schema_version == before
        for name in SYSTEM_VIEW_NAMES:
            assert appliance.catalog.has_table(name)

    def test_mentions_marker(self):
        assert mentions_system_views(
            "select * from sys.dm_pdw_exec_requests")
        assert mentions_system_views("SELECT 1 FROM DM_PDW_ADMISSION")
        assert not mentions_system_views("SELECT 1 FROM lineitem")


class TestSessionPath:
    def test_dmv_query_sees_completed_and_itself(self, session):
        first = session.run("SELECT COUNT(*) AS n FROM nation")
        result = session.run(
            "SELECT request_id, status, total_steps, rows_returned "
            "FROM sys.dm_pdw_exec_requests")
        by_id = {row[0]: row for row in result.rows}
        # the earlier query is retained as complete...
        assert by_id[first.request_id][1] == "complete"
        assert by_id[first.request_id][2] >= 1
        assert by_id[first.request_id][3] == len(first.rows)
        # ...and the DMV query observes itself, snapshotted at intake.
        assert by_id[result.request_id][1] == "queued"

    def test_group_by_status_one_liner(self, session):
        session.run("SELECT COUNT(*) AS n FROM region")
        result = session.run(
            "SELECT status, COUNT(*) AS n "
            "FROM sys.dm_pdw_exec_requests GROUP BY status")
        counts = dict(result.rows)
        assert counts.get("complete", 0) >= 1
        assert counts.get("queued", 0) >= 1

    def test_request_steps_and_dms_workers(self, session):
        joined = session.run(JOIN_SQL)
        steps = session.run(
            "SELECT request_id, step_index, kind, status, row_count "
            "FROM sys.dm_pdw_request_steps")
        mine = [row for row in steps.rows if row[0] == joined.request_id]
        assert len(mine) == len(joined.plan.dsql_plan.steps)
        kinds = {row[2] for row in mine}
        assert "Return" in kinds
        assert "DMS" in kinds  # the join forces a movement step
        assert all(row[3] == "complete" for row in mine)

        workers = session.run(
            "SELECT request_id, step_index, pdw_node_id, rows_processed "
            "FROM sys.dm_pdw_dms_workers")
        my_workers = [row for row in workers.rows
                      if row[0] == joined.request_id]
        assert my_workers
        assert {row[2] for row in my_workers} <= set(range(NODES))

    def test_service_views_describe_the_session_core(self, session):
        # A session runs through the core's plan cache and admission
        # controller, so their views describe the session's own.
        assert session.run(
            "SELECT shape_key FROM sys.dm_pdw_plan_cache").rows == []
        session.run("SELECT COUNT(*) AS n FROM nation")
        cached = session.run(
            "SELECT shape_key, execution_count FROM sys.dm_pdw_plan_cache "
            "WHERE execution_count = 1")
        assert any("nation" in row[0] for row in cached.rows)
        # Views refresh before admission: the DMV query is not in flight.
        assert session.run(
            "SELECT in_flight FROM sys.dm_pdw_admission").rows == [(0,)]

    def test_refresh_does_not_bump_schema_version(self, session):
        session.run("SELECT COUNT(*) AS n FROM nation")
        version = session.appliance.schema_version
        session.run("SELECT COUNT(*) AS n FROM sys.dm_pdw_exec_requests")
        session.refresh_system_views()
        assert session.appliance.schema_version == version

    def test_explain_works_on_a_system_view(self, session):
        text = session.explain(
            "SELECT status FROM sys.dm_pdw_exec_requests")
        assert "dm_pdw_exec_requests" in text

    def test_failed_query_lands_in_recorder(self, session):
        with pytest.raises(Exception):
            session.run("SELECT no_such_column FROM nation")
        result = session.run(
            "SELECT status, error_text FROM sys.dm_pdw_exec_requests "
            "WHERE status = 'failed'")
        assert result.rows
        assert any("no_such_column" in row[1] for row in result.rows)

    def test_result_request_id_correlates(self, session):
        result = session.run("SELECT COUNT(*) AS n FROM nation")
        assert result.request_id is not None
        record = session.requests.find(result.request_id)
        assert record is not None
        assert record.rows_returned == 1


class TestReportColumns:
    @pytest.mark.parametrize("threshold", [0.0, 1e6])
    def test_request_seq_and_slow_verdict(self, obs_env, threshold):
        """``request_seq`` orders requests as submitted (QID10 after
        QID9, unlike the id text) and ``is_slow`` is the recorder's
        own verdict."""
        appliance, shell = obs_env
        registry = RequestRegistry(slow_threshold_seconds=threshold)
        session = PdwSession(appliance=appliance, shell=shell,
                             requests=registry)
        for bound in range(10):
            session.run(f"SELECT COUNT(*) AS n FROM nation "
                        f"WHERE n_nationkey < {bound}")
        rows = session.run(
            "SELECT request_id, request_seq, is_slow "
            "FROM sys.dm_pdw_exec_requests WHERE status = 'complete' "
            "ORDER BY request_seq").rows
        assert [seq for _id, seq, _slow in rows] == list(range(1, 11))
        assert [request_id for request_id, _seq, _slow in rows] == [
            f"QID{seq}" for seq in range(1, 11)]
        verdicts = {record.request_id: record.is_slow(threshold)
                    for record in registry.completed()}
        assert all(slow == verdicts[request_id]
                   for request_id, _seq, slow in rows)
        assert {bool(slow) for _id, _seq, slow in rows} == {threshold == 0}


class TestInFlightVisibility:
    def test_running_query_visible_from_concurrent_session(self, obs_env,
                                                           monkeypatch):
        """While session A executes, session B (same appliance, shared
        registry) must see A's request live, at step granularity."""
        appliance, shell = obs_env
        registry = RequestRegistry()
        session_a = PdwSession(appliance=appliance, shell=shell,
                               requests=registry)
        session_b = PdwSession(appliance=appliance, shell=shell,
                               requests=registry)

        started = threading.Event()
        release = threading.Event()
        original = session_a.runner.runtime.execute_return

        def gated_return(step, profile=False):
            started.set()
            assert release.wait(timeout=10), "reader never released us"
            return original(step, profile)

        monkeypatch.setattr(session_a.runner.runtime, "execute_return",
                            gated_return)

        outcome = {}

        def run_query():
            outcome["result"] = session_a.run(
                "SELECT COUNT(*) AS n FROM nation")

        thread = threading.Thread(target=run_query)
        thread.start()
        try:
            assert started.wait(timeout=10)
            live = session_b.run(
                "SELECT request_id, status, current_step "
                "FROM sys.dm_pdw_exec_requests "
                "WHERE status = 'running'")
            assert live.rows, "in-flight request not visible"
            request_id, _status, current_step = live.rows[0]
            assert current_step >= 0
            steps = session_b.run(
                "SELECT request_id, step_index, status "
                "FROM sys.dm_pdw_request_steps "
                "WHERE status = 'running'")
            assert any(row[0] == request_id for row in steps.rows)
        finally:
            release.set()
            thread.join(timeout=10)
        assert outcome["result"].rows == [(25,)]
        record = registry.find(outcome["result"].request_id)
        assert record.status == "complete"


class TestDmsWorkers:
    @pytest.mark.parametrize("executor", ["numpy", "reference"])
    def test_rows_match_step_stats(self, executor):
        """Every TPC-H query at 3 nodes: each sys.dm_pdw_dms_workers row
        carries its step's per-node rows, bytes (read by a DMS step,
        sent by the Return step) and wall time, as the stats hold them."""
        appliance, shell = build_tpch_appliance(scale=SCALE, node_count=3)
        service = PdwService(appliance=appliance, shell=shell,
                             options=ExecutionOptions(executor=executor))
        try:
            results = [service.execute(sql)
                       for sql in TPCH_QUERIES.values()]
            workers = service.execute(
                "SELECT request_id, step_index, pdw_node_id, "
                "rows_processed, bytes_processed, wall_ms "
                "FROM sys.dm_pdw_dms_workers")
        finally:
            service.close()
        expected = {}
        for result in results:
            for step, stats in zip(result.plan.dsql_plan.steps,
                                   result.step_stats):
                node_bytes = (stats.reader_bytes
                              if step.kind is StepKind.DMS
                              else stats.network_bytes)
                for node, rows in stats.node_rows.items():
                    expected[(result.request_id, stats.step_index,
                              node)] = (
                        rows, node_bytes.get(node, 0),
                        stats.node_wall_seconds[node] * 1e3)
        got = {tuple(row[:3]): tuple(row[3:]) for row in workers.rows}
        assert len(got) == len(workers.rows)
        assert got == expected


class TestServicePath:
    @pytest.fixture()
    def service(self, obs_env):
        appliance, shell = obs_env
        svc = PdwService(appliance=appliance, shell=shell)
        yield svc
        svc.close()

    def test_all_five_views_live_through_service_sql(self, service):
        warm = "SELECT COUNT(*) AS n FROM orders"
        service.execute(warm)
        service.execute(warm)  # plan-cache hit

        requests = service.execute(
            "SELECT request_id, status, cache_hit "
            "FROM sys.dm_pdw_exec_requests")
        assert len(requests.rows) >= 3
        assert any(row[2] for row in requests.rows)  # the hit is visible

        steps = service.execute(
            "SELECT request_id FROM sys.dm_pdw_request_steps")
        assert steps.rows

        workers = service.execute(
            "SELECT pdw_node_id FROM sys.dm_pdw_dms_workers")
        assert workers.rows

        cache = service.execute(
            "SELECT shape_key, hit_count, execution_count "
            "FROM sys.dm_pdw_plan_cache")
        warm_rows = [row for row in cache.rows if "orders" in row[0]]
        assert warm_rows and warm_rows[0][1] >= 1

        admission = service.execute(
            "SELECT in_flight, admitted_total FROM sys.dm_pdw_admission")
        assert len(admission.rows) == 1
        assert admission.rows[0][1] >= 1

    def test_dmv_query_does_not_flush_plan_cache(self, service):
        warm = "SELECT COUNT(*) AS n FROM supplier"
        service.execute(warm)
        service.execute(
            "SELECT status FROM sys.dm_pdw_exec_requests")
        result = service.execute(warm)
        assert result.cache_hit, \
            "querying a DMV invalidated the plan cache"

    def test_rejected_request_recorded(self, obs_env):
        appliance, shell = obs_env
        service = PdwService(appliance=appliance, shell=shell,
                             max_in_flight=1, max_queue=0)
        try:
            ticket = service.admission.admit()  # hog the only slot
            with pytest.raises(Exception):
                service.execute("SELECT COUNT(*) AS n FROM nation",
                                timeout_seconds=0.01)
            service.admission.release(ticket)
        finally:
            service.close()
        rejected = [r for r in service.requests.completed()
                    if r.status == "rejected"]
        assert rejected
        assert rejected[0].error

    def test_stats_include_requests(self, service):
        service.execute("SELECT COUNT(*) AS n FROM nation")
        stats = service.stats()
        assert stats["requests"]["finished"]["complete"] >= 1


class TestCli:
    def test_requests_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        jsonl = tmp_path / "requests.jsonl"
        prom = tmp_path / "requests.prom"
        code = main(["--scale", "0.001", "--nodes", "4", "requests",
                     "--clients", "1", "--queries", "2",
                     "--jsonl", str(jsonl), "--prometheus", str(prom)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sys.dm_pdw_exec_requests" in out
        assert "Flight recorder:" in out
        assert "QID1" in out
        from repro.obs.export import validate_jsonl
        text = jsonl.read_text(encoding="utf-8")
        assert validate_jsonl(text) == []
        assert '"event": "request_complete"' in text
        # Every finished request is counted once in the service series.
        finished = sum(
            1 for line in text.splitlines()
            if json.loads(line)["status"] in ("complete", "failed"))
        counted = sum(
            float(line.rsplit(" ", 1)[1])
            for line in prom.read_text(encoding="utf-8").splitlines()
            if line.startswith("pdw_service_queries_total{"))
        assert counted == finished > 0
