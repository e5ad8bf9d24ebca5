"""The sys.query_store_* views, queried through the ordinary
parse -> optimize -> execute path: schema-version neutrality, plan-cache
friendliness, cross-view consistency under self-observation, concurrent
readers, and a hint-forced plan change surfacing as two plans of one
shape plus a detected regression."""

import threading

import pytest

from repro import PdwService, PdwSession
from repro.obs.query_store import QueryStore, normalized_shape_key
from repro.workloads.tpch_datagen import build_tpch_appliance

SCALE = 0.001
NODES = 4

JOIN_SQL = ("SELECT c_custkey, o_orderdate FROM orders, customer "
            "WHERE o_custkey = c_custkey AND o_totalprice > 1000")


@pytest.fixture(scope="module")
def obs_env():
    """A private appliance: system-view registration and refreshes must
    not touch the suite-wide shared fixture."""
    return build_tpch_appliance(scale=SCALE, node_count=NODES)


@pytest.fixture()
def session(obs_env):
    appliance, shell = obs_env
    return PdwSession(appliance=appliance, shell=shell,
                      query_store=QueryStore())


@pytest.fixture()
def service(obs_env):
    appliance, shell = obs_env
    svc = PdwService(appliance=appliance, shell=shell,
                     query_store=QueryStore())
    yield svc
    svc.close()


class TestSessionPath:
    def test_views_reflect_recorded_executions(self, session):
        first = session.run("SELECT COUNT(*) AS n FROM nation")
        texts = session.run(
            "SELECT query_id, execution_count, plan_count "
            "FROM sys.query_store_query_texts")
        assert len(texts.rows) >= 1
        assert all(row[1] >= 1 and row[2] >= 1 for row in texts.rows)
        stats = session.run(
            "SELECT plan_hash, execution_count, rows_returned "
            "FROM sys.query_store_runtime_stats")
        assert any(row[2] == len(first.rows) for row in stats.rows)
        assert all(len(row[0]) == 12 for row in stats.rows)

    def test_view_query_is_schema_version_neutral(self, session):
        session.run("SELECT COUNT(*) AS n FROM region")
        before = session.appliance.schema_version
        session.run("SELECT COUNT(*) AS n "
                    "FROM sys.query_store_runtime_stats")
        session.run("SELECT COUNT(*) AS n FROM sys.query_store_plans")
        session.run("SELECT COUNT(*) AS n "
                    "FROM sys.query_store_query_texts")
        assert session.appliance.schema_version == before

    def test_view_queries_observe_themselves(self, session):
        """The store stamps every completed execution — including
        queries against its own views (like the DMVs, the observer is
        part of the observed system)."""
        session.run("SELECT COUNT(*) AS n "
                    "FROM sys.query_store_runtime_stats")
        texts = session.run(
            "SELECT example_sql FROM sys.query_store_query_texts")
        assert any("query_store_runtime_stats" in row[0]
                   for row in texts.rows)

    def test_cross_view_plan_counts_agree(self, session):
        session.run("SELECT COUNT(*) AS n FROM nation")
        session.run(JOIN_SQL)
        per_shape = session.run(
            "SELECT query_id, COUNT(*) AS n FROM sys.query_store_plans "
            "GROUP BY query_id")
        counts = {row[0]: row[1] for row in per_shape.rows}
        texts = session.run(
            "SELECT query_id, plan_count "
            "FROM sys.query_store_query_texts")
        # The second view query adds new shapes of its own, but every
        # shape present in the first snapshot keeps its plan count.
        for query_id, plan_count in texts.rows:
            if query_id in counts:
                assert counts[query_id] == plan_count


    def test_shape_max_q_error_is_the_max_over_its_plans(self, session):
        session.run(JOIN_SQL)
        session.run(JOIN_SQL, options=session.options.override(
            hints={"customer": "shuffle"}))
        shape = session.query_store.find(normalized_shape_key(JOIN_SQL))
        assert len(shape.plans) == 2
        rows = session.run(
            "SELECT query_id, max_q_error "
            "FROM sys.query_store_query_texts").rows
        assert dict(rows)[shape.query_id] == max(
            plan.max_q_error for plan in shape.plans)


class TestServicePath:
    def test_view_query_does_not_flush_plan_cache(self, service):
        sql = "SELECT COUNT(*) AS n FROM supplier"
        service.execute(sql)
        service.execute("SELECT COUNT(*) AS n "
                        "FROM sys.query_store_runtime_stats")
        hits_before = service.plan_cache.stats()["hits"]
        service.execute(sql)
        assert service.plan_cache.stats()["hits"] == hits_before + 1
        # The view query itself re-parameterizes into a cacheable shape.
        service.execute("SELECT COUNT(*) AS n "
                        "FROM sys.query_store_runtime_stats")
        assert service.plan_cache.stats()["hits"] == hits_before + 2

    def test_hint_forced_plan_change_is_visible_and_flagged(
            self, service):
        hinted = service.options.override(hints={"customer": "shuffle"})
        for _ in range(2):
            service.execute(JOIN_SQL)
        for _ in range(2):
            service.execute(JOIN_SQL, options=hinted)
        shape = service.query_store.find(
            normalized_shape_key(JOIN_SQL))
        assert shape is not None and len(shape.plans) == 2

        plans = service.execute(
            "SELECT plan_hash, is_current, execution_count "
            "FROM sys.query_store_plans "
            "WHERE query_id = " + str(shape.query_id))
        assert len(plans.rows) == 2
        current = [row for row in plans.rows if row[1]]
        assert len(current) == 1
        assert current[0][0] == shape.current_plan().plan_hash

        # The shuffle-forced plan displaces the broadcast the optimizer
        # chose; at this scale it runs ~1.4x slower — flag at 1.2.
        flagged = service.query_store.regressions(factor=1.2)
        assert any(reg.query_id == shape.query_id for reg in flagged)

    def test_stats_surface(self, service):
        service.execute("SELECT COUNT(*) AS n FROM nation")
        stats = service.stats()
        assert stats["query_store"]["shapes"] >= 1
        assert stats["query_store"]["executions"] >= 1


class TestConcurrentReaders:
    def test_readers_hammer_while_traffic_runs(self, obs_env):
        appliance, shell = obs_env
        service = PdwService(appliance=appliance, shell=shell,
                             query_store=QueryStore(),
                             max_in_flight=8, max_queue=64)
        errors = []

        def writer():
            try:
                for i in range(6):
                    service.execute(
                        "SELECT COUNT(*) AS n FROM orders "
                        f"WHERE o_totalprice > {1000 + i}")
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                for _ in range(4):
                    result = service.execute(
                        "SELECT query_id, plan_hash, execution_count "
                        "FROM sys.query_store_runtime_stats")
                    for row in result.rows:
                        assert row[2] >= 1
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(2)] \
            + [threading.Thread(target=reader) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            service.close()
        assert not errors
