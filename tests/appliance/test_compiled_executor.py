"""Executor integration tests.

* both executors produce identical multisets on the full TPC-H
  workload (the production executor's correctness contract);
* the per-step plan cache parses/binds each DSQL step's SQL exactly once
  per plan (``Binder.bind`` calls, one ``DsqlPlan.prepared``) and
  survives temp-table name reuse across queries (eviction regression);
* the DISTINCT-aggregation dedup and the appliance's cached
  single-system image behave.
"""

import pytest

from repro.algebra import expressions as ex
from repro.appliance.interpreter import _aggregate, _distinct
from repro.appliance.runner import DsqlRunner, run_reference
from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import INTEGER
from repro.pdw.dsql import StepKind
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names

from tests.conftest import canonical


@pytest.mark.parametrize("name", query_names())
def test_backends_agree_on_tpch_suite(name, tpch, tpch_engine):
    """Default and reference execution: identical result multisets."""
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
    default = DsqlRunner(appliance).run(plan)
    interpreted = DsqlRunner(appliance, executor="reference").run(plan)
    assert default.columns == interpreted.columns
    assert default.sorted_rows() == interpreted.sorted_rows()


def test_count_distinct_agrees_across_backends(tpch):
    appliance, _ = tpch
    sql = ("SELECT COUNT(DISTINCT o_custkey) AS n, "
           "COUNT(DISTINCT o_orderpriority) AS p FROM orders")
    assert (run_reference(appliance, sql, executor="numpy").rows
            == run_reference(appliance, sql).rows)


class TestStepCache:
    def test_each_step_bound_once_per_plan(self, tpch, tpch_engine,
                                           bind_calls):
        appliance, _ = tpch
        # Misaligned join → at least one DMS step before the Return step.
        plan = tpch_engine.compile(
            "SELECT c.c_custkey, o.o_custkey FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey").dsql_plan
        assert plan.movement_steps
        runner = DsqlRunner(appliance)
        del bind_calls[:]
        runner.run(plan)
        # Every step's SQL parsed + bound exactly once: a step runs
        # once for its whole node group, not once per source node.
        assert len(bind_calls) == len(plan.steps)
        prepared = plan.prepared
        assert prepared is not None
        runner.run(plan)
        assert len(bind_calls) == len(plan.steps)
        assert plan.prepared is prepared

    def test_base_table_steps_cached_across_runs(self, tpch, tpch_engine,
                                                 bind_calls):
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT c.c_custkey, o.o_custkey FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey").dsql_plan
        runner = DsqlRunner(appliance)
        runner.run(plan)
        del bind_calls[:]
        runner.run(plan)
        # Every step stays cached, also the ones reading a re-created
        # TEMP_ID_k: its column signature is part of the cache key.
        assert any("TEMP_ID_" in step.sql for step in plan.steps)
        assert bind_calls == []

    def test_temp_name_reuse_across_queries_is_evicted(self, tpch,
                                                       tpch_engine):
        """Two queries whose plans both create TEMP_ID_1 with different
        schemas must not cross-contaminate through the step cache."""
        appliance, _ = tpch
        first = ("SELECT c.c_custkey, o.o_custkey FROM customer c, "
                 "orders o WHERE c.c_custkey = o.o_custkey "
                 "AND c.c_acctbal < 0")
        second = ("SELECT s_name FROM supplier WHERE s_suppkey IN "
                  "(SELECT ps_suppkey FROM partsupp "
                  "WHERE ps_availqty > 5000) ORDER BY s_name")
        plans = {sql: tpch_engine.compile(sql).dsql_plan
                 for sql in (first, second)}
        for plan in plans.values():
            assert plan.movement_steps
        runner = DsqlRunner(appliance)  # one shared cache across queries
        for sql in (first, second, first):
            result = runner.run(plans[sql])
            reference = run_reference(appliance, sql)
            assert canonical(result.rows) == canonical(reference.rows)

    def test_reference_backend_bypasses_cache(self, tpch, tpch_engine):
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM lineitem").dsql_plan
        DsqlRunner(appliance, executor="reference").run(plan)
        assert plan.prepared is None

    def test_return_step_results_identical_after_caching(self, tpch,
                                                         tpch_engine):
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT n_name FROM nation ORDER BY n_name").dsql_plan
        runner = DsqlRunner(appliance)
        assert runner.run(plan).rows == runner.run(plan).rows


VAR_X = ex.ColumnVar(1, "x", INTEGER)


class TestDistinctAggregation:
    def test_distinct_hashable_dedup(self):
        values = [3, 1, 3, 2, 1, True, 1, 2.0]
        # Same first-occurrence semantics as the old quadratic scan.
        reference = []
        for value in values:
            if value not in reference:
                reference.append(value)
        assert _distinct(values) == reference

    def test_distinct_unhashable_fallback(self):
        values = [[1, 2], [3], [1, 2], [3], [4]]
        assert _distinct(values) == [[1, 2], [3], [4]]

    def test_count_distinct_through_aggregate(self):
        agg = ex.AggExpr("COUNT", VAR_X, distinct=True)
        members = [{1: v} for v in [5, 5, None, 7, 5, 7, 9]]
        assert _aggregate(agg, members) == 3

    def test_sum_distinct_with_unhashable_values(self):
        # Unhashable aggregate values take the linear-scan fallback.
        agg = ex.AggExpr("COUNT", VAR_X, distinct=True)
        members = [{1: [1]}, {1: [1]}, {1: [2]}]
        assert _aggregate(agg, members) == 2

    def test_large_distinct_is_fast(self):
        import time
        agg = ex.AggExpr("COUNT", VAR_X, distinct=True)
        members = [{1: i % 5000} for i in range(20000)]
        started = time.perf_counter()
        assert _aggregate(agg, members) == 5000
        # The old list-membership scan took quadratic time here.
        assert time.perf_counter() - started < 1.0


class TestSingleSystemImage:
    def _appliance(self):
        appliance = Appliance(2)
        appliance.create_table(TableDef(
            "t", [Column("a", INTEGER)], hash_distributed("a")))
        appliance.load_rows("t", [(i,) for i in range(10)])
        return appliance

    def test_image_cached_between_calls(self):
        appliance = self._appliance()
        assert (appliance.single_system_image()
                is appliance.single_system_image())

    def test_invalidated_on_load(self):
        appliance = self._appliance()
        first = appliance.single_system_image()
        appliance.load_rows("t", [(100,)])
        second = appliance.single_system_image()
        assert second is not first
        assert sorted(second["t"]) == [(i,) for i in range(10)] + [(100,)]

    def test_invalidated_on_drop(self):
        appliance = self._appliance()
        assert "t" in appliance.single_system_image()
        appliance.drop_table("t")
        assert "t" not in appliance.single_system_image()

    def test_temp_tables_do_not_invalidate_or_appear(self):
        appliance = self._appliance()
        image = appliance.single_system_image()
        appliance.create_temp_table(TableDef(
            "TEMP_ID_1", [Column("a", INTEGER)], hash_distributed("a"),
            is_temp=True))
        assert appliance.single_system_image() is image
        assert "TEMP_ID_1" not in image
        appliance.drop_temp_tables()
        assert appliance.single_system_image() is image

    def test_run_reference_sees_fresh_rows(self):
        appliance = self._appliance()
        before = run_reference(appliance, "SELECT COUNT(*) AS n FROM t")
        appliance.load_rows("t", [(200,), (201,)])
        after = run_reference(appliance, "SELECT COUNT(*) AS n FROM t")
        assert before.rows == [(10,)]
        assert after.rows == [(12,)]


def test_return_only_plans_have_no_dms_steps(tpch, tpch_engine):
    """Sanity: the counter assertions above rely on multi-step plans, so
    pin that a replicated-table query really is Return-only."""
    plan = tpch_engine.compile("SELECT n_name FROM nation").dsql_plan
    assert [s.kind for s in plan.steps] == [StepKind.RETURN]
