"""Parameterized plan cache: normalization, binding, LRU, invalidation.

The correctness-critical properties live here: literals lift to markers
(so templates are shared), *except* where a constant is structural —
``TOP``/``LIMIT``, interval arithmetic, stable functions — and a cached
plan re-bound with wildly different literals returns exactly the rows a
fresh compilation would.
"""

from __future__ import annotations

import re

import pytest

from tests.conftest import canonical
from repro import PdwSession
from repro.appliance.runner import run_reference
from repro.service import ExecutionOptions, PlanCache, parameterize
from repro.service.plan_cache import (
    CacheEntry,
    bind_params,
    instantiate_plan,
)
from repro.workloads.tpch_queries import TPCH_QUERIES


class TestParameterize:
    def test_same_shape_same_key(self):
        a = parameterize("SELECT n_name FROM nation "
                         "WHERE n_nationkey < 5")
        b = parameterize("SELECT n_name FROM nation "
                         "WHERE n_nationkey < 17")
        assert a.key == b.key
        assert a.params == (("int", 5, False),)
        assert b.params == (("int", 17, False),)

    def test_date_literals_lift(self):
        a = parameterize(TPCH_QUERIES["Q1"])
        b = parameterize(TPCH_QUERIES["Q1"].replace(
            "1998-09-02", "1993-01-01"))
        assert a.key == b.key
        assert ("str", "1998-09-02", True) in a.params

    def test_different_shape_different_key(self):
        a = parameterize("SELECT n_name FROM nation "
                         "WHERE n_nationkey < 5")
        b = parameterize("SELECT n_name FROM nation "
                         "WHERE n_nationkey <= 5")
        assert a.key != b.key

    def test_limit_stays_in_key(self):
        base = ("SELECT l_orderkey FROM lineitem WHERE l_quantity < 10 "
                "ORDER BY l_orderkey LIMIT {}")
        a = parameterize(base.format(10))
        b = parameterize(base.format(1000))
        assert a.key != b.key
        assert "10" in a.key  # the limit is part of the template
        # The predicate literal still lifted.
        assert a.params == b.params == (("int", 10, False),)

    def test_dateadd_arguments_stay_structural(self):
        shape = parameterize(
            "SELECT s_suppkey FROM supplier "
            "WHERE s_suppkey < 9 "
            "AND DATEADD(year, 1, DATE '1994-01-01') > DATE '1995-01-01'")
        assert ("int", 1, False) in shape.structural
        assert ("str", "1994-01-01", True) in shape.structural
        # Only the comparison literals were lifted.
        assert shape.params == (("int", 9, False),
                                ("str", "1995-01-01", True))
        assert "DATEADD" in shape.key and "1994-01-01" in shape.key

    def test_substring_arguments_stay_structural(self):
        shape = parameterize(
            "SELECT c_custkey FROM customer "
            "WHERE SUBSTRING(c_phone, 1, 2) = '13'")
        assert ("int", 1, False) in shape.structural
        assert ("int", 2, False) in shape.structural
        assert shape.params == (("str", "13", False),)

    def test_hints_participate_in_key(self):
        sql = "SELECT n_name FROM nation WHERE n_nationkey < 5"
        bare = parameterize(sql)
        hinted = parameterize(sql, hints=(("nation", "replicate"),))
        assert bare.key != hinted.key

    def test_null_and_bool_stay_structural(self):
        shape = parameterize(
            "SELECT n_name FROM nation WHERE n_name IS NULL")
        assert shape.params == ()


class TestBindParams:
    def test_identical_vector_pure_hit(self):
        params = (("int", 5, False),)
        assert bind_params(params, params, frozenset()) == {}

    def test_changed_values_map(self):
        template = (("int", 5, False), ("str", "A", False))
        requested = (("int", 9, False), ("str", "A", False))
        mapping = bind_params(template, requested, frozenset())
        assert mapping == {("int", 5, False): ("int", 9, False)}

    def test_diverging_duplicates_ambiguous(self):
        template = (("int", 5, False), ("int", 5, False))
        requested = (("int", 5, False), ("int", 9, False))
        assert bind_params(template, requested, frozenset()) is None

    def test_consistent_duplicates_fine(self):
        template = (("int", 5, False), ("int", 5, False))
        requested = (("int", 9, False), ("int", 9, False))
        mapping = bind_params(template, requested, frozenset())
        assert mapping == {("int", 5, False): ("int", 9, False)}

    def test_structural_collision_ambiguous(self):
        template = (("int", 5, False),)
        requested = (("int", 9, False),)
        structural = frozenset({("int", 5, False)})
        assert bind_params(template, requested, structural) is None

    def test_length_mismatch_refused(self):
        assert bind_params((("int", 5, False),), (), frozenset()) is None


class TestPlanCacheStructure:
    @staticmethod
    def _entry(key: str, version: int = 0) -> CacheEntry:
        shape = parameterize(key)
        return CacheEntry(shape=shape, compiled=None,
                          schema_version=version)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        first = self._entry("SELECT n_name FROM nation "
                            "WHERE n_nationkey < 1")
        second = self._entry("SELECT n_name FROM nation "
                             "WHERE n_nationkey > 1")
        third = self._entry("SELECT n_regionkey FROM nation "
                            "WHERE n_nationkey < 1")
        cache.insert(first)
        cache.insert(second)
        # Touch `first` so `second` is the LRU victim.
        assert cache.lookup(first.shape, 0) is first
        cache.insert(third)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.peek(second.shape.key) is None
        assert cache.peek(first.shape.key) is first

    def test_schema_version_invalidates(self):
        cache = PlanCache(capacity=4)
        entry = self._entry("SELECT n_name FROM nation "
                            "WHERE n_nationkey < 1", version=1)
        cache.insert(entry)
        assert cache.lookup(entry.shape, 1) is entry
        assert cache.lookup(entry.shape, 2) is None  # DDL happened
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert len(cache) == 0

    def test_invalidate_all(self):
        cache = PlanCache(capacity=4)
        cache.insert(self._entry("SELECT n_name FROM nation "
                                 "WHERE n_nationkey < 1"))
        cache.insert(self._entry("SELECT n_name FROM nation "
                                 "WHERE n_nationkey > 1"))
        assert cache.invalidate_all() == 2
        assert len(cache) == 0

    def test_hit_miss_counters(self):
        cache = PlanCache(capacity=4)
        entry = self._entry("SELECT n_name FROM nation "
                            "WHERE n_nationkey < 1")
        assert cache.lookup(entry.shape, 0) is None
        cache.insert(entry)
        cache.lookup(entry.shape, 0)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestInstantiation:
    def test_temp_namespacing(self, tpch_engine):
        compiled = tpch_engine.compile(TPCH_QUERIES["Q3"])
        plan, temps = instantiate_plan(compiled, None, execution_id=42)
        assert temps, "Q3 must materialize temp tables"
        assert all(name.endswith("_E42") for name in temps)
        # Every renamed destination is consistently referenced.
        for step in plan.steps:
            if step.destination_table is not None:
                assert step.destination_table.name.endswith("_E42")
        original_names = [s.destination_table.name
                          for s in compiled.dsql_plan.steps
                          if s.destination_table is not None]
        final_sql = plan.steps[-1].sql
        for name in original_names:
            # Token match: TEMP_ID_1_E42 must not count as TEMP_ID_1
            # (underscore is a word character, so \b excludes it).
            assert re.search(rf"\b{name}\b", final_sql) is None

    def test_original_plan_untouched(self, tpch_engine):
        compiled = tpch_engine.compile(TPCH_QUERIES["Q3"])
        before = [s.sql for s in compiled.dsql_plan.steps]
        instantiate_plan(compiled, None, execution_id=7)
        assert [s.sql for s in compiled.dsql_plan.steps] == before


class TestCachedExecutionCorrectness:
    """Regression for the headline bug class: a cached plan re-bound
    with different literals must return exactly what a fresh
    compilation returns."""

    def test_q1_wildly_different_date(self, service, tpch):
        appliance, shell = tpch
        sql_late = TPCH_QUERIES["Q1"]           # DATE '1998-09-02'
        sql_early = sql_late.replace("1998-09-02", "1992-03-01")
        miss = service.execute(sql_late)
        assert miss.cache_hit is False
        hit = service.execute(sql_early)
        assert hit.cache_hit is True, \
            "same shape, different date must hit the cache"
        fresh = PdwSession(appliance=appliance, shell=shell,
                           options=ExecutionOptions(trace=False))
        expected = fresh.run(sql_early)
        assert canonical(hit.rows) == canonical(expected.rows)
        assert canonical(hit.rows) != canonical(miss.rows), \
            "the two date cutoffs must actually differ at this scale"

    def test_limit_not_folded_at_execution(self, service):
        base = ("SELECT l_orderkey FROM lineitem WHERE l_quantity < 50 "
                "ORDER BY l_orderkey LIMIT {}")
        ten = service.execute(base.format(10))
        thousand = service.execute(base.format(1000))
        assert len(ten.rows) == 10
        assert len(thousand.rows) > 10, \
            "LIMIT 1000 must not reuse the LIMIT 10 plan"

    def test_ambiguous_binding_recompiles_correctly(self, service, tpch):
        appliance, shell = tpch
        # Template has one value in two positions; the new call splits
        # them — substitution is ambiguous, so the service must
        # recompile rather than guess.
        base = ("SELECT COUNT(*) AS n FROM lineitem "
                "WHERE l_quantity > {} AND l_linenumber < {}")
        service.execute(base.format(3, 3))
        split = service.execute(base.format(10, 4))
        assert split.cache_hit is False
        fresh = PdwSession(appliance=appliance, shell=shell,
                           options=ExecutionOptions(trace=False))
        expected = fresh.run(base.format(10, 4))
        assert split.rows == expected.rows

    @pytest.mark.parametrize("template", [
        "SELECT n_name AS name FROM nation WHERE n_regionkey = {} "
        "UNION ALL SELECT r_name FROM region WHERE r_regionkey > {}",
        "SELECT u.k, COUNT(*) AS n FROM (SELECT n_regionkey AS k "
        "FROM nation WHERE n_nationkey < {} UNION ALL SELECT c_nationkey "
        "FROM customer WHERE c_acctbal > {}) u GROUP BY u.k",
    ], ids=["top_level", "derived_table"])
    def test_union_all_hit_rebinds_to_the_reference_rows(self, service,
                                                         tpch, template):
        appliance, _ = tpch
        miss = service.execute(template.format(1, 2))
        assert miss.cache_hit is False
        hit = service.execute(template.format(3, 0))
        assert hit.cache_hit is True
        expected = run_reference(appliance, template.format(3, 0))
        assert canonical(hit.rows) == canonical(expected.rows)
        assert canonical(hit.rows) != canonical(miss.rows)
        uncached = service.execute(
            template.format(3, 0),
            options=ExecutionOptions(use_plan_cache=False))
        assert canonical(uncached.rows) == canonical(expected.rows)

    def test_dateadd_query_cached_safely(self, service, tpch):
        appliance, shell = tpch
        # Q20's inner shape: DATEADD bounds the window; only the
        # comparison literals may float.
        sql = TPCH_QUERIES["Q20"]
        first = service.execute(sql)
        second = service.execute(sql)
        assert second.cache_hit is True
        fresh = PdwSession(appliance=appliance, shell=shell,
                           options=ExecutionOptions(trace=False))
        expected = fresh.run(sql)
        assert canonical(second.rows) == canonical(expected.rows)


class TestDdlInvalidation:
    def test_load_invalidates_cached_plans(self):
        from repro.workloads.tpch_datagen import build_tpch_appliance

        appliance, shell = build_tpch_appliance(scale=0.001,
                                                node_count=2)
        from repro.service import PdwService

        service = PdwService(appliance=appliance, shell=shell)
        try:
            sql = "SELECT COUNT(*) AS n FROM nation"
            before = service.execute(sql)
            assert service.execute(sql).cache_hit is True
            # DDL/data change: row count moves, schema_version bumps.
            appliance.load_rows("nation", [(99, "ATLANTIS", 0)])
            after = service.execute(sql)
            assert after.cache_hit is False, \
                "a load must invalidate cached templates"
            assert after.rows[0][0] == before.rows[0][0] + 1
            assert service.plan_cache.stats()["invalidations"] >= 1
        finally:
            service.close()

    def test_version_tracks_base_tables_not_temps(self, tpch_engine,
                                                  tpch):
        appliance, _shell = tpch
        version = appliance.schema_version
        compiled = tpch_engine.compile(TPCH_QUERIES["Q3"])
        plan, temps = instantiate_plan(compiled, None, execution_id=999)
        from repro.appliance.runner import DsqlRunner

        DsqlRunner(appliance).run(plan, keep_temps=True)
        for name in temps:
            appliance.drop_table(name)
        assert appliance.schema_version == version, \
            "temp-table churn must not invalidate the plan cache"
