"""Serial optimizer search tests: join enumeration, rules, extraction."""

import sys
import threading
import time

import pytest

from repro.algebra import physical as phys
from repro.algebra.logical import AggPhase, LogicalGroupBy, LogicalJoin
from repro.catalog.schema import Catalog, Column, TableDef, hash_distributed
from repro.catalog.shell_db import ShellDatabase
from repro.common.types import INTEGER
from repro.optimizer import search
from repro.optimizer.search import (
    OptimizerConfig,
    SerialOptimizer,
    extract_best_serial_plan,
)
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.service.test_scan_path_c_loops import SHUFFLE_SHAPES


@pytest.fixture()
def optimizer(mini_shell):
    return SerialOptimizer(mini_shell)


def logical_ops(memo, root):
    from repro.optimizer.memo import topological_order
    for gid in topological_order(memo, root):
        for expr in memo.group(gid).logical_expressions:
            yield expr


class TestJoinEnumeration:
    def test_two_way_join_has_one_join_group(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        joins = [e for e in logical_ops(result.memo, result.root_group)
                 if isinstance(e.op, LogicalJoin)]
        assert len(joins) >= 1

    def test_three_way_join_generates_alternatives(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey")
        joins = [e for e in logical_ops(result.memo, result.root_group)
                 if isinstance(e.op, LogicalJoin)]
        # (C⋈O)⋈L, C⋈(O⋈L) at least — intermediate groups for CO and OL.
        assert len(joins) >= 3

    def test_transitive_closure_adds_join_edge(self, mini_shell):
        # c_custkey = o_custkey and o_custkey = l_partkey implies
        # c_custkey = l_partkey, enabling the C⋈L decomposition.
        optimizer = SerialOptimizer(mini_shell)
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_custkey = l_partkey")
        joins = [e for e in logical_ops(result.memo, result.root_group)
                 if isinstance(e.op, LogicalJoin)]
        assert len(joins) >= 3

    def test_cross_product_only_when_disconnected(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, nation")
        joins = [e for e in logical_ops(result.memo, result.root_group)
                 if isinstance(e.op, LogicalJoin)]
        assert all(e.op.predicate is None for e in joins)

    def test_greedy_fallback_for_large_regions(self, mini_shell):
        config = OptimizerConfig(exhaustive_join_limit=2)
        optimizer = SerialOptimizer(mini_shell, config)
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey")
        assert result.best_serial_plan is not None

    def test_best_plan_filters_before_join(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey AND o_totalprice > 100")
        plan = result.best_serial_plan
        # The Filter must appear below the join, not above it.
        assert isinstance(plan.op, phys.ComputeScalar)
        join_node = plan.children[0]
        filters_below = [
            n for n in join_node.walk() if isinstance(n.op, phys.Filter)
        ]
        assert filters_below


class TestAggregateSplit:
    def test_local_global_alternative_present(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_nationkey, COUNT(*) FROM customer "
            "GROUP BY c_nationkey")
        phases = {
            e.op.phase for e in logical_ops(result.memo, result.root_group)
            if isinstance(e.op, LogicalGroupBy)
        }
        assert AggPhase.LOCAL in phases
        assert AggPhase.GLOBAL in phases

    def test_global_combines_count_with_sum(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_nationkey, COUNT(*) AS n FROM customer "
            "GROUP BY c_nationkey")
        global_gbs = [
            e.op for e in logical_ops(result.memo, result.root_group)
            if isinstance(e.op, LogicalGroupBy)
            and e.op.phase is AggPhase.GLOBAL
        ]
        assert global_gbs
        funcs = [agg.func for _, agg in global_gbs[0].aggregates]
        assert funcs == ["SUM"]

    def test_distinct_agg_not_split(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_nationkey, COUNT(DISTINCT c_name) FROM customer "
            "GROUP BY c_nationkey")
        phases = {
            e.op.phase for e in logical_ops(result.memo, result.root_group)
            if isinstance(e.op, LogicalGroupBy)
        }
        assert phases == {AggPhase.COMPLETE}

    def test_split_disabled_by_config(self, mini_shell):
        config = OptimizerConfig(enable_aggregate_split=False)
        result = SerialOptimizer(mini_shell, config).optimize_sql(
            "SELECT c_nationkey, COUNT(*) FROM customer "
            "GROUP BY c_nationkey")
        phases = {
            e.op.phase for e in logical_ops(result.memo, result.root_group)
            if isinstance(e.op, LogicalGroupBy)
        }
        assert phases == {AggPhase.COMPLETE}


class TestGroupByPushdown:
    def test_join_pushed_below_groupby(self, mini_shell):
        optimizer = SerialOptimizer(mini_shell)
        # lineitem grouped by l_orderkey then joined with orders (unique
        # on o_orderkey) — the rule adds GroupBy(join) alternatives.
        result = optimizer.optimize_sql(
            "SELECT o_orderdate, q FROM orders, "
            "(SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem "
            " GROUP BY l_orderkey) AS agg "
            "WHERE o_orderkey = agg.l_orderkey")
        group_children_joins = 0
        for expr in logical_ops(result.memo, result.root_group):
            if isinstance(expr.op, LogicalGroupBy):
                for child in expr.children:
                    child_group = result.memo.group(child)
                    if any(isinstance(e.op, LogicalJoin)
                           for e in child_group.logical_expressions):
                        group_children_joins += 1
        assert group_children_joins > 0

    def test_pushdown_disabled_by_config(self, mini_shell):
        config = OptimizerConfig(enable_groupby_pushdown=False,
                                 enable_aggregate_split=False)
        result = SerialOptimizer(mini_shell, config).optimize_sql(
            "SELECT o_orderdate, q FROM orders, "
            "(SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem "
            " GROUP BY l_orderkey) AS agg "
            "WHERE o_orderkey = agg.l_orderkey")
        for expr in logical_ops(result.memo, result.root_group):
            if isinstance(expr.op, LogicalGroupBy):
                for child in expr.children:
                    child_group = result.memo.group(child)
                    assert not any(
                        isinstance(e.op, LogicalJoin)
                        for e in child_group.logical_expressions)


class TestExtraction:
    def test_plan_cost_positive(self, optimizer):
        result = optimizer.optimize_sql("SELECT c_name FROM customer")
        assert result.best_serial_cost > 0

    def test_plan_is_tree_of_physical_ops(self, optimizer):
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        for node in result.best_serial_plan.walk():
            assert isinstance(node.op, phys.PhysicalOp)

    def test_best_cost_not_worse_than_any_alternative(self, optimizer):
        """Exhaustiveness sanity: the chosen plan beats a handcrafted
        alternative (NLJ everywhere)."""
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        plan = result.best_serial_plan
        hash_joins = [n for n in plan.walk()
                      if isinstance(n.op, phys.HashJoin)]
        assert hash_joins, "hash join must beat NLJ on an equi join"

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_the_lazy_plan_is_the_one_extracted_directly(self, name,
                                                         tpch_shell):
        optimizer = SerialOptimizer(tpch_shell)
        result = optimizer.optimize_sql(TPCH_QUERIES[name])
        direct = extract_best_serial_plan(result.memo, result.root_group,
                                          optimizer.config.cost_model)
        lazy = result.best_serial_plan
        assert lazy.tree_string() == direct.tree_string()
        assert [(n.op.describe(), n.cardinality, n.cost)
                for n in lazy.walk()] == [
            (n.op.describe(), n.cardinality, n.cost) for n in direct.walk()]
        assert result.best_serial_plan is lazy  # extracted once

    def test_compile_extracts_nothing_until_the_plan_is_read(
            self, optimizer, monkeypatch):
        calls = []
        extract = search.extract_best_serial_plan
        monkeypatch.setattr(search, "extract_best_serial_plan",
                            lambda *args: calls.append(args) or extract(*args))
        result = optimizer.optimize_sql("SELECT c_name FROM customer")
        assert calls == []
        assert result.best_serial_cost > 0
        assert len(calls) == 1

    def test_threads_reading_at_once_extract_once(self, optimizer,
                                                  monkeypatch):
        calls = []
        extract = search.extract_best_serial_plan

        def slow_extract(*args):
            calls.append(args)
            time.sleep(0.01)  # the other readers arrive meanwhile
            return extract(*args)

        monkeypatch.setattr(search, "extract_best_serial_plan",
                            slow_extract)
        result = optimizer.optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        readers = 8
        barrier = threading.Barrier(readers)
        plans = []

        def read():
            barrier.wait(5)
            plans.append(result.best_serial_plan)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(plans) == readers
        assert plans[0] is not None
        assert all(plan is plans[0] for plan in plans)


class TestSeededGreedy:
    def test_collocation_seed_runs(self):
        catalog = Catalog([
            TableDef(f"t{i}",
                     [Column("k", INTEGER), Column(f"v{i}", INTEGER)],
                     hash_distributed("k"), row_count=1000 * (i + 1))
            for i in range(5)
        ])
        shell = ShellDatabase(catalog, node_count=4)
        config = OptimizerConfig(exhaustive_join_limit=3,
                                 seed_collocated_joins=True)
        optimizer = SerialOptimizer(shell, config)
        sql = ("SELECT t0.v0 FROM t0, t1, t2, t3, t4 WHERE "
               "t0.k = t1.k AND t1.k = t2.k AND t2.k = t3.k "
               "AND t3.k = t4.k")
        result = optimizer.optimize_sql(sql)
        assert result.best_serial_plan is not None


#: pdwbench's JOIN, GRP and DIST shapes, one literal each.
BENCH_SHAPES = {
    name: SHUFFLE_SHAPES[name].format(literal)
    for name, literal in (("JOIN", 1000), ("GRP", 1995), ("DIST", 10))
}

#: (groups kept, groups ever created) by a fresh serial memo.  The kept
#: count is the search space and must not move; the created count is
#: what the join DP costs.  A subset of a join region gets one group, so
#: every region subset is created once (Q5's six-table region used to
#: create a group per split and merge it away: 301 created for 73 kept).
MEMO_GROUPS = {
    "Q1": (6, 6), "Q3": (15, 16), "Q4": (16, 17), "Q5": (73, 74),
    "Q6": (6, 6), "Q10": (23, 24), "Q12": (8, 8), "Q13": (9, 9),
    "Q14": (8, 8), "Q16": (10, 11), "Q17": (17, 18), "Q18": (22, 22),
    "Q19": (8, 9), "Q20": (32, 33), "Q22": (14, 14),
    "JOIN": (6, 6), "GRP": (6, 6), "DIST": (5, 5),
}


class TestJoinRegionGroups:
    def test_every_query_is_pinned(self):
        assert set(MEMO_GROUPS) == set(TPCH_QUERIES) | set(BENCH_SHAPES)

    @pytest.mark.parametrize("name", sorted(MEMO_GROUPS))
    def test_groups_kept_and_created(self, name, tpch_shell):
        sql = {**TPCH_QUERIES, **BENCH_SHAPES}[name]
        result = SerialOptimizer(tpch_shell).optimize_sql(sql)
        memo = result.memo
        assert (len(memo.canonical_groups()), len(memo.groups)) \
            == MEMO_GROUPS[name]

    def test_equal_split_predicates_are_one_object(self, tpch_shell):
        result = SerialOptimizer(tpch_shell).optimize_sql(TPCH_QUERIES["Q5"])

        def query_joins(op):
            if isinstance(op, LogicalJoin):
                yield op
            for child in op.children:
                yield from query_joins(child)

        # The query's own join operators keep their predicates; every
        # other join predicate was synthesized by the region DP.
        written = {id(join.predicate)
                   for join in query_joins(result.query.root)}
        synthesized = {}
        for group in result.memo.canonical_groups():
            for expr in group.logical_expressions:
                predicate = getattr(expr.op, "predicate", None)
                if (isinstance(expr.op, LogicalJoin)
                        and id(predicate) not in written):
                    synthesized.setdefault(predicate, set()).add(
                        id(predicate))
        assert len(synthesized) >= 5
        assert all(len(ids) == 1 for ids in synthesized.values())
