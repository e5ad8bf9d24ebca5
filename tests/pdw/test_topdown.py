"""Top-down enumerator tests: agreement with bottom-up, executability."""

import pytest

from repro.appliance.runner import DsqlRunner, run_reference
from repro.optimizer.search import SerialOptimizer
from repro.pdw.dms import DataMovement, DmsOperation
from repro.pdw.dsql import DsqlGenerator
from repro.pdw.enumerator import PdwOptimizer
from repro.pdw.topdown import TopDownPdwOptimizer

from tests.conftest import canonical

QUERIES = [
    "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey",
    "SELECT o_orderdate FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey",
    "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey",
    "SELECT SUM(o_totalprice) FROM orders",
    "SELECT c_name FROM customer WHERE c_custkey IN "
    "(SELECT o_custkey FROM orders)",
    "SELECT c_name FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
    "SELECT n_name FROM nation",
    "SELECT c_custkey FROM customer UNION ALL "
    "SELECT o_custkey FROM orders",
]


def both(shell, sql):
    serial = SerialOptimizer(shell).optimize_sql(sql)
    bottom_up = PdwOptimizer(
        serial.memo, serial.root_group, shell.node_count,
        equivalence=serial.equivalence).optimize()
    top_down = TopDownPdwOptimizer(
        serial.memo, serial.root_group, shell.node_count,
        equivalence=serial.equivalence).optimize()
    return serial, bottom_up, top_down


class TestAgreement:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_optimal_cost(self, mini_shell, sql):
        _, bottom_up, top_down = both(mini_shell, sql)
        assert top_down.cost == pytest.approx(bottom_up.cost, rel=1e-9)

    def test_collocated_join_free_in_both(self, mini_shell):
        _, bottom_up, top_down = both(
            mini_shell,
            "SELECT o_orderdate FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey")
        assert bottom_up.cost == 0.0
        assert top_down.cost == 0.0

    def test_fig3_choice_matches(self, mini_shell):
        _, bottom_up, top_down = both(
            mini_shell,
            "SELECT c_custkey, o_orderdate FROM customer, orders "
            "WHERE c_custkey = o_custkey AND o_totalprice > 1000")
        td_moves = [n.op.operation for n in top_down.root.walk()
                    if isinstance(n.op, DataMovement)]
        bu_moves = [n.op.operation for n in bottom_up.root.walk()
                    if isinstance(n.op, DataMovement)]
        assert sorted(m.value for m in td_moves) == \
            sorted(m.value for m in bu_moves)


class TestExecution:
    def test_topdown_plan_executes_correctly(self, tpch, tpch_shell):
        appliance = tpch[0]
        sql = ("SELECT c_nationkey, COUNT(*) AS n "
               "FROM customer, orders WHERE c_custkey = o_custkey "
               "GROUP BY c_nationkey ORDER BY c_nationkey")
        serial = SerialOptimizer(tpch_shell).optimize_sql(sql)
        plan = TopDownPdwOptimizer(
            serial.memo, serial.root_group, tpch_shell.node_count,
            equivalence=serial.equivalence).optimize()
        query = serial.query
        dsql = DsqlGenerator().generate(
            plan.root,
            output_names=query.output_names,
            output_vars=query.output_columns(),
            order_by=query.order_by or None,
            limit=query.limit,
            final_distribution=plan.distribution,
        )
        result = DsqlRunner(appliance).run(dsql)
        reference = run_reference(appliance, sql)
        assert canonical(result.rows) == canonical(reference.rows)


class TestMemoization:
    def test_cells_are_reused(self, mini_shell):
        serial = SerialOptimizer(mini_shell).optimize_sql(QUERIES[5])
        optimizer = TopDownPdwOptimizer(
            serial.memo, serial.root_group, mini_shell.node_count,
            equivalence=serial.equivalence)
        optimizer.optimize()
        first = optimizer.cells_solved
        # Solving again hits the memo table only.
        optimizer.best(optimizer.root_group, None)
        assert optimizer.cells_solved == first
