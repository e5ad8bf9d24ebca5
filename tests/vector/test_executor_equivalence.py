"""Production executor ⇄ reference interpreter equivalence.

The numpy executor changes *how* step SQL is evaluated (typed ndarrays
over a whole node group instead of env dicts node by node), never
*what* is computed: rows, row order under ORDER BY and the interpreter
counters and observer events must all be the oracle's.  (The full
TPC-H suite's rows, ``stats_view`` and simulated seconds at 1, 2, 3 and
8 nodes are pinned by ``test_default_executor_matches_reference`` in
``tests/appliance/test_columnar_dms.py``.)
"""

from __future__ import annotations

import pytest

from repro.appliance.interpreter import InterpreterStats, PlanInterpreter
from repro.appliance.runner import DsqlRunner, run_reference
from repro.common.executors import EXECUTORS
from repro.optimizer.binder import Binder
from repro.optimizer.normalize import normalize
from repro.sql.parser import parse_query
from repro.vector.np_batch import ColumnFragment
from repro.vector.np_executor import NumpyInterpreter
from repro.workloads.tpch_queries import TPCH_QUERIES

from tests.conftest import canonical


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q12"])
def test_both_executors_agree(name, tpch, tpch_engine):
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
    results = {
        executor: DsqlRunner(appliance, executor=executor).run(plan)
        for executor in EXECUTORS
    }
    reference = results["reference"]
    for executor, result in results.items():
        assert result.columns == reference.columns, executor
        assert result.sorted_rows() == reference.sorted_rows(), executor


def test_run_reference_numpy(tpch):
    appliance, _ = tpch
    sql = ("SELECT COUNT(DISTINCT o_custkey) AS n, "
           "COUNT(DISTINCT o_orderpriority) AS p FROM orders")
    assert (run_reference(appliance, sql, executor="numpy").rows
            == run_reference(appliance, sql).rows)


def test_empty_scalar_aggregate_neutral_row(tpch):
    appliance, _ = tpch
    sql = ("SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem "
           "WHERE l_quantity < -1")
    for executor in EXECUTORS:
        assert run_reference(appliance, sql,
                             executor=executor).rows == [(0, None)]


def test_empty_group_by_result(tpch):
    appliance, _ = tpch
    sql = ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
           "WHERE l_quantity < -1 GROUP BY l_returnflag")
    for executor in EXECUTORS:
        assert run_reference(appliance, sql, executor=executor).rows == []


def fragments(image):
    """The image's row lists as the fragments node storage holds."""
    return {name: ColumnFragment.from_rows(rows)
            for name, rows in image.items()}


class TestInterpreterStatsParity:
    """The numpy interpreter must feed the same counters into the
    simulated relational-time model as the reference interpreter —
    Union adds nothing, Get counts scans, everything else
    rows_processed."""

    def run_both(self, tpch, sql):
        appliance, _ = tpch
        image = appliance.single_system_image()
        query = normalize(Binder(appliance.catalog).bind(
            parse_query(sql)))
        row_stats = InterpreterStats()
        np_stats = InterpreterStats()
        rows = PlanInterpreter(image, stats=row_stats).run_query(query)
        np_rows = NumpyInterpreter(fragments(image),
                                   stats=np_stats).run_query(query)
        assert canonical(np_rows) == canonical(rows)
        return row_stats, np_stats

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_discount > 0.01",
        ("SELECT c_name FROM customer, orders "
         "WHERE c_custkey = o_custkey AND o_totalprice > 1000"),
        ("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q "
         "FROM lineitem GROUP BY l_returnflag, l_linestatus"),
        "SELECT n_name FROM nation ORDER BY n_name LIMIT 5",
    ])
    def test_counters_match(self, tpch, sql):
        row_stats, np_stats = self.run_both(tpch, sql)
        assert np_stats.rows_scanned == row_stats.rows_scanned
        assert np_stats.rows_processed == row_stats.rows_processed


class TestObserverParity:
    def test_postorder_operator_counts_match(self, tpch):
        appliance, _ = tpch
        image = appliance.single_system_image()
        sql = ("SELECT c_name FROM customer, orders "
               "WHERE c_custkey = o_custkey AND o_totalprice > 1000")
        query = normalize(Binder(appliance.catalog).bind(
            parse_query(sql)))

        class Recorder:
            def __init__(self):
                self.events = []

            def record(self, op, rows_out):
                self.events.append((type(op).__name__, rows_out))

        row_rec, np_rec = Recorder(), Recorder()
        PlanInterpreter(image, observer=row_rec).run_query(query)
        NumpyInterpreter(fragments(image),
                         observer=np_rec).run_query(query)
        assert np_rec.events == row_rec.events
        assert np_rec.events  # something was actually observed
