"""The columnar data plane ⇄ the row data plane, end to end.

Under the default (``numpy``) executor a DMS step's output moves as
typed columns and the destination temp table holds column pieces; under
``executor="reference"`` everything is row tuples, as it always was.
That is a change of representation only, so on the same appliance the
two runners must agree on everything observable: result rows, every
number in ``StepExecutionStats`` (with ``profile=True``: the transfer
matrix and the per-node operator actuals too), and — with
``keep_temps=True`` — the rows of every temp table on every node, *in
order*.

The runners leave ``parallel`` unset, so tier-1's two passes (serial,
and ``REPRO_PARALLEL_RUNTIME=1``) cover both runtimes.
"""

from __future__ import annotations

import pytest

from repro import PdwEngine
from repro.appliance.dms_runtime import DmsRuntime
from repro.appliance.runner import DsqlRunner
from repro.appliance.storage import Appliance
from repro.catalog.schema import (
    Column,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.common.types import INTEGER, varchar
from repro.pdw.dms import DmsOperation
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    column_from_list,
)
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names

from tests.integration.test_parallel_equivalence import stats_view

NODE_COUNTS = (1, 2, 3, 8)

#: pdwbench's three synthetic data-moving shapes (its ``exec_shuffle``
#: workload), one literal each, plus a cross join whose COUNT(*)
#: partials ride a broadcast.
SHAPES = {
    "JOIN": "SELECT c_custkey, o_orderdate FROM orders, customer "
            "WHERE o_custkey = c_custkey AND o_totalprice > 100000",
    "GRP": "SELECT o_custkey, COUNT(*) AS order_count, "
           "SUM(o_totalprice) AS total FROM orders "
           "WHERE o_orderdate >= DATE '1995-01-01' GROUP BY o_custkey",
    "DIST": "SELECT DISTINCT l_suppkey, l_partkey FROM lineitem "
            "WHERE l_quantity < 15",
    "COUNT": "SELECT COUNT(*) AS n FROM orders, customer "
             "WHERE o_totalprice > 350000 AND c_acctbal > 5000",
    # No order qualifies: every source's batch is empty, nothing is
    # delivered, and the next step scans temps that stayed empty.
    "EMPTY": "SELECT o_custkey, COUNT(*) AS n FROM orders "
             "WHERE o_totalprice < 0 GROUP BY o_custkey",
}
QUERIES = {**{name: TPCH_QUERIES[name] for name in query_names()},
           **SHAPES}


def temp_rows(appliance):
    """(temp table, node) → its rows, in stored order."""
    return {
        (table.name, node.node_id): list(node.rows(table.name))
        for table in appliance.catalog.tables() if table.is_temp
        for node in (appliance.control, *appliance.compute)
        if table.name.lower() in node.tables
    }


def run_both(appliance, plan):
    """The plan under the default executor and under the reference one,
    each as (result, temp rows), temps dropped in between."""
    outcomes = []
    for runner in (DsqlRunner(appliance),
                   DsqlRunner(appliance, executor="reference")):
        try:
            result = runner.run(plan, keep_temps=True, profile=True)
            outcomes.append((result, temp_rows(appliance)))
        finally:
            appliance.drop_temp_tables()
    return outcomes


def assert_same_execution(appliance, plan):
    (columnar, columnar_temps), (rows, row_temps) = run_both(
        appliance, plan)
    assert columnar.columns == rows.columns
    assert columnar.rows == rows.rows
    # Every byte dict, rows_moved, node_rows, relational_rows, the
    # simulated seconds, transfers and node_operators — exact.
    assert stats_view(columnar.step_stats) == stats_view(rows.step_stats)
    assert columnar.elapsed_seconds == rows.elapsed_seconds
    assert columnar_temps == row_temps
    for stats in columnar.step_stats:
        for name in ("reader_bytes", "network_bytes", "writer_bytes",
                     "bulk_bytes"):
            assert all(type(n) is int
                       for n in getattr(stats, name).values()), name
    return columnar, columnar_temps


@pytest.fixture(scope="module", params=NODE_COUNTS)
def rig(request):
    appliance, shell = build_tpch_appliance(scale=0.002,
                                            node_count=request.param)
    return appliance, PdwEngine(shell)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_default_executor_matches_reference(name, rig):
    appliance, engine = rig
    plan = engine.compile(QUERIES[name]).dsql_plan
    default = DsqlRunner(appliance)
    assert default.executor == default.runtime.executor == "numpy"
    result, temps = assert_same_execution(appliance, plan)
    if name == "EMPTY":
        assert result.rows == [] and temps
        assert not any(temps.values())
    elif plan.movement_steps:
        assert any(temps.values())


def test_moved_temps_are_column_fragments_until_someone_asks(rig):
    appliance, engine = rig
    plan = engine.compile(SHAPES["GRP"]).dsql_plan
    try:
        DsqlRunner(appliance).run(plan, keep_temps=True)
        temp = plan.movement_steps[0].destination_table.name
        fragments = [node.fragment(temp) for node in appliance.compute]
        held = [f for f in fragments if len(f)]
        assert held and all(isinstance(f, ColumnFragment) for f in held)
        # node.tables stays keyed by lower-cased name (leak checks
        # iterate it), whatever the fragment's representation.
        assert all(temp.lower() in node.tables
                   for node in appliance.compute)
        for node, fragment in zip(appliance.compute, fragments):
            assert node.rows(temp) is node.rows(temp)  # memoized
            assert len(node.rows(temp)) == len(fragment)
    finally:
        appliance.drop_temp_tables()


# -- edge cases on a hand-loaded appliance ------------------------------------------

def keyed_appliance(node_count, keys):
    """``t(a, b, s)`` hashed on ``a`` with ``b`` drawn from ``keys``:
    grouping or joining on ``b`` shuffles on it."""
    appliance = Appliance(node_count)
    appliance.create_table(TableDef(
        "t", [Column("a", INTEGER), Column("b", INTEGER),
              Column("s", varchar(10))],
        hash_distributed("a")))
    appliance.create_table(TableDef(
        "dim", [Column("k", INTEGER), Column("label", varchar(10))],
        REPLICATED))
    appliance.load_rows("t", [(i, keys[i % len(keys)], f"s{i % 3}")
                              for i in range(120)])
    appliance.load_rows("dim", [(k, f"label{k}") for k in range(7)])
    return appliance, PdwEngine(appliance.compute_shell_database())


@pytest.mark.parametrize("node_count", NODE_COUNTS)
@pytest.mark.parametrize("keys", [
    pytest.param([5], id="one-owner"),
    pytest.param([None, 1, 2, None, 3], id="null-keys"),
    pytest.param([None], id="all-null-keys"),
    pytest.param([2 ** 31, -2 ** 31 - 1, 2 ** 62, 0], id="wide-ints"),
])
def test_shuffle_key_edges(keys, node_count):
    appliance, engine = keyed_appliance(node_count, keys)
    plan = engine.compile(
        "SELECT b, COUNT(*) AS n, MIN(s) AS first FROM t GROUP BY b"
    ).dsql_plan
    shuffles = [step for step in plan.movement_steps
                if step.movement.operation is DmsOperation.SHUFFLE_MOVE]
    assert shuffles and shuffles[0].hash_column == "b"
    result, temps = assert_same_execution(appliance, plan)
    assert len(result.rows) == len(set(keys))
    if len(set(keys)) == 1:
        # Every key has one owner: exactly one node holds the temp.
        temp = shuffles[0].destination_table.name
        holders = [node for (name, node), rows in temps.items()
                   if name == temp and rows]
        assert len(holders) == 1


def scratch_temp(appliance, name, rows=None, columns=("a", "s")):
    """Register a one-off temp ``name(a, s)`` (the DMS runtime's own
    create path), optionally loaded through ``load_rows``."""
    types = {"a": INTEGER, "s": varchar(10)}
    table = TableDef(name, [Column(c, types[c]) for c in columns],
                     REPLICATED, is_temp=True)
    appliance.create_temp_table(table)
    if rows is not None:
        appliance.load_rows(name, rows)
    return table


def test_numpy_reads_a_temp_written_as_row_tuples(mini_appliance):
    rows = [(1, "x"), (None, "y"), (3, None)]
    scratch_temp(mini_appliance, "TEMP_ID_9", rows)
    sql = "SELECT T.a AS a, T.s AS s FROM TEMP_ID_9 AS T WHERE T.s = 'y'"
    node = mini_appliance.compute[1]
    # A load encodes the rows; the oracle's deliveries store them as
    # they stand, columns encoded when first scanned.
    assert node.fragment("TEMP_ID_9").pieces is not None
    for fragment in (node.fragment("TEMP_ID_9"),
                     ColumnFragment.from_rows(rows)):
        node.store("TEMP_ID_9", fragment)
        got = DmsRuntime(mini_appliance).run_sql_on_node(sql, node)
        want = DmsRuntime(mini_appliance, executor="reference"
                          ).run_sql_on_node(sql, node)
        assert got == want == ([(None, "y")], ["a", "s"])


@pytest.mark.parametrize("executor", ["numpy", "reference"])
def test_every_executor_reads_a_column_fragment(executor, mini_appliance):
    scratch_temp(mini_appliance, "TEMP_ID_9")
    node = mini_appliance.compute[0]
    node.store("TEMP_ID_9", ColumnFragment([
        ArrayBatch({0: column_from_list([1, None]),
                    1: column_from_list(["x", "y"])}, 2),
        ArrayBatch({0: column_from_list([3]),
                    1: column_from_list([None])}, 1)]))
    rows, names = DmsRuntime(mini_appliance, executor=executor
                             ).run_sql_on_node(
        "SELECT T.s AS s, T.a AS a FROM TEMP_ID_9 AS T", node)
    assert names == ["s", "a"]
    assert rows == [("x", 1), ("y", None), (None, 3)]


@pytest.mark.parametrize("executor", ["numpy", "reference"])
def test_zero_column_pieces_still_count(executor, mini_appliance):
    # No SQL step emits zero columns, but the representation allows it
    # (length is authoritative): COUNT(*) has no column to read.
    scratch_temp(mini_appliance, "TEMP_ID_9", columns=())
    node = mini_appliance.compute[0]
    node.store("TEMP_ID_9",
               ColumnFragment([ArrayBatch({}, 3), ArrayBatch({}, 2)]))
    assert node.rows("TEMP_ID_9") == [()] * 5
    rows, _ = DmsRuntime(mini_appliance, executor=executor
                         ).run_sql_on_node(
        "SELECT COUNT(*) AS n FROM TEMP_ID_9 AS T", node)
    assert rows == [(5,)]


def test_broadcast_piece_is_shared_and_never_mutated(rig):
    appliance, engine = rig
    plan = engine.compile(SHAPES["COUNT"]).dsql_plan
    step = plan.movement_steps[0]
    assert step.movement.operation is DmsOperation.BROADCAST_MOVE
    temp = step.destination_table.name
    try:
        DsqlRunner(appliance).run(plan, keep_temps=True)
        first, *others = appliance.compute
        before = list(first.rows(temp))
        assert before
        pieces = first.fragment(temp).pieces
        for node in others:
            # One immutable piece per source, shared by every target.
            assert all(mine is theirs for mine, theirs in
                       zip(node.fragment(temp).pieces, pieces))
        # Storing on one node replaces its fragment, nobody else's.
        first.store(temp, ColumnFragment.from_rows(before + [(-1,)]))
        assert first.rows(temp) == before + [(-1,)]
        assert sum(len(piece) for piece in pieces) == len(before)
        for node in others:
            assert node.fragment(temp).pieces is pieces
            assert node.rows(temp) == before
    finally:
        appliance.drop_temp_tables()
