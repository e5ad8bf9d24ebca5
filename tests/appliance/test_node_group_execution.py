"""Node-group execution ⇄ the per-node loop it replaced.

Under the default executor a DSQL step runs **once** for its whole
source group — every node's fragment stacked, the node as a leading
segment — and is routed once.  The contract (DESIGN §5c) is that
nothing observable can tell: each node's rows are exactly the rows, in
exactly the order, its own run produces; every per-node count and byte
in :class:`StepExecutionStats` and every temp table's per-node contents
are what running the ``n`` nodes one at a time and routing each source
on its own would have given.

The per-node side is rebuilt here from public pieces — the same
interpreter over a group of one (``DmsRuntime.run_sql_on_node``), rows
sized with ``row_bytes``, routed by the reference row router and merged
in source-node order — over generated tables with empty and one-row
nodes, heavy skew, a column that is all-NULL on one node only (stacked
sniffing then types it differently from per-node sniffing: values,
value types and bytes are compared, never kinds), NaN / −0.0 floats,
ints beyond int64 and beyond the join's composite-key headroom,
repeating and all-distinct strings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vector.np_batch as np_batch
import repro.vector.np_executor as np_executor
from repro import PdwEngine
from repro.algebra.expressions import ColumnVar
from repro.algebra.properties import (
    DistKind,
    ON_CONTROL_DIST,
    REPLICATED_DIST,
    hashed_on,
)
from repro.appliance.dms_runtime import DmsRuntime, StepExecutionStats
from repro.appliance.interpreter import InterpreterStats
from repro.appliance.runner import DsqlRunner, run_reference
from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    pdw_hash,
    row_bytes,
)
from repro.catalog.schema import (
    Column,
    ON_CONTROL,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.catalog.statistics import sort_key
from repro.common.errors import ExecutionError
from repro.common.types import BIGINT, DOUBLE, INTEGER, varchar
from repro.obs.profiler import OperatorObserver
from repro.optimizer.binder import Binder
from repro.pdw.dms import DataMovement, DmsOperation
from repro.pdw.dsql import DsqlStep, StepKind
from repro.service import PdwService
from repro.sql.parser import parse_query
from repro.vector.np_batch import ArrayBatch
from repro.vector.np_executor import NumpyInterpreter
from repro.workloads.tpch_datagen import build_tpch_appliance

NODE_COUNTS = (1, 2, 3, 7, 8)

COLUMNS = [Column("k", BIGINT), Column("g", BIGINT), Column("x", DOUBLE),
           Column("s", varchar(12)), Column("z", INTEGER)]


# -- generated data ------------------------------------------------------------------

#: Distribution keys: small ones that repeat across tables (join
#: fan-out), and pairs 2^62 apart — `span · n` then leaves the sort-
#: probe's composite-key headroom and the join ranks its keys instead.
KEYS = [*range(-5, 30), 2 ** 62 + 1, 2 ** 62 + 2, -2 ** 62 - 1,
        2 ** 63 - 1, -2 ** 63, None]


def owned_keys(node_count):
    owned = [[] for _ in range(node_count)]
    for key in KEYS:
        owned[pdw_hash(key) % node_count].append(key)
    return owned


OWNED = {n: owned_keys(n) for n in NODE_COUNTS}

groups = st.one_of(st.none(), st.integers(0, 3),
                   st.sampled_from([2 ** 70, -2 ** 70, 2 ** 53 + 1]))
floats = st.one_of(
    st.none(),
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf"), 0.5, -1.5,
                     1e300]),
    st.floats(-100, 100))
repeating = st.one_of(st.none(), st.sampled_from(["a", "b", "", "é", "10"]))
distinct = st.text("abcxyz01", min_size=3, max_size=8)
smalls = st.one_of(st.none(), st.integers(-3, 3))

#: Rows on one node: none, one, a few — or most of the table (skew).
SIZES = st.sampled_from([0, 0, 1, 1, 2, 3, 5, 8, 30])


@st.composite
def table_rows(draw, node_count, strings):
    """Rows for one hash-distributed table, node by node; on at most
    one node with rows, ``z`` is NULL throughout."""
    all_null_on = draw(st.one_of(st.none(),
                                 st.integers(0, node_count - 1)))
    rows = []
    for node, keys in enumerate(OWNED[node_count]):
        if not keys:
            continue
        z = st.none() if node == all_null_on else smalls
        rows.extend(draw(st.lists(
            st.tuples(st.sampled_from(keys), groups, floats, strings, z),
            min_size=0, max_size=draw(SIZES))))
    return rows


@st.composite
def appliances(draw):
    """(appliance, shell) over t, u (hash on k) and r (replicated)."""
    node_count = draw(st.sampled_from(NODE_COUNTS))
    appliance = Appliance(node_count)
    strings = draw(st.sampled_from([repeating, distinct,
                                    st.one_of(repeating, distinct)]))
    for name in ("t", "u"):
        appliance.create_table(TableDef(name, list(COLUMNS),
                                        hash_distributed("k")))
        appliance.load_rows(name, draw(table_rows(node_count, strings)))
    appliance.create_table(TableDef("r", list(COLUMNS), REPLICATED))
    appliance.load_rows("r", draw(st.lists(
        st.tuples(st.sampled_from(KEYS), groups, floats, strings, smalls),
        max_size=6)))
    return appliance


# -- the steps -----------------------------------------------------------------------

ALL = "a.k AS k, a.g AS g, a.x AS x, a.s AS s, a.z AS z"
JOINED = ("a.k AS k, a.g AS g, a.s AS s, b.k AS bk, b.x AS bx, "
          "b.s AS bs, b.z AS bz")
SIDES = {"dd": ("t", "u"), "dr": ("t", "r"), "rd": ("r", "t")}
KEYED = {"key": "a.k = b.k",
         "multi": "a.k = b.k AND a.g = b.g",
         "string": "a.s = b.s",
         "residual": "a.g = b.g AND a.z < b.z",
         "theta": "a.z < b.z"}

SHAPES = {
    "scan": "SELECT k, g, x, s, z FROM t",
    "filter": ("SELECT k, g, x, s, z FROM t "
               "WHERE g > 1 OR s = 'a' OR x < 0.5 OR z IS NULL"),
    "project": ("SELECT k, g + 1 AS g1, x * 2.0 AS x2, SUBSTRING(s, 1, 2) AS s1, "
                "CASE WHEN z IS NULL THEN -1 ELSE z * 2 END AS z1, "
                "z + k AS zk FROM t"),
    "guarded": ("SELECT k, 10 / z AS q FROM t "
                "WHERE z <> 0 AND 10 / z > 1"),
    "group": ("SELECT g, s, COUNT(*) AS n, SUM(x) AS sx, SUM(z) AS sz, "
              "MIN(x) AS lo, MAX(s) AS hi, COUNT(z) AS nz, "
              "COUNT(DISTINCT s) AS ds FROM t GROUP BY g, s"),
    "group_float": "SELECT x, COUNT(*) AS n, SUM(k) AS sk FROM t GROUP BY x",
    "group_replicated": "SELECT g, COUNT(*) AS n FROM r GROUP BY g",
    "scalar": ("SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(z) AS sz, "
               "MIN(s) AS lo, MAX(k) AS hi, COUNT(DISTINCT g) AS dg "
               "FROM t"),
    "scalar_over_nothing": ("SELECT COUNT(*) AS n, SUM(z) AS sz FROM t "
                            "WHERE z < -1000"),
    "distinct": "SELECT DISTINCT g, s FROM t",
    "union": ("SELECT k, s FROM t UNION ALL SELECT k, s FROM r "
              "UNION ALL SELECT g, s FROM u"),
    "union_replicated": "SELECT k, s FROM r UNION ALL SELECT g, s FROM r",
    "top": "SELECT TOP 2 k, s FROM t",
    "top_ordered": "SELECT TOP 3 k, x, s FROM t ORDER BY x DESC, s ASC",
    "ordered": "SELECT k, g FROM t ORDER BY g ASC, k DESC",
    "group_of_join": ("SELECT a.g AS g, COUNT(*) AS n, SUM(b.z) AS sz "
                      "FROM t AS a INNER JOIN u AS b ON a.k = b.k "
                      "GROUP BY a.g"),
}
for sides, (left, right) in SIDES.items():
    SHAPES[f"cross_{sides}"] = (
        f"SELECT {JOINED} FROM {left} AS a, {right} AS b")
    for on, predicate in KEYED.items():
        SHAPES[f"inner_{on}_{sides}"] = (
            f"SELECT {JOINED} FROM {left} AS a INNER JOIN {right} AS b "
            f"ON {predicate}")
    for on in ("key", "string", "residual"):
        SHAPES[f"left_{on}_{sides}"] = (
            f"SELECT {JOINED} FROM {left} AS a LEFT JOIN {right} AS b "
            f"ON {KEYED[on]}")
        for kind, word in (("semi", "EXISTS"), ("anti", "NOT EXISTS")):
            SHAPES[f"{kind}_{on}_{sides}"] = (
                f"SELECT {ALL} FROM {left} AS a WHERE {word} "
                f"(SELECT 1 FROM {right} AS b WHERE {KEYED[on]})")

#: (operation, where the sources are, where the rows go, routed on
#: the first output column?) — every DMS operation; the trim twice:
#: over a distributed source and over a replicated one (every node
#: then holds the whole, node-invariant output).
MOVES = [
    (DmsOperation.SHUFFLE_MOVE, hashed_on(2), hashed_on(1), True),
    (DmsOperation.TRIM_MOVE, hashed_on(2), hashed_on(1), True),
    (DmsOperation.TRIM_MOVE, REPLICATED_DIST, hashed_on(1), True),
    (DmsOperation.BROADCAST_MOVE, hashed_on(1), REPLICATED_DIST, False),
    (DmsOperation.REPLICATED_BROADCAST, REPLICATED_DIST, REPLICATED_DIST,
     False),
    (DmsOperation.PARTITION_MOVE, hashed_on(1), ON_CONTROL_DIST, False),
    (DmsOperation.REMOTE_COPY, REPLICATED_DIST, ON_CONTROL_DIST, False),
]

_temp_ids = iter(range(1, 10 ** 9))


def step_for(appliance, sql, move=None):
    """``sql`` as a Return step (from every compute node), or as a DMS
    step under ``move`` into a fresh temp table."""
    if move is None:
        return DsqlStep(index=0, kind=StepKind.RETURN, sql=sql,
                        source_location=hashed_on(1))
    operation, source, target, hashed = move
    query = Binder(appliance.catalog).bind(parse_query(sql))
    columns = [Column(name, var.sql_type) for name, var in
               zip(query.output_names, query.output_columns())]
    key = columns[0].name
    distribution = {DistKind.HASHED: hash_distributed(key),
                    DistKind.REPLICATED: REPLICATED,
                    DistKind.ON_CONTROL: ON_CONTROL}[target.kind]
    return DsqlStep(
        index=0, kind=StepKind.DMS, sql=sql, source_location=source,
        movement=DataMovement(
            operation, source, target,
            (ColumnVar(1, key, INTEGER),) if hashed else ()),
        destination_table=TableDef(f"TEMP_ID_{next(_temp_ids)}", columns,
                                   distribution, is_temp=True),
        hash_column=key if hashed else None)


# -- the per-node loop, from public pieces ----------------------------------------------

def exact(rows):
    """Rows comparable value by value *and* type by type: NaN equals
    itself, -0.0 differs from 0.0, 1 from 1.0 from True."""
    return [tuple((type(value).__name__, repr(value)) for value in row)
            for row in rows]


def per_node(runtime, step):
    """Run ``step`` one source node at a time — the same interpreter
    over groups of one — and route every source on its own with the
    reference row router, merged in source order as the row backends'
    runtime merges.  Returns (stats, rows per source, rows per
    target)."""
    appliance = runtime.appliance
    operation = step.movement.operation if step.movement else None
    hash_index = (step.destination_table.column_index(step.hash_column)
                  if step.hash_column else None)
    stats = StepExecutionStats(step.index, operation)
    produced, stored = {}, {}
    for source in runtime._source_nodes(step):
        source_id = source.node_id
        counters, observer = InterpreterStats(), OperatorObserver()
        rows, _ = runtime.run_sql_on_node(step.sql, source, counters,
                                          observer)
        sizes = [row_bytes(row) for row in rows]
        produced[source_id] = rows
        stats.relational_rows += (counters.rows_scanned
                                  + counters.rows_processed)
        stats.node_rows[source_id] = len(rows)
        stats.node_operators[source_id] = observer.records
        stats.rows_moved += len(rows)
        if operation is None:
            if source_id != CONTROL_NODE:
                stats.network_bytes[source_id] = sum(sizes)
            stats.transfers[(source_id, CONTROL_NODE)] = [
                len(rows), stats.network_bytes.get(source_id, 0)]
            continue
        stats.reader_bytes[source_id] = sum(sizes)
        deliveries, sent = runtime._route_batch_reference(
            operation, rows, sizes, hash_index, appliance.node_count,
            source_id)
        if sent:
            stats.network_bytes[source_id] = sent
        for target, batch, nbytes in deliveries:
            stored.setdefault(target, []).extend(batch)
            stats.writer_bytes[target] = (
                stats.writer_bytes.get(target, 0) + nbytes)
            stats.transfers[(source_id, target)] = [len(batch), nbytes]
    stats.bulk_bytes = dict(stats.writer_bytes)
    return stats, produced, stored


COMPARED = ("reader_bytes", "network_bytes", "writer_bytes", "bulk_bytes",
            "node_rows", "rows_moved", "relational_rows", "transfers",
            "node_operators")


def assert_same_stats(actual, expected, context):
    for name in COMPARED:
        assert getattr(actual, name) == getattr(expected, name), (
            name, context)
    for name in ("reader_bytes", "network_bytes", "writer_bytes"):
        assert all(type(n) is int for n in getattr(actual, name).values())


def assert_group_is_the_per_node_loop(appliance, sql, move, context):
    runtime = DmsRuntime(appliance)
    assert runtime.executor == "numpy"
    runtime.profiling = True  # transfers + per-operator rows too
    step = step_for(appliance, sql, move)
    try:
        expected, produced, stored = per_node(runtime, step)
    except ExecutionError as error:
        # A row the SQL cannot evaluate (generated data): the group
        # must refuse the step the same way.
        with pytest.raises(type(error)) as raised:
            (runtime.execute_movement(step) if move
             else runtime.execute_return(step))
        assert str(raised.value) == str(error), context
        appliance.drop_temp_tables()
        return
    try:
        if move is None:
            rows, _, actual = runtime.execute_return(step)
            # Every node's rows, in its own order, in node order.
            assert exact(rows) == exact(
                [row for source in produced.values() for row in source]
            ), context
        else:
            actual = runtime.execute_movement(step)
            temp = step.destination_table.name
            for node in (appliance.control, *appliance.compute):
                held = (node.rows(temp) if temp.lower() in node.tables
                        else [])  # a control-node temp lives there only
                assert exact(held) == exact(
                    stored.get(node.node_id, [])), (node.node_id, context)
        assert_same_stats(actual, expected, context)
    finally:
        appliance.drop_temp_tables()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(appliance=appliances(), data=st.data())
def test_every_step_runs_as_its_nodes_would_have(appliance, data):
    moves = data.draw(st.lists(st.sampled_from(MOVES), min_size=len(SHAPES),
                               max_size=len(SHAPES)))
    for (name, sql), move in zip(SHAPES.items(), moves):
        context = (name, appliance.node_count)
        assert_group_is_the_per_node_loop(appliance, sql, None, context)
        assert_group_is_the_per_node_loop(appliance, sql, move,
                                          (*context, move[0].value))


@pytest.mark.parametrize("move", MOVES, ids=lambda m: m[0].value)
@pytest.mark.parametrize("node_count", NODE_COUNTS)
def test_every_move_of_a_fixed_table(node_count, move):
    """Every DMS operation at every node count, hypothesis aside: skew
    (one key owns half the rows), an empty node, a one-row node."""
    appliance = Appliance(node_count)
    rows = [(key if i % 2 else 7, i % 3, i * 0.5, f"s{i % 4}", i)
            for i, key in enumerate(list(range(40)) * 2)]
    for name, distribution in (("t", hash_distributed("k")),
                               ("u", hash_distributed("k")),
                               ("r", REPLICATED)):
        appliance.create_table(TableDef(name, list(COLUMNS), distribution))
        appliance.load_rows(name, rows if name != "r" else rows[:9])
    for name in ("scan", "group", "inner_key_dd", "union", "top_ordered",
                 "scalar"):
        assert_group_is_the_per_node_loop(
            appliance, SHAPES[name], move, (name, node_count))


# -- a temp stored once, read by the next step's group scan ---------------------------------

@pytest.mark.parametrize("node_count", NODE_COUNTS)
def test_a_shuffled_temp_is_stored_once_and_scanned_whole(node_count,
                                                          monkeypatch):
    appliance = Appliance(node_count)
    appliance.create_table(TableDef("t", list(COLUMNS),
                                    hash_distributed("k")))
    appliance.load_rows("t", [(i, i % 5, i * 1.0, f"s{i % 3}", i)
                              for i in range(50)])
    runtime = DmsRuntime(appliance)
    shuffle = step_for(appliance, "SELECT g, k, s FROM t", MOVES[0])
    temp = shuffle.destination_table.name
    try:
        runtime.execute_movement(shuffle)
        fragments = [node.fragment(temp) for node in appliance.compute]
        stacked = {id(fragment.stacked) for fragment in fragments}
        assert len(stacked) == 1 and fragments[0].stacked is not None
        assert all(fragment.pieces is None for fragment in fragments)

        def no_concat(pieces):
            raise AssertionError("a stacked temp was re-assembled")

        def no_slice(batch, start, stop):
            raise AssertionError("a node's rows were cut to scan them")

        monkeypatch.setattr(np_executor, "concat_columns", no_concat)
        # Nothing is sliced to scan it ...
        monkeypatch.setattr(ArrayBatch, "slice", no_slice)
        sql = f"SELECT g, COUNT(*) AS n, MIN(s) AS lo FROM {temp} GROUP BY g"
        follow = step_for(appliance, sql)
        rows, _, stats = runtime.execute_return(follow)
        monkeypatch.undo()
        # ... and a row reader still sees each node's own rows.
        expected, produced, _ = per_node(runtime, follow)
        assert exact(rows) == exact(
            [row for source in produced.values() for row in source])
        assert stats.node_rows == expected.node_rows
        for node in appliance.compute:
            assert all(pdw_hash(row[0]) % node_count == node.node_id
                       for row in node.rows(temp))
    finally:
        appliance.drop_temp_tables()


# -- end to end against the oracle --------------------------------------------------------

QUERIES = [
    "SELECT a.g, COUNT(*) AS n, SUM(b.z) AS sz FROM t a, u b "
    "WHERE a.k = b.k GROUP BY a.g",
    "SELECT a.s, COUNT(*) AS n FROM t a, r b WHERE a.g = b.g "
    "GROUP BY a.s",
    "SELECT a.k, a.s FROM t a WHERE NOT EXISTS "
    "(SELECT 1 FROM u b WHERE a.g = b.g)",
    "SELECT k, s FROM t UNION ALL SELECT g, s FROM r",
    "SELECT COUNT(*) AS n, SUM(z) AS sz, MIN(s) AS lo FROM u",
    "SELECT s, COUNT(DISTINCT g) AS dg FROM t GROUP BY s",
]


def canonical(rows):
    return sorted(exact(rows))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(appliance=appliances())
def test_end_to_end_against_the_reference_interpreter(appliance):
    engine = PdwEngine(appliance.compute_shell_database())
    runner = DsqlRunner(appliance)
    for sql in QUERIES:
        try:
            expected = run_reference(appliance, sql, executor="reference")
        except ExecutionError as error:
            with pytest.raises(type(error)):
                runner.run(engine.compile(sql).dsql_plan)
            continue
        result = runner.run(engine.compile(sql).dsql_plan)
        assert canonical(result.rows) == canonical(expected.rows), sql
        assert not any(table.is_temp
                       for table in appliance.catalog.tables())


# -- errors and emptiness ------------------------------------------------------------------

def loaded(node_count, per_node_z):
    """t(k, …, z) with node ``i`` holding one row per ``per_node_z[i]``."""
    appliance = Appliance(node_count)
    appliance.create_table(TableDef("t", list(COLUMNS),
                                    hash_distributed("k")))
    owned = [[key for key in range(200)
              if pdw_hash(key) % node_count == node]
             for node in range(node_count)]
    appliance.load_rows("t", [
        (owned[node][i], 1, 1.0, "abc" if z == 0 else str(z), z)
        for node, values in enumerate(per_node_z)
        for i, z in enumerate(values)])
    assert [len(node.rows("t")) for node in appliance.compute] == [
        len(values) for values in per_node_z]
    return appliance


@pytest.mark.parametrize("sql,message", [
    ("SELECT k, 10 / z AS q FROM t", "division by zero"),
    ("SELECT k, CAST(s AS INTEGER) AS c FROM t", "abc"),
])
def test_a_row_that_raises_on_one_node_fails_the_step_like_its_node_would(
        sql, message):
    appliance = loaded(4, [[1, 2], [3], [4, 5, 6], [7, 0, 8]])
    runtime = DmsRuntime(appliance)
    errors = []
    for node in appliance.compute:
        try:
            runtime.run_sql_on_node(sql, node)
        except Exception as error:  # noqa: BLE001 - whatever it raises
            errors.append((node.node_id, error))
    assert [node for node, _ in errors] == [3]
    expected = errors[0][1]
    assert message in str(expected)
    step = step_for(appliance, sql, MOVES[0])
    with pytest.raises(type(expected)) as raised:
        runtime.execute_movement(step)
    assert str(raised.value) == str(expected)
    # Nothing was adopted anywhere.
    temp = step.destination_table.name
    assert all(node.rows(temp) == [] for node in appliance.compute)


def test_a_failing_request_leaks_nothing_and_the_next_one_succeeds():
    appliance = loaded(4, [[1, 2], [3], [4, 5, 6], [7, 0, 8]])
    service = PdwService(appliance=appliance,
                         shell=appliance.compute_shell_database())
    try:
        with pytest.raises(ExecutionError, match="division by zero"):
            service.execute("SELECT g, SUM(10 / z) AS q FROM t GROUP BY g")
        assert not any(table.is_temp
                       for table in appliance.catalog.tables())
        assert service.admission.stats()["in_flight"] == 0
        result = service.execute(
            "SELECT g, SUM(z) AS total FROM t GROUP BY g")
        assert result.rows == [(1, 36)]
        # Guarded, the division never sees the zero — on any node.
        guarded = service.execute(
            "SELECT k, 10 / z AS q FROM t WHERE z <> 0 AND 10 / z > 1")
        assert sorted(q for _, q in guarded.rows) == sorted(
            10 / z for z in (1, 2, 3, 4, 5, 6, 7, 8) if 10 / z > 1)
    finally:
        service.close()


def test_a_table_absent_from_one_nodes_map_is_not_on_this_node():
    appliance = loaded(3, [[1], [2], [3]])
    query = Binder(appliance.catalog).bind(
        parse_query("SELECT k, z FROM t"))
    maps = [dict(node.tables) for node in appliance.compute]
    assert len(NumpyInterpreter(maps).run_query(query)) == 3
    del maps[1]["t"]
    with pytest.raises(ExecutionError, match="'t' not on this node"):
        NumpyInterpreter(maps).run_query(query)


def test_an_empty_fragment_is_an_empty_table_not_an_absent_one():
    appliance = loaded(4, [[1, 2], [], [5], []])
    runtime = DmsRuntime(appliance)
    rows, _, stats = runtime.execute_return(step_for(
        appliance, "SELECT COUNT(*) AS n, SUM(z) AS total, MIN(s) AS lo "
                   "FROM t"))
    # One row from every node, the empty ones included.
    assert rows == [(2, 3, "1"), (0, None, None), (1, 5, "5"),
                    (0, None, None)]
    assert stats.node_rows == {0: 1, 1: 1, 2: 1, 3: 1}
    rows, _, stats = runtime.execute_return(step_for(
        appliance, "SELECT z, COUNT(*) AS n FROM t GROUP BY z"))
    assert sorted(rows, key=lambda row: sort_key(row[0])) == [
        (1, 1), (2, 1), (5, 1)]
    assert stats.node_rows == {0: 2, 1: 0, 2: 1, 3: 0}


# -- a load encodes; a scan never does ------------------------------------------------

@pytest.mark.parametrize("node_count", [8, 32])
def test_a_fresh_appliances_first_execution_encodes_no_base_column(
        node_count, monkeypatch):
    """A load stores every base table as typed columns, so neither the
    first execution over a fresh appliance nor any cached one sniffs or
    encodes a column: what a scan reads is what the load stored."""
    appliance, shell = build_tpch_appliance(scale=0.001,
                                            node_count=node_count)
    keys = {"lineitem": "l_orderkey", "orders": "o_orderkey",
            "customer": "c_custkey", "part": "p_partkey",
            "partsupp": "ps_partkey", "supplier": "s_suppkey",
            "nation": "n_nationkey", "region": "r_regionkey"}
    statements = [f"SELECT COUNT(*) AS n, MAX({key}) AS hi FROM {name}"
                  for name, key in keys.items()]
    expected = [run_reference(appliance, sql).rows for sql in statements]
    service = PdwService(appliance=appliance, shell=shell)

    def trap(values):
        raise AssertionError(f"a scan encoded {len(values)} values")

    monkeypatch.setattr(np_executor, "column_from_list", trap)
    monkeypatch.setattr(np_batch, "column_from_list", trap)
    try:
        first = [service.execute(sql) for sql in statements]
        again = [service.execute(sql) for sql in statements]
    finally:
        service.close()
    assert not any(result.cache_hit for result in first)
    assert all(result.cache_hit for result in again)
    assert [result.rows for result in first] == expected
    assert [result.rows for result in again] == expected
