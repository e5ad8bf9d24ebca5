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
sized with ``row_bytes``, routed by the per-row router of
``tests/row_router.py`` and merged in source-node order; each node's
own run is held to the reference interpreter's too — over generated tables with empty and one-row
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

from tests.row_router import route_rows

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
         "float": "a.x = b.x",
         "int_float": "a.z = b.x",
         "three": "a.k = b.k AND a.g = b.g AND a.z = b.z",
         "string_int": "a.s = b.s AND a.k = b.k",
         "residual": "a.g = b.g AND a.z < b.z",
         "theta": "a.z < b.z"}
#: Every DISTINCT aggregate over a float, an int, a string and an
#: object column (g holds ints beyond int64).
DISTINCTS = ", ".join(f"{func}(DISTINCT {column}) AS {func[:2]}_{column}"
                      for column in "xzsg"
                      for func in ("COUNT", "SUM", "MIN"))

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
    "distinct_grouped": f"SELECT g, {DISTINCTS} FROM t GROUP BY g",
    "distinct_scalar": f"SELECT {DISTINCTS} FROM t",
    "distinct_over_nothing": (f"SELECT g, {DISTINCTS} FROM t "
                              "WHERE z < -1000 GROUP BY g"),
    "distinct_scalar_over_nothing": (f"SELECT {DISTINCTS} FROM t "
                                     "WHERE z < -1000"),
    "distinct_object": ("SELECT s, COUNT(DISTINCT g) AS dg, "
                        "SUM(DISTINCT g) AS sg FROM t GROUP BY s"),
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


def per_node(runtime, step, runs=None):
    """Run ``step`` one source node at a time — the runtime's own
    interpreter over groups of one — and route every source on its own
    with the per-row router, merged in source order.  Returns (stats, rows per source, rows per
    target).  ``runs`` memoizes each node's run of a SQL text (its
    rows, relational rows and operator records) for a caller that runs
    one text over unchanged tables more than once."""
    appliance = runtime.appliance
    operation = step.movement.operation if step.movement else None
    hash_index = (step.destination_table.column_index(step.hash_column)
                  if step.hash_column else None)
    stats = StepExecutionStats(step.index, operation)
    produced, stored = {}, {}
    for source in runtime._source_nodes(step):
        source_id = source.node_id
        run = None if runs is None else runs.get((step.sql, source_id))
        if run is None:
            counters, observer = InterpreterStats(), OperatorObserver()
            rows, _ = runtime.run_sql_on_node(step.sql, source, counters,
                                              observer)
            run = (rows, counters.rows_scanned + counters.rows_processed,
                   observer.records)
            if runs is not None:
                runs[(step.sql, source_id)] = run
        rows, relational_rows, records = run
        sizes = [row_bytes(row) for row in rows]
        produced[source_id] = rows
        stats.relational_rows += relational_rows
        stats.node_rows[source_id] = len(rows)
        stats.node_operators[source_id] = records
        stats.rows_moved += len(rows)
        if operation is None:
            if source_id != CONTROL_NODE:
                stats.network_bytes[source_id] = sum(sizes)
            stats.transfers[(source_id, CONTROL_NODE)] = [
                len(rows), stats.network_bytes.get(source_id, 0)]
            continue
        stats.reader_bytes[source_id] = sum(sizes)
        deliveries, sent = route_rows(
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


def assert_nodes_run_as_the_oracle(appliance, step, produced, context):
    """Every source node's own run of the step under the default
    executor (``produced``, ``None`` if one raised) is the reference
    interpreter's: rows in order, value types exact — or an error."""
    oracle = DmsRuntime(appliance, executor="reference")
    for node in oracle._source_nodes(step):
        try:
            rows, _ = oracle.run_sql_on_node(step.sql, node)
        except ExecutionError:
            assert produced is None, (node.node_id, context)
            return
        assert produced is not None, (node.node_id, context)
        assert exact(rows) == exact(produced[node.node_id]), (
            node.node_id, context)


def assert_group_is_the_per_node_loop(appliance, sql, move, context,
                                      oracle=False, runs=None,
                                      executor="numpy"):
    """The step's run under ``executor`` against :func:`per_node`
    (``runs`` is its memo) — and with ``oracle``, each node's run
    against the reference interpreter's."""
    runtime = DmsRuntime(appliance, executor=executor)
    assert runtime.executor == executor
    step = step_for(appliance, sql, move)
    try:
        expected, produced, stored = per_node(runtime, step, runs)
    except ExecutionError as error:
        if oracle:
            assert_nodes_run_as_the_oracle(appliance, step, None, context)
        # A row the SQL cannot evaluate (generated data): the group
        # must refuse the step the same way.
        with pytest.raises(type(error)) as raised:
            (runtime.execute_movement(step, profile=True) if move
             else runtime.execute_return(step, profile=True))
        assert str(raised.value) == str(error), context
        appliance.drop_temp_tables()
        return
    if oracle:
        assert_nodes_run_as_the_oracle(appliance, step, produced, context)
    try:
        if move is None:
            # Profiled: transfers and per-operator rows are compared too.
            output, _, actual = runtime.execute_return(step, profile=True)
            # Every node's rows, in its own order, in node order.
            assert exact(output.rows()) == exact(
                [row for source in produced.values() for row in source]
            ), context
        else:
            actual = runtime.execute_movement(step, profile=True)
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
    # The Return step and the move run one SQL text over the same base
    # tables: each node's run of it is made once and checked twice.
    runs = {}
    for (name, sql), move in zip(SHAPES.items(), moves):
        context = (name, appliance.node_count)
        assert_group_is_the_per_node_loop(appliance, sql, None, context,
                                          oracle=True, runs=runs)
        assert_group_is_the_per_node_loop(appliance, sql, move,
                                          (*context, move[0].value),
                                          runs=runs)


@pytest.mark.parametrize("executor", ["numpy", "reference"])
@pytest.mark.parametrize("move", MOVES, ids=lambda m: m[0].value)
@pytest.mark.parametrize("node_count", NODE_COUNTS)
def test_every_move_of_a_fixed_table(node_count, move, executor):
    """Every DMS operation at every node count under either executor,
    hypothesis aside: skew (one key owns half the rows), an empty node,
    a one-row node."""
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
            appliance, SHAPES[name], move, (name, node_count),
            executor=executor)
    if executor == "reference" and move[0] is DmsOperation.SHUFFLE_MOVE:
        # The oracle's rows are stacked and routed like the group's: a
        # shuffle's temp is one batch, every node holding a view of it.
        step = step_for(appliance, SHAPES["scan"], move)
        temp = step.destination_table.name
        try:
            DmsRuntime(appliance, executor="reference").execute_movement(
                step)
            fragments = [node.fragment(temp) for node in appliance.compute]
            assert len({id(fragment.stacked)
                        for fragment in fragments}) == 1
            assert [fragment.node for fragment in fragments] == list(
                range(node_count))
            assert all(fragment.pieces is None for fragment in fragments)
        finally:
            appliance.drop_temp_tables()


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
        output, _, stats = runtime.execute_return(follow)
        monkeypatch.undo()
        # ... and a row reader still sees each node's own rows.
        expected, produced, _ = per_node(runtime, follow)
        assert exact(output.rows()) == exact(
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


# -- the two equality rules -------------------------------------------------------------

@pytest.mark.parametrize("executor", ["numpy", "reference"])
def test_group_by_keeps_true_apart_from_1_and_joins_and_distinct_do_not(
        executor):
    """GROUP BY compares as the oracle's ``_group_key`` (``True`` is not
    ``1``); a join and a DISTINCT aggregate compare as its dict and set
    (``True == 1``).  One object column holds both."""
    appliance = Appliance(2)
    for name in ("t", "u"):
        appliance.create_table(TableDef(name, list(COLUMNS), REPLICATED))
    appliance.load_rows("t", [(1, True, 0.5, "a", 1), (2, 1, 0.5, "a", 1),
                              (3, True, 0.5, "a", 1)])
    appliance.load_rows("u", [(7, 1, 0.5, "a", 1)])
    assert appliance.compute[0].fragment("t").column(1).kind == "o"
    runtime = DmsRuntime(appliance, executor=executor)

    def run(sql):
        return exact(runtime.run_sql_on_node(sql, appliance.compute[0])[0])

    assert run("SELECT COUNT(DISTINCT g) AS n, MIN(DISTINCT g) AS lo "
               "FROM t") == exact([(1, True)])
    assert run("SELECT g, COUNT(*) AS n FROM t GROUP BY g") == exact(
        [(True, 2), (1, 1)])
    assert run("SELECT a.k AS k, b.k AS bk FROM t AS a INNER JOIN u AS b "
               "ON a.g = b.g") == exact([(1, 7), (2, 7), (3, 7)])


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
    output, _, stats = runtime.execute_return(step_for(
        appliance, "SELECT COUNT(*) AS n, SUM(z) AS total, MIN(s) AS lo "
                   "FROM t"))
    # One row from every node, the empty ones included.
    assert output.rows() == [(2, 3, "1"), (0, None, None), (1, 5, "5"),
                             (0, None, None)]
    assert stats.node_rows == {0: 1, 1: 1, 2: 1, 3: 1}
    output, _, stats = runtime.execute_return(step_for(
        appliance, "SELECT z, COUNT(*) AS n FROM t GROUP BY z"))
    assert sorted(output.rows(), key=lambda row: sort_key(row[0])) == [
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
