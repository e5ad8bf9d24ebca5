"""A load is a shuffle from the control node: the placement it replaced.

``Appliance.load_rows`` encodes every column once and stores a
hash-distributed table the way a shuffle stores its output — owners
read off the distribution column, one stable owner sort, one stacked
batch with a view per node — and a replicated or control-node table as
one shared fragment.  Nothing observable may tell it from the per-row
loader it replaced, copied verbatim below as the reference: every
node's rows in order (values *and* types: NaN, −0.0, ints beyond int64,
``''``, non-ASCII strings, mixed columns), ``row_count``,
``schema_version``, the single-system image, and every statistic the
shell database is built from.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appliance.runner import DsqlRunner, run_reference
from repro.appliance.storage import Appliance, node_for_row
from repro.catalog.schema import (
    Column,
    DistributionKind,
    ON_CONTROL,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.catalog.statistics import ColumnStats, merge_column_stats
from repro.common.types import BIGINT, varchar
from repro.service import PdwService
from repro.vector.np_batch import ColumnFragment
from repro.workloads.tpch_datagen import TpchGenerator, build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES
from repro.workloads.tpch_schema import tpch_tables

NODE_COUNTS = (1, 2, 3, 7, 8)


# -- the reference: the per-row loader, verbatim ---------------------------------------

def old_placement(table: TableDef, rows: List[Tuple], node_count: int,
                  held: Dict[int, List[Tuple]]) -> None:
    """What ``load_rows`` did to ``held`` (node id → row list, ``-1``
    the control node) before loads were encoded: ``NodeStorage.insert``
    appends, and a hash-distributed table goes through one
    ``node_for_row`` bucket per row."""
    kind = table.distribution.kind
    if kind is DistributionKind.REPLICATED:
        for node in range(node_count):
            held.setdefault(node, []).extend(rows)
    elif kind is DistributionKind.CONTROL:
        held.setdefault(-1, []).extend(rows)
    else:
        hash_indexes = [
            table.column_index(col) for col in table.distribution.columns
        ]
        buckets: List[List[Tuple]] = [[] for _ in range(node_count)]
        for row in rows:
            buckets[node_for_row(row, hash_indexes,
                                 node_count)].append(row)
        for node, bucket in enumerate(buckets):
            held.setdefault(node, []).extend(bucket)


def old_image(table: TableDef, held: Dict[int, List[Tuple]],
              node_count: int) -> List[Tuple]:
    """``table_rows_everywhere`` over the reference placement."""
    kind = table.distribution.kind
    if kind is DistributionKind.REPLICATED:
        return list(held.get(0, []))
    if kind is DistributionKind.CONTROL:
        return list(held.get(-1, []))
    return [row for node in range(node_count)
            for row in held.get(node, [])]


def old_stats(table: TableDef, fragments: Sequence[List[Tuple]],
              num_buckets: int) -> Dict[str, ColumnStats]:
    """``compute_shell_database``'s per-table loop over row lists,
    verbatim."""
    merged_by_column = {}
    for column_index, column in enumerate(table.columns):
        locals_: List[ColumnStats] = [
            ColumnStats.build(
                [row[column_index] for row in fragment], num_buckets)
            for fragment in fragments
        ]
        merged = merge_column_stats(locals_, num_buckets)
        merged_by_column[column.name] = merged
    return merged_by_column


def exact(rows):
    """Rows comparable value by value *and* type by type: NaN equals
    itself, -0.0 differs from 0.0, 1 from 1.0 from True."""
    return [tuple((type(value).__name__, repr(value)) for value in row)
            for row in rows]


# -- generated tables ------------------------------------------------------------------

INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2 ** 31 - 1, 2 ** 31, -2 ** 31,
                     -2 ** 31 - 1, 2 ** 53, 2 ** 53 + 1, -2 ** 53,
                     2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1,
                     2 ** 70]),
    st.integers(-50, 50))
FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     0.0, 0.5, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True))
DATES = st.one_of(
    st.sampled_from([datetime.date(1992, 1, 1), datetime.date.min,
                     datetime.date.max]),
    st.dates())
STRINGS = st.one_of(st.sampled_from(["", "a", "b", "é", "日本語", "x y"]),
                    st.text(max_size=4))
KINDS = {
    "int": INTS,
    "float": FLOATS,
    "bool": st.booleans(),
    "date": DATES,
    "str": STRINGS,
    "mixed": st.one_of(INTS, FLOATS, st.booleans(), DATES, STRINGS),
}

WIDTH = 3
DISTRIBUTIONS = {
    "hash": hash_distributed("c0"),
    "hash2": hash_distributed("c0", "c1"),
    "replicated": REPLICATED,
    "control": ON_CONTROL,
}


@st.composite
def tables(draw):
    """(table, node count, loads): each column one value kind, NULLs
    in some, and one or two batches of rows to load in turn."""
    node_count = draw(st.sampled_from(NODE_COUNTS))
    distribution = draw(st.sampled_from(sorted(DISTRIBUTIONS)))
    values = []
    for _ in range(WIDTH):
        kind = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        values.append(st.one_of(st.none(), kind) if draw(st.booleans())
                      else kind)
    row = st.tuples(*values)
    loads = draw(st.lists(st.lists(row, max_size=24),
                          min_size=1, max_size=2))
    table = TableDef(
        "t", [Column(f"c{i}", BIGINT) for i in range(WIDTH)],
        DISTRIBUTIONS[distribution])
    return table, node_count, loads


@given(tables())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_load_places_every_row_where_the_per_row_loader_did(drawn):
    table, node_count, loads = drawn
    appliance = Appliance(node_count)
    appliance.create_table(table)
    version = appliance.schema_version
    on_control = table.distribution.kind is DistributionKind.CONTROL
    holders = [appliance.control] if on_control else appliance.compute
    held: Dict[int, List[Tuple]] = {}
    total = 0
    for count, rows in enumerate(loads, 1):
        assert appliance.load_rows("t", iter(rows)) == len(rows)
        old_placement(table, rows, node_count, held)
        total += len(rows)
        for node in holders:
            fragment = node.fragment("t")
            assert isinstance(fragment, ColumnFragment)
            expected = held.get(node.node_id, [])
            assert len(fragment) == len(expected)
            assert exact(node.rows("t")) == exact(expected)
            # The columns say what the row view says.
            for index in range(WIDTH):
                assert exact(zip(fragment.column(index).pylist())) == exact(
                    (row[index],) for row in expected)
        others = appliance.compute if on_control else [appliance.control]
        assert all("t" not in node.tables for node in others)
        assert appliance.catalog.table("t").row_count == total
        assert appliance.schema_version == version + count
        assert exact(appliance.single_system_image()["t"]) == exact(
            old_image(table, held, node_count))


def test_replicated_and_control_tables_share_one_fragment():
    appliance = Appliance(3)
    appliance.create_table(TableDef("r", [Column("k", BIGINT)],
                                    REPLICATED))
    appliance.create_table(TableDef("c", [Column("k", BIGINT)],
                                    ON_CONTROL))
    appliance.load_rows("r", [(1,), (2,)])
    appliance.load_rows("c", [(3,)])
    shared = appliance.compute[0].fragment("r")
    assert all(node.fragment("r") is shared for node in appliance.compute)
    assert shared.pieces is not None and len(shared.pieces) == 1
    assert appliance.control.rows("c") == [(3,)]


def test_a_hash_table_is_one_stacked_batch_with_a_view_per_node():
    appliance = Appliance(4)
    appliance.create_table(TableDef(
        "h", [Column("k", BIGINT), Column("s", varchar(4))],
        hash_distributed("k")))
    appliance.load_rows("h", [(i, f"s{i % 3}") for i in range(40)])
    fragments = [node.fragment("h") for node in appliance.compute]
    stacked = fragments[0].stacked
    assert stacked is not None
    assert [fragment.node for fragment in fragments] == [0, 1, 2, 3]
    assert all(fragment.stacked is stacked for fragment in fragments)
    assert stacked.bounds.tolist() == [0, *[
        sum(len(f) for f in fragments[:i + 1]) for i in range(4)]]
    # Repeating strings were dictionary-encoded once, at load.
    assert stacked.columns[1].kind == "s"


# -- statistics read off columns ----------------------------------------------------------

@pytest.mark.parametrize("node_count", [1, 3, 8])
def test_column_stats_are_the_row_loops(node_count):
    """Every TPC-H column's merged statistics — histogram bucket by
    bucket — equal the row-based loop's over the per-row placement."""
    scale, seed, buckets = 0.002, 20120520, 32
    appliance, shell = build_tpch_appliance(scale=scale,
                                            node_count=node_count,
                                            seed=seed,
                                            stats_buckets=buckets)
    generator = TpchGenerator(scale, seed)
    data = {name: getattr(generator, f"{name}_rows")()
            for name in ("region", "nation", "supplier", "customer",
                         "part", "partsupp", "orders")}
    data["lineitem"] = generator.lineitem_rows(data["orders"])
    compared = 0
    for table in tpch_tables():
        held: Dict[int, List[Tuple]] = {}
        old_placement(table, data[table.name], node_count, held)
        kind = table.distribution.kind
        if kind is DistributionKind.HASH:
            fragments = [held.get(node, []) for node in range(node_count)]
        elif kind is DistributionKind.REPLICATED:
            fragments = [held.get(0, [])]
        else:
            fragments = [held.get(-1, [])]
        for name, expected in old_stats(table, fragments,
                                        buckets).items():
            assert repr(shell.column_stats(table.name, name)) == repr(
                expected), (table.name, name)
            compared += 1
    assert compared == 53


# -- one fragment type, whatever ran ------------------------------------------------------

def test_node_storage_holds_only_column_fragments_after_a_served_mix():
    appliance, shell = build_tpch_appliance(scale=0.001, node_count=3)
    service = PdwService(appliance=appliance, shell=shell)

    def only_fragments():
        for node in (appliance.control, *appliance.compute):
            for name, fragment in node.tables.items():
                assert isinstance(fragment, ColumnFragment), (
                    node.node_id, name, type(fragment))

    try:
        for name in ("Q1", "Q3", "Q6", "Q12"):
            service.execute(TPCH_QUERIES[name])
            service.execute(TPCH_QUERIES[name])
        service.execute("SELECT status, COUNT(*) AS n "
                        "FROM sys.dm_pdw_exec_requests GROUP BY status")
        only_fragments()
        run_reference(appliance, TPCH_QUERIES["Q3"])
        run_reference(appliance, TPCH_QUERIES["Q3"], executor="numpy")
        plan = service.engine.compile(TPCH_QUERIES["Q3"]).dsql_plan
        for executor in ("reference", "numpy"):
            DsqlRunner(appliance, executor=executor).run(
                plan, keep_temps=True)
            only_fragments()
            appliance.drop_temp_tables()
    finally:
        service.close()
    only_fragments()
