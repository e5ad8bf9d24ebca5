"""Appliance storage tests: placement, hashing, statistics pipeline."""

import pytest

from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    NodeStorage,
    node_for_row,
    pdw_hash,
    row_bytes,
    value_bytes,
)
from repro.catalog.schema import (
    Column,
    ON_CONTROL,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.common.errors import ExecutionError
from repro.common.types import INTEGER, varchar
from repro.vector.np_batch import ColumnFragment


def make_appliance(nodes=4):
    appliance = Appliance(nodes)
    appliance.create_table(TableDef(
        "h", [Column("k", INTEGER), Column("v", varchar(8))],
        hash_distributed("k")))
    appliance.create_table(TableDef(
        "r", [Column("k", INTEGER)], REPLICATED))
    appliance.create_table(TableDef(
        "c", [Column("k", INTEGER)], ON_CONTROL))
    return appliance


class TestHashing:
    def test_deterministic(self):
        assert pdw_hash(42) == pdw_hash(42)
        assert pdw_hash("abc") == pdw_hash("abc")

    def test_none_hashes_to_zero_bucket(self):
        assert pdw_hash(None) == 0

    def test_spread(self):
        buckets = {pdw_hash(i) % 8 for i in range(1000)}
        assert len(buckets) == 8

    def test_node_for_row_stable(self):
        row = (5, "x")
        assert node_for_row(row, [0], 4) == node_for_row(row, [0], 4)

    def test_multi_column_hash(self):
        assert node_for_row((1, 2), [0, 1], 4) in range(4)


class TestPlacement:
    def test_hash_rows_partitioned_disjoint(self):
        appliance = make_appliance()
        appliance.load_rows("h", [(i, f"v{i}") for i in range(200)])
        per_node = [len(n.rows("h")) for n in appliance.compute]
        assert sum(per_node) == 200
        assert all(count > 0 for count in per_node)

    def test_hash_row_on_owning_node(self):
        appliance = make_appliance()
        appliance.load_rows("h", [(7, "x")])
        owner = node_for_row((7, "x"), [0], 4)
        assert appliance.compute[owner].rows("h") == [(7, "x")]

    def test_replicated_on_every_node(self):
        appliance = make_appliance()
        appliance.load_rows("r", [(1,), (2,)])
        for node in appliance.compute:
            assert node.rows("r") == [(1,), (2,)]

    def test_control_table_on_control_only(self):
        appliance = make_appliance()
        appliance.load_rows("c", [(9,)])
        assert appliance.control.rows("c") == [(9,)]
        for node in appliance.compute:
            with pytest.raises(ExecutionError):
                node.rows("c")

    def test_row_count_updated(self):
        appliance = make_appliance()
        appliance.load_rows("h", [(i, "") for i in range(10)])
        assert appliance.catalog.table("h").row_count == 10

    def test_single_system_image(self):
        appliance = make_appliance()
        rows = [(i, f"v{i}") for i in range(50)]
        appliance.load_rows("h", rows)
        assert sorted(appliance.table_rows_everywhere("h")) == rows

    def test_replicated_image_not_duplicated(self):
        appliance = make_appliance()
        appliance.load_rows("r", [(1,), (2,)])
        assert sorted(appliance.table_rows_everywhere("r")) == [(1,), (2,)]


class TestTempTables:
    def test_temp_created_everywhere(self):
        appliance = make_appliance()
        temp = TableDef("TEMP_ID_1", [Column("x", INTEGER)],
                        hash_distributed("x"), is_temp=True)
        appliance.create_temp_table(temp)
        for node in appliance.compute:
            assert node.rows("TEMP_ID_1") == []
        assert appliance.control.rows("TEMP_ID_1") == []

    def test_drop_temp_tables(self):
        appliance = make_appliance()
        temp = TableDef("TEMP_ID_1", [Column("x", INTEGER)],
                        hash_distributed("x"), is_temp=True)
        appliance.create_temp_table(temp)
        appliance.drop_temp_tables()
        assert not appliance.catalog.has_table("TEMP_ID_1")

    def test_drop_keeps_base_tables(self):
        appliance = make_appliance()
        appliance.drop_temp_tables()
        assert appliance.catalog.has_table("h")


class TestStoreReplaces:
    """A step's delivery replaces what its temp table held, and a
    fragment shared by several nodes is never written in place."""

    def test_storing_replaces_what_the_table_held(self):
        node = NodeStorage(0)
        node.create("TEMP_ID_1")
        first = ColumnFragment.from_rows([(1,), (2,)])
        node.store("TEMP_ID_1", first)
        assert node.fragment("TEMP_ID_1") is first
        second = ColumnFragment.from_rows([(3,)])
        node.store("temp_id_1", second)
        assert node.fragment("TEMP_ID_1") is second
        assert node.rows("TEMP_ID_1") == [(3,)]
        # The replaced fragment is as it was for anyone still reading it.
        assert first.rows() == [(1,), (2,)]

    def test_a_shared_fragment_is_never_mutated(self):
        nodes = [NodeStorage(i) for i in range(3)]
        rows = [(1,), (2,)]
        shared = ColumnFragment.from_rows(rows)
        for node in nodes:
            node.create("TEMP_ID_1")
            node.store("TEMP_ID_1", shared)
        nodes[0].store("TEMP_ID_1", ColumnFragment.from_rows([(0,)]))
        assert rows == [(1,), (2,)]
        assert shared.rows() is rows and len(shared) == 2
        assert shared.column(0).pylist() == [1, 2]
        for node in nodes[1:]:
            assert node.fragment("TEMP_ID_1") is shared

    def test_drop_then_create_gives_an_empty_fragment(self):
        node = NodeStorage(0)
        node.create("TEMP_ID_1")
        shared = ColumnFragment.from_rows([(1,)])
        node.store("TEMP_ID_1", shared)
        node.drop("TEMP_ID_1")
        node.create("TEMP_ID_1")
        fragment = node.fragment("TEMP_ID_1")
        assert isinstance(fragment, ColumnFragment)
        assert fragment is not shared
        assert len(fragment) == 0 and node.rows("TEMP_ID_1") == []
        assert shared.rows() == [(1,)]
        # Creating an existing table keeps what it holds.
        node.store("TEMP_ID_1", shared)
        node.create("TEMP_ID_1")
        assert node.fragment("TEMP_ID_1") is shared


class TestStatisticsPipeline:
    def test_shell_has_global_counts(self):
        appliance = make_appliance()
        appliance.load_rows("h", [(i, f"v{i}") for i in range(120)])
        shell = appliance.compute_shell_database()
        stats = shell.column_stats("h", "k")
        assert stats.row_count == 120
        assert stats.distinct_count == 120

    def test_replicated_stats_not_multiplied(self):
        appliance = make_appliance()
        appliance.load_rows("r", [(i,) for i in range(30)])
        shell = appliance.compute_shell_database()
        assert shell.column_stats("r", "k").row_count == 30

    def test_histogram_merged_across_nodes(self):
        appliance = make_appliance()
        appliance.load_rows("h", [(i, "") for i in range(1000)])
        shell = appliance.compute_shell_database()
        hist = shell.column_stats("h", "k").histogram
        assert hist.estimate_le(499) == pytest.approx(500, rel=0.2)


class TestByteAccounting:
    def test_value_bytes(self):
        assert value_bytes(1) == 4
        assert value_bytes(2**40) == 8
        assert value_bytes("abcd") == 4
        assert value_bytes(None) == 1
        assert value_bytes(1.5) == 8

    def test_row_bytes_sums(self):
        assert row_bytes((1, "ab")) == 6

    def test_invalid_node_count(self):
        with pytest.raises(ExecutionError):
            Appliance(0)
