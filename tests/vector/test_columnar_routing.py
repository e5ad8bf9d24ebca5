"""Column routing ⇄ the reference row router: the same deliveries, in
the same row order, with the same byte accounting.

``route_batch_columns`` never sees a row; the reference router never
sees a column.  Every case routes one batch both ways — the column
side from ``column_from_list`` columns and ``batch_row_bytes`` sizes,
the row side from the tuples and ``row_bytes`` — and compares the
column deliveries' row views with the row deliveries.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.appliance.dms_runtime import (
    DmsOperation,
    DmsRuntime,
    route_batch_columns,
)
from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    batch_row_bytes,
    pdw_hash,
    row_bytes,
)
from repro.common.errors import DmsError
from repro.vector.np_batch import ArrayBatch, column_from_list

NODES = 4

#: One batch per distribution-key type (the key is column 0).
BATCHES = {
    "int": [(i, f"value-{i}", i * 1.5) for i in range(200)],
    "str": [(f"key-{i}", i, i * 1.5) for i in range(200)],
    "float": [(i * 0.25, i, None) for i in range(120)],
    "null": [(None if i % 3 == 0 else i, f"v{i}") for i in range(90)],
    "all_null": [(None, i) for i in range(20)],
    # bool is an int subclass but hashes differently (pdw_hash
    # special-cases it): the key column must not take the CRC32 pass.
    "bool": [(i % 2 == 0, i) for i in range(40)],
    # Beyond int64: an object column, hashed per value.
    "big_int": [(2 ** 80 + i, i) for i in range(50)],
    "int64_edges": [(k, i) for i, k in enumerate(
        [0, 1, -1, 2 ** 31 - 1, 2 ** 31, -2 ** 31, -2 ** 31 - 1,
         2 ** 63 - 1, -2 ** 63, 42, -42])],
    "date": [(datetime.date(1995, 1, 1) + datetime.timedelta(i % 17), i)
             for i in range(60)],
    "mixed": [(key, i) for i, key in enumerate(
        [1, "one", 1.0, None, True, 2 ** 70, datetime.date(2000, 2, 29)]
        * 5)],
    "one_row": [(7, "only")],
}

MOVES = [
    DmsOperation.SHUFFLE_MOVE,
    DmsOperation.TRIM_MOVE,
    DmsOperation.BROADCAST_MOVE,
    DmsOperation.CONTROL_NODE_MOVE,
    DmsOperation.REPLICATED_BROADCAST,
    DmsOperation.PARTITION_MOVE,
    DmsOperation.REMOTE_COPY,
]


def columns_of(rows):
    width = len(rows[0]) if rows else 2
    return ArrayBatch(
        {i: column_from_list([row[i] for row in rows])
         for i in range(width)},
        len(rows))


def route_both(operation, rows, source_id, node_count=NODES,
               hash_index=0):
    batch = columns_of(rows)
    column_side = route_batch_columns(
        operation, batch, batch_row_bytes(batch), hash_index,
        node_count, source_id)
    row_side = DmsRuntime(Appliance(node_count))._route_batch_reference(
        operation, rows, [row_bytes(r) for r in rows], hash_index,
        node_count, source_id)
    return column_side, row_side


def as_map(deliveries):
    """target → (rows in delivered order, bytes); column batches through
    their row view."""
    return {target: (batch.rows() if isinstance(batch, ArrayBatch)
                     else batch, nbytes)
            for target, batch, nbytes in deliveries}


class TestColumnRouterMatchesReference:
    @pytest.mark.parametrize("source_id", [0, 1, 3, CONTROL_NODE])
    @pytest.mark.parametrize("operation", MOVES, ids=lambda op: op.value)
    @pytest.mark.parametrize("key_type", sorted(BATCHES))
    def test_same_deliveries_same_order_same_bytes(
            self, key_type, operation, source_id):
        (columns, column_sent), (rows, row_sent) = route_both(
            operation, BATCHES[key_type], source_id)
        assert as_map(columns) == as_map(rows)
        assert column_sent == row_sent
        for _, _, nbytes in columns:
            assert type(nbytes) is int  # never a numpy scalar
        assert type(column_sent) is int

    @pytest.mark.parametrize("node_count", [1, 2, 3, 8])
    @pytest.mark.parametrize("key_type", ["int", "str", "null"])
    def test_other_node_counts(self, key_type, node_count):
        for operation in (DmsOperation.SHUFFLE_MOVE,
                          DmsOperation.TRIM_MOVE):
            (columns, column_sent), (rows, row_sent) = route_both(
                operation, BATCHES[key_type], 0, node_count)
            assert as_map(columns) == as_map(rows)
            assert column_sent == row_sent

    def test_shuffle_partitions_the_batch(self):
        rows = BATCHES["int"]
        (deliveries, sent), _ = route_both(
            DmsOperation.SHUFFLE_MOVE, rows, 1)
        routed = [row for _, batch, _ in deliveries
                  for row in batch.rows()]
        assert sorted(routed) == sorted(rows)
        assert [target for target, _, _ in deliveries] == sorted(
            {pdw_hash(row[0]) % NODES for row in rows})
        local = sum(nbytes for target, _, nbytes in deliveries
                    if target == 1)
        assert sent == sum(map(row_bytes, rows)) - local

    def test_shuffle_pieces_are_slices_of_one_gather(self):
        (deliveries, _), _ = route_both(
            DmsOperation.SHUFFLE_MOVE, BATCHES["int"], 0)
        bases = {id(batch.columns[1].values.base)
                 for _, batch, _ in deliveries}
        assert len(deliveries) == NODES and len(bases) == 1

    def test_broadcast_shares_one_piece(self):
        rows = BATCHES["str"]
        (deliveries, sent), _ = route_both(
            DmsOperation.BROADCAST_MOVE, rows, 0)
        assert len(deliveries) == NODES
        first = deliveries[0][1]
        total = sum(map(row_bytes, rows))
        for _, batch, nbytes in deliveries:
            assert batch is first          # no per-target copies
            assert nbytes == total
        # source node 0 keeps its copy local: 3 remote targets
        assert sent == 3 * total

    def test_trim_keeps_only_the_source_nodes_rows(self):
        for source_id in range(NODES):
            (deliveries, sent), _ = route_both(
                DmsOperation.TRIM_MOVE, BATCHES["int"], source_id)
            assert sent == 0  # trimmed rows never leave their node
            for target, batch, _ in deliveries:
                assert target == source_id
                for row in batch.rows():
                    assert pdw_hash(row[0]) % NODES == source_id


class TestEdges:
    @pytest.mark.parametrize("operation", MOVES, ids=lambda op: op.value)
    def test_empty_batch_routes_nothing(self, operation):
        (columns, column_sent), (rows, row_sent) = route_both(
            operation, [], 0)
        assert (columns, column_sent) == (rows, row_sent) == ([], 0)

    def test_trim_keeping_nothing(self):
        # Every key hashes to one node; any other source keeps nothing.
        owner = pdw_hash(5) % NODES
        rows = [(5, i) for i in range(10)]
        other = (owner + 1) % NODES
        (columns, column_sent), (reference, row_sent) = route_both(
            DmsOperation.TRIM_MOVE, rows, other)
        assert (columns, column_sent) == (reference, row_sent) == ([], 0)
        (columns, _), (reference, _) = route_both(
            DmsOperation.TRIM_MOVE, rows, owner)
        assert as_map(columns) == as_map(reference) == {
            owner: (rows, sum(map(row_bytes, rows)))}

    def test_all_keys_to_one_node(self):
        rows = [(5, f"row-{i}") for i in range(30)]
        (columns, column_sent), (reference, row_sent) = route_both(
            DmsOperation.SHUFFLE_MOVE, rows, 0)
        assert len(columns) == 1
        assert as_map(columns) == as_map(reference)
        assert column_sent == row_sent

    def test_zero_column_batch_moves_as_a_unit(self):
        batch = ArrayBatch({}, 3)
        sizes = batch_row_bytes(batch)
        assert sizes.tolist() == [0, 0, 0]
        deliveries, sent = route_batch_columns(
            DmsOperation.PARTITION_MOVE, batch, sizes, None, NODES, 2)
        assert deliveries == [(CONTROL_NODE, batch, 0)] and sent == 0

    @pytest.mark.parametrize("operation", [DmsOperation.SHUFFLE_MOVE,
                                           DmsOperation.TRIM_MOVE])
    def test_missing_hash_column_raises(self, operation):
        batch = columns_of(BATCHES["int"])
        with pytest.raises(DmsError, match="without a hash column"):
            route_batch_columns(operation, batch, batch_row_bytes(batch),
                                None, NODES, 0)

    def test_sizes_are_the_callers(self):
        # The router sums the sizes it is handed (one sizing pass
        # serves reader, network and writer accounting alike).
        batch = columns_of(BATCHES["int"])
        sizes = np.full(len(batch), 3, dtype=np.int64)
        deliveries, _ = route_batch_columns(
            DmsOperation.SHUFFLE_MOVE, batch, sizes, 0, NODES, 0)
        assert all(nbytes == 3 * len(piece)
                   for _, piece, nbytes in deliveries)


class TestRuntimeRouterSelection:
    def test_every_backend_and_runtime_agrees_on_a_shuffling_join(
            self, tpch, tpch_engine):
        """numpy moves columns, the other backends rows — serial and
        parallel runtimes alike — with the same step accounting."""
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT c.c_custkey, o.o_custkey FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey").dsql_plan
        assert plan.movement_steps
        from repro.appliance.runner import DsqlRunner

        results = {}
        for executor, parallel in (("compiled", False),
                                   ("vectorized", False),
                                   ("vectorized", True),
                                   ("numpy", False),
                                   ("numpy", True)):
            result = DsqlRunner(appliance, executor=executor,
                                parallel=parallel).run(plan)
            results[(executor, parallel)] = result
        base = results[("compiled", False)]
        for key, result in results.items():
            assert result.sorted_rows() == base.sorted_rows(), key
            assert [s.rows_moved for s in result.step_stats] == \
                [s.rows_moved for s in base.step_stats], key
            assert [s.network_bytes for s in result.step_stats] == \
                [s.network_bytes for s in base.step_stats], key
