"""Column routing ⇄ the per-row router: the same deliveries, in the
same row order, with the same byte accounting.

``route_group`` never sees a row and routes a step's whole source
group at once; the row router (``tests/row_router.py``) never sees a
column and routes one source at a time.  Every case routes the same rows both ways — the
column side from ``column_from_list`` columns and ``batch_row_bytes``
sizes, the row side from the tuples and ``row_bytes``, merged in source
order — and compares what each
target stores (through its row view) and every byte count.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.appliance.dms_runtime import DmsOperation, route_group
from repro.appliance.storage import (
    CONTROL_NODE,
    batch_row_bytes,
    pdw_hash,
    row_bytes,
)
from repro.common.errors import DmsError
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    column_from_list,
)

from tests.row_router import route_sources

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


def columns_of(rows, bounds=None):
    width = len(rows[0]) if rows else 2
    if bounds is None:
        bounds = [0, len(rows)]
    return ArrayBatch(
        {i: column_from_list([row[i] for row in rows])
         for i in range(width)},
        len(rows), np.array(bounds, dtype=np.int64))


def route_rows(operation, per_source, source_ids, node_count,
               hash_index=0):
    """The per-row router over every source's tuples, the deliveries
    merged in source order.  Returns (target → (rows, bytes), per-source
    network bytes, transfers)."""
    routing = route_sources(operation, per_source, source_ids,
                            hash_index, node_count, transfers=True)
    stored = {target: (fragment.rows(), routing.received[target])
              for target, fragment in routing.stored.items()}
    return stored, routing.sent, routing.transfers


def route_columns(operation, per_source, source_ids, node_count,
                  hash_index=0):
    """The same through the group router, in the same shape."""
    rows = [row for source in per_source for row in source]
    bounds = np.concatenate(
        ([0], np.cumsum([len(source) for source in per_source])))
    batch = columns_of(rows, bounds)
    routing = route_group(operation, batch, source_ids,
                          batch_row_bytes(batch), hash_index, node_count,
                          transfers=True)
    assert routing.read == [sum(map(row_bytes, source))
                            for source in per_source]
    for value in (*routing.read, *routing.sent,
                  *routing.received.values(),
                  *(n for cell in routing.transfers.values()
                    for n in cell)):
        assert type(value) is int  # never a numpy scalar
    stored = {target: (routing.stored[target].rows(), nbytes)
              for target, nbytes in routing.received.items()}
    # A target that received nothing holds nothing.
    for target, fragment in routing.stored.items():
        assert target in stored or len(fragment) == 0
    return stored, routing.sent, routing.transfers


def route_both(operation, rows, source_id, node_count=NODES,
               hash_index=0):
    """One source's batch both ways: ((stored, sent), (stored, sent))."""
    column_side = route_columns(operation, [rows], [source_id],
                                node_count, hash_index)
    row_side = route_rows(operation, [rows], [source_id], node_count,
                          hash_index)
    assert column_side[2] == row_side[2]
    return ((column_side[0], column_side[1][0]),
            (row_side[0], row_side[1][0]))


def split(rows, sources):
    """``rows`` dealt to ``sources`` sources in contiguous runs of
    uneven length, the last one empty."""
    cuts = sorted({(len(rows) * k * k) // (sources * sources)
                   for k in range(sources)} | {len(rows)})
    cuts += [len(rows)] * (sources + 1 - len(cuts))
    return [rows[start:stop] for start, stop in zip(cuts, cuts[1:])]


class TestColumnRouterMatchesReference:
    @pytest.mark.parametrize("source_id", [0, 1, 3, CONTROL_NODE])
    @pytest.mark.parametrize("operation", MOVES, ids=lambda op: op.value)
    @pytest.mark.parametrize("key_type", sorted(BATCHES))
    def test_same_deliveries_same_order_same_bytes(
            self, key_type, operation, source_id):
        (columns, column_sent), (rows, row_sent) = route_both(
            operation, BATCHES[key_type], source_id)
        assert columns == rows
        assert column_sent == row_sent

    @pytest.mark.parametrize("node_count", [1, 2, 3, 8])
    @pytest.mark.parametrize("key_type", ["int", "str", "null"])
    def test_other_node_counts(self, key_type, node_count):
        for operation in (DmsOperation.SHUFFLE_MOVE,
                          DmsOperation.TRIM_MOVE):
            (columns, column_sent), (rows, row_sent) = route_both(
                operation, BATCHES[key_type], 0, node_count)
            assert columns == rows
            assert column_sent == row_sent

    @pytest.mark.parametrize("node_count", [1, 2, 3, 8])
    @pytest.mark.parametrize("operation", MOVES, ids=lambda op: op.value)
    @pytest.mark.parametrize("key_type", sorted(BATCHES))
    def test_a_whole_group_at_once(self, key_type, operation, node_count):
        """Every compute node a source: one routing pass stores, sends
        and counts what the per-source passes merged in source order
        would have."""
        per_source = split(BATCHES[key_type], node_count)
        assert len(per_source) == node_count
        source_ids = list(range(node_count))
        assert (route_columns(operation, per_source, source_ids,
                              node_count)
                == route_rows(operation, per_source, source_ids,
                              node_count))

    def test_shuffle_partitions_the_batch(self):
        rows = BATCHES["int"]
        (stored, sent), _ = route_both(
            DmsOperation.SHUFFLE_MOVE, rows, 1)
        routed = [row for held, _ in stored.values() for row in held]
        assert sorted(routed) == sorted(rows)
        assert sorted(stored) == sorted(
            {pdw_hash(row[0]) % NODES for row in rows})
        assert sent == sum(map(row_bytes, rows)) - stored[1][1]

    def test_shuffle_stores_one_gather_with_a_view_per_target(self):
        batch = columns_of(BATCHES["int"])
        routing = route_group(
            DmsOperation.SHUFFLE_MOVE, batch, [0],
            batch_row_bytes(batch), 0, NODES)
        stacked = {id(fragment.stacked)
                   for fragment in routing.stored.values()}
        assert sorted(routing.stored) == list(range(NODES))
        assert len(stacked) == 1
        assert [fragment.node for fragment in
                routing.stored.values()] == list(range(NODES))
        whole = routing.stored[0].stacked
        assert whole.bounds.tolist()[-1] == len(batch)
        # A node's rows are cut from the one gather only when asked.
        assert all(fragment.pieces is None
                   for fragment in routing.stored.values())
        assert routing.stored[2].column(1).values.base is not None

    def test_broadcast_shares_one_fragment(self):
        rows = BATCHES["str"]
        batch = columns_of(rows)
        routing = route_group(
            DmsOperation.BROADCAST_MOVE, batch, [0],
            batch_row_bytes(batch), 0, NODES)
        assert sorted(routing.stored) == list(range(NODES))
        first = routing.stored[0]
        total = sum(map(row_bytes, rows))
        for target, fragment in routing.stored.items():
            assert fragment is first        # no per-target copies
            assert routing.received[target] == total
        assert isinstance(first, ColumnFragment)
        # source node 0 keeps its copy local: 3 remote targets
        assert routing.sent == [3 * total]

    def test_trim_keeps_only_the_source_nodes_rows(self):
        for source_id in range(NODES):
            (stored, sent), _ = route_both(
                DmsOperation.TRIM_MOVE, BATCHES["int"], source_id)
            assert sent == 0  # trimmed rows never leave their node
            assert list(stored) == [source_id]
            for row in stored[source_id][0]:
                assert pdw_hash(row[0]) % NODES == source_id


class TestEdges:
    @pytest.mark.parametrize("operation", MOVES, ids=lambda op: op.value)
    def test_empty_batch_routes_nothing(self, operation):
        (columns, column_sent), (rows, row_sent) = route_both(
            operation, [], 0)
        assert (columns, column_sent) == (rows, row_sent) == ({}, 0)

    def test_trim_keeping_nothing(self):
        # Every key hashes to one node; any other source keeps nothing.
        owner = pdw_hash(5) % NODES
        rows = [(5, i) for i in range(10)]
        other = (owner + 1) % NODES
        (columns, column_sent), (reference, row_sent) = route_both(
            DmsOperation.TRIM_MOVE, rows, other)
        assert (columns, column_sent) == (reference, row_sent) == ({}, 0)
        (columns, _), (reference, _) = route_both(
            DmsOperation.TRIM_MOVE, rows, owner)
        assert columns == reference == {
            owner: (rows, sum(map(row_bytes, rows)))}

    def test_all_keys_to_one_node(self):
        rows = [(5, f"row-{i}") for i in range(30)]
        (columns, column_sent), (reference, row_sent) = route_both(
            DmsOperation.SHUFFLE_MOVE, rows, 0)
        assert len(columns) == 1
        assert columns == reference
        assert column_sent == row_sent

    def test_zero_column_batch_moves_as_a_unit(self):
        batch = ArrayBatch({}, 3, np.array([0, 3]))
        sizes = batch_row_bytes(batch)
        assert sizes.tolist() == [0, 0, 0]
        routing = route_group(
            DmsOperation.PARTITION_MOVE, batch, [2], sizes, None, NODES)
        assert list(routing.stored) == [CONTROL_NODE]
        assert routing.stored[CONTROL_NODE].rows() == [(), (), ()]
        assert routing.received == {CONTROL_NODE: 0}
        assert routing.sent == [0]

    @pytest.mark.parametrize("operation", [DmsOperation.SHUFFLE_MOVE,
                                           DmsOperation.TRIM_MOVE])
    def test_missing_hash_column_raises(self, operation):
        batch = columns_of(BATCHES["int"])
        with pytest.raises(DmsError, match="without a hash column"):
            route_group(operation, batch, [0], batch_row_bytes(batch),
                        None, NODES)

    def test_sizes_are_the_callers(self):
        # The router sums the sizes it is handed (one sizing pass
        # serves reader, network and writer accounting alike).
        batch = columns_of(BATCHES["int"])
        sizes = np.full(len(batch), 3, dtype=np.int64)
        routing = route_group(
            DmsOperation.SHUFFLE_MOVE, batch, [0], sizes, 0, NODES)
        assert routing.read == [3 * len(batch)]
        assert all(nbytes == 3 * len(routing.stored[target])
                   for target, nbytes in routing.received.items())


class TestRuntimeRouterSelection:
    def test_every_backend_agrees_on_a_shuffling_join(
            self, tpch, tpch_engine):
        """numpy moves columns, the oracle rows, with the same step
        accounting."""
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT c.c_custkey, o.o_custkey FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey").dsql_plan
        assert plan.movement_steps
        from repro.appliance.runner import DsqlRunner

        results = {executor: DsqlRunner(appliance,
                                         executor=executor).run(plan)
                   for executor in ("reference", "numpy")}
        base = results["reference"]
        for key, result in results.items():
            assert result.sorted_rows() == base.sorted_rows(), key
            assert [s.rows_moved for s in result.step_stats] == \
                [s.rows_moved for s in base.step_stats], key
            assert [s.network_bytes for s in result.step_stats] == \
                [s.network_bytes for s in base.step_stats], key
