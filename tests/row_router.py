"""The per-row DMS router: the test oracle for ``route_group``.

It shares no code with :func:`repro.appliance.dms_runtime.route_group`:
it never sees a column, sizes every row with ``row_bytes``, picks each
row's owner with ``node_for_row`` and keeps its accounting in dicts,
one source at a time.  :func:`route_rows` is that router,
:func:`route_sources` merges its deliveries over a step's sources in
source order, and :func:`row_routed_group` puts both behind
``route_group``'s signature, so a whole runtime can be run with its
moves routed row by row
(``mock.patch.object(dms_runtime, "route_group", row_routed_group)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.appliance.dms_runtime import GroupRouting
from repro.appliance.storage import CONTROL_NODE, node_for_row, row_bytes
from repro.common.errors import DmsError
from repro.pdw.dms import DmsOperation
from repro.vector.np_batch import ColumnFragment

#: One routed delivery: (target node id, rows, bytes).  The row list may
#: be *shared* between targets (broadcast).
Delivery = Tuple[int, List[Tuple], int]


def route_rows(operation: DmsOperation, rows: List[Tuple],
               sizes: List[int], hash_index: Optional[int],
               node_count: int, source_id: int
               ) -> Tuple[List[Delivery], int]:
    """One source's rows routed with per-row dict accounting: its
    deliveries, in first-touched target order, and the bytes it put on
    the network."""
    if not rows:
        return [], 0

    if operation is DmsOperation.SHUFFLE_MOVE:
        if hash_index is None:
            raise DmsError("shuffle move without a hash column")
        buckets: Dict[int, List[Tuple]] = {}
        bucket_bytes: Dict[int, int] = {}
        for row, size in zip(rows, sizes):
            owner = node_for_row(row, [hash_index], node_count)
            buckets.setdefault(owner, []).append(row)
            bucket_bytes[owner] = bucket_bytes.get(owner, 0) + size
        sent = sum(nbytes for owner, nbytes in bucket_bytes.items()
                   if owner != source_id)
        return [(owner, batch, bucket_bytes[owner])
                for owner, batch in buckets.items()], sent

    if operation is DmsOperation.TRIM_MOVE:
        if hash_index is None:
            raise DmsError("trim move without a hash column")
        kept = [(row, size) for row, size in zip(rows, sizes)
                if node_for_row(row, [hash_index], node_count) == source_id]
        if not kept:
            return [], 0  # trimmed rows never leave their node
        return [(source_id, [row for row, _ in kept],
                 sum(size for _, size in kept))], 0

    if operation in (DmsOperation.BROADCAST_MOVE,
                     DmsOperation.CONTROL_NODE_MOVE,
                     DmsOperation.REPLICATED_BROADCAST):
        total = sum(sizes)
        remote_targets = node_count - (1 if 0 <= source_id < node_count
                                       else 0)
        return ([(target, rows, total) for target in range(node_count)],
                total * remote_targets)

    if operation in (DmsOperation.PARTITION_MOVE,
                     DmsOperation.REMOTE_COPY):
        total = sum(sizes)
        return ([(CONTROL_NODE, rows, total)],
                0 if source_id == CONTROL_NODE else total)

    raise DmsError(f"unknown DMS operation {operation}")


def route_sources(operation, per_source, source_ids, hash_index,
                  node_count, transfers=False) -> GroupRouting:
    """Every source's rows (``per_source[k]`` for ``source_ids[k]``)
    sized with ``row_bytes`` and routed on its own by
    :func:`route_rows`, the deliveries merged in source order into one
    row fragment per target that received rows — as a
    :class:`GroupRouting`."""
    routing = GroupRouting(read=[], sent=[])
    received: Dict[int, List[Tuple]] = {}
    for source_id, rows in zip(source_ids, per_source):
        sizes = [row_bytes(row) for row in rows]
        routing.read.append(sum(sizes))
        deliveries, sent = route_rows(operation, rows, sizes, hash_index,
                                      node_count, source_id)
        routing.sent.append(sent)
        for target, delivered, nbytes in deliveries:
            received.setdefault(target, []).extend(delivered)
            routing.received[target] = (
                routing.received.get(target, 0) + nbytes)
            if transfers:
                routing.transfers[(source_id, target)] = [
                    len(delivered), nbytes]
    routing.stored = {target: ColumnFragment.from_rows(held)
                      for target, held in received.items()}
    return routing


def row_routed_group(operation, batch, source_ids, sizes, hash_index,
                     node_count, transfers=False) -> GroupRouting:
    """``route_group``'s contract met row by row: segment ``k`` of
    ``batch.bounds`` is source ``source_ids[k]``'s rows, handed to
    :func:`route_sources` as tuples.  The caller's ``sizes`` are not
    read: every row is sized again with ``row_bytes``."""
    rows = batch.rows()
    bounds = batch.bounds.tolist()
    return route_sources(
        operation, [rows[start:stop]
                    for start, stop in zip(bounds, bounds[1:])],
        source_ids, hash_index, node_count, transfers)
