"""Appliance storage: the control node, compute nodes, and table placement.

Models the PDW appliance of §2.1: N compute nodes, each hosting a DBMS
instance with its fragment of every hash-distributed table and a full copy
of every replicated table; one control node with its own (shell/staging)
storage.  Every table a node holds — base table, temp, system view — is
one :class:`~repro.vector.np_batch.ColumnFragment` of typed columns,
which turns into row tuples (in table-column order) only for a reader
that asks for :meth:`NodeStorage.rows`.  A node owns its fragment from
the moment a load places it: a load encodes every column once and
stores a hash-distributed table through the same placement a shuffle's
output takes (:func:`place_rows`), so the first query over it scans
columns like every later one.

The distribution hash and the byte-accounting unit are defined here
twice over — per value (:func:`pdw_hash`, :func:`value_bytes`) and per
column (:func:`column_owners`, :func:`batch_row_bytes`) — and the
property tests hold the column forms to the value forms bit for bit.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.catalog.schema import (
    Catalog,
    DistributionKind,
    TableDef,
)
from repro.catalog.shell_db import ShellDatabase
from repro.catalog.statistics import ColumnStats, merge_column_stats
from repro.common.errors import ExecutionError
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    NumpyColumn,
    column_from_list,
    crc32_int64,
    offsets,
)


def pdw_hash(value) -> int:
    """Deterministic, platform-stable hash used for table distribution.

    The same function is used by the storage layer, the DMS runtime and
    tests, so hash-compatibility reasoning in the optimizer matches what
    actually happens on the simulated appliance.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value) + 1
    if isinstance(value, int):
        return zlib.crc32(value.to_bytes(16, "little", signed=True))
    if isinstance(value, float):
        return zlib.crc32(repr(value).encode())
    return zlib.crc32(str(value).encode("utf-8", "replace"))


def node_for_row(row: Tuple, hash_indexes: Sequence[int],
                 node_count: int) -> int:
    """Which compute node owns a row of a hash-distributed table."""
    if len(hash_indexes) == 1:
        return pdw_hash(row[hash_indexes[0]]) % node_count
    combined = 0
    for index in hash_indexes:
        combined = (combined * 1000003) ^ pdw_hash(row[index])
    return combined % node_count


def value_bytes(value) -> int:
    """Raw byte width of one value (the runtime's accounting unit)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -2**31 <= value < 2**31 else 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return max(1, len(value))
    if hasattr(value, "toordinal"):  # date
        return 4
    return 8


def row_bytes(row: Tuple) -> int:
    return sum(value_bytes(v) for v in row)


# -- the same two definitions, a column at a time ------------------------------------

_INT32_MIN, _INT32_MAX = -2 ** 31, 2 ** 31 - 1

#: Byte width of every non-NULL value of a fixed-width column kind.
_KIND_BYTES = {"f": 8, "d": 4, "b": 1}


def _value_widths(column: NumpyColumn) -> Union[int, np.ndarray]:
    """:func:`value_bytes` over a column: one int when every value has
    that width (the usual case — no array is built), else an int64
    array with a width per value."""
    kind = column.kind
    values = column.values
    mask = column.mask
    if kind == "s":
        # One width per dictionary entry, gathered by code.
        widths, uniform = column.dictionary.derived(
            "value_bytes", _entry_widths)
        if uniform is not None:
            if mask is None:
                return uniform
            return np.where(mask, 1, uniform)
        sizes = widths[values]
        if mask is not None:
            sizes[mask] = 1  # NULL
        return sizes
    if kind == "o":
        # Mostly strings (``max(1, len)``; every other width is >= 1
        # already), anything else one value at a time.
        sizes = np.fromiter(
            (len(v) if type(v) is str else value_bytes(v)
             for v in values.tolist()), np.int64, len(values))
        return np.maximum(sizes, 1, out=sizes)
    if kind == "i":
        if len(values) and (values.min() < _INT32_MIN
                            or values.max() > _INT32_MAX):
            sizes = np.where(
                (values < _INT32_MIN) | (values > _INT32_MAX), 8, 4)
            if mask is not None:
                sizes[mask] = 1  # NULL
            return sizes
        width = 4
    else:
        width = _KIND_BYTES[kind]
    if mask is None:
        return width
    return np.where(mask, 1, width)  # NULL is one byte


def _entry_widths(entries: np.ndarray
                   ) -> Tuple[np.ndarray, Optional[int]]:
    """:func:`value_bytes` of every entry of a string dictionary, and
    the one width they all share (``None`` when they differ)."""
    widths = np.fromiter(map(len, entries.tolist()), np.int64,
                         len(entries))
    np.maximum(widths, 1, out=widths)  # '' is one byte
    uniform = (int(widths[0])
               if len(widths) and bool((widths == widths[0]).all())
               else None)
    return widths, uniform


def _entry_hashes(entries: np.ndarray) -> np.ndarray:
    """:func:`pdw_hash` of every entry of a string dictionary."""
    return np.fromiter(map(pdw_hash, entries.tolist()), np.int64,
                       len(entries))


def batch_row_bytes(batch: ArrayBatch) -> np.ndarray:
    """:func:`row_bytes` of every row of a batch, as int64 — a pass per
    column whose values differ in width, no row tuple built."""
    fixed = 0
    sizes: Optional[np.ndarray] = None
    for column in batch.columns.values():
        widths = _value_widths(column)
        if isinstance(widths, int):
            fixed += widths
        elif sizes is None:
            sizes = widths
        else:
            sizes += widths
    if sizes is None:
        return np.full(batch.length, fixed, dtype=np.int64)
    if fixed:
        sizes += fixed
    return sizes


def column_owners(column: NumpyColumn, node_count: int) -> np.ndarray:
    """``pdw_hash(v) % node_count`` for every value of a distribution-
    key column, in the narrowest unsigned dtype that holds a node id
    (``uint8`` up to 256 nodes) — so a stable sort by owner is numpy's
    radix sort.  Integer columns hash in one vectorized CRC32 pass
    (:func:`~repro.vector.np_batch.crc32_int64`), dictionary-encoded
    strings once per dictionary entry; any other kind hashes its
    native values one by one."""
    dtype = _owner_dtype(node_count)
    if column.kind == "i":
        owners = (crc32_int64(column.values)
                  % np.uint32(node_count)).astype(dtype)
        if column.mask is not None:
            owners[column.mask] = 0  # pdw_hash(None) == 0
        return owners
    if column.kind == "s":
        owners = (column.dictionary.derived(
            "pdw_hash", _entry_hashes)[column.values]
            % node_count).astype(dtype)
        if column.mask is not None:
            owners[column.mask] = 0
        return owners
    return np.fromiter(
        (pdw_hash(v) % node_count for v in column.pylist()),
        dtype, len(column))


def _owner_dtype(node_count: int) -> type:
    if node_count <= 1 << 8:
        return np.uint8
    if node_count <= 1 << 16:
        return np.uint16
    return np.int64


def place_rows(batch: ArrayBatch, owners: np.ndarray,
               node_count: int) -> List[ColumnFragment]:
    """Store ``batch``'s rows on the nodes ``owners`` names — how every
    hash placement stores rows, a load's and a shuffle's alike: once,
    gathered into owner order by a *stable* sort (each node's rows keep
    their order in ``batch``), the nodes as the batch's bounds, and one
    :meth:`~repro.vector.np_batch.ColumnFragment.of_node` view per
    node."""
    order = np.argsort(owners, kind="stable")
    stacked = ArrayBatch(
        batch.take(order).gathered().columns, batch.length,
        offsets(np.bincount(owners, minlength=node_count)))
    return [ColumnFragment.of_node(stacked, node)
            for node in range(node_count)]


def _encoded(rows: List[Tuple], width: int) -> ArrayBatch:
    """Row tuples as positional typed columns, each sniffed once."""
    columns = list(zip(*rows)) if rows else [()] * width
    return ArrayBatch({position: column_from_list(values)
                       for position, values in enumerate(columns)},
                      len(rows))


class NodeStorage:
    """One node's table fragments: table name →
    :class:`~repro.vector.np_batch.ColumnFragment`.

    Fragments are never mutated: :meth:`store` replaces whatever the
    table held, so a fragment shared between nodes (a replicated table,
    a broadcast) or grabbed by a running scan stays as it was.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.tables: Dict[str, ColumnFragment] = {}

    def create(self, name: str) -> None:
        self.tables.setdefault(name.lower(), ColumnFragment.from_rows([]))

    def drop(self, name: str) -> None:
        self.tables.pop(name.lower(), None)

    def store(self, name: str, fragment: ColumnFragment) -> None:
        """Make ``fragment`` the table's contents on this node."""
        self.tables[name.lower()] = fragment

    def fragment(self, name: str) -> ColumnFragment:
        """The table's fragment as stored."""
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"node {self.node_id}: table {name!r} has no storage"
            ) from None

    def rows(self, name: str) -> List[Tuple]:
        """The table's fragment as row tuples."""
        return self.fragment(name).rows()


CONTROL_NODE = -1


class Appliance:
    """The simulated appliance: storage + catalog + statistics pipeline."""

    def __init__(self, node_count: int):
        if node_count < 1:
            raise ExecutionError("appliance needs at least one compute node")
        self.node_count = node_count
        self.catalog = Catalog()
        self.control = NodeStorage(CONTROL_NODE)
        self.compute = [NodeStorage(i) for i in range(node_count)]
        self._image_cache: Optional[Dict[str, List[Tuple]]] = None
        # Monotonic DDL/data generation, bumped whenever base-table
        # storage changes (temp-table churn does not count).  The plan
        # cache stamps entries with this and invalidates on mismatch.
        self.schema_version = 0
        # Guards catalog/storage DDL and the image cache: under the
        # parallel runtime, independent DSQL steps create their temp
        # tables concurrently from worker threads.
        self._lock = threading.RLock()

    # -- placement ---------------------------------------------------------------

    def _nodes_holding(self, table: TableDef) -> List[NodeStorage]:
        if table.distribution.kind is DistributionKind.CONTROL:
            return [self.control]
        return list(self.compute)

    def create_table(self, table: TableDef,
                     register: bool = True) -> None:
        """Create empty storage for a table on the right nodes."""
        with self._lock:
            if register:
                self.catalog.add_table(table)
            for node in self._nodes_holding(table):
                node.create(table.name)
            if table.is_system:
                # System views are not a schema change: refresh the
                # reference image but keep every cached plan valid.
                self._image_cache = None
            elif not table.is_temp:
                self._invalidate_image()

    def drop_table(self, name: str) -> None:
        with self._lock:
            if self.catalog.has_table(name):
                table = self.catalog.table(name)
                is_temp, is_system = table.is_temp, table.is_system
                self.catalog.drop_table(name)
            else:
                is_temp = is_system = False
            self.control.drop(name)
            for node in self.compute:
                node.drop(name)
            if is_system:
                self._image_cache = None
            elif not is_temp:
                self._invalidate_image()

    def load_rows(self, name: str, rows: Iterable[Tuple]) -> int:
        """Place rows on their nodes per the table's distribution.

        A load is a shuffle from the control node: every column is
        encoded once, and a hash-distributed table is stored the way a
        shuffle stores its output (:func:`place_rows`) — owners read off
        the distribution column (:func:`column_owners`; per row through
        :func:`node_for_row` only for a multi-column distribution).  A
        replicated or control-node table is one fragment, shared by the
        nodes holding it.  Loading into a table that has rows places
        the old rows and the new ones afresh: each node keeps its old
        rows, then gets its new ones, in input order.

        Returns the number of rows loaded and updates the table's global
        ``row_count``.
        """
        with self._lock:
            return self._load_rows_locked(name, rows)

    def _load_rows_locked(self, name: str, rows: Iterable[Tuple]) -> int:
        table = self.catalog.table(name)
        loaded = list(rows)
        rows = self.table_rows_everywhere(table.name) + loaded
        batch = _encoded(rows, len(table.columns))
        if table.distribution.kind is DistributionKind.HASH:
            indexes = [table.column_index(column)
                       for column in table.distribution.columns]
            if len(indexes) == 1:
                owners = column_owners(batch.columns[indexes[0]],
                                       self.node_count)
            else:
                owners = np.fromiter(
                    (node_for_row(row, indexes, self.node_count)
                     for row in rows),
                    _owner_dtype(self.node_count), len(rows))
            for node, fragment in zip(
                    self.compute,
                    place_rows(batch, owners, self.node_count)):
                node.store(table.name, fragment)
        else:
            shared = ColumnFragment([batch])
            for node in self._nodes_holding(table):
                node.store(table.name, shared)
        table.row_count += len(loaded)
        if table.is_system:
            self._image_cache = None
        elif not table.is_temp:
            self._invalidate_image()
        return len(loaded)

    def replace_system_rows(self, name: str, rows: List[Tuple]) -> int:
        """Swap a system (DMV) pseudo-table's contents atomically.

        The fresh snapshot is one row fragment stored on every holding
        node (replicated system views share it, exactly like a
        broadcast delivery), so an in-progress scan keeps the fragment
        it already grabbed — no torn reads — and the next scan sees the
        new snapshot.  The reference image is refreshed but
        ``schema_version`` is **not** bumped: a DMV refresh must never
        invalidate the plan cache.
        """
        shared = ColumnFragment.from_rows(list(rows))
        with self._lock:
            table = self.catalog.table(name)
            if not table.is_system:
                raise ExecutionError(
                    f"table {name!r} is not a system view")
            for node in self._nodes_holding(table):
                node.store(name, shared)
            table.row_count = len(shared)
            self._image_cache = None
        return len(shared)

    def node_storage(self, node_id: int) -> NodeStorage:
        if node_id == CONTROL_NODE:
            return self.control
        return self.compute[node_id]

    def table_rows_everywhere(self, name: str) -> List[Tuple]:
        """The table's full (single-system-image) contents."""
        table = self.catalog.table(name)
        kind = table.distribution.kind
        if kind is DistributionKind.REPLICATED:
            return list(self.compute[0].rows(name))
        if kind is DistributionKind.CONTROL:
            return list(self.control.rows(name))
        result: List[Tuple] = []
        for node in self.compute:
            result.extend(node.rows(name))
        return result

    # -- single-system image -------------------------------------------------------

    def _invalidate_image(self) -> None:
        self._image_cache = None
        self.schema_version += 1

    def single_system_image(self) -> Dict[str, List[Tuple]]:
        """Every non-temp table's full contents gathered into one map.

        Cached on the appliance (``run_reference`` rebuilds this for
        every correctness comparison otherwise) and invalidated whenever
        base-table storage changes — loads, creates, drops.  Callers
        must treat the returned row lists as read-only.  Thread-safe:
        concurrent first calls build the image once, under the
        appliance lock.
        """
        image = self._image_cache
        if image is None:
            with self._lock:
                if self._image_cache is None:
                    self._image_cache = {
                        table.name: self.table_rows_everywhere(table.name)
                        for table in self.catalog.tables()
                        if not table.is_temp
                    }
                image = self._image_cache
        return image

    # -- temp table lifecycle ------------------------------------------------------

    def create_temp_table(self, table: TableDef) -> None:
        self.create_table(table, register=True)
        if table.distribution.kind is not DistributionKind.CONTROL:
            # Moves may also land temp results on the control node when a
            # later step runs there; give every temp a control-side shell.
            self.control.create(table.name)

    def drop_temp_tables(self) -> None:
        for table in list(self.catalog.tables()):
            if table.is_temp:
                self.drop_table(table.name)

    # -- statistics (paper §2.2) -----------------------------------------------------

    def compute_shell_database(self, num_buckets: int = 32) -> ShellDatabase:
        """Build the shell database: local statistics per node, merged to
        global statistics — the §2.2 pipeline."""
        shell = ShellDatabase(self.catalog, self.node_count)
        for table in self.catalog.tables():
            # System views churn on every refresh; the shell's
            # synthesized defaults (from the live row_count) suffice.
            if table.is_temp or table.is_system:
                continue
            kind = table.distribution.kind
            if kind is DistributionKind.HASH:
                fragments = [node.fragment(table.name)
                             for node in self.compute]
            elif kind is DistributionKind.REPLICATED:
                fragments = [self.compute[0].fragment(table.name)]
            else:
                fragments = [self.control.fragment(table.name)]
            for column_index, column in enumerate(table.columns):
                locals_: List[ColumnStats] = [
                    ColumnStats.build(
                        fragment.column(column_index).pylist(), num_buckets)
                    for fragment in fragments
                ]
                merged = merge_column_stats(locals_, num_buckets)
                shell.set_column_stats(table.name, column.name, merged)
        return shell
