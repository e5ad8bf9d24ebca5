"""Batch-at-a-time logical-plan execution over columnar fragments.

:class:`VectorInterpreter` is API-compatible with
:class:`repro.appliance.interpreter.PlanInterpreter` — same constructor
shape (``tables``, ``stats``, ``observer``), same ``run_query`` /
``run`` entry points, same :class:`InterpreterStats` counter semantics,
and the same postorder ``observer.record(op, rows_out)`` protocol — but
data flows between operators as :class:`ColumnBatch` fragments instead
of per-row env dicts:

* scans transpose the needed storage columns in one pass;
* predicates become selection vectors (row indices where the compiled
  kernel yielded True) and a single gather compacts the batch;
* the hash join builds its table from the key *column* in one pass and
  probes with the key array, producing candidate index pairs that one
  gather turns into the output batch;
* GROUP BY / DISTINCT hash key columns into first-occurrence member
  index lists and aggregate over gathered value columns.

Row order, group order, NULL handling, empty-input scalar-aggregate
rows and error behaviour all match the row backends exactly — the
``tests/vector`` differential suite pins all three executors against
each other on the full TPC-H workload, row-for-row.
"""

from __future__ import annotations

import operator
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.appliance.interpreter import InterpreterStats

from repro.algebra import expressions as ex
from repro.algebra.evaluator import UnboundColumn
from repro.algebra.logical import (
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    Query,
)
from repro.catalog.statistics import sort_key
from repro.common.errors import ExecutionError
from repro.vector.column_batch import ColumnBatch
from repro.vector.kernels import compile_kernel, compile_selection


class VectorInterpreter:
    """Evaluates a bound logical tree batch-at-a-time.

    Drop-in peer of :class:`~repro.appliance.interpreter.PlanInterpreter`
    (which hosts the other two scalar backends); the DMS runtime picks
    the class per the resolved ``executor`` option.
    """

    def __init__(self, tables: Dict[str, List[Tuple]],
                 stats: Optional["InterpreterStats"] = None,
                 observer=None):
        if stats is None:
            # Imported here (not at module level): the appliance package
            # imports this module for executor dispatch, so a top-level
            # import back into it would be circular.
            from repro.appliance.interpreter import InterpreterStats
            stats = InterpreterStats()
        self.tables = {name.lower(): rows for name, rows in tables.items()}
        self.stats = stats
        self.observer = observer

    # -- entry points -------------------------------------------------------------

    def run_query(self, query: Query) -> List[Tuple]:
        """Execute a bound query, honoring ORDER BY and TOP."""
        started = time.perf_counter()
        try:
            return self._run_query(query)
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _run_query(self, query: Query) -> List[Tuple]:
        return self._materialize(query, self.run(query.root))

    def _materialize(self, query: Query,
                     batch: ColumnBatch) -> List[Tuple]:
        """Turn the root batch into output rows: ORDER BY / TOP
        (:meth:`_row_order`), then the column-to-row zip."""
        length = batch.length
        output_cols = []
        for var in query.output_columns():
            column = batch.columns.get(var.id)
            if column is None:
                column = [None] * length
            output_cols.append(column)
        order = self._row_order(query, batch)
        if order is not None:
            return [tuple(col[i] for col in output_cols) for i in order]
        if output_cols:
            rows = list(zip(*output_cols))
        else:
            rows = [()] * length
        if query.limit is not None:
            rows = rows[:query.limit]
        return rows

    @staticmethod
    def _row_order(query: Query,
                   batch: ColumnBatch) -> Optional[List[int]]:
        """The query's ORDER BY (stable, per-key, NULLs-first via
        ``sort_key``) and TOP as a list of row indexes into ``batch``;
        ``None`` without an ORDER BY.  Only the sort-key columns are
        read, so the numpy backend passes a batch of just those."""
        if not query.order_by:
            return None
        order = list(range(batch.length))
        for var, ascending in reversed(query.order_by):
            key_col = batch.columns.get(var.id)
            if key_col is None:
                continue  # all-NULL sort key: stable no-op
            order.sort(key=lambda i: sort_key(key_col[i]),
                       reverse=not ascending)
        if query.limit is not None:
            order = order[:query.limit]
        return order

    def run(self, op: LogicalOp) -> ColumnBatch:
        batch = self._dispatch(op)
        if self.observer is not None:
            self.observer.record(op, batch.length)
        return batch

    def _dispatch(self, op: LogicalOp) -> ColumnBatch:
        if isinstance(op, LogicalGet):
            return self._run_get(op)
        if isinstance(op, LogicalSelect):
            return self._run_select(op)
        if isinstance(op, LogicalProject):
            return self._run_project(op)
        if isinstance(op, LogicalJoin):
            return self._run_join(op)
        if isinstance(op, LogicalGroupBy):
            return self._run_group_by(op)
        if isinstance(op, LogicalUnionAll):
            return self._run_union(op)
        raise ExecutionError(f"cannot interpret {type(op).__name__}")

    # -- operators ------------------------------------------------------------------

    def _run_get(self, op: LogicalGet) -> ColumnBatch:
        name = op.table.name.lower()
        if name not in self.tables:
            raise ExecutionError(f"table {op.table.name!r} not on this node")
        rows = self.tables[name]
        self.stats.rows_scanned += len(rows)
        indexes = [op.table.column_index(var.name) for var in op.columns]
        length = len(rows)
        if not indexes or not length:
            return ColumnBatch({var.id: [] for var in op.columns}, length)
        if len(indexes) == 1:
            index = indexes[0]
            return ColumnBatch(
                {op.columns[0].id: [row[index] for row in rows]}, length)
        # One C-level pass: pick the needed fields per row, then
        # transpose the picked tuples into columns.
        pick = operator.itemgetter(*indexes)
        columns = dict(zip((var.id for var in op.columns),
                           zip(*map(pick, rows))))
        return ColumnBatch(columns, length)

    def _run_select(self, op: LogicalSelect) -> ColumnBatch:
        child = self.run(op.child)
        self.stats.rows_processed += child.length
        selection = compile_selection(op.predicate)(child)
        if len(selection) == child.length:
            return child  # nothing filtered: batches are immutable
        return child.take(selection)

    def _run_project(self, op: LogicalProject) -> ColumnBatch:
        child = self.run(op.child)
        self.stats.rows_processed += child.length
        if all(isinstance(expr, ex.ColumnVar) for _, expr in op.outputs):
            if all(var.id == expr.id for var, expr in op.outputs):
                return child  # pure column pruning: pass through
            try:
                columns = {var.id: child.columns[expr.id]
                           for var, expr in op.outputs}
            except KeyError as exc:
                raise UnboundColumn(exc.args[0]) from None
            return ColumnBatch(columns, child.length)
        columns = {var.id: compile_kernel(expr)(child)
                   for var, expr in op.outputs}
        return ColumnBatch(columns, child.length)

    # -- join ---------------------------------------------------------------------

    def _run_join(self, op: LogicalJoin) -> ColumnBatch:
        left = self.run(op.left)
        right = self.run(op.right)
        self.stats.rows_processed += left.length + right.length
        left_ids = frozenset(var.id for var in op.left.output_columns())
        right_ids = frozenset(var.id for var in op.right.output_columns())
        pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)
        residual = op.predicate
        if pairs and len(pairs) == len(ex.conjuncts(op.predicate)):
            # Hash match already proves every conjunct (keys non-NULL
            # and ==-equal): no residual re-check needed.
            residual = None
        if pairs:
            left_idx, right_idx = self._hash_candidates(left, right, pairs)
        else:
            # Nested-loop candidates, left-major like the row backends.
            left_idx = [i for i in range(left.length)
                        for _ in range(right.length)]
            right_idx = list(range(right.length)) * left.length
        if residual is not None and left_idx:
            candidate = _combine(left, right, left_idx, right_idx)
            values = compile_kernel(residual)(candidate)
            keep = [k for k, value in enumerate(values) if value is True]
            if len(keep) != len(left_idx):
                left_idx = [left_idx[k] for k in keep]
                right_idx = [right_idx[k] for k in keep]
        kind = op.kind
        if kind in (JoinKind.INNER, JoinKind.CROSS):
            return _combine(left, right, left_idx, right_idx)
        if kind is JoinKind.SEMI:
            # left_idx is non-decreasing, so first occurrences are
            # already in left-row order.
            seen = set()
            add = seen.add
            out = [i for i in left_idx if i not in seen and not add(i)]
            return left.take(out)
        if kind is JoinKind.ANTI:
            matched = set(left_idx)
            return left.take([i for i in range(left.length)
                              if i not in matched])
        if kind is JoinKind.LEFT:
            return self._left_outer(left, right, left_idx, right_idx)
        raise ExecutionError(f"unsupported join kind {kind}")

    @staticmethod
    def _hash_candidates(left: ColumnBatch, right: ColumnBatch, pairs
                         ) -> Tuple[List[int], List[int]]:
        """Candidate index pairs for the equi-join keys, in the row
        backends' emission order (left-major, bucket in right-scan
        order).  Missing key columns behave as all-NULL (``env.get``)."""
        left_idx: List[int] = []
        right_idx: List[int] = []
        if len(pairs) == 1:
            left_key = pairs[0][0].id
            right_key = pairs[0][1].id
            table: Dict[object, List[int]] = {}
            right_col = right.columns.get(right_key)
            if right_col is not None:
                lookup = table.get
                for j, value in enumerate(right_col):
                    if value is not None:
                        bucket = lookup(value)
                        if bucket is None:
                            table[value] = [j]
                        else:
                            bucket.append(j)
            left_col = left.columns.get(left_key)
            if left_col is not None and table:
                lookup = table.get
                extend_left = left_idx.extend
                extend_right = right_idx.extend
                for i, value in enumerate(left_col):
                    if value is not None:
                        bucket = lookup(value)
                        if bucket:
                            extend_left([i] * len(bucket))
                            extend_right(bucket)
            return left_idx, right_idx

        left_cols = [left.columns.get(lv.id) for lv, _ in pairs]
        right_cols = [right.columns.get(rv.id) for _, rv in pairs]
        table = {}
        if all(col is not None for col in right_cols):
            for j, key in enumerate(zip(*right_cols)):
                if any(value is None for value in key):
                    continue
                table.setdefault(key, []).append(j)
        if table and all(col is not None for col in left_cols):
            for i, key in enumerate(zip(*left_cols)):
                if any(value is None for value in key):
                    continue
                bucket = table.get(key)
                if bucket:
                    left_idx.extend([i] * len(bucket))
                    right_idx.extend(bucket)
        return left_idx, right_idx

    @staticmethod
    def _left_outer(left: ColumnBatch, right: ColumnBatch,
                    left_idx: List[int], right_idx: List[int]
                    ) -> ColumnBatch:
        """Merge surviving match pairs with NULL-padded unmatched left
        rows, walking the (non-decreasing) left index vector once."""
        final_left: List[int] = []
        final_right: List[int] = []
        position = 0
        total = len(left_idx)
        for i in range(left.length):
            if position < total and left_idx[position] == i:
                while position < total and left_idx[position] == i:
                    final_left.append(i)
                    final_right.append(right_idx[position])
                    position += 1
            else:
                final_left.append(i)
                final_right.append(-1)  # NULL padding sentinel
        return _combine(left, right, final_left, final_right, pad=True)

    # -- grouping -----------------------------------------------------------------

    def _run_group_by(self, op: LogicalGroupBy) -> ColumnBatch:
        child = self.run(op.child)
        self.stats.rows_processed += child.length
        key_ids = [k.id for k in op.keys]
        members_list = self._group_members(child, key_ids)

        if not op.keys and not members_list:
            # Scalar aggregation over an empty input: one row of
            # neutral aggregate values (SQL semantics).
            return ColumnBatch({
                var.id: [0 if agg.func == "COUNT" else None]
                for var, agg in op.aggregates
            }, 1)

        group_count = len(members_list)
        columns: Dict[int, List] = {}
        for key_id in key_ids:
            source = child.columns.get(key_id)
            if source is None:
                columns[key_id] = [None] * group_count
            else:
                columns[key_id] = [source[members[0]]
                                   for members in members_list]
        for var, agg in op.aggregates:
            columns[var.id] = _aggregate_column(agg, child, members_list)
        return ColumnBatch(columns, group_count)

    @staticmethod
    def _group_members(child: ColumnBatch,
                       key_ids: List[int]) -> List[List[int]]:
        """Member row-index lists per group, in first-occurrence order.

        bools are normalized to ``("b", value)`` exactly as the row
        backends' ``_group_key`` does, keeping True distinct from 1."""
        length = child.length
        if not key_ids:
            return [list(range(length))] if length else []
        groups: Dict[object, List[int]] = {}
        members_list: List[List[int]] = []
        lookup = groups.get
        if len(key_ids) == 1:
            column = child.columns.get(key_ids[0])
            if column is None:
                return [list(range(length))] if length else []
            if _has_bool(column):
                for i, key in enumerate(column):
                    if key.__class__ is bool:
                        key = ("b", key)
                    members = lookup(key)
                    if members is None:
                        groups[key] = members = []
                        members_list.append(members)
                    members.append(i)
                return members_list
            # Bool-free column (one pre-scan): raw values are already
            # the row backends' group keys.
            for i, key in enumerate(column):
                members = lookup(key)
                if members is None:
                    groups[key] = members = []
                    members_list.append(members)
                members.append(i)
            return members_list
        key_columns = [child.columns.get(k) or [None] * length
                       for k in key_ids]
        if any(_has_bool(column) for column in key_columns):
            for i, raw in enumerate(zip(*key_columns)):
                key = tuple(
                    ("b", value) if value.__class__ is bool else value
                    for value in raw)
                members = lookup(key)
                if members is None:
                    groups[key] = members = []
                    members_list.append(members)
                members.append(i)
            return members_list
        for i, key in enumerate(zip(*key_columns)):
            members = lookup(key)
            if members is None:
                groups[key] = members = []
                members_list.append(members)
            members.append(i)
        return members_list

    # -- union --------------------------------------------------------------------

    def _run_union(self, op: LogicalUnionAll) -> ColumnBatch:
        pieces: List[List] = [[] for _ in op.outputs]
        total = 0
        for child_op, branch in zip(op.children, op.branch_columns):
            child = self.run(child_op)
            total += child.length
            for slot, source in enumerate(branch):
                column = child.columns.get(source.id)
                if column is None:
                    pieces[slot].append([None] * child.length)
                else:
                    pieces[slot].append(column)
        columns: Dict[int, List] = {}
        for var, chunks in zip(op.outputs, pieces):
            merged: List = []
            for chunk in chunks:
                merged.extend(chunk)
            columns[var.id] = merged
        return ColumnBatch(columns, total)


# -- helpers --------------------------------------------------------------------


def _has_bool(column: List) -> bool:
    """One pass deciding whether group keys need bool normalization —
    buys back the per-row tuple rebuild on the (overwhelmingly common)
    bool-free key columns."""
    return any(value.__class__ is bool for value in column)


def _combine(left: ColumnBatch, right: ColumnBatch,
             left_idx: List[int], right_idx: List[int],
             pad: bool = False) -> ColumnBatch:
    """Gather matched index pairs into one combined batch.  With
    ``pad=True`` a ``-1`` right index yields NULLs for every right
    column (LEFT JOIN padding)."""
    columns: Dict[int, List] = {}
    for cid, column in left.columns.items():
        columns[cid] = [column[i] for i in left_idx]
    if pad:
        for cid, column in right.columns.items():
            columns[cid] = [None if j < 0 else column[j]
                            for j in right_idx]
    else:
        for cid, column in right.columns.items():
            columns[cid] = [column[j] for j in right_idx]
    return ColumnBatch(columns, len(left_idx))


def _aggregate_column(agg: ex.AggExpr, child: ColumnBatch,
                      members_list: List[List[int]]) -> List:
    """One aggregate value per group, over the kernel-evaluated argument
    column.  NULL filtering, DISTINCT, and the SUM/MIN/MAX/COUNT
    reductions mirror the row backends' ``_aggregate`` exactly."""
    from repro.appliance.interpreter import _distinct  # cycle guard
    if agg.func == "COUNT" and agg.arg is None:
        return [len(members) for members in members_list]
    argument = compile_kernel(agg.arg)(child)
    length = child.length
    out = []
    append = out.append
    for members in members_list:
        if len(members) == length:
            # Whole-batch group (scalar aggregate): skip the gather.
            values = [value for value in argument if value is not None]
        else:
            values = [value for i in members
                      if (value := argument[i]) is not None]
        if agg.distinct:
            values = _distinct(values)
        if agg.func == "COUNT":
            append(len(values))
        elif not values:
            append(None)
        elif agg.func == "SUM":
            total = values[0]
            for value in values[1:]:
                total += value
            append(total)
        elif agg.func == "MIN":
            append(min(values, key=sort_key))
        elif agg.func == "MAX":
            append(max(values, key=sort_key))
        else:
            raise ExecutionError(f"unsupported aggregate {agg.func}")
    return out
