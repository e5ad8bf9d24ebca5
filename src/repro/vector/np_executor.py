"""Numpy batch-at-a-time logical-plan execution: the production
executor (``executor="numpy"``, the default).

:class:`NumpyInterpreter` subclasses
:class:`~repro.vector.executor.VectorInterpreter` and overrides every
operator with an array fast path over
:class:`~repro.vector.np_batch.ArrayBatch` fragments:

* scans columnarize the needed storage columns into typed arrays —
  repeating strings into dictionary codes — once per (table snapshot,
  column) and cache them, so repeated steps over the same fragments
  skip the transpose, the type sniff and the encoding entirely; a temp
  table the DMS runtime delivered as columns
  (:class:`~repro.vector.np_batch.ColumnFragment`) is read as it
  stands;
* filters evaluate the predicate to one boolean mask and hand on a
  batch that carries the selected row indexes; joins hand on one with
  an index vector per side.  A column is gathered the first time an
  operator reads it, so columns only the predicate read — or nothing
  reads — are never copied, and :meth:`NumpyInterpreter.run_columns`
  gathers exactly the step's output columns before it returns;
* projections run the numpy kernel compiler
  (:mod:`repro.vector.np_kernels`);
* the single-key hash join sorts the build side's int64 key column
  once (stable argsort) and probes with two ``searchsorted`` calls,
  emitting candidates in the row backends' exact order (left-major,
  matches in right-scan order) with vectorized range arithmetic;
* GROUP BY factorizes the key columns to dense group codes
  (``np.unique`` + first-occurrence reordering, mixed-radix for
  multiple keys; a dictionary-encoded string key *is* its codes) and
  aggregates with sequential C reductions — ``np.bincount`` with
  weights accumulates float SUMs left-to-right exactly like the row
  backends' ``total += value`` loop, so results are bit-identical, not
  merely close.

Every fast path checks its preconditions at runtime (column kinds,
int64 overflow headroom, NaN absence where ordering semantics differ)
and otherwise falls back to the parent's list implementation over the
native view of the columns it needs — parity first, speed where it is
safe.  Stats counters, observer events, group order, row order and
error behaviour all match the reference interpreter; the differential
suites pin them on the full TPC-H workload and on generated data.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algebra import expressions as ex
from repro.algebra.evaluator import UnboundColumn
from repro.algebra.logical import (
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    Query,
)
from repro.catalog.statistics import sort_key
from repro.common.errors import ExecutionError
from repro.vector.executor import VectorInterpreter
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    NumpyColumn,
    column_from_list,
    concat_columns,
    join_batches,
    null_column,
)
from repro.vector.np_kernels import (
    compile_np_kernel,
    compile_np_selection,
)

# -- scan columnarization cache ---------------------------------------------------
#
# Keyed by (id(rows), len(rows)): NodeStorage.insert grows a table's
# row list *in place*, so identity alone is not a fingerprint — but
# (identity, length) is, because inserts are append-only and every
# other mutation path (adopt / copy-on-write) replaces the list object.
# Entries pin the row list, so a live cache key's id cannot be reused.
# Temp-table fragments stay out: each is scanned by one step and then
# dropped, so caching them would pin dead row lists and let temp churn
# push base-table columns out of the LRU.

_SCAN_CACHE_LIMIT = 128
_SCAN_CACHE: "OrderedDict[Tuple[int, int], Tuple[List[Tuple], Dict[int, NumpyColumn]]]" = (
    OrderedDict())
_SCAN_LOCK = threading.Lock()


def clear_scan_cache() -> None:
    """Drop cached scan columns (tests / memory pressure)."""
    with _SCAN_LOCK:
        _SCAN_CACHE.clear()


def _scan_columns(rows: List[Tuple],
                  indexes: List[int]) -> Dict[int, NumpyColumn]:
    """Typed columns for the requested storage indexes, cached per
    (row-list identity, length)."""
    key = (id(rows), len(rows))
    with _SCAN_LOCK:
        entry = _SCAN_CACHE.get(key)
        if entry is None:
            entry = (rows, {})
            _SCAN_CACHE[key] = entry
            if len(_SCAN_CACHE) > _SCAN_CACHE_LIMIT:
                _SCAN_CACHE.popitem(last=False)
        else:
            _SCAN_CACHE.move_to_end(key)
        cached = entry[1]
        missing = [i for i in indexes if i not in cached]
    if missing:
        built = {i: column_from_list([row[i] for row in rows])
                 for i in missing}
        with _SCAN_LOCK:
            # Benign race: two workers may build the same column; the
            # last store wins and both results are equivalent.
            cached.update(built)
    return cached


_EMPTY_IDX = np.zeros(0, dtype=np.int64)


class NumpyInterpreter(VectorInterpreter):
    """Evaluates a bound logical tree over numpy array batches.

    Drop-in peer of the other interpreters; the DMS runtime selects it
    for ``executor="numpy"``.  Inherits ``run_query`` / ``run`` /
    dispatch and the ORDER BY / TOP ordering from
    :class:`VectorInterpreter`; the operators and the batch
    representation differ, and :meth:`run_columns` is the exit the
    others do not have.
    """

    # -- exits --------------------------------------------------------------------

    def run_columns(self, query: Query) -> ArrayBatch:
        """The columnar exit: the query's output as typed columns keyed
        by output position, ORDER BY / TOP applied — same rows, same
        order as :meth:`run_query`, no tuple built.  What a DMS step
        hands to the router and the Return step sizes before it builds
        its rows."""
        started = time.perf_counter()
        try:
            return self._output_batch(query, self.run(query.root))
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _materialize(self, query: Query, batch: ArrayBatch
                     ) -> List[Tuple]:
        return self._output_batch(query, batch).rows()

    def _output_batch(self, query: Query, batch: ArrayBatch
                      ) -> ArrayBatch:
        if query.order_by:
            # Sort keys need `sort_key` over Python values: the native
            # view of the key columns only, the parent's sort verbatim.
            keys = batch.native(var.id for var, _ in query.order_by)
            batch = batch.take(np.array(self._row_order(query, keys),
                                        dtype=np.int64))
        elif query.limit is not None and query.limit < batch.length:
            batch = batch.take(np.arange(query.limit))
        # Reading the output columns is what gathers them: the batch
        # that leaves holds each outright, and the copying is timed as
        # this step's node SQL.
        length = batch.length
        columns: Dict[int, NumpyColumn] = {}
        for position, var in enumerate(query.output_columns()):
            column = batch.columns.get(var.id)
            columns[position] = (null_column(length) if column is None
                                 else column)
        return ArrayBatch(columns, length)

    # -- operators ----------------------------------------------------------------

    def _run_get(self, op: LogicalGet) -> ArrayBatch:
        name = op.table.name.lower()
        if name not in self.tables:
            raise ExecutionError(f"table {op.table.name!r} not on this node")
        rows = self.tables[name]
        self.stats.rows_scanned += len(rows)
        indexes = [op.table.column_index(var.name) for var in op.columns]
        length = len(rows)
        if not indexes or not length:
            return ArrayBatch(
                {var.id: column_from_list([]) for var in op.columns},
                length)
        if isinstance(rows, ColumnFragment):
            # A temp the DMS runtime delivered as columns: no rows to
            # transpose, no types to sniff.
            by_index = {index: rows.column(index) for index in set(indexes)}
        elif op.table.is_temp:
            by_index = {index: column_from_list([row[index] for row in rows])
                        for index in set(indexes)}
        else:
            by_index = _scan_columns(rows, indexes)
        return ArrayBatch(
            {var.id: by_index[index]
             for var, index in zip(op.columns, indexes)},
            length)

    def _run_select(self, op: LogicalSelect) -> ArrayBatch:
        child = self.run(op.child)
        self.stats.rows_processed += child.length
        kept = np.flatnonzero(compile_np_selection(op.predicate)(child))
        if len(kept) == child.length:
            return child  # nothing filtered: batches are immutable
        return child.take(kept)

    def _run_project(self, op: LogicalProject) -> ArrayBatch:
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
            return ArrayBatch(columns, child.length)
        columns = {var.id: compile_np_kernel(expr)(child)
                   for var, expr in op.outputs}
        return ArrayBatch(columns, child.length)

    # -- join ---------------------------------------------------------------------

    def _run_join(self, op: LogicalJoin) -> ArrayBatch:
        left = self.run(op.left)
        right = self.run(op.right)
        self.stats.rows_processed += left.length + right.length
        left_ids = frozenset(var.id for var in op.left.output_columns())
        right_ids = frozenset(var.id for var in op.right.output_columns())
        pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)
        residual = op.predicate
        if pairs and len(pairs) == len(ex.conjuncts(op.predicate)):
            residual = None
        if pairs:
            left_idx, right_idx = self._np_hash_candidates(
                left, right, pairs)
        else:
            left_idx = np.repeat(np.arange(left.length, dtype=np.int64),
                                 right.length)
            right_idx = np.tile(np.arange(right.length, dtype=np.int64),
                                left.length)
        if residual is not None and len(left_idx):
            candidate = join_batches(left, right, left_idx, right_idx)
            keep = compile_np_kernel(residual)(candidate).is_true_mask()
            if not keep.all():
                left_idx = left_idx[keep]
                right_idx = right_idx[keep]
        kind = op.kind
        if kind in (JoinKind.INNER, JoinKind.CROSS):
            return join_batches(left, right, left_idx, right_idx)
        if kind is JoinKind.SEMI:
            # left_idx is non-decreasing: first occurrences are the
            # boundaries, already in left-row order.
            if not len(left_idx):
                return left.take(_EMPTY_IDX)
            firsts = np.ones(len(left_idx), dtype=np.bool_)
            firsts[1:] = left_idx[1:] != left_idx[:-1]
            return left.take(left_idx[firsts])
        if kind is JoinKind.ANTI:
            matched = np.zeros(left.length, dtype=np.bool_)
            matched[left_idx] = True
            return left.compress(~matched)
        if kind is JoinKind.LEFT:
            return self._np_left_outer(left, right, left_idx, right_idx)
        raise ExecutionError(f"unsupported join kind {kind}")

    @staticmethod
    def _np_hash_candidates(left: ArrayBatch, right: ArrayBatch,
                            pairs) -> Tuple[np.ndarray, np.ndarray]:
        """Equi-join candidate pairs as index arrays, in the row
        backends' emission order.  The sort-probe fast path requires
        both key columns int64-typed with identical kind (``i`` or
        ``d``) — identical equality semantics to the dict build;
        anything else goes through the parent's hash-dict on native
        values."""
        if len(pairs) == 1:
            lcol = left.columns.get(pairs[0][0].id)
            rcol = right.columns.get(pairs[0][1].id)
            if lcol is None or rcol is None:
                return _EMPTY_IDX, _EMPTY_IDX
            if lcol.kind == rcol.kind and lcol.kind in "id":
                return _sorted_probe(lcol, rcol)
        left_list, right_list = VectorInterpreter._hash_candidates(
            left.native(lv.id for lv, _ in pairs),
            right.native(rv.id for _, rv in pairs), pairs)
        return (np.array(left_list, dtype=np.int64),
                np.array(right_list, dtype=np.int64))

    @staticmethod
    def _np_left_outer(left: ArrayBatch, right: ArrayBatch,
                       left_idx: np.ndarray, right_idx: np.ndarray
                       ) -> ArrayBatch:
        """Vectorized merge of match pairs with NULL-padded unmatched
        left rows, preserving the pair order within each left row."""
        counts = np.bincount(left_idx, minlength=left.length)
        out_counts = np.maximum(counts, 1)
        final_left = np.repeat(
            np.arange(left.length, dtype=np.int64), out_counts)
        final_right = np.full(int(out_counts.sum()), -1, dtype=np.int64)
        if len(left_idx):
            starts = np.cumsum(out_counts) - out_counts
            pairs_before = np.cumsum(counts) - counts
            within = (np.arange(len(left_idx))
                      - np.repeat(pairs_before, counts))
            positions = np.repeat(starts, counts) + within
            final_right[positions] = right_idx
        return join_batches(left, right, final_left, final_right,
                           pad=True)

    # -- grouping -----------------------------------------------------------------

    def _run_group_by(self, op: LogicalGroupBy) -> ArrayBatch:
        child = self.run(op.child)
        self.stats.rows_processed += child.length
        key_ids = [k.id for k in op.keys]

        if not op.keys and not child.length:
            # Scalar aggregation over an empty input: one row of
            # neutral aggregate values (SQL semantics).
            return ArrayBatch({
                var.id: column_from_list(
                    [0 if agg.func == "COUNT" else None])
                for var, agg in op.aggregates
            }, 1)

        inverse, first_rows = self._factorize(child, key_ids)
        group_count = len(first_rows)
        columns: Dict[int, NumpyColumn] = {}
        for key_id in key_ids:
            source = child.columns.get(key_id)
            if source is None:
                columns[key_id] = null_column(group_count)
            else:
                columns[key_id] = source.take(first_rows)
        for var, agg in op.aggregates:
            columns[var.id] = self._np_aggregate(
                agg, child, inverse, group_count)
        return ArrayBatch(columns, group_count)

    @staticmethod
    def _factorize(child: ArrayBatch, key_ids: List[int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense group codes in first-occurrence order.

        Returns ``(inverse, first_rows)``: ``inverse[i]`` is row ``i``'s
        group code, ``first_rows[g]`` the first row of group ``g`` —
        group ``g`` appears before group ``g+1`` in the input, exactly
        the row backends' dict-insertion group order.
        """
        length = child.length
        if not key_ids:
            if not length:
                return _EMPTY_IDX, _EMPTY_IDX
            return (np.zeros(length, dtype=np.int64),
                    np.zeros(1, dtype=np.int64))
        if not length:
            return _EMPTY_IDX, _EMPTY_IDX

        combined: Optional[np.ndarray] = None
        radix = 1
        for key_id in key_ids:
            codes, cardinality = _column_codes(
                child.columns.get(key_id), child, length)
            if combined is None:
                combined = codes
            else:
                if radix * cardinality >= 2 ** 62:
                    # Mixed radix about to leave int64 (a dictionary's
                    # cardinality counts stale entries too): re-code
                    # the prefix densely, at most one code per row.
                    uniques, combined = np.unique(combined,
                                                  return_inverse=True)
                    radix = len(uniques)
                combined = combined * np.int64(cardinality) + codes
            radix *= cardinality
        uniques, first_index, inverse = np.unique(
            combined, return_index=True, return_inverse=True)
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(uniques), dtype=np.int64)
        rank[order] = np.arange(len(uniques), dtype=np.int64)
        return rank[inverse], first_index[order]

    def _np_aggregate(self, agg: ex.AggExpr, child: ArrayBatch,
                      inverse: np.ndarray,
                      group_count: int) -> NumpyColumn:
        """One aggregate value per group.  The typed reductions are
        sequential C loops (``bincount`` / ``add.at`` / ``minimum.at``
        walk the input in row order), so float accumulation order — and
        therefore every output bit — matches the row backends' per-group
        ``total += value``."""
        if agg.func == "COUNT" and agg.arg is None:
            return NumpyColumn(
                "i", np.bincount(inverse, minlength=group_count
                                 ).astype(np.int64))
        argument = compile_np_kernel(agg.arg)(child)
        kind = argument.kind
        if agg.func == "COUNT" and not agg.distinct and kind != "o":
            # Any masked kind counts its non-NULL rows the same way.
            mask = argument.mask
            return NumpyColumn("i", np.bincount(
                inverse if mask is None else inverse[~mask],
                minlength=group_count).astype(np.int64))
        if not agg.distinct and kind in "ifd":
            values = argument.values
            if kind == "f" and bool(np.isnan(values).any()):
                # NaN breaks min/max comparison parity with the row
                # backends' pairwise Python loop — let it decide.
                return self._np_aggregate_fallback(agg, argument,
                                                   inverse, group_count)
            nulls = argument.null_mask()
            has_null = bool(nulls.any())
            groups = inverse[~nulls] if has_null else inverse
            kept = values[~nulls] if has_null else values
            counts = np.bincount(groups, minlength=group_count)
            empty = counts == 0
            mask = empty if bool(empty.any()) else None
            if agg.func == "COUNT":
                return NumpyColumn("i", counts.astype(np.int64))
            if agg.func == "SUM":
                if kind == "f":
                    sums = np.bincount(groups, weights=kept,
                                       minlength=group_count)
                    return NumpyColumn("f", sums, mask)
                if kind == "i" and _int_sum_safe(kept):
                    sums = np.zeros(group_count, dtype=np.int64)
                    np.add.at(sums, groups, kept)
                    return NumpyColumn("i", sums, mask)
                return self._np_aggregate_fallback(agg, argument,
                                                   inverse, group_count)
            if agg.func in ("MIN", "MAX"):
                minimum = agg.func == "MIN"
                if kind == "f":
                    sentinel = np.inf if minimum else -np.inf
                else:
                    info = np.iinfo(np.int64)
                    sentinel = info.max if minimum else info.min
                out = np.full(group_count, sentinel, dtype=kept.dtype)
                if minimum:
                    np.minimum.at(out, groups, kept)
                else:
                    np.maximum.at(out, groups, kept)
                if mask is not None:
                    # All-NULL groups: replace the sentinel with a
                    # representable filler under the mask ("d" needs a
                    # valid ordinal for the native view).
                    out[empty] = 1 if kind == "d" else 0
                return NumpyColumn(kind, out, mask)
        return self._np_aggregate_fallback(agg, argument, inverse,
                                           group_count)

    @staticmethod
    def _np_aggregate_fallback(agg: ex.AggExpr, argument: NumpyColumn,
                               inverse: np.ndarray,
                               group_count: int) -> NumpyColumn:
        """Member-list aggregation over native values — the parent's
        ``_aggregate_column`` reduction loop verbatim (DISTINCT, bool
        arithmetic, object values, NaN ordering)."""
        from repro.appliance.interpreter import _distinct  # cycle guard
        members_list: List[List[int]] = [[] for _ in range(group_count)]
        for i, group in enumerate(inverse.tolist()):
            members_list[group].append(i)
        column = argument.pylist()
        out: List = []
        append = out.append
        for members in members_list:
            values = [value for i in members
                      if (value := column[i]) is not None]
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
                raise ExecutionError(
                    f"unsupported aggregate {agg.func}")
        return column_from_list(out)

    # -- union --------------------------------------------------------------------

    def _run_union(self, op: LogicalUnionAll) -> ArrayBatch:
        slots: List[List[Tuple[Optional[NumpyColumn], int]]] = [
            [] for _ in op.outputs]
        total = 0
        for child_op, branch in zip(op.children, op.branch_columns):
            child = self.run(child_op)
            total += child.length
            for slot, source in enumerate(branch):
                slots[slot].append(
                    (child.columns.get(source.id), child.length))
        columns: Dict[int, NumpyColumn] = {}
        for var, pieces in zip(op.outputs, slots):
            columns[var.id] = concat_columns(pieces)
        return ArrayBatch(columns, total)


# -- helpers --------------------------------------------------------------------


def _sorted_probe(lcol: NumpyColumn, rcol: NumpyColumn
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs for one int64 key pair via sort + searchsorted.

    A stable argsort of the build (right) keys keeps equal keys in
    right-scan order, so the slice ``lo[i]:hi[i]`` for probe row ``i``
    enumerates its matches exactly as the dict bucket would; emitting
    probe rows in order makes the result left-major.  NULL keys (the
    masks) never match, as in the dict build/probe.
    """
    rvalues = rcol.values
    if rcol.mask is not None and rcol.mask.any():
        rvalid = np.flatnonzero(~rcol.mask)
        rvalues = rvalues[rvalid]
    else:
        rvalid = None
    if not len(rvalues):
        return _EMPTY_IDX, _EMPTY_IDX
    order = np.argsort(rvalues, kind="stable")
    sorted_keys = rvalues[order]
    right_map = order if rvalid is None else rvalid[order]

    lvalues = lcol.values
    lo = np.searchsorted(sorted_keys, lvalues, side="left")
    hi = np.searchsorted(sorted_keys, lvalues, side="right")
    counts = hi - lo
    if lcol.mask is not None:
        counts = np.where(lcol.mask, 0, counts)
    total = int(counts.sum())
    if not total:
        return _EMPTY_IDX, _EMPTY_IDX
    left_idx = np.repeat(
        np.arange(len(lvalues), dtype=np.int64), counts)
    pairs_before = np.cumsum(counts) - counts
    offsets = (np.arange(total, dtype=np.int64)
               - np.repeat(pairs_before, counts)
               + np.repeat(lo, counts))
    return left_idx, right_map[offsets].astype(np.int64)


def _int_sum_safe(values: np.ndarray) -> bool:
    """Whether summing these int64 values can be proven not to
    overflow (conservative magnitude × count bound)."""
    if not len(values):
        return True
    bound = max(abs(int(values.min())), abs(int(values.max())))
    return bound * len(values) < 2 ** 62


def _column_codes(column: Optional[NumpyColumn], child: ArrayBatch,
                  length: int) -> Tuple[np.ndarray, int]:
    """Injective int64 codes for one key column (NULL gets its own
    code).  Code *order* is arbitrary — the caller re-factorizes the
    combined codes into first-occurrence order."""
    if column is None:
        return np.zeros(length, dtype=np.int64), 1
    kind = column.kind
    if kind == "b":
        codes = column.values.astype(np.int64)
        if column.mask is not None:
            codes = np.where(column.mask, np.int64(2), codes)
        return codes, 3
    if kind in "ifds":
        values = column.values
        if kind == "f" and bool(np.isnan(values).any()):
            # NaN group keys: dict semantics (identity/equality) do
            # not match np.unique's NaN handling — use the dict loop.
            return _object_codes(column.pylist())
        if kind == "s":
            # Dictionary codes are injective already (entries are
            # duplicate-free); stale entries only leave gaps.
            codes, cardinality = values, len(column.dictionary)
        else:
            uniques, inverse = np.unique(values, return_inverse=True)
            codes = inverse.astype(np.int64)
            cardinality = len(uniques)
        if column.mask is not None:
            codes = np.where(column.mask, np.int64(cardinality), codes)
            cardinality += 1
        return codes, cardinality
    return _object_codes(column.pylist())


def _object_codes(values: List) -> Tuple[np.ndarray, int]:
    """Dict-insertion codes over native values, with the row backends'
    bool normalization (True stays distinct from 1)."""
    codes = np.empty(len(values), dtype=np.int64)
    table: Dict[object, int] = {}
    next_code = 0
    for i, value in enumerate(values):
        if value.__class__ is bool:
            value = ("b", value)
        code = table.get(value)
        if code is None:
            table[value] = code = next_code
            next_code += 1
        codes[i] = code
    return codes, max(next_code, 1)
