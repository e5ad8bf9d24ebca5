"""Numpy batch-at-a-time logical-plan execution: the production
executor (``executor="numpy"``, the default).

:class:`NumpyInterpreter` runs every operator over
:class:`~repro.vector.np_batch.ArrayBatch` fragments — and runs a tree
**once for a whole node group**: every node of a DSQL step runs the
same SQL over its own fragment, so the fragments are stacked in node
order and each batch carries ``bounds`` placing its rows on the nodes
(none when every node holds the whole batch: a replicated input, a
group of one).  Filters and projections never look at them; joins,
grouping, UNION ALL and per-node ORDER BY / TOP take the node as a
leading segment, so a node's rows stay contiguous and come out exactly
as its own run would have produced them (DESIGN §5c):

* scans read the typed columns node storage holds
  (:class:`~repro.vector.np_batch.ColumnFragment`) as they stand — a
  load encoded a base table's columns, repeating strings as dictionary
  codes, and a DMS step's output never stopped being columns — so no
  scan transposes rows, sniffs types or encodes anything; a table
  stored once for all its nodes (hash-distributed, or a shuffle's
  output) is read whole, with its node bounds, no concat;
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
  emitting candidates in the reference interpreter's exact order
  (left-major, matches in right-scan order) with vectorized range
  arithmetic; two placed sides match on (segment, key) folded into one
  int64; other keys go through one hash dict over native values;
* GROUP BY factorizes the key columns to dense group codes
  (``np.unique`` + first-occurrence reordering, mixed-radix for
  multiple keys with the segment as the leading digit; a
  dictionary-encoded string key *is* its codes) and aggregates with
  sequential C reductions — ``np.bincount`` with weights accumulates
  float SUMs left-to-right exactly like the reference interpreter's
  ``total += value`` loop, so results are bit-identical, not merely
  close.

Every fast path checks its preconditions at runtime (column kinds,
int64 overflow headroom, NaN absence where ordering semantics differ)
and otherwise falls back to a loop over the native view of the columns
it needs (the list kernels of :mod:`repro.vector.kernels` for
expressions) — parity first, speed where it is safe.  Stats counters,
observer events, group order, row order and error behaviour all match
the reference interpreter; the differential suites pin them on the full
TPC-H workload and on generated data.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
from repro.catalog.schema import DistributionKind
from repro.catalog.statistics import sort_key
from repro.common.errors import ExecutionError
from repro.vector.column_batch import ColumnBatch
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    NumpyColumn,
    column_from_list,
    concat_columns,
    join_batches,
    null_column,
    offsets,
    segment_ids,
    stacked_fragments,
)
from repro.vector.np_kernels import (
    compile_np_kernel,
    compile_np_selection,
)

def _table_fragment(tables: Mapping, name: str) -> ColumnFragment:
    """``tables[name]``, table names compared case-insensitively (node
    storage keys are lower-cased already)."""
    lowered = name.lower()
    fragment = tables.get(lowered)
    if fragment is None:
        for key, fragment in tables.items():
            if key.lower() == lowered:
                break
        else:
            raise ExecutionError(f"table {name!r} not on this node")
    return fragment


def _fragment_column(fragments: Sequence[ColumnFragment],
                     index: int) -> NumpyColumn:
    """Column ``index`` of ``fragments`` stacked in order."""
    if len(fragments) == 1:
        return fragments[0].column(index)
    return concat_columns([(fragment.column(index), len(fragment))
                           for fragment in fragments])


_EMPTY_IDX = np.zeros(0, dtype=np.int64)


class NumpyInterpreter:
    """Evaluates a bound logical tree over numpy array batches, once
    for a whole **node group**.

    ``tables`` is one node's table map or a list of them, one per node
    of the group in node order; ``observer`` likewise one observer or
    one per node.  Every node runs the same tree over its own
    fragments, so the group runs it once over the fragments stacked:
    each batch carries ``bounds`` placing its rows on the nodes — or
    none when every node holds the whole batch (a replicated input; a
    group of one) — and every operator keeps the invariant that a
    node's rows are contiguous, in node order, and exactly the rows in
    exactly the order its own run would have produced (DESIGN §5c).
    Counters count what the nodes would have counted: a node-invariant
    batch of ``k`` rows is ``k`` rows on each node.

    Drop-in peer of :class:`~repro.appliance.interpreter.
    PlanInterpreter` (same constructor shape for a single table map,
    same ``run_query``, same ``InterpreterStats`` counters, same
    postorder ``observer.record(op, rows_out)`` protocol); the DMS
    runtime selects it for ``executor="numpy"``.  :meth:`run_columns`
    is the exit the oracle does not have.
    """

    def __init__(self, tables, stats=None, observer=None):
        if stats is None:
            # Imported here (not at module level): the appliance package
            # imports this module for executor dispatch, so a top-level
            # import back into it would be circular.
            from repro.appliance.interpreter import InterpreterStats
            stats = InterpreterStats()
        self.stats = stats
        # The maps are read as given (:func:`_table_fragment` folds
        # case on a miss): no per-node copy per step.
        group = tables if isinstance(tables, (list, tuple)) else [tables]
        self.node_tables: Sequence[Mapping] = group
        self.node_count = len(group)
        if observer is not None and not isinstance(observer,
                                                    (list, tuple)):
            observer = [observer]
        self.observers: Optional[Sequence] = observer

    def run(self, op: LogicalOp) -> ArrayBatch:
        batch = self._dispatch(op)
        if self.observers is not None:
            for observer, rows in zip(self.observers,
                                      batch.node_rows(self.node_count)):
                observer.record(op, rows)
        return batch

    def _dispatch(self, op: LogicalOp) -> ArrayBatch:
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

    def _rows_on_nodes(self, batch: ArrayBatch) -> int:
        """The batch's rows summed over the nodes holding them."""
        if batch.bounds is None:
            return batch.length * self.node_count
        return batch.length

    # -- exits --------------------------------------------------------------------

    def run_query(self, query: Query) -> List[Tuple]:
        """Execute a bound query, honoring ORDER BY and TOP: the rows of
        :meth:`run_columns`, node by node in node order."""
        return self.run_columns(query).rows()

    def run_columns(self, query: Query) -> ArrayBatch:
        """The columnar exit: the query's output as typed columns keyed
        by output position, each node's ORDER BY / TOP applied to its
        own rows — no tuple built.  What a DMS step hands to the router
        and the Return step sizes before it builds its rows."""
        started = time.perf_counter()
        try:
            return self._output_batch(query, self.run(query.root))
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _output_batch(self, query: Query, batch: ArrayBatch
                      ) -> ArrayBatch:
        # ORDER BY and TOP are per node: every segment on its own.
        bounds = batch.bounds
        spans = ([0, batch.length] if bounds is None
                 else bounds.tolist())
        if query.order_by:
            # Sort keys need `sort_key` over Python values: the native
            # view of the key columns only, and the reference sort (and
            # TOP) over each node's slice of them.
            keys = batch.native(var.id for var, _ in query.order_by)
            order: List[int] = []
            counts = []
            for start, stop in zip(spans, spans[1:]):
                part = keys if stop - start == batch.length else (
                    ColumnBatch({cid: column[start:stop] for cid, column
                                 in keys.columns.items()}, stop - start))
                rows = _row_order(query, part)
                counts.append(len(rows))
                order.extend([row + start for row in rows] if start
                             else rows)
            batch = batch.take(
                np.array(order, dtype=np.int64),
                None if bounds is None else offsets(counts))
        elif query.limit is not None and query.limit < batch.length:
            counts = np.minimum(np.diff(spans), query.limit)
            batch = batch.take(
                _ranges(np.array(spans[:-1], dtype=np.int64), counts),
                None if bounds is None else offsets(counts))
        # Reading the output columns is what gathers them: the batch
        # that leaves holds each outright, and the copying is timed as
        # this step's node SQL.
        length = batch.length
        columns: Dict[int, NumpyColumn] = {}
        for position, var in enumerate(query.output_columns()):
            column = batch.columns.get(var.id)
            columns[position] = (null_column(length) if column is None
                                 else column)
        return ArrayBatch(columns, length, batch.bounds)

    # -- operators ----------------------------------------------------------------

    def _run_get(self, op: LogicalGet) -> ArrayBatch:
        group = self.node_tables
        fragments = [_table_fragment(tables, op.table.name)
                     for tables in group]
        # Every node holds a replicated table whole: one scan stands
        # for all of them.
        invariant = (len(group) == 1 or op.table.distribution.kind
                     is DistributionKind.REPLICATED)
        if invariant:
            del fragments[1:]
        lengths = [len(fragment) for fragment in fragments]
        length = sum(lengths)
        bounds = None if invariant else offsets(lengths)
        self.stats.rows_scanned += (length * len(group) if invariant
                                    else length)
        indexes = [op.table.column_index(var.name) for var in op.columns]
        if not indexes or not length:
            return ArrayBatch(
                {var.id: column_from_list([]) for var in op.columns},
                length, bounds)
        stacked = stacked_fragments(fragments)
        if stacked is not None:
            # A table stored once for all its nodes (a hash-distributed
            # load, a shuffle's output): nothing to concat.
            by_index = stacked.columns
        else:
            by_index = {index: _fragment_column(fragments, index)
                        for index in set(indexes)}
        return ArrayBatch(
            {var.id: by_index[index]
             for var, index in zip(op.columns, indexes)},
            length, bounds)

    def _run_select(self, op: LogicalSelect) -> ArrayBatch:
        child = self.run(op.child)
        self.stats.rows_processed += self._rows_on_nodes(child)
        kept = np.flatnonzero(compile_np_selection(op.predicate)(child))
        if len(kept) == child.length:
            return child  # nothing filtered: batches are immutable
        return child.select(kept)

    def _run_project(self, op: LogicalProject) -> ArrayBatch:
        child = self.run(op.child)
        self.stats.rows_processed += self._rows_on_nodes(child)
        if all(isinstance(expr, ex.ColumnVar) for _, expr in op.outputs):
            if all(var.id == expr.id for var, expr in op.outputs):
                return child  # pure column pruning: pass through
            try:
                columns = {var.id: child.columns[expr.id]
                           for var, expr in op.outputs}
            except KeyError as exc:
                raise UnboundColumn(exc.args[0]) from None
            return ArrayBatch(columns, child.length, child.bounds)
        columns = {var.id: compile_np_kernel(expr)(child)
                   for var, expr in op.outputs}
        return ArrayBatch(columns, child.length, child.bounds)

    # -- join ---------------------------------------------------------------------

    def _run_join(self, op: LogicalJoin) -> ArrayBatch:
        left = self.run(op.left)
        right = self.run(op.right)
        self.stats.rows_processed += (self._rows_on_nodes(left)
                                      + self._rows_on_nodes(right))
        # A node-invariant right side joins every node's left rows as
        # it stands.  Two placed sides match within a node only: the
        # segment becomes one more key.  (An invariant left over a
        # placed right is spelled out per node first — the output is
        # left-major.)
        lseg = rseg = None
        if right.bounds is not None:
            left = left.segmented(self.node_count)
            lseg = segment_ids(left.bounds)
            rseg = segment_ids(right.bounds)
        left_ids = frozenset(var.id for var in op.left.output_columns())
        right_ids = frozenset(var.id for var in op.right.output_columns())
        pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)
        residual = op.predicate
        if pairs and len(pairs) == len(ex.conjuncts(op.predicate)):
            residual = None
        if pairs:
            left_idx, right_idx = self._np_hash_candidates(
                left, right, pairs, lseg, rseg)
        elif lseg is not None:
            # Nested loop within each node: a left row meets its own
            # node's right rows.
            counts = np.diff(right.bounds)[lseg]
            left_idx = np.repeat(
                np.arange(left.length, dtype=np.int64), counts)
            right_idx = _ranges(right.bounds[:-1][lseg], counts)
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
                return left.select(_EMPTY_IDX)
            firsts = np.ones(len(left_idx), dtype=np.bool_)
            firsts[1:] = left_idx[1:] != left_idx[:-1]
            return left.select(left_idx[firsts])
        if kind is JoinKind.ANTI:
            matched = np.zeros(left.length, dtype=np.bool_)
            matched[left_idx] = True
            return left.compress(~matched)
        if kind is JoinKind.LEFT:
            return self._np_left_outer(left, right, left_idx, right_idx)
        raise ExecutionError(f"unsupported join kind {kind}")

    @staticmethod
    def _np_hash_candidates(left: ArrayBatch, right: ArrayBatch, pairs,
                            lseg: Optional[np.ndarray] = None,
                            rseg: Optional[np.ndarray] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Equi-join candidate pairs as index arrays, in the reference
        interpreter's emission order; with segment vectors, pairs within
        one node only.  The sort-probe fast path requires both key
        columns int64-typed with identical kind (``i`` or ``d``) —
        identical equality semantics to the dict build; anything else
        goes through :func:`_dict_candidates` on native values, the
        segment as one more key.  A missing key column is all-NULL:
        nothing matches."""
        lcols = [left.columns.get(lv.id) for lv, _ in pairs]
        rcols = [right.columns.get(rv.id) for _, rv in pairs]
        if any(column is None for column in (*lcols, *rcols)):
            return _EMPTY_IDX, _EMPTY_IDX
        if len(pairs) == 1:
            lcol, rcol = lcols[0], rcols[0]
            if lcol.kind == rcol.kind and lcol.kind in "id":
                return _sorted_probe(lcol, rcol, lseg, rseg)
        left_keys = [column.pylist() for column in lcols]
        right_keys = [column.pylist() for column in rcols]
        if lseg is not None:
            left_keys.append(lseg.tolist())
            right_keys.append(rseg.tolist())
        return _dict_candidates(left_keys, right_keys)

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
            positions = _ranges(starts, counts)
            final_right[positions] = right_idx
        return join_batches(left, right, final_left, final_right,
                           pad=True)

    # -- grouping -----------------------------------------------------------------

    def _run_group_by(self, op: LogicalGroupBy) -> ArrayBatch:
        child = self.run(op.child)
        self.stats.rows_processed += self._rows_on_nodes(child)
        key_ids = [k.id for k in op.keys]
        # Every node groups its own rows: over a placed batch the
        # segment is the leading key — and a keyless aggregate's only
        # one, so a node without rows still answers with its row.
        nodes = self.node_count
        segments = (None if child.bounds is None
                    else segment_ids(child.bounds))

        if not op.keys:
            group_count = 1 if segments is None else nodes
            bounds = (None if segments is None
                      else np.arange(nodes + 1, dtype=np.int64))
            if not child.length:
                # Scalar aggregation over an empty input: one row of
                # neutral aggregate values (SQL semantics) per node.
                return ArrayBatch({
                    var.id: column_from_list(
                        [0 if agg.func == "COUNT" else None]
                        * group_count)
                    for var, agg in op.aggregates
                }, group_count, bounds)
            inverse = (np.zeros(child.length, dtype=np.int64)
                       if segments is None else segments)
            first_rows = _EMPTY_IDX
        else:
            inverse, first_rows = self._factorize(child, key_ids,
                                                  segments, nodes)
            group_count = len(first_rows)
            # First-occurrence order over node-major rows is
            # node-major.
            bounds = (None if segments is None else np.searchsorted(
                segments[first_rows], np.arange(nodes + 1)
            ).astype(np.int64, copy=False))
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
        return ArrayBatch(columns, group_count, bounds)

    @staticmethod
    def _factorize(child: ArrayBatch, key_ids: List[int],
                   segments: Optional[np.ndarray] = None,
                   node_count: int = 1
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense group codes in first-occurrence order, for at least
        one key.

        Returns ``(inverse, first_rows)``: ``inverse[i]`` is row ``i``'s
        group code, ``first_rows[g]`` the first row of group ``g`` —
        group ``g`` appears before group ``g+1`` in the input, exactly
        the reference interpreter's dict-insertion group order.  ``segments``
        (each row's node) is the leading radix digit: a key value on
        two nodes is two groups.
        """
        length = child.length
        if not length:
            return _EMPTY_IDX, _EMPTY_IDX

        combined = segments
        radix = node_count
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
        therefore every output bit — matches the reference
        interpreter's per-group ``total += value``."""
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
                    zero = sums == 0
                    if zero.any():
                        # bincount starts every group at +0.0; the row
                        # backends start at the first value, so a group
                        # of nothing but -0.0 sums to -0.0.
                        negative = np.bincount(
                            groups[np.signbit(kept) & (kept == 0)],
                            minlength=group_count)
                        sums[zero & (negative == counts) & ~empty] = -0.0
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
        """Member-list aggregation over native values — the reference
        interpreter's ``_aggregate`` reduction verbatim (DISTINCT, bool
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
        children = [self.run(child_op) for child_op in op.children]
        order = bounds = None
        if any(child.bounds is not None for child in children):
            # A node's output is its own rows of every branch, branch
            # after branch: concatenate the branches (invariant ones
            # spelled out per node), then regroup by node, stably.
            children = [child.segmented(self.node_count)
                        for child in children]
            order = np.argsort(
                np.concatenate([segment_ids(child.bounds)
                                for child in children]), kind="stable")
            bounds = np.sum([child.bounds for child in children], axis=0)
        slots: List[List[Tuple[Optional[NumpyColumn], int]]] = [
            [] for _ in op.outputs]
        total = 0
        for child, branch in zip(children, op.branch_columns):
            total += child.length
            for slot, source in enumerate(branch):
                slots[slot].append(
                    (child.columns.get(source.id), child.length))
        columns: Dict[int, NumpyColumn] = {}
        for var, pieces in zip(op.outputs, slots):
            columns[var.id] = concat_columns(pieces)
        batch = ArrayBatch(columns, total)
        if order is not None:
            batch = batch.take(order, bounds)
        return batch


# -- helpers --------------------------------------------------------------------


def _row_order(query: Query, batch: ColumnBatch) -> List[int]:
    """The query's ORDER BY (stable, per-key, NULLs first via
    ``sort_key``) and TOP as a list of row indexes into ``batch`` — a
    batch of just the sort-key columns, as native values."""
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


def _dict_candidates(left_keys: List[List], right_keys: List[List]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join candidate pairs over native key columns through one
    hash dict, in the reference interpreter's emission order
    (left-major, each bucket in right-scan order).  A NULL in any key
    never matches."""
    left_idx: List[int] = []
    right_idx: List[int] = []
    table: Dict[object, List[int]] = {}
    if len(left_keys) == 1:
        # One key: the bare values are the dict keys, no tuple per row.
        lookup = table.get
        for j, value in enumerate(right_keys[0]):
            if value is not None:
                bucket = lookup(value)
                if bucket is None:
                    table[value] = [j]
                else:
                    bucket.append(j)
        if table:
            extend_left = left_idx.extend
            extend_right = right_idx.extend
            for i, value in enumerate(left_keys[0]):
                if value is not None:
                    bucket = lookup(value)
                    if bucket:
                        extend_left([i] * len(bucket))
                        extend_right(bucket)
    else:
        for j, key in enumerate(zip(*right_keys)):
            if any(value is None for value in key):
                continue
            table.setdefault(key, []).append(j)
        if table:
            for i, key in enumerate(zip(*left_keys)):
                if any(value is None for value in key):
                    continue
                bucket = table.get(key)
                if bucket:
                    left_idx.extend([i] * len(bucket))
                    right_idx.extend(bucket)
    return (np.array(left_idx, dtype=np.int64),
            np.array(right_idx, dtype=np.int64))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + counts[k])`` for every ``k``,
    concatenated."""
    before = np.cumsum(counts) - counts
    return (np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(starts - before, counts))


def _segment_keys(lvalues: np.ndarray, rvalues: np.ndarray,
                  lseg: np.ndarray, rseg: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """One int64 key per row that is equal exactly when segment and
    value both are: ``segment · span + (value − min)`` while that fits,
    else over dense ranks of the values of both sides."""
    nodes = int(max(lseg[-1], rseg[-1])) + 1
    low = min(int(lvalues.min()), int(rvalues.min()))
    span = max(int(lvalues.max()), int(rvalues.max())) - low + 1
    if span * nodes < 2 ** 62:
        low = np.int64(low)
    else:
        uniques, ranks = np.unique(np.concatenate((lvalues, rvalues)),
                                   return_inverse=True)
        ranks = ranks.astype(np.int64, copy=False)
        lvalues, rvalues = ranks[:len(lvalues)], ranks[len(lvalues):]
        low, span = np.int64(0), len(uniques)
    span = np.int64(span)
    return lseg * span + (lvalues - low), rseg * span + (rvalues - low)


def _sorted_probe(lcol: NumpyColumn, rcol: NumpyColumn,
                  lseg: Optional[np.ndarray] = None,
                  rseg: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs for one int64 key pair via sort + searchsorted.

    A stable argsort of the build (right) keys keeps equal keys in
    right-scan order, so the slice ``lo[i]:hi[i]`` for probe row ``i``
    enumerates its matches exactly as the dict bucket would; emitting
    probe rows in order makes the result left-major.  NULL keys (the
    masks) never match, as in the dict build/probe.  With segment
    vectors the key is (segment, value): rows pair within a node only,
    and a node's matches come in its own right-scan order.
    """
    lvalues, rvalues = lcol.values, rcol.values
    if not len(lvalues) or not len(rvalues):
        return _EMPTY_IDX, _EMPTY_IDX
    if lseg is not None:
        lvalues, rvalues = _segment_keys(lvalues, rvalues, lseg, rseg)
    if rcol.mask is not None and rcol.mask.any():
        rvalid = np.flatnonzero(~rcol.mask)
        rvalues = rvalues[rvalid]
        if not len(rvalues):
            return _EMPTY_IDX, _EMPTY_IDX
    else:
        rvalid = None
    order = np.argsort(rvalues, kind="stable")
    sorted_keys = rvalues[order]
    right_map = order if rvalid is None else rvalid[order]

    lo = np.searchsorted(sorted_keys, lvalues, side="left")
    hi = np.searchsorted(sorted_keys, lvalues, side="right")
    counts = hi - lo
    if lcol.mask is not None:
        counts = np.where(lcol.mask, 0, counts)
    if not counts.any():
        return _EMPTY_IDX, _EMPTY_IDX
    left_idx = np.repeat(
        np.arange(len(lvalues), dtype=np.int64), counts)
    return left_idx, right_map[_ranges(lo, counts)].astype(np.int64)


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
    """Dict-insertion codes over native values, with the reference
    interpreter's bool normalization (True stays distinct from 1)."""
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
