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
  load encoded a base table's columns, strings as dictionary codes,
  and a DMS step's output never stopped being columns — so no
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
* every equality between values — equi-join keys, GROUP BY keys,
  DISTINCT aggregate arguments — is decided by one key encoder,
  :func:`_key_codes`: one int64 code per row, equal exactly when the
  segments and every key value are (mixed radix, the segment as the
  leading digit; a dictionary-encoded string key *is* its codes).  The
  codes are dense — every code below a cardinality of at most
  :data:`CODES_PER_ROW` per row, a sparser key re-coded by one
  ``np.unique`` — so every consumer indexes tables by code
  (``tests/vector/test_key_codes.py`` pins the bound and holds the
  consumers to the sort-based ones they replaced);
* the hash join encodes both sides' keys in one code space and reads
  each probe row's matches off two tables indexed by code — the build
  side's count per code and each code's start in the build side's
  stable (radix) sort by code — emitting candidates in the reference
  interpreter's exact order (left-major, matches in right-scan order)
  with vectorized range arithmetic (:func:`_dense_probe`);
* GROUP BY numbers the key codes in first-occurrence order off a table
  of each code's first row, a DISTINCT aggregate keeps those first
  rows of each (group, value) (:func:`_first_occurrences`), and both
  aggregate with sequential C reductions — ``np.bincount`` with
  weights accumulates float SUMs left-to-right exactly like the
  reference interpreter's ``total += value`` loop, so results are
  bit-identical, not merely close.

Every fast path checks its preconditions at runtime (column kinds,
int64 overflow headroom, NaN absence where ordering semantics differ)
and otherwise falls back to a loop over the native view of the columns
it needs (for expressions, the evaluator itself, row by row) — parity
first, speed where it is safe.  Stats counters,
observer events, group order, row order and error behaviour all match
the reference interpreter; the differential suites pin them on the full
TPC-H workload and on generated data.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
        and the Return step sizes and hands to the control node."""
        started = time.perf_counter()
        try:
            return self._output_batch(query, self.run(query.root))
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _output_batch(self, query: Query, batch: ArrayBatch
                      ) -> ArrayBatch:
        # ORDER BY and TOP are per node: every segment on its own.
        if query.order_by or (query.limit is not None
                              and query.limit < batch.length):
            columns = batch.columns
            order, bounds = order_rows(
                [(columns[var.id], ascending)
                 for var, ascending in query.order_by
                 if var.id in columns],  # an absent key is all NULL
                batch.length, batch.bounds, query.limit)
            batch = batch.take(order, bounds)
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
        # segment becomes the leading key.  (An invariant left over a
        # placed right is spelled out per node first — the output is
        # left-major.)
        if right.bounds is not None:
            left = left.segmented(self.node_count)
        left_ids = frozenset(var.id for var in op.left.output_columns())
        right_ids = frozenset(var.id for var in op.right.output_columns())
        pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)
        residual = op.predicate
        if pairs and len(pairs) == len(ex.conjuncts(op.predicate)):
            residual = None
        if pairs:
            left_idx, right_idx = self._np_hash_candidates(left, right,
                                                           pairs)
        elif right.bounds is not None:
            # Nested loop within each node: a left row meets its own
            # node's right rows.
            lseg = segment_ids(left.bounds)
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
    def _np_hash_candidates(left: ArrayBatch, right: ArrayBatch, pairs
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Equi-join candidate pairs as index arrays, in the reference
        interpreter's emission order.  Each key pair is encoded jointly
        — both sides in one code space, under the oracle's dict
        equality — with two placed sides' segments as the leading
        digit, so rows pair within one node only; rows with a NULL in
        any key are dropped and :func:`_dense_probe` pairs the rest.
        A missing key column is all-NULL: nothing matches."""
        lcols = [left.columns.get(lv.id) for lv, _ in pairs]
        rcols = [right.columns.get(rv.id) for _, rv in pairs]
        split = left.length
        if (not split or not right.length
                or any(column is None for column in (*lcols, *rcols))):
            return _EMPTY_IDX, _EMPTY_IDX
        segments, node_count = None, 1
        if right.bounds is not None:
            node_count = len(right.bounds) - 1
            segments = np.concatenate((segment_ids(left.bounds),
                                       segment_ids(right.bounds)))
        codes, cardinality, nulls = _key_codes(
            list(zip(lcols, rcols)), split + right.length, segments,
            node_count, bools_apart=False)
        lkeys, rkeys = codes[:split], codes[split:]
        if nulls is None or not nulls.any():
            return _dense_probe(lkeys, rkeys, cardinality)
        lrows = np.flatnonzero(~nulls[:split])
        rrows = np.flatnonzero(~nulls[split:])
        left_idx, right_idx = _dense_probe(lkeys[lrows], rkeys[rrows],
                                           cardinality)
        return lrows[left_idx], rrows[right_idx]

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
        # Rows per group, counted at most once, on the first read:
        # COUNT(*) and every aggregate over a NULL-free argument read it.
        counted: List[np.ndarray] = []

        def counts() -> np.ndarray:
            if not counted:
                counted.append(_group_counts(inverse, group_count))
            return counted[0]

        for var, agg in op.aggregates:
            columns[var.id] = self._np_aggregate(
                agg, child, inverse, group_count, counts)
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
        the reference interpreter's dict-insertion group order.  The key
        codes are :func:`_key_codes` under GROUP BY's equality (NULL is
        a value, ``True`` is not ``1``); ``segments`` (each row's node)
        is their leading digit: a key value on two nodes is two groups.
        """
        length = child.length
        if not length:
            return _EMPTY_IDX, _EMPTY_IDX
        codes, cardinality, _ = _key_codes(
            [(child.columns.get(key_id),) for key_id in key_ids],
            length, segments, node_count, bools_apart=True)
        return _first_occurrences(codes, cardinality)

    def _np_aggregate(self, agg: ex.AggExpr, child: ArrayBatch,
                      inverse: np.ndarray, group_count: int,
                      group_counts: Optional[Callable[[], np.ndarray]]
                      ) -> NumpyColumn:
        """One aggregate value per group.  The typed reductions are
        sequential C loops (``bincount`` / ``add.at`` / ``minimum.at``
        walk the input in row order), so float accumulation order — and
        therefore every output bit — matches the reference
        interpreter's per-group ``total += value``.  A DISTINCT
        aggregate is the same aggregate over the first row of each
        (group, value), NULLs dropped, in row order — the oracle's
        ``_distinct`` — under its set equality (``True == 1 == 1.0``).
        ``group_counts()`` is the rows of each group
        (:func:`_group_counts`, counted at most once per GROUP BY, on
        its first call): the counts of COUNT(*) and of every aggregate
        whose argument holds no NULL."""
        if agg.func == "COUNT" and agg.arg is None:
            return NumpyColumn("i", group_counts().astype(np.int64))
        argument = compile_np_kernel(agg.arg)(child)
        if agg.distinct:
            codes, cardinality, nulls = _key_codes(
                [(argument,)], len(argument), inverse, group_count,
                bools_apart=False)
            _, rows = _first_occurrences(codes, cardinality)
            if nulls is not None:
                rows = rows[~nulls[rows]]
            argument, inverse = argument.take(rows), inverse[rows]
            group_counts = None  # the distinct rows' counts differ
        kind = argument.kind
        nulls = None
        if (agg.func == "COUNT" or kind in "ifd") \
                and (kind == "o" or argument.mask is not None):
            nulls = argument.null_mask()
            if bool(nulls.any()):
                group_counts = None  # the non-NULL rows' counts differ
            else:
                nulls = None
        if agg.func == "COUNT":
            counts = (group_counts() if group_counts is not None
                      else _group_counts(
                          inverse if nulls is None else inverse[~nulls],
                          group_count))
            return NumpyColumn("i", counts.astype(np.int64))
        if kind in "ifd":
            values = argument.values
            if kind == "f" and bool(np.isnan(values).any()):
                # NaN breaks min/max comparison parity with the row
                # backends' pairwise Python loop — let it decide.
                return self._np_aggregate_fallback(agg, argument,
                                                   inverse, group_count)
            groups = inverse if nulls is None else inverse[~nulls]
            kept = values if nulls is None else values[~nulls]
            counts = (group_counts() if group_counts is not None
                      else _group_counts(groups, group_count))
            empty = counts == 0
            mask = empty if bool(empty.any()) else None
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
        """Member-list SUM / MIN / MAX over native values — the
        reference interpreter's ``_aggregate`` reduction verbatim (bool
        arithmetic, object values, NaN ordering)."""
        members_list: List[List[int]] = [[] for _ in range(group_count)]
        for i, group in enumerate(inverse.tolist()):
            members_list[group].append(i)
        column = argument.pylist()
        out: List = []
        append = out.append
        for members in members_list:
            values = [value for i in members
                      if (value := column[i]) is not None]
            if not values:
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


def order_rows(keys: Sequence[Tuple[NumpyColumn, bool]], length: int,
               bounds: Optional[np.ndarray] = None,
               limit: Optional[int] = None
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """ORDER BY ``keys`` — ``(column, ascending)`` pairs, first key
    first — then TOP ``limit``, over each segment of ``length`` rows
    with ``bounds`` (one segment when ``None``) on its own: the kept
    rows' indexes, segment by segment, and their bounds.

    The order is :func:`~repro.catalog.statistics.sort_key`'s, each key
    a stable sort (DESC as ``reverse=True``: ties keep their order), so
    it is one stable ``np.lexsort`` over a numeric key per column
    (:func:`_lexsort_keys`) with the segment as the leading key.  A key
    with no such image — an object column, floats holding NaN (which
    ``sort_key`` leaves unordered) — takes the ``sort_key`` loop."""
    lexsort_keys = _lexsort_keys(keys)
    if lexsort_keys is None:
        order = _sort_key_order(keys, length, bounds)
    elif lexsort_keys:
        if bounds is not None and len(bounds) > 2:
            lexsort_keys.append(segment_ids(bounds))
        order = np.lexsort(lexsort_keys)
    else:
        order = np.arange(length, dtype=np.int64)
    if limit is None:
        return order, bounds
    if bounds is None:
        return order[:limit], None
    counts = np.minimum(np.diff(bounds), limit)
    return order[_ranges(bounds[:-1], counts)], offsets(counts)


def _lexsort_keys(keys: Sequence[Tuple[NumpyColumn, bool]]
                  ) -> Optional[List[np.ndarray]]:
    """``np.lexsort`` keys (least significant first) ordering rows as
    ``sort_key`` orders ``keys``' values, or ``None`` when one of them
    has no numeric image.  A column holds one kind, so a value's image
    is its number — bool, int and float on one float axis, a date's
    ordinal, a string's rank among its dictionary's entries (code
    point order, ranked once per dictionary) — and a NULL is its own
    most significant key, below every value; DESC negates both."""
    lexsort_keys: List[np.ndarray] = []
    for column, ascending in reversed(keys):
        kind, values, mask = column.kind, column.values, column.mask
        if kind == "f":
            nan = np.isnan(values)
            if mask is not None:
                nan &= ~mask
            if nan.any():
                return None
            key = values
        elif kind == "i" or kind == "b":
            key = values.astype(np.float64)
        elif kind == "d":
            key = values
        elif kind == "s":
            key = column.dictionary.derived("rank", _entry_ranks)[values]
        else:
            return None
        if mask is not None and mask.any():
            # Every NULL ties with every other, whatever its slot holds.
            key = np.where(mask, 0, key)
            lexsort_keys.append(key if ascending else -key)
            lexsort_keys.append(~mask if ascending else mask)
        else:
            lexsort_keys.append(key if ascending else -key)
    return lexsort_keys


def _entry_ranks(entries: np.ndarray) -> np.ndarray:
    """Each dictionary entry's dense rank in code point order (equal
    strings, should a dictionary hold any, share one)."""
    return np.unique(entries, return_inverse=True)[1].astype(
        np.int64, copy=False)


def _sort_key_order(keys: Sequence[Tuple[NumpyColumn, bool]],
                    length: int, bounds: Optional[np.ndarray]
                    ) -> np.ndarray:
    """:func:`order_rows`' order by one stable ``sort_key`` sort per
    key, last key first, over each segment's native values."""
    columns = [(column.pylist(), ascending) for column, ascending in keys]
    spans = [0, length] if bounds is None else bounds.tolist()
    order: List[int] = []
    for start, stop in zip(spans, spans[1:]):
        rows = list(range(start, stop))
        for values, ascending in reversed(columns):
            rows.sort(key=lambda i: sort_key(values[i]),
                      reverse=not ascending)
        order.extend(rows)
    return np.array(order, dtype=np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + counts[k])`` for every ``k``,
    concatenated."""
    before = np.cumsum(counts) - counts
    return (np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(starts - before, counts))


def _dense_probe(lkeys: np.ndarray, rkeys: np.ndarray, cardinality: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs for one code space's dense key codes (every code
    below ``cardinality``) through tables indexed by code.

    ``counts[c]`` is the build (right) side's rows holding code ``c``
    and ``starts[c]`` the first of them in the build side's stable sort
    by code, so probe row ``i``'s matches are a gather of ``n =
    counts[lkeys[i]]`` rows from ``starts[lkeys[i]]`` — right-scan
    order, exactly as the reference dict bucket enumerates them;
    emitting probe rows in order makes the result left-major.  A
    duplicate-free build side needs no sort: a code's one row is
    scattered to its slot.
    """
    if not len(lkeys) or not len(rkeys):
        return _EMPTY_IDX, _EMPTY_IDX
    counts = np.bincount(rkeys, minlength=cardinality)
    matches = counts[lkeys]
    if not matches.any():
        return _EMPTY_IDX, _EMPTY_IDX
    if counts.max() == 1:
        row = np.empty(cardinality, dtype=np.int64)
        row[rkeys] = np.arange(len(rkeys), dtype=np.int64)
        left_idx = np.flatnonzero(matches)
        return left_idx, row[lkeys[left_idx]]
    order = _radix_order(rkeys, cardinality)
    ordered = rkeys[order]
    # Each code's start is the running sum of ``counts``, read off the
    # heads of the sorted codes' runs: no sequential pass over every
    # code (a cumsum over the table costs more than the radix sort).
    heads = np.flatnonzero(np.diff(ordered, prepend=-1))
    starts = np.zeros(cardinality, dtype=np.int64)
    starts[ordered[heads]] = heads
    left_idx = np.repeat(np.arange(len(lkeys), dtype=np.int64), matches)
    return left_idx, order[_ranges(starts[lkeys], matches)]


def _radix_order(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """The stable sort permutation of codes below ``cardinality``: an
    LSD radix sort over 16-bit digits, one pass per digit — numpy's
    stable sort of ``uint16`` is a radix sort (of wider integers a
    timsort, ~5× slower on 7 500 rows)."""
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    shift = 16
    while cardinality > 1 << shift:
        digit = (codes[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _first_occurrences(codes: np.ndarray, cardinality: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """``(inverse, first_rows)`` for dense codes (every code below
    ``cardinality``): each row's code numbered in first-occurrence
    order, and the first row holding each code present, in row order.  A
    table of each code's first row (one ``minimum.at`` over the rows),
    read back per row: a row is a first row when it is its code's, and
    the running count of first rows is the numbering — no sort."""
    length = len(codes)
    rows = np.arange(length, dtype=np.int64)
    first = np.full(cardinality, length, dtype=np.int64)
    np.minimum.at(first, codes, rows)
    row_first = first[codes]
    is_first = row_first == rows
    return (np.cumsum(is_first) - 1)[row_first], np.flatnonzero(is_first)


def _group_counts(groups: np.ndarray, group_count: int) -> np.ndarray:
    """Rows per group code: the one ``np.bincount`` a GROUP BY counts
    its groups with."""
    return np.bincount(groups, minlength=group_count)


def _int_sum_safe(values: np.ndarray) -> bool:
    """Whether summing these int64 values can be proven not to
    overflow (conservative magnitude × count bound)."""
    if not len(values):
        return True
    bound = max(abs(int(values.min())), abs(int(values.max())))
    return bound * len(values) < 2 ** 62


# -- the key encoder ------------------------------------------------------------


#: The density bound on key codes: :func:`_key_codes` hands its
#: consumers at most this many codes per row, so a table indexed by
#: code costs a small multiple of the rows.  A sparser key is re-coded
#: by one ``np.unique``.  DESIGN §5b "Dense codes": on pdwbench's key
#: shapes the earliest crossover against that sort is a join's, between
#: 7 and 14 codes per row, and at 16 a DISTINCT's table showed in peak
#: memory.
CODES_PER_ROW = 8


def _key_codes(columns: Sequence[Sequence[Optional[NumpyColumn]]],
               length: int, segments: Optional[np.ndarray],
               node_count: int, bools_apart: bool
               ) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """``(codes, cardinality, nulls)`` for a key of several columns:
    one int64 code per row, every code in ``[0, cardinality)`` with
    ``cardinality`` at most :data:`CODES_PER_ROW` per row (at least 1),
    and the rows holding a NULL in any column (``None`` when none do).

    Each entry of ``columns`` is one key column as pieces whose rows,
    stacked, are the ``length`` rows — a join's two sides, encoded in
    one code space; one column otherwise (``None`` = missing = all
    NULL).  Two rows get equal codes exactly when their ``segments``
    (values below ``node_count``; ``None`` = one segment) are equal and
    each key value is equal under the equality rule: with
    ``bools_apart`` GROUP BY's (``True`` is not ``1``), else the
    oracle's dict and set equality that joins and DISTINCT use
    (``True == 1 == 1.0``).  NULL has a code of its own; callers for
    which NULL equals nothing drop the NULL rows.  The codes are mixed
    radix, the segment as the leading digit, re-coded by
    :func:`_dense_recode` when sparse; their order means nothing.
    """
    if not length:
        return _EMPTY_IDX, 1, None
    combined, nulls = segments, None
    radix = 1 if segments is None else node_count
    for pieces in columns:
        codes, cardinality, mask = _column_codes(pieces, length, radix,
                                                 bools_apart)
        if mask is not None:
            nulls = mask if nulls is None else nulls | mask
        if combined is None:
            combined = codes
        else:
            if radix * cardinality >= 2 ** 62:
                # Mixed radix about to leave int64 (a dictionary's
                # cardinality counts stale entries too).
                combined, radix = _dense_recode(combined)
            combined = combined * np.int64(cardinality)
            combined += codes
        radix *= cardinality
    if radix > CODES_PER_ROW * length:
        combined, radix = _dense_recode(combined)
    return combined, radix, nulls


def _dense_recode(codes: np.ndarray) -> Tuple[np.ndarray, int]:
    """``codes`` as dense ranks, at most one code per row, and their
    cardinality."""
    uniques, ranks = np.unique(codes, return_inverse=True)
    return ranks, len(uniques)


def _column_codes(pieces: Sequence[Optional[NumpyColumn]], length: int,
                  radix: int, bools_apart: bool
                  ) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """``(codes, cardinality, nulls)`` for one key column over
    ``pieces`` stacked: injective codes below ``cardinality``, NULL
    one more value, ``nulls`` its rows (``None`` when no piece has a
    NULL).  ``i`` / ``d`` values are ``value − min`` over every piece
    while ``span · radix < 2^62``, else dense ranks; other pieces are
    first made one column by :func:`concat_columns` (one merged
    dictionary; pieces of different kinds rebuilt through native
    values).  ``s`` are its dictionary codes, ``b`` 0 / 1, ``f``
    without NaN ``np.unique`` ranks (``-0.0`` is ``0.0``); object
    values and NaN take :func:`_object_codes` (NaN, a fresh object per
    row, equals nothing)."""
    first = pieces[0]
    if first is None:
        return (np.zeros(length, dtype=np.int64), 1,
                np.ones(length, dtype=np.bool_))
    kind = first.kind
    if kind in "id" and all(piece.kind == kind for piece in pieces):
        nulls = None
        if any(piece.mask is not None for piece in pieces):
            nulls = np.concatenate([piece.null_mask() for piece in pieces])
        low = min(int(piece.values.min()) for piece in pieces)
        span = max(int(piece.values.max()) for piece in pieces) - low + 1
        if span * radix < 2 ** 62:
            cardinality = span
            codes = np.empty(length, dtype=np.int64)
            start = 0
            for piece in pieces:
                stop = start + len(piece)
                np.subtract(piece.values, low, out=codes[start:stop])
                start = stop
        else:
            uniques, codes = np.unique(
                np.concatenate([piece.values for piece in pieces]),
                return_inverse=True)
            cardinality = len(uniques)
    else:
        column = first if len(pieces) == 1 else concat_columns(
            [(piece, len(piece)) for piece in pieces])
        kind = column.kind
        if kind in "id":
            # Pieces of different kinds whose values are all one type.
            return _column_codes([column], length, radix, bools_apart)
        nulls = column.mask
        if kind == "s":
            # Dictionary entries are duplicate-free: the codes are
            # injective already (stale entries only leave gaps).
            codes, cardinality = column.values, len(column.dictionary)
        elif kind == "b":
            codes, cardinality = column.values.astype(np.int64), 2
        elif kind == "f" and not np.isnan(column.values).any():
            uniques, codes = np.unique(column.values, return_inverse=True)
            cardinality = len(uniques)
        else:
            return _object_codes(column.pylist(), bools_apart)
    if nulls is None:
        return codes.astype(np.int64, copy=False), cardinality, None
    return (np.where(nulls, np.int64(cardinality), codes),
            cardinality + 1, nulls)


def _object_codes(values: List, bools_apart: bool
                  ) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """Dict-insertion codes over native values — the oracle's own
    comparison: its dict and set (``True == 1 == 1.0``, NaN equal only
    to the same object), or with ``bools_apart`` GROUP BY's
    ``_group_key`` (``True`` stays distinct from ``1``).  ``None`` is
    one more value; returns ``(codes, cardinality, NULL rows)``."""
    if bools_apart:
        values = [("b", value) if value.__class__ is bool else value
                  for value in values]
    table: Dict[object, int] = {}
    code_of = table.setdefault
    codes = np.fromiter((code_of(value, len(table)) for value in values),
                        np.int64, len(values))
    null = table.get(None)
    return (codes, max(len(table), 1),
            None if null is None else codes == null)
