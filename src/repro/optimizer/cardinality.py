"""Cardinality and selectivity estimation.

Paper §2.5 step 2(c): *"Estimation of the size of intermediate results for
each of the execution alternatives.  These estimations are based on the
size of base tables and statistics on the column values."*

:class:`StatsContext` maps bound column variables back to shell-database
statistics (histograms, distinct counts, average widths).  Estimators
follow the classic System-R shapes with histogram refinement:

* equality with a constant — histogram bucket density, else ``1/distinct``;
* ranges — histogram interpolation, else magic 0.30;
* equi-joins — ``1 / max(d_left, d_right)`` (containment assumption);
* group-by — distinct-product capped by input cardinality.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
)
from repro.catalog.shell_db import ShellDatabase
from repro.catalog.statistics import ColumnStats

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_GUESS_SELECTIVITY = 0.33


class StatsContext:
    """Statistics lookup for bound column variables.

    ``var_origins`` maps a variable id to its base ``(table, column)`` when
    the variable came straight from a Get; derived variables (aggregates,
    computed projections) have no origin and fall back to defaults.
    """

    def __init__(self, shell: ShellDatabase):
        self.shell = shell
        self.var_origins: Dict[int, Tuple[str, str]] = {}
        self.var_widths: Dict[int, float] = {}

    def register_get(self, get: LogicalGet) -> None:
        """Record origins/widths for the variables a Get produces."""
        for var in get.columns:
            self.var_origins[var.id] = (get.table.name, var.name)
            if self.shell.has_column_stats(get.table.name, var.name):
                stats = self.shell.column_stats(get.table.name, var.name)
                self.var_widths[var.id] = stats.avg_width
            else:
                self.var_widths[var.id] = float(var.sql_type.width)

    def register_tree(self, root: LogicalOp) -> None:
        if isinstance(root, LogicalGet):
            self.register_get(root)
        for child in root.children:
            self.register_tree(child)

    def register_derived(self, var: ex.ColumnVar) -> None:
        self.var_widths.setdefault(var.id, float(var.sql_type.width))

    def stats_for(self, var_id: int) -> Optional[ColumnStats]:
        origin = self.var_origins.get(var_id)
        if origin is None:
            return None
        table, column = origin
        if not self.shell.has_column_stats(table, column):
            return None
        return self.shell.column_stats(table, column)

    def width_of(self, var: ex.ColumnVar) -> float:
        width = self.var_widths.get(var.id)
        if width is None:  # the type's width only on a miss
            width = float(var.sql_type.width)
        return width

    def row_width(self, vars: Iterable[ex.ColumnVar]) -> float:
        return sum(self.width_of(v) for v in vars) or 4.0

    def distinct_of(self, var_id: int, fallback_rows: float) -> float:
        stats = self.stats_for(var_id)
        if stats is not None and stats.distinct_count > 0:
            return stats.distinct_count
        return max(1.0, fallback_rows / 10.0)


def predicate_selectivity(predicate: Optional[ex.ScalarExpr],
                          context: StatsContext,
                          input_rows: float) -> float:
    """Selectivity of a predicate against rows of known statistics.

    Range conjuncts on the same column (``d >= x AND d < y``) are combined
    into a single histogram range estimate instead of being multiplied as
    if independent — the latter grossly over-counts narrow date windows.
    """
    if predicate is None:
        return 1.0
    conjs = ex.conjuncts(predicate)
    if not conjs:
        return 1.0
    remaining, ranges = _extract_column_ranges(conjs)
    selectivity = 1.0
    for var_id, (low, low_inc, high, high_inc) in ranges.items():
        selectivity *= _range_selectivity(var_id, low, low_inc, high,
                                          high_inc, context)
    for conj in remaining:
        selectivity *= _conjunct_selectivity(conj, context, input_rows)
    return max(1e-9, min(1.0, selectivity))


def _extract_column_ranges(conjs):
    """Split conjuncts into (others, per-column combined range bounds).

    Only columns with *both* a lower and an upper constant bound are
    combined; single-sided comparisons keep the per-conjunct path."""
    from repro.catalog.statistics import sort_key

    bounds: Dict[int, list] = {}
    attributed: Dict[int, list] = {}
    for conj in conjs:
        comparison = None
        if isinstance(conj, ex.Comparison) and conj.op in ("<", "<=",
                                                           ">", ">="):
            left, right = conj.left, conj.right
            if isinstance(left, ex.ColumnVar) and isinstance(
                    right, ex.Constant) and right.value is not None:
                comparison = (left.id, conj.op, right.value)
            elif isinstance(right, ex.ColumnVar) and isinstance(
                    left, ex.Constant) and left.value is not None:
                flipped = conj.flipped()
                comparison = (flipped.left.id, flipped.op,
                              flipped.right.value)
        if comparison is None:
            continue
        var_id, op, value = comparison
        entry = bounds.setdefault(var_id, [None, True, None, True])
        if op in (">", ">="):
            if entry[0] is None or sort_key(value) > sort_key(entry[0]):
                entry[0], entry[1] = value, op == ">="
        else:
            if entry[2] is None or sort_key(value) < sort_key(entry[2]):
                entry[2], entry[3] = value, op == "<="
        attributed.setdefault(var_id, []).append(conj)

    ranges = {}
    consumed = set()
    for var_id, entry in bounds.items():
        if entry[0] is not None and entry[2] is not None:
            ranges[var_id] = tuple(entry)
            consumed.update(id(c) for c in attributed[var_id])
    remaining = [c for c in conjs if id(c) not in consumed]
    return remaining, ranges


def _range_selectivity(var_id: int, low, low_inc, high, high_inc,
                       context: StatsContext) -> float:
    stats = context.stats_for(var_id)
    if stats is None or not stats.histogram.buckets:
        return DEFAULT_RANGE_SELECTIVITY
    hist = stats.histogram
    total = max(1.0, hist.total_count)
    rows = hist.estimate_range(low, high, low_inclusive=low_inc,
                               high_inclusive=high_inc)
    return min(1.0, max(0.0, rows / total))


def _conjunct_selectivity(conj: ex.ScalarExpr, context: StatsContext,
                          input_rows: float) -> float:
    if isinstance(conj, ex.Constant):
        if conj.value is False or conj.value is None:
            return 0.0
        return 1.0

    if isinstance(conj, ex.Comparison):
        return _comparison_selectivity(conj, context, input_rows)

    if isinstance(conj, ex.BoolOp) and conj.op == "OR":
        result = 0.0
        for arg in conj.args:
            s = _conjunct_selectivity(arg, context, input_rows)
            result = result + s - result * s
        return result

    if isinstance(conj, ex.NotExpr):
        operand = conj.operand
        if isinstance(operand, ex.InListExpr):
            # NOT (x IN (..., NULL)) is x NOT IN (..., NULL): never TRUE.
            return _conjunct_selectivity(
                ex.InListExpr(operand.operand, operand.values,
                              not operand.negated), context, input_rows)
        return 1.0 - _conjunct_selectivity(operand, context, input_rows)

    if isinstance(conj, ex.LikeExpr):
        base = _like_selectivity(conj, context)
        return 1.0 - base if conj.negated else base

    if isinstance(conj, ex.InListExpr):
        if conj.negated and any(value is None for value in conj.values):
            return 0.0  # x NOT IN (..., NULL) is never TRUE
        base = _in_list_selectivity(conj, context, input_rows)
        return 1.0 - base if conj.negated else base

    if isinstance(conj, ex.IsNullExpr):
        base = _null_fraction(conj.operand, context)
        return 1.0 - base if conj.negated else base

    return DEFAULT_GUESS_SELECTIVITY


def _comparison_selectivity(conj: ex.Comparison, context: StatsContext,
                            input_rows: float) -> float:
    left, right = conj.left, conj.right
    if isinstance(right, ex.ColumnVar) and isinstance(left, ex.Constant):
        conj = conj.flipped()
        left, right = conj.left, conj.right

    if isinstance(left, ex.ColumnVar) and isinstance(right, ex.Constant):
        return _column_vs_constant(conj.op, left, right.value, context,
                                   input_rows)

    if isinstance(left, ex.ColumnVar) and isinstance(right, ex.ColumnVar):
        if conj.op == "=":
            d_left = context.distinct_of(left.id, input_rows)
            d_right = context.distinct_of(right.id, input_rows)
            return 1.0 / max(d_left, d_right, 1.0)
        return DEFAULT_RANGE_SELECTIVITY

    if conj.op == "=":
        return DEFAULT_EQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def _column_vs_constant(op: str, var: ex.ColumnVar, value,
                        context: StatsContext, input_rows: float) -> float:
    stats = context.stats_for(var.id)
    if stats is None or stats.row_count <= 0:
        if op == "=":
            return 1.0 / max(1.0, context.distinct_of(var.id, input_rows))
        if op == "<>":
            return 1.0 - 1.0 / max(1.0, context.distinct_of(var.id, input_rows))
        return DEFAULT_RANGE_SELECTIVITY

    hist = stats.histogram
    # Histograms may be built from a sample; fractions are computed
    # against the histogram's own mass, not the table row count.
    total = (hist.total_count if hist.buckets
             else max(1.0, stats.row_count - stats.null_count))
    total = max(1.0, total)
    if op == "=":
        if hist.buckets:
            return min(1.0, hist.estimate_eq(value) / total)
        return 1.0 / max(1.0, stats.distinct_count)
    if op == "<>":
        if hist.buckets:
            return 1.0 - min(1.0, hist.estimate_eq(value) / total)
        return 1.0 - 1.0 / max(1.0, stats.distinct_count)
    if not hist.buckets:
        return DEFAULT_RANGE_SELECTIVITY
    if op in ("<", "<="):
        rows = hist.estimate_le(value)
        if op == "<":
            rows -= hist.estimate_eq(value)
        return min(1.0, max(0.0, rows / total))
    if op in (">", ">="):
        rows = total - hist.estimate_le(value)
        if op == ">=":
            rows += hist.estimate_eq(value)
        return min(1.0, max(0.0, rows / total))
    return DEFAULT_RANGE_SELECTIVITY


def _like_selectivity(conj: ex.LikeExpr, context: StatsContext) -> float:
    pattern = conj.pattern
    if pattern and "%" not in pattern and "_" not in pattern:
        # Exact match in disguise.
        if isinstance(conj.operand, ex.ColumnVar):
            stats = context.stats_for(conj.operand.id)
            if stats is not None and stats.distinct_count > 0:
                return 1.0 / stats.distinct_count
        return DEFAULT_EQ_SELECTIVITY
    if pattern.endswith("%") and "%" not in pattern[:-1] and "_" not in pattern:
        # Prefix match: roughly proportional to prefix length.
        prefix = pattern[:-1]
        return max(0.001, DEFAULT_LIKE_SELECTIVITY / max(1, len(prefix) - 2))
    return DEFAULT_LIKE_SELECTIVITY


def _in_list_selectivity(conj: ex.InListExpr, context: StatsContext,
                         input_rows: float) -> float:
    # A NULL member matches no row: only the others count.
    members = sum(value is not None for value in conj.values)
    if not isinstance(conj.operand, ex.ColumnVar):
        return min(1.0, DEFAULT_EQ_SELECTIVITY * members)
    per_value = 1.0 / max(1.0, context.distinct_of(conj.operand.id, input_rows))
    return min(1.0, per_value * members)


def _null_fraction(operand: ex.ScalarExpr, context: StatsContext) -> float:
    if isinstance(operand, ex.ColumnVar):
        stats = context.stats_for(operand.id)
        if stats is not None:
            return stats.null_fraction
    return 0.05


def estimate_operator_cardinality(op: LogicalOp, context: StatsContext,
                                  child_cards: Tuple[float, ...],
                                  child_vars) -> float:
    """Cardinality of ``op`` given its children's estimates.

    ``child_vars`` is the list of each child's output variables (needed
    for join column attribution).
    """
    if isinstance(op, LogicalGet):
        return float(max(0, op.table.row_count))

    if isinstance(op, LogicalSelect):
        rows = child_cards[0]
        return rows * predicate_selectivity(op.predicate, context, rows)

    if isinstance(op, LogicalProject):
        return child_cards[0]

    if isinstance(op, LogicalJoin):
        return _join_cardinality(op, context, child_cards, child_vars)

    if isinstance(op, LogicalGroupBy):
        return _group_by_cardinality(op, context, child_cards[0])

    # UnionAll and anything else additive.
    return sum(child_cards)


def _join_cardinality(op: LogicalJoin, context: StatsContext,
                      child_cards, child_vars) -> float:
    left_rows, right_rows = child_cards
    if op.kind is JoinKind.CROSS or op.predicate is None:
        return left_rows * right_rows

    left_ids = frozenset(v.id for v in child_vars[0])
    right_ids = frozenset(v.id for v in child_vars[1])
    pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)

    selectivity = 1.0
    matched = set()
    for left_var, right_var in pairs:
        d_left = context.distinct_of(left_var.id, left_rows)
        d_right = context.distinct_of(right_var.id, right_rows)
        selectivity *= 1.0 / max(d_left, d_right, 1.0)
        matched.add(ex.Comparison("=", left_var, right_var))
        matched.add(ex.Comparison("=", right_var, left_var))
    for conj in ex.conjuncts(op.predicate):
        if conj in matched:
            continue
        if (isinstance(conj, ex.Comparison) and conj.op == "="
                and conj.flipped() in matched):
            continue
        selectivity *= _conjunct_selectivity(conj, context,
                                             left_rows * right_rows)
    selectivity = max(1e-12, min(1.0, selectivity))

    if op.kind in (JoinKind.INNER, JoinKind.LEFT):
        raw = left_rows * right_rows * selectivity
        if op.kind is JoinKind.LEFT:
            raw = max(raw, left_rows)
        return raw
    if op.kind is JoinKind.SEMI:
        return left_rows * min(1.0, selectivity * max(right_rows, 1.0))
    if op.kind is JoinKind.ANTI:
        return left_rows * max(0.0, 1.0 - selectivity * max(right_rows, 1.0))
    return left_rows * right_rows * selectivity


def _group_by_cardinality(op: LogicalGroupBy, context: StatsContext,
                          input_rows: float) -> float:
    if not op.keys:
        return 1.0 if input_rows > 0 else 0.0
    groups = 1.0
    for key in op.keys:
        groups *= context.distinct_of(key.id, input_rows)
        if groups > input_rows:
            break
    return max(0.0, min(groups, input_rows))
