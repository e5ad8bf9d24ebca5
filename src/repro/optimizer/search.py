"""The serial optimizer driver: explore, implement, cost, extract.

This plays the role of the SQL Server Query Optimizer in the paper's
architecture (Figure 2, box 2): it simplifies the input tree, builds the
MEMO, runs logical exploration (all equivalent join orders, group-by /
join reordering), adds physical alternatives, and hands the whole MEMO
to the PDW side; the best *serial* plan is extracted only when read.

Exploration details:

* **Join-order enumeration** — maximal regions of inner/cross joins are
  enumerated with dynamic programming over connected sub-sets (bushy
  trees included), inserting every decomposition into the MEMO.  Equality
  predicates are first closed transitively (the paper's "join transitivity
  closure detection", §4), which is what lets Q20 consider joining
  ``part`` directly to ``lineitem``.
* **Timeout / seeding** — §3.1: for very large spaces SQL Server uses a
  timeout and the initial plans seeded into the MEMO dominate the result.
  When a region exceeds ``config.exhaustive_join_limit`` we fall back to
  greedy left-deep enumeration, optionally *seeded* with a
  distribution-aware order that prefers collocated joins
  (``config.seed_collocated_joins``).
* **Group-by pushdown** (invariant grouping) — rewrites
  ``GroupBy(X) ⋈ R`` into ``GroupBy(X ⋈ R)`` when R is duplicate-free on
  the join columns and the join only touches grouping keys.  Q20's plan
  (Figure 7) needs this to join ``part`` with ``lineitem`` *below* the
  partial aggregation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algebra import expressions as ex
from repro.algebra import physical as phys
from repro.algebra.logical import (
    AggPhase,
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    Query,
    detached_groupby,
    detached_join,
)
from repro.algebra.physical import PlanNode
from repro.algebra.properties import ColumnEquivalence
from repro.catalog.schema import DistributionKind
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import OptimizerError
from repro.optimizer.binder import Binder
from repro.optimizer.cardinality import StatsContext
from repro.optimizer.cost import DEFAULT_SERIAL_COST_MODEL, SerialCostModel
from repro.optimizer.implementation import implement_memo
from repro.optimizer.memo import Group, GroupExpression, Memo
from repro.optimizer.normalize import normalize
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer


@dataclass
class OptimizerConfig:
    """Knobs for the serial search."""

    exhaustive_join_limit: int = 10
    enable_groupby_pushdown: bool = True
    groupby_pushdown_rounds: int = 3
    enable_aggregate_split: bool = True
    seed_collocated_joins: bool = True
    cost_model: SerialCostModel = field(
        default_factory=lambda: DEFAULT_SERIAL_COST_MODEL)


@dataclass
class OptimizationResult:
    """Everything downstream consumers need.

    The PDW side reads the MEMO, not the best serial plan (§2.5), so the
    plan is extracted on its first read, with ``serial_cost_model``.
    """

    query: Query
    memo: Memo
    root_group: int
    stats: StatsContext
    equivalence: ColumnEquivalence
    serial_cost_model: SerialCostModel
    _serial_plan: Optional[PlanNode] = field(
        default=None, init=False, repr=False, compare=False)
    _serial_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False)

    @property
    def best_serial_plan(self) -> PlanNode:
        """The §2.5 baseline's input, extracted once on first read."""
        if self._serial_plan is None:
            with self._serial_lock:
                if self._serial_plan is None:
                    self._serial_plan = extract_best_serial_plan(
                        self.memo, self.root_group, self.serial_cost_model)
        return self._serial_plan

    @property
    def best_serial_cost(self) -> float:
        return self.best_serial_plan.cost


class SerialOptimizer:
    """Normalize → memoize → explore → implement → cost."""

    def __init__(self, shell: ShellDatabase,
                 config: Optional[OptimizerConfig] = None,
                 tracer: Tracer = NULL_TRACER):
        self.shell = shell
        self.config = config or OptimizerConfig()
        self.tracer = tracer

    # -- public API -----------------------------------------------------------

    def optimize_sql(self, sql: str) -> OptimizationResult:
        with self.tracer.span("parse"):
            statement = parse_query(sql)
        with self.tracer.span("bind"):
            query = Binder(self.shell.catalog).bind(statement)
        return self.optimize_query(query)

    def optimize_query(self, query: Query) -> OptimizationResult:
        tracer = self.tracer
        with tracer.span("normalize"):
            query = normalize(query)
        stats = StatsContext(self.shell)
        stats.register_tree(query.root)
        memo = Memo(stats)
        root_group = memo.insert_tree(query.root)

        equivalence = ColumnEquivalence()
        self._collect_equalities(query.root, equivalence)

        with tracer.span("explore") as span:
            self._explore_join_regions(memo, query.root, equivalence)
            if self.config.enable_groupby_pushdown:
                self._explore_groupby_pushdown(memo)
            if self.config.enable_aggregate_split:
                self._explore_aggregate_splits(memo)
            if tracer.enabled:
                span.set("groups", len(memo.canonical_groups()))
                span.set("logical_expressions",
                         memo.expression_count(logical_only=True))
        with tracer.span("implement"):
            implement_memo(memo)

        return OptimizationResult(
            query=query,
            memo=memo,
            root_group=memo.find(root_group),
            stats=stats,
            equivalence=equivalence,
            serial_cost_model=self.config.cost_model,
        )

    # -- equivalence ----------------------------------------------------------

    def _collect_equalities(self, op: LogicalOp,
                            equivalence: ColumnEquivalence) -> None:
        if isinstance(op, LogicalSelect):
            equivalence.add_from_predicate(op.predicate)
        if isinstance(op, LogicalJoin) and op.kind in (JoinKind.INNER,
                                                       JoinKind.SEMI):
            equivalence.add_from_predicate(op.predicate)
        if isinstance(op, LogicalProject):
            for var, expr in op.outputs:
                if isinstance(expr, ex.ColumnVar):
                    equivalence.add_equality(var.id, expr.id)
        for child in op.children:
            self._collect_equalities(child, equivalence)

    # -- join-region exploration ------------------------------------------------

    def _explore_join_regions(self, memo: Memo, op: LogicalOp,
                              equivalence: ColumnEquivalence,
                              inside_region: bool = False) -> None:
        is_region_op = (isinstance(op, LogicalJoin)
                        and op.kind in (JoinKind.INNER, JoinKind.CROSS))
        if is_region_op and not inside_region:
            leaves, conjuncts = _collect_region(op)
            for leaf in leaves:
                self._explore_join_regions(memo, leaf, equivalence, False)
            if len(leaves) >= 2:
                self._enumerate_region(memo, op, leaves, conjuncts,
                                       equivalence)
            return
        for child in op.children:
            self._explore_join_regions(memo, child, equivalence,
                                       inside_region=False)

    def _enumerate_region(self, memo: Memo, region_root: LogicalJoin,
                          leaves: List[LogicalOp],
                          conjuncts: List[ex.ScalarExpr],
                          equivalence: ColumnEquivalence) -> None:
        leaf_groups = [memo.insert_tree(leaf) for leaf in leaves]
        leaf_cols = [
            frozenset(v.id for v in memo.group(g).output_vars)
            for g in leaf_groups
        ]
        region = _RegionProblem(memo, leaf_groups, leaf_cols, conjuncts,
                                equivalence)
        n = len(leaves)
        if n <= self.config.exhaustive_join_limit:
            full_group = region.enumerate_exhaustive()
        else:
            full_group = region.enumerate_greedy(
                seed_collocated=self.config.seed_collocated_joins)
        original_root_group = memo.insert_tree(region_root)
        memo.merge_equivalent(original_root_group, full_group)

    # -- group-by pushdown -------------------------------------------------------

    def _explore_groupby_pushdown(self, memo: Memo) -> None:
        for _ in range(self.config.groupby_pushdown_rounds):
            if not self._groupby_pushdown_round(memo):
                break

    def _groupby_pushdown_round(self, memo: Memo) -> bool:
        changed = False
        for group in list(memo.canonical_groups()):
            group = memo.group(group.id)
            for expr in list(group.expressions):
                if not expr.is_logical or not isinstance(expr.op, LogicalJoin):
                    continue
                if expr.op.kind is not JoinKind.INNER:
                    continue
                if self._try_push_join_below_groupby(memo, group, expr):
                    changed = True
        return changed

    def _try_push_join_below_groupby(self, memo: Memo, group: Group,
                                     join_expr: GroupExpression) -> bool:
        """Attempt GroupBy(X) ⋈ R  →  GroupBy'(X ⋈ R) for either side."""
        join_op: LogicalJoin = join_expr.op
        predicate = join_op.predicate
        if predicate is None:
            return False
        changed = False
        for gb_index in (0, 1):
            gb_group = memo.group(join_expr.children[gb_index])
            other_group_id = memo.find(join_expr.children[1 - gb_index])
            other_group = memo.group(other_group_id)
            other_ids = frozenset(v.id for v in other_group.output_vars)
            for gb_expr in list(gb_group.logical_expressions):
                if not isinstance(gb_expr.op, LogicalGroupBy):
                    continue
                gb_op: LogicalGroupBy = gb_expr.op
                if not gb_op.keys:
                    continue
                key_ids = frozenset(k.id for k in gb_op.keys)
                allowed = key_ids | other_ids
                if not set(predicate.columns_used()) <= allowed:
                    continue
                pairs = ex.equi_join_pairs(predicate, key_ids, other_ids)
                if not pairs:
                    continue
                other_join_cols = {right.id for _, right in pairs}
                if not _group_duplicate_free_on(memo, other_group_id,
                                                other_join_cols):
                    continue
                child_group = memo.find(gb_expr.children[0])
                new_join = detached_join(JoinKind.INNER, predicate)
                join_group = memo.group_for_expression(
                    new_join, (child_group, other_group_id))
                if memo.find(join_group) == memo.find(group.id):
                    continue
                new_keys = list(gb_op.keys) + [
                    v for v in other_group.output_vars
                    if v.id not in key_ids
                ]
                new_gb = detached_groupby(new_keys, gb_op.aggregates)
                before = len(memo.group(group.id).expressions)
                memo.add_expression(group.id, new_gb, (join_group,),
                                    is_logical=True)
                if len(memo.group(group.id).expressions) != before:
                    changed = True
        return changed


    # -- local/global aggregation split ------------------------------------------

    def _explore_aggregate_splits(self, memo: Memo) -> None:
        """Add GlobalGB(LocalGB(X)) alternatives for every complete GroupBy.

        SQL Server's exploration generates these partial-aggregation
        alternatives; the PDW preprocessor later fixes the partial groups'
        cardinalities for the appliance topology (Figure 4, step 02) and
        the PDW enumerator turns them into the LocalGB → Shuffle → GlobalGB
        pattern of the Q20 plan (Figure 7).
        """
        next_var_id = _max_var_id(memo) + 1
        for group in list(memo.canonical_groups()):
            group = memo.group(group.id)
            for expr in list(group.logical_expressions):
                op = expr.op
                if not isinstance(op, LogicalGroupBy):
                    continue
                if op.phase is not AggPhase.COMPLETE:
                    continue
                if not op.keys and not op.aggregates:
                    continue
                if any(agg.distinct for _, agg in op.aggregates):
                    continue
                local_aggs = []
                global_aggs = []
                for var, agg in op.aggregates:
                    partial = ex.ColumnVar(next_var_id,
                                           f"partial_{var.name}",
                                           var.sql_type)
                    next_var_id += 1
                    memo.stats.register_derived(partial)
                    local_aggs.append((partial, agg))
                    combine = "SUM" if agg.func in ("SUM", "COUNT") \
                        else agg.func
                    global_aggs.append((var, ex.AggExpr(combine, partial)))
                local_op = detached_groupby(op.keys, local_aggs,
                                            AggPhase.LOCAL)
                local_group = memo.group_for_expression(
                    local_op, expr.children)
                global_op = detached_groupby(op.keys, global_aggs,
                                             AggPhase.GLOBAL)
                memo.add_expression(memo.find(group.id), global_op,
                                    (local_group,))


def _max_var_id(memo: Memo) -> int:
    highest = 0
    for group in memo.canonical_groups():
        for var in group.output_vars:
            highest = max(highest, var.id)
    for var_id in memo.stats.var_widths:
        highest = max(highest, var_id)
    return highest


# ---------------------------------------------------------------------------
# join regions
# ---------------------------------------------------------------------------

def _collect_region(op: LogicalOp) -> Tuple[List[LogicalOp],
                                            List[ex.ScalarExpr]]:
    """Leaves and predicate conjuncts of a maximal inner/cross join tree."""
    leaves: List[LogicalOp] = []
    conjuncts: List[ex.ScalarExpr] = []

    def walk(node: LogicalOp) -> None:
        if (isinstance(node, LogicalJoin)
                and node.kind in (JoinKind.INNER, JoinKind.CROSS)):
            walk(node.left)
            walk(node.right)
            conjuncts.extend(ex.conjuncts(node.predicate))
        else:
            leaves.append(node)

    walk(op)
    return leaves, conjuncts


class _RegionProblem:
    """Dynamic-programming join enumeration over one region.

    The problem object lives for one region of one compilation and keeps
    the facts every split of a subset asks for: the subset's columns,
    each equivalence class's smallest variable on it, and one
    ``Comparison`` per synthesized (left, right) equality, so equal split
    predicates are one object.
    """

    def __init__(self, memo: Memo, leaf_groups: List[int],
                 leaf_cols: List[FrozenSet[int]],
                 conjuncts: List[ex.ScalarExpr],
                 equivalence: ColumnEquivalence):
        self.memo = memo
        self.leaf_groups = leaf_groups
        self.leaf_cols = leaf_cols
        self.n = len(leaf_groups)
        self.equivalence = equivalence
        # Non-equi conjuncts with the columns each one uses.
        self.non_equi: List[Tuple[ex.ScalarExpr, FrozenSet[int]]] = []
        # Map equivalence class representative → {leaf index → var with
        # smallest id on that leaf}, used to synthesize join equalities.
        self.class_vars: Dict[int, Dict[int, ex.ColumnVar]] = {}
        self._analyze(conjuncts)
        self._classes = list(self.class_vars.values())
        self._cols: Dict[int, FrozenSet[int]] = {}
        self._smallest: Dict[int, Tuple[Optional[ex.ColumnVar], ...]] = {}
        self._equalities: Dict[Tuple[int, int], ex.Comparison] = {}
        self._predicates: Dict[Tuple[int, ...], ex.ScalarExpr] = {}

    def _analyze(self, conjuncts: List[ex.ScalarExpr]) -> None:
        var_lookup: Dict[int, ex.ColumnVar] = {}
        for conj in conjuncts:
            if (isinstance(conj, ex.Comparison) and conj.op == "="
                    and isinstance(conj.left, ex.ColumnVar)
                    and isinstance(conj.right, ex.ColumnVar)):
                var_lookup[conj.left.id] = conj.left
                var_lookup[conj.right.id] = conj.right
            else:
                self.non_equi.append((conj, frozenset(conj.columns_used())))
        for var_id, var in var_lookup.items():
            rep = self.equivalence.representative(var_id)
            leaf = self._leaf_of(var_id)
            if leaf is None:
                continue
            per_leaf = self.class_vars.setdefault(rep, {})
            current = per_leaf.get(leaf)
            if current is None or var.id < current.id:
                per_leaf[leaf] = var

    def _leaf_of(self, var_id: int) -> Optional[int]:
        for index, cols in enumerate(self.leaf_cols):
            if var_id in cols:
                return index
        return None

    def _cols_of_set(self, mask: int) -> FrozenSet[int]:
        cols = self._cols.get(mask)
        if cols is None:
            cols = self._cols[mask] = frozenset().union(
                *[self.leaf_cols[index] for index in _mask_indices(mask)])
        return cols

    def _smallest_vars(self, mask: int
                       ) -> Tuple[Optional[ex.ColumnVar], ...]:
        """Each class's smallest-id variable on the leaves of ``mask``
        (None where the class has none there), in class order."""
        smallest = self._smallest.get(mask)
        if smallest is None:
            leaves = _mask_indices(mask)
            smallest = self._smallest[mask] = tuple(
                _smallest_var(per_leaf, leaves) for per_leaf in self._classes)
        return smallest

    def _equality(self, left_var: ex.ColumnVar,
                  right_var: ex.ColumnVar) -> ex.Comparison:
        key = (left_var.id, right_var.id)
        equality = self._equalities.get(key)
        if equality is None:
            equality = self._equalities[key] = ex.Comparison(
                "=", left_var, right_var)
        return equality

    def _predicate_for_split(self, left_mask: int,
                             right_mask: int) -> Optional[ex.ScalarExpr]:
        """Join predicate connecting two leaf sets: one equality per
        equivalence class spanning both sides, plus non-equi conjuncts
        that become applicable exactly at this join."""
        parts: List[ex.ScalarExpr] = [
            self._equality(left_var, right_var)
            for left_var, right_var in zip(self._smallest_vars(left_mask),
                                           self._smallest_vars(right_mask))
            if left_var is not None and right_var is not None]
        if self.non_equi:
            whole = self._cols_of_set(left_mask | right_mask)
            left_cols = self._cols_of_set(left_mask)
            right_cols = self._cols_of_set(right_mask)
            for conj, used in self.non_equi:
                if (used <= whole and not used <= left_cols
                        and not used <= right_cols):
                    parts.append(conj)
        if not parts:
            return None
        # Every part is held by this object, so identities are a key.
        key = tuple([id(part) for part in parts])
        predicate = self._predicates.get(key)
        if predicate is None:
            predicate = self._predicates[key] = ex.make_conjunction(parts)
        return predicate

    def _make_join_group(self, left_group: int, right_group: int,
                         predicate: Optional[ex.ScalarExpr]) -> int:
        return self.memo.group_for_expression(_join_operator(predicate),
                                              (left_group, right_group))

    # -- exhaustive DP ---------------------------------------------------------

    def enumerate_exhaustive(self) -> int:
        """One group per subset: the first usable split creates it (the
        subset's only cardinality estimate), every later split is one more
        expression in it.  A split whose join the MEMO already holds merges
        that group in, keeping the lower id, as ``add_expression`` does."""
        memo = self.memo
        best: Dict[int, int] = {}
        for index, group in enumerate(self.leaf_groups):
            best[1 << index] = group
        full = (1 << self.n) - 1
        for mask in _masks_by_popcount(self.n):
            if mask in best:
                continue
            group_id: Optional[int] = None
            connected_splits = []
            for left_mask in _proper_submasks(mask):
                right_mask = mask ^ left_mask
                if left_mask > right_mask:
                    continue  # unordered split, one canonical direction
                predicate = self._predicate_for_split(left_mask, right_mask)
                if predicate is not None:
                    connected_splits.append((left_mask, right_mask, predicate))
            splits = connected_splits
            if not splits:
                # Disconnected: allow cross products on every split.
                splits = [
                    (lm, mask ^ lm, None)
                    for lm in _proper_submasks(mask) if lm < (mask ^ lm)
                ]
            for left_mask, right_mask, predicate in splits:
                if left_mask not in best or right_mask not in best:
                    continue
                left, right = best[left_mask], best[right_mask]
                if group_id is None:
                    group_id = self._make_join_group(left, right, predicate)
                else:
                    memo.add_expression(group_id, _join_operator(predicate),
                                        (left, right))
                    group_id = memo.find(group_id)
            if group_id is None:
                raise OptimizerError("join region has an unreachable subset")
            best[mask] = group_id
        return best[full]

    # -- greedy fallback ---------------------------------------------------------

    def enumerate_greedy(self, seed_collocated: bool = True) -> int:
        orders = [self._greedy_order(prefer_collocated=False)]
        if seed_collocated:
            orders.append(self._greedy_order(prefer_collocated=True))
        result: Optional[int] = None
        for order in orders:
            group_id = self._materialize_left_deep(order)
            result = (group_id if result is None
                      else self.memo.merge_equivalent(result, group_id))
        assert result is not None
        return result

    def _greedy_order(self, prefer_collocated: bool) -> List[int]:
        remaining = set(range(self.n))
        cardinality = {
            i: self.memo.group(g).cardinality
            for i, g in enumerate(self.leaf_groups)
        }
        order = [min(remaining, key=lambda i: cardinality[i])]
        remaining.discard(order[0])
        while remaining:
            joined_mask = 0
            for index in order:
                joined_mask |= 1 << index

            def rank(candidate: int) -> tuple:
                predicate = self._predicate_for_split(joined_mask,
                                                      1 << candidate)
                connected = predicate is not None
                collocated = (prefer_collocated
                              and self._leaf_collocated(order[-1], candidate))
                return (not connected, not collocated,
                        cardinality[candidate])

            chosen = min(remaining, key=rank)
            order.append(chosen)
            remaining.discard(chosen)
        return order

    def _leaf_collocated(self, a: int, b: int) -> bool:
        dist_a = _leaf_distribution(self.memo, self.leaf_groups[a])
        dist_b = _leaf_distribution(self.memo, self.leaf_groups[b])
        if dist_a is None or dist_b is None:
            return False
        kind_a, cols_a = dist_a
        kind_b, cols_b = dist_b
        if kind_a is DistributionKind.REPLICATED or \
                kind_b is DistributionKind.REPLICATED:
            return True
        if kind_a is DistributionKind.HASH and kind_b is DistributionKind.HASH:
            for col_a in cols_a:
                for col_b in cols_b:
                    if self.equivalence.are_equivalent(col_a, col_b):
                        return True
        return False

    def _materialize_left_deep(self, order: List[int]) -> int:
        mask = 1 << order[0]
        group_id = self.leaf_groups[order[0]]
        for index in order[1:]:
            predicate = self._predicate_for_split(mask, 1 << index)
            group_id = self._make_join_group(
                group_id, self.leaf_groups[index], predicate)
            mask |= 1 << index
        return group_id


def _join_operator(predicate: Optional[ex.ScalarExpr]) -> LogicalJoin:
    kind = JoinKind.INNER if predicate is not None else JoinKind.CROSS
    return detached_join(kind, predicate)


def _mask_indices(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask & (1 << i)]


def _smallest_var(per_leaf: Dict[int, ex.ColumnVar],
                  leaves: List[int]) -> Optional[ex.ColumnVar]:
    candidates = [per_leaf[leaf] for leaf in leaves if leaf in per_leaf]
    if not candidates:
        return None
    return min(candidates, key=lambda v: v.id)


def _masks_by_popcount(n: int):
    masks = sorted(range(1, 1 << n), key=lambda m: bin(m).count("1"))
    for mask in masks:
        if bin(mask).count("1") >= 2:
            yield mask


def _proper_submasks(mask: int):
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _leaf_distribution(memo: Memo, group_id: int
                       ) -> Optional[Tuple[DistributionKind, List[int]]]:
    """Base-table distribution of a leaf group, seen through filters."""
    group = memo.group(group_id)
    for expr in group.logical_expressions:
        op = expr.op
        if isinstance(op, LogicalGet):
            table = op.table
            cols = []
            for dist_col in table.distribution.columns:
                for var in op.columns:
                    if var.name.lower() == dist_col.lower():
                        cols.append(var.id)
            return (table.distribution.kind, cols)
        if isinstance(op, (LogicalSelect, LogicalProject)):
            return _leaf_distribution(memo, expr.children[0])
    return None


def _group_duplicate_free_on(memo: Memo, group_id: int,
                             columns: Set[int],
                             _seen: Optional[Set[int]] = None) -> bool:
    """Is every row of the group unique on ``columns``?"""
    group_id = memo.find(group_id)
    seen = _seen or set()
    if group_id in seen:
        return False
    seen.add(group_id)
    group = memo.group(group_id)
    for expr in group.logical_expressions:
        op = expr.op
        if isinstance(op, LogicalGroupBy):
            if {k.id for k in op.keys} <= columns and op.keys:
                return True
        elif isinstance(op, LogicalGet):
            table = op.table
            if table.primary_key:
                pk_ids = set()
                for pk_col in table.primary_key:
                    for var in op.columns:
                        if var.name.lower() == pk_col.lower():
                            pk_ids.add(var.id)
                if len(pk_ids) == len(table.primary_key) and pk_ids <= columns:
                    return True
        elif isinstance(op, (LogicalSelect, LogicalProject)):
            if isinstance(op, LogicalProject):
                identity_ids = {
                    var.id for var, e in op.outputs
                    if isinstance(e, ex.ColumnVar) and e.id == var.id
                }
                if not columns <= identity_ids:
                    continue
            if _group_duplicate_free_on(memo, expr.children[0], columns,
                                        seen):
                return True
    return False


# ---------------------------------------------------------------------------
# best serial plan extraction
# ---------------------------------------------------------------------------

def extract_best_serial_plan(memo: Memo, root_group: int,
                             cost_model: SerialCostModel) -> PlanNode:
    """Bottom-up dynamic programming over physical expressions."""
    best: Dict[int, Tuple[float, GroupExpression]] = {}
    in_progress: Set[int] = set()
    groups = memo.groups  # read by canonical ids only: no find

    def best_cost(group_id: int) -> float:
        group_id = memo.find(group_id)
        if group_id in best:
            return best[group_id][0]
        if group_id in in_progress:
            return float("inf")
        in_progress.add(group_id)
        group = memo.group(group_id)
        winner: Optional[Tuple[float, GroupExpression]] = None
        for expr in group.physical_expressions:
            children = [memo.find(c) for c in expr.children]
            if group_id in children:
                continue
            # A child costed before is a table hit, not a call.
            child_cost = sum([best[c][0] if c in best else best_cost(c)
                              for c in children])
            if child_cost == float("inf"):
                continue
            child_rows = tuple([groups[c].cardinality for c in children])
            local = cost_model.local_cost(expr.op, group.cardinality,
                                          child_rows)
            total = child_cost + local
            if winner is None or total < winner[0]:
                winner = (total, expr)
        in_progress.discard(group_id)
        if winner is None:
            return float("inf")
        best[group_id] = winner
        return winner[0]

    total = best_cost(root_group)
    if total == float("inf"):
        raise OptimizerError("no physical plan found")

    def build(group_id: int) -> PlanNode:
        group_id = memo.find(group_id)
        cost, expr = best[group_id]
        group = memo.group(group_id)
        children = [build(c) for c in expr.children]
        return PlanNode(
            expr.op, children,
            output_columns=group.output_vars,
            cardinality=group.cardinality,
            row_width=group.row_width,
            cost=cost,
        )

    return build(root_group)
