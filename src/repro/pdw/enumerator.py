"""Bottom-up PDW plan enumeration (paper §3.2, Figure 4 steps 05-09).

For every MEMO group, in bottom-up order:

* **Enumeration step (06.i)** — combine the PDW options of the child
  groups through each logical group expression, keeping only combinations
  whose distributions allow the operation to run without data movement
  (collocated joins, key-aligned aggregations, ...).
* **Cost-based pruning (06.ii)** — keep the overall cheapest option plus
  the cheapest option per interesting property, so a group never holds
  more than ``#interesting properties + 1`` options.
* **Enforcer step (07)** — for each interesting property not yet
  satisfied, add a data-movement expression (Shuffle / Broadcast / Trim /
  PartitionMove / ...) on top of the cheapest source option.

Costs are pure DMS response times (§3.3): relational work on the compute
nodes is *not* costed, mirroring the paper's "DMS-only" model.  An
extended model that adds relational costs is available for the ablation
benchmarks (``PdwConfig.relational_cost_weight``).

The result is a :class:`repro.algebra.physical.PlanNode` tree mixing
logical relational operators (executed as SQL on the nodes) with
:class:`repro.pdw.dms.DataMovement` nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    AggPhase,
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
)
from repro.algebra.physical import PlanNode
from repro.algebra.properties import (
    ColumnEquivalence,
    DistKind,
    Distribution,
    ON_CONTROL_DIST,
    REPLICATED_DIST,
    hashed_on,
)
from repro.catalog.schema import DistributionKind
from repro.common.errors import HintError, PdwOptimizerError
from repro.obs.opt_trace import (
    MovementRecord,
    OptimizerTrace,
    format_property_key,
)
from repro.optimizer.memo import (
    Group,
    GroupExpression,
    Memo,
    topological_order,
)
from repro.pdw.cost_model import (
    CostConstants,
    DEFAULT_COST_CONSTANTS,
    DmsCost,
    DmsCostModel,
)
from repro.pdw.dms import DataMovement, classify_movement
from repro.algebra.properties import distribution_satisfies
from repro.pdw.interesting import (
    CONTROL_KEY,
    GroupFacts,
    PropertyKey,
    REPLICATED_KEY,
    build_equivalence,
    derive_interesting_properties,
    property_key_of,
)
from repro.pdw.preprocess import preprocess
from repro.telemetry import NULL_TRACER, Tracer


@dataclass
class PdwConfig:
    """Knobs for the PDW enumeration.

    ``hints`` implements the paper's §3.1 "handful of query hints for
    specific distributed execution strategies": a map from base-table name
    to a forced movement strategy for that table's stream —
    ``"replicate"`` (broadcast it wherever it is consumed) or
    ``"shuffle"`` (never replicate it; repartition instead).
    """

    prune_per_property: bool = True   # Figure 4 step 06.ii (ablation knob)
    relational_cost_weight: float = 0.0  # 0 = paper's DMS-only model
    hints: Dict[str, str] = field(default_factory=dict)
    constants: CostConstants = field(
        default_factory=lambda: DEFAULT_COST_CONSTANTS)

    def __post_init__(self):
        for table, strategy in self.hints.items():
            if strategy not in ("replicate", "shuffle"):
                raise HintError(
                    f"unknown hint strategy {strategy!r} for table "
                    f"{table!r} (use 'replicate' or 'shuffle')")


_UNSET = object()


class PdwOption:
    """One PDW group expression: a plan fragment with a distribution.

    ``op`` is a logical operator or a :class:`DataMovement`; ``children``
    are PdwOptions (structural sharing keeps memory linear in the number
    of retained options).

    ``key`` and ``hash_classes`` are the distribution read through the
    optimizer's column equivalence: the property key it delivers and the
    class of each hash column (None unless HASHED).  The optimizer fills
    each on first use (:meth:`PdwOptimizer._key_of`,
    :meth:`PdwOptimizer._hash_classes_of`), so neither is computed twice.
    """

    __slots__ = ("op", "children", "group_id", "distribution", "cost",
                 "key", "hash_classes")

    def __init__(self, op, children: Tuple["PdwOption", ...], group_id: int,
                 distribution: Distribution, cost: float):
        self.op = op
        self.children = children
        self.group_id = group_id
        self.distribution = distribution
        self.cost = cost
        self.key: Optional[PropertyKey] = None
        self.hash_classes = _UNSET


@dataclass
class PdwPlan:
    """The optimizer's answer: the winning option materialized as a tree."""

    root: PlanNode
    cost: float
    distribution: Distribution
    options_considered: int
    options_retained: int

    def tree_string(self) -> str:
        return self.root.tree_string()


class PdwOptimizer:
    """Figure 2 component 4: consumes the search space, adds movement."""

    def __init__(self, memo: Memo, root_group: int, node_count: int,
                 equivalence: Optional[ColumnEquivalence] = None,
                 config: Optional[PdwConfig] = None,
                 tracer: Tracer = NULL_TRACER,
                 opt_trace: Optional[OptimizerTrace] = None):
        self.memo = memo
        self.root_group = memo.find(root_group)
        self.node_count = node_count
        self.config = config or PdwConfig()
        self.cost_model = DmsCostModel(node_count, self.config.constants)
        self.equivalence = equivalence or build_equivalence(memo, root_group)
        self.options: Dict[int, List[PdwOption]] = {}
        self.options_considered = 0
        self.facts = GroupFacts(memo, self.equivalence)
        self.tracer = tracer
        self.opt_trace = opt_trace

    # -- public API -----------------------------------------------------------

    def optimize(self) -> PdwPlan:
        """Run steps 01-09 of Figure 4 and extract the optimal plan."""
        tracer = self.tracer
        opt_trace = self.opt_trace
        started = time.perf_counter() if opt_trace is not None else 0.0
        with tracer.span("preprocess"):
            pdw_exprs = preprocess(self.memo, self.node_count)   # steps 02-03
        with tracer.span("interesting_properties") as span:
            self.interesting = derive_interesting_properties(    # step 04
                self.memo, self.root_group, self.equivalence, self.facts)
            if tracer.enabled:
                span.set("properties",
                         sum(len(v) for v in self.interesting.values()))

        with tracer.span("enumerate") as span:
            order = topological_order(self.memo, self.root_group)
            for group_id in order:
                self._optimize_group(group_id, pdw_exprs)        # steps 05-07
            if tracer.enabled:
                span.set("groups", len(order))

        root_options = self.options.get(self.root_group, [])
        if not root_options:
            raise PdwOptimizerError("no distributed plan found for root")
        best = min(root_options, key=lambda o: o.cost)           # step 08
        plan = self._materialize(best)                            # steps 08-09
        retained = sum(len(opts) for opts in self.options.values())
        if opt_trace is not None:
            opt_trace.finish(
                plan_cost=best.cost,
                plan_distribution=str(best.distribution),
                optimize_seconds=time.perf_counter() - started)
        return PdwPlan(
            root=plan,
            cost=best.cost,
            distribution=best.distribution,
            options_considered=self.options_considered,
            options_retained=retained,
        )

    def options_for(self, group_id: int) -> List[PdwOption]:
        return self.options.get(self.memo.find(group_id), [])

    # -- per-group optimization ---------------------------------------------------

    def _optimize_group(self, group_id: int,
                        pdw_exprs: Dict[int, List[GroupExpression]]) -> None:
        group = self.memo.group(group_id)
        opt_trace = self.opt_trace
        if opt_trace is not None:
            opt_trace.begin_group(group_id, tuple(
                format_property_key(key)
                for key in self.interesting.get(group_id, ())))
        candidates: List[PdwOption] = []
        for expr in pdw_exprs.get(group_id, ()):
            children = [self.memo.find(c) for c in expr.children]
            if group_id in children:
                continue
            produced = self._enumerate_expression(group_id, expr, children)
            if opt_trace is not None:
                opt_trace.record_enumeration(group_id, expr.op.describe(),
                                             len(produced))
            candidates.extend(produced)
        considered_before = self.options_considered
        self.options_considered += len(candidates)
        pruned = self._prune(group_id, candidates)               # step 06.ii
        pruned = self._enforce(group_id, pruned)                 # step 07
        pruned = self._apply_hints(group_id, pruned)             # §3.1 hints
        self.options[group_id] = pruned
        if opt_trace is not None:
            opt_trace.end_group(
                group_id,
                considered=self.options_considered - considered_before,
                retained=tuple(
                    (self._describe_option(o),
                     format_property_key(self._key_of(o)),
                     o.cost)
                    for o in pruned))

    def _enumerate_expression(self, group_id: int, expr: GroupExpression,
                              children: List[int]) -> List[PdwOption]:
        op = expr.op

        if isinstance(op, LogicalGet):
            return [self._get_option(group_id, op)]

        if isinstance(op, (LogicalSelect, LogicalProject)):
            return [
                PdwOption(op, (child,), group_id, child.distribution,
                          child.cost)
                for child in self.options.get(children[0], ())
            ]

        if isinstance(op, LogicalJoin):
            return self._join_options(group_id, expr, children)

        if isinstance(op, LogicalGroupBy):
            return self._groupby_options(group_id, op, children)

        if isinstance(op, LogicalUnionAll):
            return self._union_options(group_id, op, children)

        return []

    def _get_option(self, group_id: int, op: LogicalGet) -> PdwOption:
        table = op.table
        dist_kind = table.distribution.kind
        if dist_kind is DistributionKind.REPLICATED:
            distribution = REPLICATED_DIST
        elif dist_kind is DistributionKind.CONTROL:
            distribution = ON_CONTROL_DIST
        else:
            columns = []
            for dist_col in table.distribution.columns:
                var = next(
                    (v for v in op.columns
                     if v.name.lower() == dist_col.lower()), None)
                if var is None:
                    raise PdwOptimizerError(
                        f"distribution column {dist_col!r} of "
                        f"{table.name!r} missing from Get")
                columns.append(var.id)
            distribution = Distribution(DistKind.HASHED, tuple(columns))
        return PdwOption(op, (), group_id, distribution, 0.0)

    # -- joins ----------------------------------------------------------------------

    def _join_options(self, group_id: int, expr: GroupExpression,
                      children: List[int]) -> List[PdwOption]:
        op: LogicalJoin = expr.op
        left_options = self.options.get(children[0], ())
        right_options = self.options.get(children[1], ())
        pairs = self.facts.join_pairs(expr, children)

        # Two hashed inputs are aligned when every (left, right) hash
        # column pair falls into the equivalence classes of one equi-join
        # pair, either way round (hashing may align crosswise through
        # equivalence).  The classes depend on one side only, so they are
        # looked up once per option, not once per combination.
        representative = self.equivalence.representative
        aligned_classes = set()
        for left_var, right_var in pairs:
            left_class = representative(left_var.id)
            right_class = representative(right_var.id)
            aligned_classes.add((left_class, right_class))
            aligned_classes.add((right_class, left_class))
        right_classes = [self._hash_classes_of(o) for o in right_options]
        relational_cost = self._relational_cost(group_id)
        kind = op.kind
        output_distribution = self._join_output_distribution

        result: List[PdwOption] = []
        for left in left_options:
            left_hash = self._hash_classes_of(left)
            left_distribution = left.distribution
            for right, right_hash in zip(right_options, right_classes):
                hashed_aligned = (
                    left_hash is not None and right_hash is not None
                    and len(left_hash) == len(right_hash)
                    and aligned_classes.issuperset(zip(left_hash,
                                                       right_hash)))
                distribution = output_distribution(
                    kind, left_distribution, right.distribution,
                    hashed_aligned)
                if distribution is None:
                    continue
                cost = left.cost + right.cost + relational_cost
                result.append(PdwOption(op, (left, right), group_id,
                                        distribution, cost))
        return result

    def _hash_classes(self, distribution: Distribution
                      ) -> Optional[Tuple[int, ...]]:
        """Equivalence class of each hash column; None unless HASHED."""
        if distribution.kind is not DistKind.HASHED:
            return None
        representative = self.equivalence.representative
        return tuple(representative(c) for c in distribution.columns)

    def _hash_classes_of(self, option: PdwOption
                         ) -> Optional[Tuple[int, ...]]:
        classes = option.hash_classes
        if classes is _UNSET:
            classes = option.hash_classes = self._hash_classes(
                option.distribution)
        return classes

    def _key_of(self, option: PdwOption) -> PropertyKey:
        """The property key ``option`` delivers."""
        key = option.key
        if key is None:
            key = option.key = property_key_of(option.distribution,
                                               self.equivalence)
        return key

    @staticmethod
    def _join_output_distribution(
            kind: JoinKind, left: Distribution, right: Distribution,
            hashed_aligned: bool) -> Optional[Distribution]:
        """Output distribution of a collocated join; None if data must
        move first."""
        if kind in (JoinKind.INNER, JoinKind.CROSS):
            if left.kind is DistKind.REPLICATED:
                return right
            if right.kind is DistKind.REPLICATED:
                return left
            if hashed_aligned:
                return left
            if (left.kind is DistKind.ON_CONTROL
                    and right.kind is DistKind.ON_CONTROL):
                return ON_CONTROL_DIST
            return None

        # LEFT / SEMI / ANTI: the left side is preserved; the right side
        # must be visible in full wherever left rows live.
        if right.kind is DistKind.REPLICATED:
            if left.kind is DistKind.REPLICATED:
                return REPLICATED_DIST
            if left.kind in (DistKind.HASHED, DistKind.SINGLE_NODE):
                return left
            if left.kind is DistKind.ON_CONTROL:
                # Replicated tables live on compute nodes, not on the
                # control node.
                return None
        if hashed_aligned:
            return left
        if (left.kind is DistKind.ON_CONTROL
                and right.kind is DistKind.ON_CONTROL):
            return ON_CONTROL_DIST
        return None

    # -- aggregation -------------------------------------------------------------------

    def _groupby_options(self, group_id: int, op: LogicalGroupBy,
                         children: List[int]) -> List[PdwOption]:
        result: List[PdwOption] = []
        for child in self.options.get(children[0], ()):
            dist = child.distribution
            if op.phase is AggPhase.LOCAL:
                # Partial aggregation runs wherever the data sits.
                result.append(PdwOption(op, (child,), group_id, dist,
                                        child.cost
                                        + self._relational_cost(group_id)))
                continue
            output = self._aggregation_output_distribution(op, dist)
            if output is not None:
                result.append(PdwOption(op, (child,), group_id, output,
                                        child.cost
                                        + self._relational_cost(group_id)))
        return result

    def _aggregation_output_distribution(
            self, op: LogicalGroupBy,
            child: Distribution) -> Optional[Distribution]:
        """Distribution of a COMPLETE/GLOBAL aggregation when the child's
        placement already groups rows correctly; None otherwise."""
        if child.kind in (DistKind.ON_CONTROL, DistKind.SINGLE_NODE,
                          DistKind.REPLICATED):
            return child
        if child.kind is DistKind.HASHED and op.keys:
            key_ids = [k.id for k in op.keys]
            aligned = all(
                any(self.equivalence.are_equivalent(hash_col, key_id)
                    for key_id in key_ids)
                for hash_col in child.columns
            )
            if aligned:
                # Rename hash columns onto the keys they match so parents
                # see a distribution expressed in output columns.
                renamed = []
                for hash_col in child.columns:
                    match = next(
                        (key_id for key_id in key_ids
                         if self.equivalence.are_equivalent(hash_col,
                                                            key_id)),
                        hash_col)
                    renamed.append(match)
                return Distribution(DistKind.HASHED, tuple(renamed))
        return None

    # -- union --------------------------------------------------------------------------

    def _union_options(self, group_id: int, op: LogicalUnionAll,
                       children: List[int]) -> List[PdwOption]:
        """A union is well-placed when every branch shares a placement
        expressed in *output positions*: all branches hashed on the same
        output position p (each on its own column feeding p), or all
        replicated, or all on the control node.

        Branches that do not yet satisfy a target are moved — the union
        performs its own per-branch enforcement, since branch columns are
        not value-equivalent and the generic enforcer cannot relate them.
        """
        child_lists = [self.options.get(c, ()) for c in children]
        if not all(child_lists):
            return []

        targets: List[Tuple[Distribution, List[Distribution]]] = []
        for position in range(len(op.outputs)):
            branch_targets = [
                hashed_on(branch[position].id)
                for branch in op.branch_columns
            ]
            targets.append(
                (hashed_on(op.outputs[position].id), branch_targets))
        targets.append(
            (REPLICATED_DIST, [REPLICATED_DIST] * len(children)))
        targets.append(
            (ON_CONTROL_DIST, [ON_CONTROL_DIST] * len(children)))

        result: List[PdwOption] = []
        opt_trace = self.opt_trace
        for output_dist, branch_targets in targets:
            picked: List[PdwOption] = []
            total = 0.0
            feasible = True
            for child_id, options, target, branch in zip(
                    children, child_lists, branch_targets,
                    op.branch_columns):
                best: Optional[PdwOption] = None
                moves = [] if opt_trace is not None else None
                best_move_index = -1
                for option in options:
                    moved = None
                    if distribution_satisfies(option.distribution, target,
                                              self.equivalence):
                        candidate = option
                    else:
                        hash_columns = (
                            next(v for v in branch
                                 if v.id == target.columns[0]),
                        ) if target.kind is DistKind.HASHED else ()
                        movement = classify_movement(
                            option.distribution, target, hash_columns)
                        if movement is None:
                            continue
                        breakdown = self._price(self.memo.group(child_id),
                                                movement)
                        move_cost = breakdown.total
                        candidate = PdwOption(
                            movement, (option,), child_id, target,
                            option.cost + move_cost)
                        moved = (movement, breakdown, move_cost,
                                 candidate.cost)
                    is_best = best is None or candidate.cost < best.cost
                    if is_best:
                        best = candidate
                    if moves is not None and is_best:
                        best_move_index = (len(moves) if moved is not None
                                           else -1)
                    if moves is not None and moved is not None:
                        moves.append(moved)
                if moves:
                    branch_group = self.memo.group(child_id)
                    key_str = format_property_key(
                        property_key_of(target, self.equivalence))
                    for index, (movement, breakdown, move_cost,
                                cand_total) in enumerate(moves):
                        opt_trace.record_movement(MovementRecord(
                            group=child_id,
                            operation=movement.operation.value,
                            movement=movement.describe(),
                            property_key=key_str,
                            source=str(movement.source),
                            target=str(movement.target),
                            rows=branch_group.cardinality,
                            row_width=branch_group.row_width,
                            reader=breakdown.reader,
                            network=breakdown.network,
                            writer=breakdown.writer,
                            bulk_copy=breakdown.bulk_copy,
                            move_cost=move_cost,
                            total_cost=cand_total,
                            chosen=index == best_move_index,
                            context="union",
                        ))
                if best is None:
                    feasible = False
                    break
                picked.append(best)
                total += best.cost
            if feasible:
                result.append(PdwOption(op, tuple(picked), group_id,
                                        output_dist, total))
        return result

    # -- pruning & enforcement --------------------------------------------------------

    def _prune(self, group_id: int,
               candidates: List[PdwOption]) -> List[PdwOption]:
        """Figure 4 step 06.ii."""
        if not candidates:
            return []
        if not self.config.prune_per_property:
            return sorted(candidates, key=lambda o: o.cost)
        best_overall = min(candidates, key=lambda o: o.cost)
        interesting = self.interesting.get(group_id, set())
        best_by_key: Dict[PropertyKey, PdwOption] = {}
        for option in candidates:
            key = self._key_of(option)
            if key not in interesting:
                continue
            current = best_by_key.get(key)
            if current is None or option.cost < current.cost:
                best_by_key[key] = option
        kept = {id(best_overall): best_overall}
        for option in best_by_key.values():
            kept[id(option)] = option
        if self.opt_trace is not None:
            for option in candidates:
                if id(option) in kept:
                    continue
                key = self._key_of(option)
                # The option that covers the victim's slot: the cheapest
                # retained option delivering the same property, else the
                # overall winner.
                survivor = best_by_key.get(key, best_overall)
                self.opt_trace.record_prune(
                    group_id,
                    victim=self._describe_option(option),
                    property_key=format_property_key(key),
                    victim_cost=option.cost,
                    survivor=self._describe_option(survivor),
                    survivor_cost=survivor.cost)
        return sorted(kept.values(), key=lambda o: o.cost)

    def _enforce(self, group_id: int,
                 options: List[PdwOption]) -> List[PdwOption]:
        """Figure 4 step 07: add DMS expressions per interesting property.

        The operation moving an option to a target is fixed by the two
        distributions' kinds, and its price by the operation, the source
        kind and the group's rows and width
        (``DmsCostModel.component_bytes``).  So each pair of kinds is
        classified and priced once per group, and a movement is built
        for each key's winner only (and, traced, for every candidate's
        record)."""
        if not options:
            return options
        group = self.memo.group(group_id)
        opt_trace = self.opt_trace
        interesting = self.interesting.get(group_id, set())
        additions: List[PdwOption] = []
        # (source kind, target kind) -> price; None: no DMS operation
        prices: Dict[Tuple[DistKind, DistKind], Optional[DmsCost]] = {}
        for key in sorted(interesting, key=repr):
            target, hash_columns = self._target_for_key(group_id, key)
            if target is None:
                continue
            best: Optional[PdwOption] = None
            best_total = 0.0
            best_index = -1
            candidates = [] if opt_trace is not None else None
            for option in options:
                if self._key_of(option) == key:
                    continue  # already delivers the property
                kinds = (option.distribution.kind, target.kind)
                if kinds not in prices:
                    movement = classify_movement(option.distribution,
                                                 target, hash_columns)
                    prices[kinds] = (None if movement is None
                                     else self._price(group, movement))
                price = prices[kinds]
                if price is None:
                    continue
                total = option.cost + price.total
                if best is None or total < best_total:
                    best, best_total = option, total
                    if candidates is not None:
                        best_index = len(candidates)
                if candidates is not None:
                    candidates.append((option, price, total))
            if best is not None:
                additions.append(PdwOption(
                    classify_movement(best.distribution, target,
                                      hash_columns),
                    (best,), group_id, target, best_total))
                self.options_considered += 1
            if candidates:
                key_str = format_property_key(key)
                for index, (option, price, total) in enumerate(candidates):
                    movement = classify_movement(option.distribution,
                                                 target, hash_columns)
                    opt_trace.record_movement(MovementRecord(
                        group=group_id,
                        operation=movement.operation.value,
                        movement=movement.describe(),
                        property_key=key_str,
                        source=str(movement.source),
                        target=str(movement.target),
                        rows=group.cardinality,
                        row_width=group.row_width,
                        reader=price.reader,
                        network=price.network,
                        writer=price.writer,
                        bulk_copy=price.bulk_copy,
                        move_cost=price.total,
                        total_cost=total,
                        chosen=index == best_index,
                    ))
        if not additions:
            return options
        return self._prune(group_id, options + additions)

    def _apply_hints(self, group_id: int,
                     options: List[PdwOption]) -> List[PdwOption]:
        """§3.1 query hints: constrain the movement strategy for streams
        that are pure pipelines over a hinted base table."""
        if not self.config.hints or not options:
            return options
        table = self._source_table(group_id)
        if table is None:
            return options
        hint = self.config.hints.get(table)
        if hint is None:
            return options

        def moved_to(option: PdwOption) -> Optional[DistKind]:
            if isinstance(option.op, DataMovement):
                return option.op.target.kind
            return None

        if hint == "replicate":
            kept = [o for o in options
                    if moved_to(o) is not DistKind.HASHED]
        else:  # "shuffle"
            kept = [o for o in options
                    if moved_to(o) is not DistKind.REPLICATED]
        if self.opt_trace is not None and kept and len(kept) < len(options):
            kept_ids = {id(o) for o in kept}
            displaced = [o for o in options if id(o) not in kept_ids]
            self.opt_trace.record_hint_override(
                group_id, table, hint,
                displaced=tuple(self._describe_option(o)
                                for o in displaced),
                displaced_costs=tuple(o.cost for o in displaced),
                kept=len(kept))
        return kept or options  # never hint a group into infeasibility

    def _source_table(self, group_id: int) -> Optional[str]:
        """Base table when the group is a pure Get/Select/Project
        pipeline over exactly one table; None otherwise (memoized)."""
        cache = getattr(self, "_source_table_cache", None)
        if cache is None:
            cache = self._source_table_cache = {}
        group_id = self.memo.find(group_id)
        if group_id in cache:
            return cache[group_id]
        cache[group_id] = None  # cycle guard
        tables: Set[Optional[str]] = set()
        group = self.memo.group(group_id)
        for expr in group.logical_expressions:
            op = expr.op
            if isinstance(op, LogicalGet):
                tables.add(op.table.name.lower())
            elif isinstance(op, (LogicalSelect, LogicalProject)) \
                    and expr.children:
                tables.add(self._source_table(expr.children[0]))
            else:
                tables.add(None)
        result = tables.pop() if len(tables) == 1 else None
        cache[group_id] = result
        return result

    def _price(self, group: Group, movement: DataMovement) -> DmsCost:
        """The cost model's breakdown of moving ``group``'s rows."""
        return self.cost_model.cost_breakdown(movement, group.cardinality,
                                              group.row_width)

    def _target_for_key(self, group_id: int, key: PropertyKey
                        ) -> Tuple[Optional[Distribution],
                                   Tuple[ex.ColumnVar, ...]]:
        if key == REPLICATED_KEY:
            return REPLICATED_DIST, ()
        if key == CONTROL_KEY:
            return ON_CONTROL_DIST, ()
        if key[0] == "hash":
            var = self.facts.outputs(group_id)[1].get(key[1])
            if var is None:
                return None, ()
            return hashed_on(var.id), (var,)
        return None, ()

    # -- trace plumbing ----------------------------------------------------------------

    @staticmethod
    def _describe_option(option: PdwOption) -> str:
        """Stable short label for trace records: operator @ placement."""
        return f"{option.op.describe()} @ {option.distribution}"

    # -- costs ---------------------------------------------------------------------------

    def _relational_cost(self, group_id: int) -> float:
        """Optional extended-model term (0 under the paper's model)."""
        weight = self.config.relational_cost_weight
        if weight <= 0.0:
            return 0.0
        group = self.memo.group(group_id)
        per_node_rows = group.cardinality / self.node_count
        return weight * per_node_rows * group.row_width

    # -- plan materialization ---------------------------------------------------------

    def _materialize(self, option: PdwOption) -> PlanNode:
        children = [self._materialize(c) for c in option.children]
        group = self.memo.group(option.group_id)
        return PlanNode(
            option.op,
            children,
            output_columns=group.output_vars,
            cardinality=group.cardinality,
            row_width=group.row_width,
            cost=option.cost,
        )
