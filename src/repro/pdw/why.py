"""The plan-choice explainer — "why did the optimizer pick this plan?".

§2.5's headline claim is that enumerating distributed alternatives beats
*parallelizing the best serial plan*.  This module turns that claim into
a per-query printable artifact: it reruns the §2.5 strawman
(:func:`repro.pdw.baseline.parallelize_serial_plan`) against the same
search space and renders the winning plan next to the baseline as a
structural diff of their data movements, with per-subtree DMS cost
deltas.

The structured form is :class:`PlanChoice` (consumed by the JSONL /
Prometheus exporters in :mod:`repro.obs.export`); the rendered form is
:func:`render_plan_choice` (the ``repro why`` CLI and
``PdwSession.explain(optimizer=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.algebra.physical import PlanNode
from repro.catalog.shell_db import ShellDatabase
from repro.obs.opt_trace import PlanChoiceEvent
from repro.pdw.baseline import parallelize_serial_plan
from repro.pdw.dms import DataMovement
from repro.pdw.engine import CompiledQuery
from repro.pdw.enumerator import PdwPlan

__all__ = [
    "PlanMovement",
    "PlanChoice",
    "plan_movements",
    "diff_movements",
    "explain_plan_choice",
    "render_plan_choice",
]

# Costs are simulated seconds; two plans whose DMS costs differ by less
# than this are the same plan for §2.5 purposes.
_COST_EPSILON = 1e-12


@dataclass(frozen=True)
class PlanMovement:
    """One data movement in a distributed plan, with its *incremental*
    DMS cost (the movement's own contribution: subtree cost minus the
    cost already accumulated below it)."""

    movement: str          # DataMovement.describe()
    operation: str         # DMS operation value
    source: str            # distribution before the move
    target: str            # distribution after the move
    rows: float            # moved stream's estimated cardinality
    move_cost: float       # incremental DMS seconds
    subtree_cost: float    # total DMS seconds up to and including the move

    @property
    def signature(self) -> Tuple[str, str, str]:
        """Identity used for the structural diff: what moved where."""
        return (self.movement, self.source, self.target)


@dataclass(frozen=True)
class PlanChoice:
    """The §2.5 comparison for one query: chosen plan vs. baseline."""

    sql: str
    plan_cost: float           # DMS cost of the optimizer's plan
    baseline_cost: float       # DMS cost of the parallelized serial plan
    plan_tree: str
    baseline_tree: str
    plan_movements: Tuple[PlanMovement, ...]
    baseline_movements: Tuple[PlanMovement, ...]
    shared: Tuple[PlanMovement, ...]          # movements both plans make
    only_plan: Tuple[PlanMovement, ...]       # chosen plan only
    only_baseline: Tuple[PlanMovement, ...]   # baseline only

    @property
    def delta(self) -> float:
        """Extra DMS seconds the baseline pays (>= 0 in a correct run —
        the optimizer's space is a superset of the baseline's)."""
        return self.baseline_cost - self.plan_cost

    @property
    def delta_pct(self) -> float:
        """The delta relative to the chosen plan's cost, in percent
        (0.0 when the chosen plan moves no data at all)."""
        if self.plan_cost <= 0.0:
            return 0.0
        return 100.0 * self.delta / self.plan_cost

    @property
    def baseline_matches(self) -> bool:
        """True when parallelizing the best serial plan was optimal."""
        return abs(self.delta) <= _COST_EPSILON

    def event(self) -> PlanChoiceEvent:
        """The JSONL ``plan_choice`` event."""
        return PlanChoiceEvent(
            sql=self.sql,
            plan_cost=self.plan_cost,
            baseline_cost=self.baseline_cost,
            delta=self.delta,
            delta_pct=self.delta_pct,
            baseline_matches=self.baseline_matches,
            movements_plan=len(self.plan_movements),
            movements_baseline=len(self.baseline_movements),
            movements_shared=len(self.shared),
        )


def plan_movements(root: PlanNode) -> List[PlanMovement]:
    """Every :class:`DataMovement` in a plan tree, pre-order, with its
    incremental DMS cost (node cost minus the children's)."""
    out: List[PlanMovement] = []
    for node in root.walk():
        op = node.op
        if not isinstance(op, DataMovement):
            continue
        below = sum(child.cost for child in node.children)
        out.append(PlanMovement(
            movement=op.describe(),
            operation=op.operation.value,
            source=str(op.source),
            target=str(op.target),
            rows=node.cardinality,
            move_cost=node.cost - below,
            subtree_cost=node.cost,
        ))
    return out


def diff_movements(plan: List[PlanMovement], baseline: List[PlanMovement]
                   ) -> Tuple[List[PlanMovement], List[PlanMovement],
                              List[PlanMovement]]:
    """Multiset diff by movement signature: (shared, only-plan,
    only-baseline).  Shared entries report the chosen plan's costs."""
    remaining: Dict[Tuple[str, str, str], List[PlanMovement]] = {}
    for move in baseline:
        remaining.setdefault(move.signature, []).append(move)
    shared: List[PlanMovement] = []
    only_plan: List[PlanMovement] = []
    for move in plan:
        bucket = remaining.get(move.signature)
        if bucket:
            bucket.pop()
            shared.append(move)
        else:
            only_plan.append(move)
    only_baseline = [move for bucket in remaining.values()
                     for move in bucket]
    return shared, only_plan, only_baseline


def explain_plan_choice(compiled: CompiledQuery,
                        shell: ShellDatabase) -> PlanChoice:
    """Build the §2.5 comparison for one compiled query.

    The baseline is recomputed from the compilation's serial result with
    the same effective PDW config (hints included), so the two plans
    answer the same question under the same constraints.
    """
    baseline: PdwPlan = parallelize_serial_plan(
        compiled.serial, shell, config=compiled.pdw_config)
    plan_moves = plan_movements(compiled.pdw_plan.root)
    baseline_moves = plan_movements(baseline.root)
    shared, only_plan, only_baseline = diff_movements(plan_moves,
                                                      baseline_moves)
    return PlanChoice(
        sql=compiled.sql,
        plan_cost=compiled.pdw_plan.cost,
        baseline_cost=baseline.cost,
        plan_tree=compiled.pdw_plan.tree_string(),
        baseline_tree=baseline.tree_string(),
        plan_movements=tuple(plan_moves),
        baseline_movements=tuple(baseline_moves),
        shared=tuple(shared),
        only_plan=tuple(only_plan),
        only_baseline=tuple(only_baseline),
    )


def _movement_lines(label: str, moves: Tuple[PlanMovement, ...]
                    ) -> List[str]:
    return [
        f"  {label:<17} {move.movement:<28} "
        f"{move.rows:>12.0f} rows  {move.move_cost:.6f} s"
        for move in moves
    ]


def render_plan_choice(choice: PlanChoice) -> str:
    """The printable "why this plan" §2.5 artifact."""
    lines = [
        'Why this plan? — optimizer vs. "parallelize the best serial '
        'plan" (§2.5)',
        "",
        f"Chosen distributed plan (DMS cost {choice.plan_cost:.6f} s):",
        choice.plan_tree,
        "",
        "Parallelized-serial baseline "
        f"(DMS cost {choice.baseline_cost:.6f} s):",
        choice.baseline_tree,
    ]
    if (choice.plan_movements or choice.baseline_movements):
        lines += ["", "Data-movement diff (incremental DMS cost per "
                      "movement subtree):"]
        lines += _movement_lines("shared", choice.shared)
        lines += _movement_lines("only in chosen", choice.only_plan)
        lines += _movement_lines("only in baseline", choice.only_baseline)
    lines.append("")
    if choice.baseline_matches:
        lines.append(
            "baseline == optimal: parallelizing the best serial plan is "
            f"optimal for this query (DMS cost {choice.plan_cost:.6f} s "
            "both).")
    else:
        lines.append(
            f"Baseline pays +{choice.delta:.6f} s DMS "
            f"(+{choice.delta_pct:.1f}%) over the chosen plan: "
            "enumerating distributed alternatives beat parallelizing "
            "the serial winner.")
    return "\n".join(lines)
