"""Optimizer search-space tracing (paper §3.2-§3.3 made observable).

PR 3 made the *runtime* observable; this module opens up the optimizer
itself.  An :class:`OptimizerTrace` handed to
:class:`repro.pdw.enumerator.PdwOptimizer` records, per MEMO group:

* the **options enumerated** by each logical expression (Figure 4 step
  06.i — join/group-by/union combination counts);
* the **interesting-property targets** derived for the group (step 04);
* every **prune decision** (step 06.ii): the victim option, the property
  key it delivered, and the cost delta to the survivor that displaced it;
* every **movement considered** while enforcing (step 07) or placing
  union branches, with the full :class:`~repro.pdw.cost_model.DmsCost`
  component breakdown (reader / network / writer / bulk copy) and whether
  the movement was actually inserted;
* **hint overrides** (§3.1): options a ``replicate``/``shuffle`` hint
  displaced, so a forced strategy is auditable after the fact.

The default everywhere is no trace at all (``opt_trace=None``): the
instrumented code guards every hook call, and any loop that would
*compute* a trace value, on ``opt_trace is not None``, so an untraced
optimization allocates no record.

The records double as JSONL events (:data:`repro.obs.export.EVENTS`):
:class:`OptimizerTraceSummary` is ``optimizer_summary``,
:class:`PruneRecord` ``optimizer_prune``, :class:`MovementRecord`
``optimizer_enforce`` and :class:`HintOverrideRecord`
``optimizer_hint``; :class:`GroupEvent` and :class:`PlanChoiceEvent`
are the ``optimizer_group`` and ``plan_choice`` events.

Like :mod:`repro.obs.metrics` and :mod:`repro.obs.profiler`, this module
is free of ``repro`` imports (operators, distributions and cost
breakdowns arrive as plain strings/floats), so the optimizer can import
it without cycles and the export layer can consume it without touching
the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "format_property_key",
    "EnumerationRecord",
    "PruneRecord",
    "MovementRecord",
    "HintOverrideRecord",
    "GroupTrace",
    "OptimizerTraceSummary",
    "OptimizerTrace",
    "RetainedOption",
    "GroupEvent",
    "PlanChoiceEvent",
]


def format_property_key(key: object) -> str:
    """Render a :data:`repro.pdw.interesting.PropertyKey` tuple (or any
    value) as a stable short string: ``("hash", 5)`` → ``"hash:5"``."""
    if isinstance(key, tuple):
        return ":".join(str(part) for part in key)
    return str(key)


@dataclass(frozen=True)
class EnumerationRecord:
    """One logical expression's contribution to a group (step 06.i)."""

    group: int
    operator: str          # logical operator description, e.g. "Join[INNER]"
    options: int           # distributed options the expression produced


@dataclass(frozen=True)
class PruneRecord:
    """One victim of cost-based pruning (step 06.ii)."""

    group: int
    victim: str            # option description ("op @ distribution")
    property_key: str      # property the victim delivered
    victim_cost: float
    survivor: str          # option that covers the victim's property slot
    survivor_cost: float
    cost_delta: float      # how much worse the victim was than its survivor


@dataclass(frozen=True)
class MovementRecord:
    """One data movement the optimizer *costed* — an enforcer candidate
    (step 07) or a union branch placement.  ``chosen`` marks the
    candidate that was actually inserted; the rest are the
    considered-but-rejected movements of the "why" report."""

    group: int
    operation: str         # DMS operation value, e.g. "shuffle"
    movement: str          # DataMovement.describe(), e.g. "ShuffleMove(o_custkey)"
    property_key: str      # enforced property (or the union target's key)
    source: str            # distribution before the move
    target: str            # distribution after the move
    rows: float            # global cardinality Y fed to the cost model
    row_width: float       # average row width w
    reader: float          # DmsCost components, in seconds
    network: float
    writer: float
    bulk_copy: float
    move_cost: float       # max(max(reader, network), max(writer, bulk))
    total_cost: float      # source option cost + move_cost
    chosen: bool
    context: str = "enforce"   # "enforce" (step 07) or "union" (branch)


@dataclass(frozen=True)
class HintOverrideRecord:
    """A §3.1 hint displacing otherwise-retained options for a group."""

    group: int
    table: str
    strategy: str                      # "replicate" or "shuffle"
    displaced: Tuple[str, ...]         # descriptions of removed options
    displaced_costs: Tuple[float, ...]
    kept: int                          # options surviving the override


@dataclass
class GroupTrace:
    """Everything recorded for one MEMO group."""

    group: int
    interesting: Tuple[str, ...] = ()
    enumerated: List[EnumerationRecord] = field(default_factory=list)
    options_considered: int = 0
    options_retained: int = 0
    retained: Tuple[Tuple[str, str, float], ...] = ()
    # retained entries are (description, property key, cost)


@dataclass(frozen=True)
class OptimizerTraceSummary:
    """Search-space statistics for one ``PdwOptimizer.optimize()`` run."""

    groups: int
    expressions: int
    options_considered: int
    options_retained: int
    options_pruned: int
    enforcers_added: int
    movements_considered: int
    movements_rejected: int
    hint_overrides: int
    optimize_seconds: float
    plan_cost: float
    plan_distribution: str


@dataclass(frozen=True)
class RetainedOption:
    """One option a group kept: description, property key, cost."""

    option: str
    property_key: str
    cost: float


@dataclass(frozen=True)
class GroupEvent:
    """One MEMO group's enumeration, as the ``optimizer_group`` event."""

    group: int
    interesting: Tuple[str, ...]
    expressions: int
    options_considered: int
    options_retained: int
    retained: Tuple[RetainedOption, ...]


@dataclass(frozen=True)
class PlanChoiceEvent:
    """The §2.5 comparison (:class:`repro.pdw.why.PlanChoice`) as the
    ``plan_choice`` event."""

    sql: str
    plan_cost: float
    baseline_cost: float
    delta: float
    delta_pct: float
    baseline_matches: bool
    movements_plan: int
    movements_baseline: int
    movements_shared: int


class OptimizerTrace:
    """Records one bottom-up enumeration run.  Not thread-safe: each
    optimize() call owns its trace (optimization is single-threaded)."""

    def __init__(self):
        self.groups: Dict[int, GroupTrace] = {}
        self.prunes: List[PruneRecord] = []
        self.movements: List[MovementRecord] = []
        self.hint_overrides: List[HintOverrideRecord] = []
        self.optimize_seconds = 0.0
        self.plan_cost = 0.0
        self.plan_distribution = ""

    # -- recording hooks (called by PdwOptimizer) ------------------------------

    def begin_group(self, group: int, interesting: Tuple[str, ...]) -> None:
        self.groups[group] = GroupTrace(group, tuple(sorted(interesting)))

    def record_enumeration(self, group: int, operator: str,
                           options: int) -> None:
        self.groups[group].enumerated.append(
            EnumerationRecord(group, operator, options))

    def record_prune(self, group: int, victim: str, property_key: str,
                     victim_cost: float, survivor: str,
                     survivor_cost: float) -> None:
        self.prunes.append(PruneRecord(group, victim, property_key,
                                       victim_cost, survivor,
                                       survivor_cost,
                                       victim_cost - survivor_cost))

    def record_movement(self, record: MovementRecord) -> None:
        self.movements.append(record)

    def record_hint_override(self, group: int, table: str, strategy: str,
                             displaced: Tuple[str, ...],
                             displaced_costs: Tuple[float, ...],
                             kept: int) -> None:
        self.hint_overrides.append(HintOverrideRecord(
            group, table, strategy, displaced, displaced_costs, kept))

    def end_group(self, group: int, considered: int,
                  retained: Tuple[Tuple[str, str, float], ...]) -> None:
        trace = self.groups[group]
        trace.options_considered = considered
        trace.options_retained = len(retained)
        trace.retained = retained

    def finish(self, plan_cost: float, plan_distribution: str,
               optimize_seconds: float) -> None:
        self.plan_cost = plan_cost
        self.plan_distribution = plan_distribution
        self.optimize_seconds = optimize_seconds

    # -- views -----------------------------------------------------------------

    @property
    def enforcers_added(self) -> int:
        return sum(1 for m in self.movements
                   if m.chosen and m.context == "enforce")

    def summary(self) -> OptimizerTraceSummary:
        considered = sum(g.options_considered for g in self.groups.values())
        retained = sum(g.options_retained for g in self.groups.values())
        rejected = sum(1 for m in self.movements if not m.chosen)
        return OptimizerTraceSummary(
            groups=len(self.groups),
            expressions=sum(len(g.enumerated)
                            for g in self.groups.values()),
            options_considered=considered,
            options_retained=retained,
            options_pruned=len(self.prunes),
            enforcers_added=self.enforcers_added,
            movements_considered=len(self.movements),
            movements_rejected=rejected,
            hint_overrides=len(self.hint_overrides),
            optimize_seconds=self.optimize_seconds,
            plan_cost=self.plan_cost,
            plan_distribution=self.plan_distribution,
        )

    def rejected_movements(self, top_k: Optional[int] = None
                           ) -> List[MovementRecord]:
        """Movements costed but not inserted, costliest first — the
        alternatives the optimizer paid to evaluate and walked away
        from."""
        rejected = sorted((m for m in self.movements if not m.chosen),
                          key=lambda m: (-m.move_cost, m.group))
        return rejected if top_k is None else rejected[:top_k]

    def prune_effectiveness(self) -> Dict[str, Tuple[int, float, float]]:
        """Per property key: (victims pruned, mean cost delta, max cost
        delta) — how much worse the discarded options were."""
        grouped: Dict[str, List[float]] = {}
        for record in self.prunes:
            grouped.setdefault(record.property_key, []).append(
                record.cost_delta)
        return {
            key: (len(deltas), sum(deltas) / len(deltas), max(deltas))
            for key, deltas in sorted(grouped.items())
        }
