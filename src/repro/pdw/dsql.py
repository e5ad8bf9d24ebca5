"""DSQL plan generation (paper §2.4, §3.4, Figure 6).

The winning PDW plan tree is cut at its :class:`DataMovement` nodes into
sequential **DSQL steps**:

* each movement becomes a **DMS step**: the SQL statement extracting the
  source rows (run against the per-node DBMS instances), the tuple routing
  policy, and the destination temp table (``TEMP_ID_k``);
* the fragment above the last movement becomes the **Return step**, whose
  SQL streams result tuples back through the control node, carrying the
  user's ORDER BY / TOP.

Steps execute serially, one at a time, each one parallel across nodes —
exactly the execution model of §2.4 ("plans are executed serially, one
step at a time ... a single step typically involves parallel operations
across multiple compute nodes").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import LogicalGet
from repro.algebra.physical import PlanNode
from repro.algebra.properties import DistKind, Distribution
from repro.catalog.schema import (
    Column,
    ON_CONTROL,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.common.errors import PdwOptimizerError
from repro.obs.profiler import OperatorEstimate, fragment_operator_estimates
from repro.pdw.dms import DataMovement
from repro.pdw.qrel import build_name_map, plan_fragment_to_sql
from repro.telemetry import NULL_TRACER, Tracer


#: Every generator-issued temp table is named ``TEMP_ID_k``.
TEMP_PREFIX = "TEMP_ID_"


def execution_temp_name(name: str, execution_id: int) -> str:
    """``name`` namespaced to one execution of a cached plan
    (``TEMP_ID_1`` → ``TEMP_ID_1_E42``), so concurrent executions of
    the same (or different) plans never collide on the appliance."""
    return f"{name}_E{execution_id}"


@dataclass(frozen=True, eq=False)
class PlanBinding:
    """What one execution of a plan runs with, set on each of its steps:
    the ``template`` plan whose prepared steps it runs (the runtime
    prepares a template at its first execution and keeps the result on
    ``template.prepared``), the literal values it swaps into their slots
    (slot key → new literal, see :mod:`repro.appliance.prepared`; empty
    for the template's own), and this execution's name of every temp
    table, in the template's step order."""

    template: "DsqlPlan"
    literals: Mapping
    temps: Tuple[str, ...]


class StepKind(enum.Enum):
    DMS = "dms"
    RETURN = "return"


@dataclass
class DsqlStep:
    """One step of a DSQL plan."""

    index: int
    kind: StepKind
    sql: str
    source_location: Distribution
    movement: Optional[DataMovement] = None
    destination_table: Optional[TableDef] = None
    hash_column: Optional[str] = None
    estimated_rows: float = 0.0
    estimated_bytes: float = 0.0
    estimated_cost: float = 0.0
    #: Per-operator cardinality estimates of the step's source fragment
    #: (postorder), joined against runtime actuals by the profiler.
    operator_estimates: List[OperatorEstimate] = field(default_factory=list)
    #: Set on a step of an execution copy (:class:`PlanBinding`).
    binding: Optional[PlanBinding] = field(default=None, repr=False,
                                           compare=False)

    @property
    def label(self) -> str:
        """The step's operation as every lens shows it: its movement
        (``"ShuffleMove(k)"``) or ``"Return"``."""
        return (self.movement.describe() if self.movement is not None
                else "Return")

    @property
    def kind_label(self) -> str:
        """The step's kind as every lens shows it: ``"DMS"`` or
        ``"Return"``."""
        return "DMS" if self.movement is not None else "Return"

    def describe(self) -> str:
        if self.kind is StepKind.RETURN:
            header = f"DSQL step {self.index}: Return"
        else:
            target = self.destination_table.name if self.destination_table \
                else "?"
            detail = self.movement.describe() if self.movement else "Move"
            header = (f"DSQL step {self.index}: DMS {detail} "
                      f"-> {target} "
                      f"(est. {self.estimated_rows:.0f} rows, "
                      f"{self.estimated_cost:.6f}s)")
        return f"{header}\n  {self.sql}"


@dataclass
class DsqlPlan:
    """An ordered list of DSQL steps plus result presentation info."""

    steps: List[DsqlStep]
    output_names: List[str]
    order_by: List[Tuple[str, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    total_cost: float = 0.0
    #: The steps parsed and bound once
    #: (:class:`repro.appliance.prepared.PreparedPlan`), built by the
    #: runtime at the plan's first execution.
    prepared: Optional[object] = field(default=None, repr=False,
                                       compare=False)
    #: The template's literal-insensitive plan hash
    #: (:func:`repro.obs.query_store.plan_shape_digest`), computed at
    #: its first request.
    shape_hash: Optional[str] = field(default=None, repr=False,
                                      compare=False)
    #: :attr:`step_facts`, once read.  Not an ``__init__`` field, so a
    #: ``replace`` copy (an execution copy, other steps) computes its
    #: own.
    _step_facts: Optional[Tuple[Tuple[int, str, str, float], ...]] = \
        field(default=None, init=False, repr=False, compare=False)

    @property
    def step_facts(self) -> Tuple[Tuple[int, str, str, float], ...]:
        """Each step's (index, kind label, label, estimated rows): what
        the request record and the Query Store show of a template step,
        computed at the first read and kept."""
        facts = self._step_facts
        if facts is None:
            # Racing first readers build equal tuples; last store wins.
            facts = self._step_facts = tuple(
                (step.index, step.kind_label, step.label,
                 float(step.estimated_rows)) for step in self.steps)
        return facts

    @property
    def temp_names(self) -> Tuple[str, ...]:
        """The destination temp table of every DMS step, in step
        order."""
        return tuple(step.destination_table.name for step in self.steps
                     if step.destination_table is not None)

    def bind(self) -> "DsqlPlan":
        """This plan as its own execution: every step carries one
        :class:`PlanBinding` to it, with no literal swapped and the
        plan's own temp names (an execution of a cached template is
        stamped out by
        :func:`repro.service.plan_cache.instantiate_plan`)."""
        binding = PlanBinding(self, {}, self.temp_names)
        return replace(self, steps=[replace(step, binding=binding)
                                    for step in self.steps])

    @property
    def movement_steps(self) -> List[DsqlStep]:
        return [s for s in self.steps if s.kind is StepKind.DMS]

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)


class DsqlGenerator:
    """Figure 2: "DSQL generator" — plan tree in, executable steps out."""

    def __init__(self, temp_prefix: str = TEMP_PREFIX):
        self.temp_prefix = temp_prefix

    def generate(self, plan: PlanNode,
                 output_names: List[str],
                 output_vars: List[ex.ColumnVar],
                 order_by: Optional[List[Tuple[ex.ColumnVar, bool]]] = None,
                 limit: Optional[int] = None,
                 final_distribution: Optional[Distribution] = None,
                 total_cost: float = 0.0,
                 tracer: Tracer = NULL_TRACER) -> DsqlPlan:
        with tracer.span("dsql.generate") as span:
            result = self._generate(
                plan, output_names, output_vars, order_by, limit,
                final_distribution, total_cost)
            if tracer.enabled:
                span.set("steps", len(result.steps))
        return result

    def _generate(self, plan: PlanNode,
                  output_names: List[str],
                  output_vars: List[ex.ColumnVar],
                  order_by: Optional[List[Tuple[ex.ColumnVar, bool]]],
                  limit: Optional[int],
                  final_distribution: Optional[Distribution],
                  total_cost: float) -> DsqlPlan:
        plan = plan.clone_tree()  # cutting rewrites nodes in place
        name_map = self._name_map(plan)
        steps: List[DsqlStep] = []

        rewritten = self._cut_movements(plan, name_map, steps)

        final_sql = plan_fragment_to_sql(
            rewritten, name_map,
            order_by=order_by, limit=limit,
            output_names=output_names, output_vars=output_vars,
        )
        location = final_distribution or Distribution(DistKind.ON_CONTROL)
        steps.append(DsqlStep(
            index=len(steps),
            kind=StepKind.RETURN,
            sql=final_sql,
            source_location=location,
            estimated_rows=rewritten.cardinality,
            estimated_bytes=rewritten.cardinality * rewritten.row_width,
            operator_estimates=fragment_operator_estimates(rewritten),
        ))
        return DsqlPlan(
            steps=steps,
            output_names=list(output_names),
            order_by=[
                (_output_name(var, output_vars, output_names, name_map), asc)
                for var, asc in (order_by or [])
            ],
            limit=limit,
            total_cost=total_cost,
        )

    # -- internals ---------------------------------------------------------------

    def _name_map(self, plan: PlanNode) -> Dict[int, str]:
        vars_seen: List[ex.ColumnVar] = []
        for node in plan.walk():
            vars_seen.extend(node.output_columns)
            if isinstance(node.op, LogicalGet):
                vars_seen.extend(node.op.columns)
        return build_name_map(vars_seen)

    def _cut_movements(self, node: PlanNode, name_map: Dict[int, str],
                       steps: List[DsqlStep]) -> PlanNode:
        node.children = [
            self._cut_movements(child, name_map, steps)
            for child in node.children
        ]
        if not isinstance(node.op, DataMovement):
            return node

        movement: DataMovement = node.op
        child = node.children[0]
        sql = plan_fragment_to_sql(child, name_map)
        temp_name = f"{self.temp_prefix}{len(steps) + 1}"
        temp_def = self._temp_table_def(temp_name, child, movement,
                                        name_map)
        hash_column = (name_map[movement.hash_columns[0].id]
                       if movement.hash_columns else None)
        steps.append(DsqlStep(
            index=len(steps),
            kind=StepKind.DMS,
            sql=sql,
            source_location=movement.source,
            movement=movement,
            destination_table=temp_def,
            hash_column=hash_column,
            estimated_rows=node.cardinality,
            estimated_bytes=node.cardinality * node.row_width,
            estimated_cost=max(0.0, node.cost - child.cost),
            operator_estimates=fragment_operator_estimates(child),
        ))
        get = LogicalGet(temp_def, list(child.output_columns),
                         alias=temp_name)
        return PlanNode(
            get, [],
            output_columns=list(child.output_columns),
            cardinality=node.cardinality,
            row_width=node.row_width,
            cost=node.cost,
        )

    def _temp_table_def(self, name: str, child: PlanNode,
                        movement: DataMovement,
                        name_map: Dict[int, str]) -> TableDef:
        columns = [
            Column(name_map[var.id], var.sql_type)
            for var in child.output_columns
        ]
        target = movement.target
        if target.kind is DistKind.HASHED:
            hash_names = []
            for column_id in target.columns:
                match = next(
                    (name_map[var.id] for var in child.output_columns
                     if var.id == column_id), None)
                if match is None:
                    raise PdwOptimizerError(
                        f"hash column #{column_id} missing from moved "
                        f"result for {name}")
                hash_names.append(match)
            distribution = hash_distributed(*hash_names)
        elif target.kind is DistKind.REPLICATED:
            distribution = REPLICATED
        else:
            distribution = ON_CONTROL
        return TableDef(
            name, columns, distribution,
            row_count=int(round(child.cardinality)),
            is_temp=True,
        )


def _output_name(var: ex.ColumnVar, output_vars, output_names,
                 name_map: Dict[int, str]) -> str:
    for out_var, out_name in zip(output_vars, output_names):
        if out_var.id == var.id:
            return out_name
    return name_map[var.id]
