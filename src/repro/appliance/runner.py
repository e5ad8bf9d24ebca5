"""End-to-end DSQL plan execution (paper §2.4's execution walk-through).

``DsqlRunner.run`` executes a compiled :class:`repro.pdw.dsql.DsqlPlan`
against a simulated appliance: DMS steps move data into temp tables, the
Return step gathers the result through the control node, which applies
the final ORDER BY / TOP and hands the result rows to the "client".
Steps run one at a time, in index order, as §2.4 walks them; each step
is already parallel across the compute nodes it runs on.

``run_reference`` executes the original query on the single-system image
(all data gathered in one storage map) on the reference interpreter for
correctness comparison — the distributed execution must produce exactly
the same multiset of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pdw.engine import CompiledQuery

from repro.appliance.dms_runtime import (
    DmsRuntime,
    GroundTruthConstants,
    StepExecutionStats,
)
from repro.appliance.interpreter import PlanInterpreter
from repro.appliance.storage import Appliance
from repro.catalog.statistics import sort_key
from repro.obs.requests import NULL_REQUEST
from repro.common.errors import ExecutionError, ReproError
from repro.common.executors import resolve_executor
from repro.optimizer.binder import Binder
from repro.optimizer.normalize import normalize
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer
from repro.vector.np_batch import ArrayBatch, ColumnFragment
from repro.vector.np_executor import NumpyInterpreter, order_rows

@dataclass
class ExecutionTiming:
    """Wall-clock breakdown of one query's trip through the stack.

    All figures are measured seconds (not simulated time): ``queue`` is
    admission wait, ``compile`` is optimizer time (0.0 on a plan-cache
    hit), ``execute`` is runner time, and ``total`` covers the whole
    call including bookkeeping between phases.
    """

    queue_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class QueryResult:
    """What the client receives, plus execution accounting.

    Iterating (or ``len()``-ing) a result iterates its rows, so callers
    that treated ``run()``'s output as a row list keep working.  The
    session and service additionally attach the compiled-plan handle,
    the plan-cache verdict and a wall-clock timing breakdown.
    """

    columns: List[str]
    rows: List[Tuple]
    elapsed_seconds: float
    step_stats: List[StepExecutionStats] = field(default_factory=list)
    plan: Optional["CompiledQuery"] = None
    cache_hit: bool = False
    timing: Optional[ExecutionTiming] = None
    # Correlation key across DMV rows, metrics and JSONL events (set
    # by the session/service when request tracking is live).
    request_id: Optional[str] = None

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dms_seconds(self) -> float:
        """Pure data-movement time (the quantity the PDW cost model
        predicts) — local SQL extraction time is excluded."""
        return sum(
            s.movement_seconds for s in self.step_stats
            if s.operation is not None
        )

    @property
    def relational_seconds(self) -> float:
        return sum(s.relational_seconds for s in self.step_stats)

    @property
    def wall_seconds(self) -> float:
        """Measured wall clock summed over steps (not simulated time)."""
        return sum(s.wall_seconds for s in self.step_stats)

    def sorted_rows(self) -> List[Tuple]:
        """Rows in a canonical order (for comparisons in tests)."""
        return sorted(self.rows,
                      key=lambda row: tuple(sort_key(v) for v in row))


class DsqlRunner:
    """Executes DSQL plans one step at a time, in index order (§2.4).

    ``executor`` selects the execution backend by name: ``"numpy"``
    (the default when it is not given) or ``"reference"``.
    """

    def __init__(self, appliance: Appliance,
                 truth: Optional[GroundTruthConstants] = None,
                 tracer: Tracer = NULL_TRACER,
                 parallel: bool = False,
                 executor: Optional[str] = None):
        # Read-only leftover: pdwbench's layers.py passes parallel=False.
        # It goes once that caller is updated (ROADMAP item 4).
        if parallel:
            raise ReproError("there is no parallel step runtime: "
                             "DSQL steps run one at a time")
        self.appliance = appliance
        self.tracer = tracer
        self.executor = resolve_executor(executor)
        self.runtime = DmsRuntime(appliance, truth,
                                  executor=self.executor)

    def run(self, plan: DsqlPlan, keep_temps: bool = False,
            profile: bool = False, request=NULL_REQUEST) -> QueryResult:
        """Execute a DSQL plan: an execution copy of a template
        (:func:`~repro.service.plan_cache.instantiate_plan`) runs the
        template's prepared steps; any other plan is its own template
        (:meth:`~repro.pdw.dsql.DsqlPlan.bind`), prepared at its first
        run.  ``profile=True`` additionally collects
        per-node per-operator actuals and per-movement transfer matrices
        onto each step's :class:`StepExecutionStats` (see
        :func:`repro.obs.profiler.build_query_profile`).  ``request`` is
        the live request-lifecycle handle (default: the shared no-op):
        the plan's start and each step's begin and end — with its stats,
        per-node rows included — are reported through it, so concurrent
        DMV readers see the execution at step granularity.  The runner
        writes no metric series; the service does, once the request
        finishes."""
        stats: List[StepExecutionStats] = []
        output = ArrayBatch({}, 0)
        names: List[str] = list(plan.output_names)
        tracer = self.tracer
        if plan.steps and plan.steps[0].binding is None:
            plan = plan.bind()  # the plan is its own template
        template = plan.steps[0].binding.template if plan.steps else plan
        if self.executor == "numpy" and plan.steps:
            self.runtime.prepared(template)
        if request.enabled:
            request.begin_plan(template)
        try:
            with tracer.span("execute"):
                for step in plan.steps:
                    with tracer.span(self._step_label(step)) as span:
                        request.begin_step(step.index)
                        if step.kind is StepKind.DMS:
                            step_stats = self.runtime.execute_movement(
                                step, profile)
                        else:
                            output, names, step_stats = \
                                self.runtime.execute_return(step, profile)
                        request.end_step(step.index, step_stats)
                        stats.append(step_stats)
                        if tracer.enabled:
                            span.set("rows", step_stats.rows_moved)
                            span.set("simulated_seconds",
                                     step_stats.elapsed_seconds)
                rows = self._finalize(plan, names, output)
        finally:
            if not keep_temps:
                self.appliance.drop_temp_tables()
        return QueryResult(
            columns=names,
            rows=rows,
            elapsed_seconds=sum(s.elapsed_seconds for s in stats),
            step_stats=stats,
        )

    @staticmethod
    def _step_label(step: DsqlStep) -> str:
        return (f"step{step.index}."
                + (step.movement.operation.value
                   if step.movement else "return"))

    def _finalize(self, plan: DsqlPlan, names: List[str],
                  output: ArrayBatch) -> List[Tuple]:
        """Control-node merge: global ORDER BY and TOP over the Return
        step's batch, ordered and cut as columns (:func:`order_rows`),
        then tuples built for the kept rows only — the client's rows."""
        positions = []
        for column, ascending in plan.order_by:
            try:
                positions.append((names.index(column), ascending))
            except ValueError:
                raise ExecutionError(
                    f"ORDER BY column {column!r} missing from result")
        if not positions and plan.limit is None:
            return output.rows()
        order, _ = order_rows(
            [(output.columns[position], ascending)
             for position, ascending in positions],
            output.length, limit=plan.limit)
        return output.rows(order)


def run_reference(appliance: Appliance, sql: str,
                  executor: Optional[str] = None) -> QueryResult:
    """Execute ``sql`` against the single-system image (ground truth).

    Runs on the tree-walking reference interpreter unless ``executor``
    names another backend (``"numpy"`` runs the production executor on
    the image's rows as row fragments, a group of one, each column
    encoded as the query reads it).  The bound tree is normalized first
    so comma-joins become hash joins — the naive interpreter would
    otherwise materialize raw cross products.  The image itself is
    cached on the appliance (invalidated on loads and drops), so
    repeated reference runs skip re-gathering every fragment.
    """
    statement = parse_query(sql)
    query = normalize(Binder(appliance.catalog).bind(statement))
    image = appliance.single_system_image()
    if resolve_executor(executor or "reference") == "numpy":
        interpreter = NumpyInterpreter({
            name: ColumnFragment.from_rows(rows)
            for name, rows in image.items()})
    else:
        interpreter = PlanInterpreter(image)
    rows = interpreter.run_query(query)
    return QueryResult(
        columns=list(query.output_names),
        rows=rows,
        elapsed_seconds=0.0,
    )
