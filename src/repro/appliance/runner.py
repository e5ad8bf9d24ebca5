"""End-to-end DSQL plan execution (paper §2.4's execution walk-through).

``DsqlRunner.run`` executes a compiled :class:`repro.pdw.dsql.DsqlPlan`
against a simulated appliance: DMS steps move data into temp tables, the
Return step gathers result tuples through the control node, which applies
the final ORDER BY / TOP and hands the result to the "client".

With the parallel runtime on (``parallel=True``, or the
``REPRO_PARALLEL_RUNTIME`` environment override) the runner derives a
dependency DAG from each step's input temp tables and submits steps the
moment their inputs are materialized, so independent join subtrees —
e.g. TPC-H Q5's bushy shape — overlap instead of executing strictly in
index order.  Step stats are always assembled in index order, so
results and accounting are identical to the serial walk.

``run_reference`` executes the original query on the single-system image
(all data gathered in one storage map) on the reference interpreter for
correctness comparison — the distributed execution must produce exactly
the same multiset of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pdw.engine import CompiledQuery

from repro.appliance.dms_runtime import (
    DmsRuntime,
    GroundTruthConstants,
    StepExecutionStats,
)
from repro.appliance.interpreter import PlanInterpreter
from repro.appliance.scheduler import (
    StepDag,
    WorkerPool,
    resolve_parallel,
    run_dag,
)
from repro.appliance.storage import Appliance
from repro.catalog.statistics import sort_key
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.requests import NULL_REQUEST
from repro.common.errors import ExecutionError
from repro.common.executors import resolve_executor
from repro.optimizer.binder import Binder
from repro.optimizer.normalize import normalize
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer
from repro.vector.np_batch import ColumnFragment
from repro.vector.np_executor import NumpyInterpreter

#: Upper bound on concurrently executing DSQL steps.  Plans are small
#: (a handful of steps), so a narrow step pool keeps the thread count
#: proportional to the appliance rather than to plan size.
MAX_STEP_WORKERS = 8


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
    """Executes DSQL plans: serially one step at a time (§2.4), or —
    with ``parallel=True`` — as a dependency DAG whose independent
    steps overlap on a thread pool.

    ``executor`` selects the execution backend by name: ``"numpy"``
    (the default when it is not given) or ``"reference"``.
    ``parallel=None`` (default) resolves to the serial walk unless the
    ``REPRO_PARALLEL_RUNTIME`` environment variable overrides it, as
    it does at the :class:`repro.session.PdwSession` and
    :class:`repro.service.PdwService` front doors.
    """

    def __init__(self, appliance: Appliance,
                 truth: Optional[GroundTruthConstants] = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 parallel: Optional[bool] = None,
                 executor: Optional[str] = None):
        self.appliance = appliance
        self.tracer = tracer
        self.executor = resolve_executor(executor)
        self.metrics = metrics
        self.parallel = resolve_parallel(parallel, default=False)
        self.runtime = DmsRuntime(appliance, truth, tracer,
                                  metrics=metrics, executor=self.executor)
        self._step_pool = WorkerPool(
            min(MAX_STEP_WORKERS, max(2, appliance.node_count)),
            "repro-step")

    def run(self, plan: DsqlPlan, keep_temps: bool = False,
            profile: bool = False, request=NULL_REQUEST) -> QueryResult:
        """Execute a DSQL plan: an execution copy of a template
        (:meth:`~repro.pdw.dsql.DsqlPlan.bind`) runs the template's
        prepared steps; any other plan is its own template, prepared at
        its first run.  ``profile=True`` additionally collects
        per-node per-operator actuals and per-movement transfer matrices
        onto each step's :class:`StepExecutionStats` (see
        :func:`repro.obs.profiler.build_query_profile`).  ``request`` is
        the live request-lifecycle handle (default: the shared no-op) —
        step begin/end and per-node progress are reported through it so
        concurrent DMV readers see the execution at step granularity."""
        stats: List[StepExecutionStats] = []
        rows: List[Tuple] = []
        names: List[str] = list(plan.output_names)
        tracer = self.tracer
        if plan.steps and plan.steps[0].binding is None:
            plan = plan.bind()  # the plan is its own template
        if self.executor == "numpy" and plan.steps:
            self.runtime.prepared(plan.steps[0].binding.template)
        self.runtime.profiling = profile
        if request.enabled:
            request.begin_plan(plan)
        try:
            with tracer.span("execute"):
                if self.parallel and len(plan.steps) > 1:
                    rows, names, stats = self._run_dag(plan, rows, names,
                                                       request)
                else:
                    for step in plan.steps:
                        with tracer.span(self._step_label(step)) as span:
                            request.begin_step(step.index)
                            if step.kind is StepKind.DMS:
                                step_stats = \
                                    self.runtime.execute_movement(
                                        step, request=request)
                            else:
                                rows, names, step_stats = \
                                    self.runtime.execute_return(
                                        step, request=request)
                            request.end_step(step.index, step_stats)
                            stats.append(step_stats)
                            if tracer.enabled:
                                span.set("rows", step_stats.rows_moved)
                                span.set("simulated_seconds",
                                         step_stats.elapsed_seconds)
                rows = self._finalize(plan, names, rows)
        finally:
            self.runtime.profiling = False
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

    def _run_dag(self, plan: DsqlPlan, rows: List[Tuple],
                 names: List[str], request=NULL_REQUEST
                 ) -> Tuple[List[Tuple], List[str],
                            List[StepExecutionStats]]:
        """DAG-scheduled execution: submit each step once its input
        temp tables are materialized.  Worker threads must not touch
        the tracer's span stack, so per-step spans are emitted post-hoc
        (index order, measured durations attached as attributes)."""
        dag = StepDag(plan)
        returned: Dict[int, Tuple[List[Tuple], List[str]]] = {}

        def execute(index: int) -> StepExecutionStats:
            step = plan.steps[index]
            request.begin_step(index)
            if step.kind is StepKind.DMS:
                step_stats = self.runtime.execute_movement(
                    step, request=request)
            else:
                step_rows, step_names, step_stats = \
                    self.runtime.execute_return(step, request=request)
                returned[index] = (step_rows, step_names)
            request.end_step(index, step_stats)
            return step_stats

        on_submit = request.step_scheduled if request.enabled else None
        results = run_dag(dag, execute, self._step_pool,
                          on_submit=on_submit)
        stats = [results[index] for index in range(len(plan.steps))]
        tracer = self.tracer
        if tracer.enabled:
            for step, step_stats in zip(plan.steps, stats):
                with tracer.span(self._step_label(step)) as span:
                    span.set("rows", step_stats.rows_moved)
                    span.set("simulated_seconds",
                             step_stats.elapsed_seconds)
                    span.set("wall_seconds", step_stats.wall_seconds)
        for index in sorted(returned):
            rows, names = returned[index]
        return rows, names, stats

    def _finalize(self, plan: DsqlPlan, names: List[str],
                  rows: List[Tuple]) -> List[Tuple]:
        """Control-node merge: global ORDER BY and TOP over gathered rows."""
        if plan.order_by:
            positions = []
            for column, ascending in plan.order_by:
                try:
                    positions.append((names.index(column), ascending))
                except ValueError:
                    raise ExecutionError(
                        f"ORDER BY column {column!r} missing from result")
            for position, ascending in reversed(positions):
                rows = sorted(rows,
                              key=lambda row: sort_key(row[position]),
                              reverse=not ascending)
        if plan.limit is not None:
            rows = rows[:plan.limit]
        return rows


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
