"""``PdwSession`` — the unified front door to the reproduction.

The session owns the four pieces every caller previously wired by hand
(appliance, shell database, compilation engine, tracer) and exposes the
three verbs that cover the pipeline end to end:

* :meth:`PdwSession.compile` — SQL text → :class:`CompiledQuery`;
* :meth:`PdwSession.run` — compile + execute on the appliance →
  :class:`QueryResult`;
* :meth:`PdwSession.explain` — human-readable plan report;
  ``explain(analyze=True)`` *executes* the plan and renders a per-DSQL-step
  table of estimated vs. actual rows / DMS bytes / simulated seconds — the
  reproduction's EXPLAIN ANALYZE;
* :meth:`PdwSession.profile` — compile + execute with per-node /
  per-operator profiling: skew statistics over the DMS transfer matrices
  and Q-errors joining optimizer estimates against runtime actuals
  (:meth:`profile_report` renders the tables; ``repro profile`` on the
  CLI);
* :meth:`PdwSession.why` — compile with the optimizer search-space
  recorder on and render "why this plan": the winning distributed plan
  against the §2.5 parallelized-serial baseline (per-subtree DMS cost
  deltas) plus the enumeration/prune/enforce trace tables
  (``repro why`` on the CLI; ``explain(optimizer=True)`` appends the
  same section).  :meth:`PdwSession.optimizer_trace` and
  :meth:`PdwSession.plan_choice` return the structured forms.

A session created with just SQL text binds that text as its default query,
so the one-liner from the README works::

    print(PdwSession("SELECT COUNT(*) AS n FROM lineitem")
          .explain(analyze=True))

Every knob travels in one frozen
:class:`repro.service.ExecutionOptions` object accepted at construction
(``PdwSession(options=...)``) and on every verb (``run(options=...)``).

Execution uses the numpy backend by default — each DSQL step's SQL is
parsed + bound once and run once over every source node's fragment
stacked, on typed ndarrays, and DMS steps move those columns, not row
tuples, into the next step's temp table.
``ExecutionOptions(executor="reference")`` (CLI: ``--executor
reference``) runs the tree-walking reference interpreter instead, node
by node — the oracle the differential tests compare against.

The session defaults to the **serial appliance runtime** of §2.4: one
step at a time.  ``PdwSession(options=ExecutionOptions(parallel=True))``
(CLI: ``--parallel-runtime``) schedules DSQL steps as a dependency DAG
on a thread pool instead (independent join subtrees overlap), with
results and stats identical to the serial walk; under the GIL it
measures slower than the serial walk (EXPERIMENTS.md, "Parallel
runtime"), which is why it is opt-in.  The ``REPRO_PARALLEL_RUNTIME`` environment variable
overrides the default for whole test-suite sweeps.

Telemetry is on by default (the session is the observability surface; the
low-level classes default to the no-op tracer): every compile and run
appends spans to :attr:`PdwSession.tracer`, and :meth:`trace_report` /
:meth:`stats_report` render the span tree and the counter totals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.appliance.runner import DsqlRunner, ExecutionTiming, QueryResult
from repro.appliance.storage import Appliance
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import ReproError
from repro.obs.export import optimizer_trace_to_metrics, profile_to_metrics
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.opt_trace import OptimizerTrace
from repro.obs.profiler import QueryProfile, build_query_profile
from repro.obs.report import (
    render_optimizer_trace_report,
    render_profile_report,
    render_requests_report,
)
from repro.obs.query_store import NULL_QUERY_STORE, QueryStore
from repro.obs.requests import (
    DEFAULT_SLOW_SECONDS,
    NULL_REQUESTS,
    RequestRegistry,
)
from repro.obs.system_views import (
    mentions_system_views,
    refresh_system_views,
    register_system_views,
)
from repro.optimizer.search import OptimizerConfig
from repro.pdw.dsql import StepKind
from repro.pdw.engine import CompiledQuery, PdwEngine
from repro.pdw.enumerator import PdwConfig
from repro.pdw.why import PlanChoice, explain_plan_choice, render_plan_choice
from repro.service.options import ExecutionOptions
from repro.telemetry import NULL_TRACER, Tracer
from repro.workloads.tpch_datagen import build_tpch_appliance


@dataclass
class StepAnalysis:
    """One row of the EXPLAIN ANALYZE table: estimate vs. measurement."""

    index: int
    kind: str                 # "DMS" or "Return"
    operation: str            # movement description or "Return"
    estimated_rows: float
    actual_rows: int
    estimated_bytes: float
    actual_bytes: int
    estimated_seconds: float  # DMS cost model prediction
    actual_seconds: float     # simulated elapsed (movement + local SQL)


class PdwSession:
    """Owns appliance + shell + engine + tracer; the recommended API."""

    def __init__(self, sql: Optional[str] = None, *,
                 scale: float = 0.002,
                 node_count: int = 8,
                 appliance: Optional[Appliance] = None,
                 shell: Optional[ShellDatabase] = None,
                 options: Optional[ExecutionOptions] = None,
                 serial_config: Optional[OptimizerConfig] = None,
                 pdw_config: Optional[PdwConfig] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 requests: Optional[RequestRegistry] = None,
                 query_store: Optional[QueryStore] = None):
        if (appliance is None) != (shell is None):
            raise ReproError(
                "pass both appliance and shell, or neither "
                "(a shell database must describe its appliance)")
        if appliance is None:
            appliance, shell = build_tpch_appliance(scale=scale,
                                                    node_count=node_count)
        self.sql = sql
        self.appliance = appliance
        self.shell = shell
        opts = (options if options is not None
                else ExecutionOptions()).resolved()
        self.options = opts
        self.executor = opts.executor
        self.parallel = opts.parallel
        if tracer is None:
            tracer = Tracer() if opts.trace else NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            metrics = MetricsRegistry() if opts.trace else NULL_METRICS
        self.metrics = metrics
        # Request-lifecycle registry: live whenever tracing is (it is the
        # observability surface), shareable across sessions/services by
        # passing the same registry object in.
        if requests is None:
            threshold = (opts.slow_seconds if opts.slow_seconds
                         is not None else DEFAULT_SLOW_SECONDS)
            requests = (RequestRegistry(slow_threshold_seconds=threshold)
                        if opts.trace else NULL_REQUESTS)
        self.requests = requests
        # Query store: live whenever tracing is (same rule as the
        # flight recorder); pass NULL_QUERY_STORE to opt out.
        if query_store is None:
            query_store = QueryStore() if opts.trace else NULL_QUERY_STORE
        self.query_store = query_store
        if requests.enabled or query_store.enabled:
            register_system_views(appliance)
        self.engine = PdwEngine(shell, serial_config, pdw_config,
                                tracer=tracer)
        self.runner = DsqlRunner(appliance, tracer=tracer,
                                 executor=opts.executor, metrics=metrics,
                                 parallel=opts.parallel)
        # Per-call options may flip executor/parallel; variant runners
        # are built lazily and reused.
        self._runners: Dict[Tuple[str, bool], DsqlRunner] = {
            (opts.executor, opts.parallel): self.runner,
        }

    # -- options plumbing ------------------------------------------------------

    def _call_options(self, options: Optional[ExecutionOptions]
                      ) -> ExecutionOptions:
        """The effective options for one verb call: per-call object,
        else the session's."""
        return (options if options is not None
                else self.options).resolved()

    def _runner_for(self, opts: ExecutionOptions) -> DsqlRunner:
        key = (opts.executor, bool(opts.parallel))
        runner = self._runners.get(key)
        if runner is None:
            runner = DsqlRunner(self.appliance, tracer=self.tracer,
                                executor=opts.executor,
                                metrics=self.metrics,
                                parallel=opts.parallel)
            self._runners[key] = runner
        return runner

    # -- the three verbs -------------------------------------------------------

    def compile(self, sql: Optional[str] = None, *,
                options: Optional[ExecutionOptions] = None
                ) -> CompiledQuery:
        """Compile SQL (or the session's bound query) into a DSQL plan."""
        opts = self._call_options(options)
        resolved = self._resolve(sql)
        # EXPLAIN over sys.dm_pdw_* must see the views registered and
        # populated before binding.
        if (self.requests.enabled or self.query_store.enabled) \
                and mentions_system_views(resolved):
            self.refresh_system_views()
        return self.engine.compile(resolved, hints=opts.hints_dict)

    def run(self, sql: Optional[str] = None, *,
            options: Optional[ExecutionOptions] = None) -> QueryResult:
        """Compile and execute on the appliance.

        The :class:`QueryResult` carries the client rows and per-step
        stats, plus the compiled-plan handle (``result.plan``) and a
        wall-clock compile/execute breakdown (``result.timing``);
        iterating the result iterates its rows.
        """
        opts = self._call_options(options)
        resolved = self._resolve(sql)
        request = self.requests.begin(resolved, tenant=opts.tenant,
                                      priority=opts.priority)
        # Refresh after begin so a DMV query observes itself (queued).
        if (self.requests.enabled or self.query_store.enabled) \
                and mentions_system_views(resolved):
            self.refresh_system_views()
        started = time.perf_counter()
        try:
            request.compiling()
            compiled = self.engine.compile(resolved,
                                           hints=opts.hints_dict)
            compile_seconds = time.perf_counter() - started
            execute_started = time.perf_counter()
            result = self._runner_for(opts).run(compiled.dsql_plan,
                                                profile=opts.profile,
                                                request=request)
            execute_seconds = time.perf_counter() - execute_started
        except Exception as exc:
            request.failed(str(exc),
                           total_seconds=time.perf_counter() - started)
            raise
        total_seconds = time.perf_counter() - started
        result.plan = compiled
        result.timing = ExecutionTiming(
            compile_seconds=compile_seconds,
            execute_seconds=execute_seconds,
            total_seconds=total_seconds,
        )
        result.request_id = request.request_id
        request.complete(rows=len(result.rows), cache_hit=False,
                         queue_seconds=0.0,
                         compile_seconds=compile_seconds,
                         execute_seconds=execute_seconds,
                         total_seconds=total_seconds)
        if self.query_store.enabled:
            self.query_store.stamp(
                resolved, compiled.dsql_plan, result,
                schema_version=self.appliance.schema_version,
                cache_hit=False, timing=result.timing)
        return result

    def explain(self, sql: Optional[str] = None,
                analyze: bool = False,
                verbose: bool = False,
                optimizer: bool = False, *,
                options: Optional[ExecutionOptions] = None) -> str:
        """Render the compiled plan; ``analyze=True`` also executes it and
        appends the per-step estimated-vs-actual table;
        ``optimizer=True`` recompiles with the search-space recorder on
        and appends the "why this plan" §2.5 baseline diff plus the
        enumeration/prune/enforce trace."""
        if optimizer:
            compiled, trace, choice = self.plan_choice(sql, options=options)
        else:
            compiled = self.compile(sql, options=options)
        text = compiled.explain(verbose=verbose)
        if analyze:
            analyses, result = self.analyze_plan(compiled)
            text = "\n".join([
                text,
                "",
                render_analysis_table(analyses),
                f"-- {len(result.rows)} result rows, "
                f"{result.elapsed_seconds * 1e3:.3f} ms simulated "
                f"({result.dms_seconds * 1e3:.3f} ms data movement)",
            ])
        if optimizer:
            text = "\n".join([
                text,
                "",
                render_plan_choice(choice),
                "",
                render_optimizer_trace_report(trace),
            ])
        return text

    def profile(self, sql: Optional[str] = None, *,
                options: Optional[ExecutionOptions] = None
                ) -> QueryProfile:
        """Compile and execute with per-node / per-operator profiling on.

        Returns a :class:`repro.obs.profiler.QueryProfile`: per-step skew
        statistics over the DMS transfer matrices, per-operator actual row
        counts on every node, and Q-errors joining the winning plan's
        cardinality estimates against those actuals.  When the session's
        metrics registry is live the profile is also folded into it, so
        ``session.metrics.render_prometheus()`` includes the run.
        """
        opts = self._call_options(options)
        resolved = self._resolve(sql)
        compiled = self.compile(resolved, options=opts)
        result = self._runner_for(opts).run(compiled.dsql_plan,
                                            profile=True)
        profile = build_query_profile(
            compiled.dsql_plan.steps, result.step_stats,
            node_count=self.appliance.node_count,
            sql=resolved,
            elapsed_seconds=result.elapsed_seconds,
            dms_seconds=result.dms_seconds,
        )
        if self.metrics.enabled:
            profile_to_metrics(profile, self.metrics)
        return profile

    def profile_report(self, sql: Optional[str] = None, *,
                       options: Optional[ExecutionOptions] = None) -> str:
        """:meth:`profile` rendered as per-step and per-operator tables
        with skew and Q-error columns."""
        return render_profile_report(self.profile(sql, options=options))

    # -- optimizer search-space tracing ----------------------------------------

    def optimizer_trace(self, sql: Optional[str] = None, *,
                        options: Optional[ExecutionOptions] = None
                        ) -> Tuple[CompiledQuery, OptimizerTrace]:
        """Compile with a live :class:`repro.obs.OptimizerTrace`.

        Tracing never changes the outcome: the winning plan, its cost,
        and every downstream artifact are identical to an untraced
        compilation of the same query.
        """
        opts = self._call_options(options)
        trace = OptimizerTrace()
        compiled = self.engine.compile(self._resolve(sql),
                                       hints=opts.hints_dict,
                                       opt_trace=trace)
        return compiled, trace

    def plan_choice(self, sql: Optional[str] = None, *,
                    options: Optional[ExecutionOptions] = None
                    ) -> Tuple[CompiledQuery, OptimizerTrace, PlanChoice]:
        """Traced compilation plus the §2.5 baseline comparison.

        When the session's metrics registry is live, the trace and the
        comparison are folded into it as ``pdw_optimizer_*`` series, so
        ``session.metrics.render_prometheus()`` includes the run.
        """
        compiled, trace = self.optimizer_trace(sql, options=options)
        choice = explain_plan_choice(compiled, self.shell)
        if self.metrics.enabled:
            optimizer_trace_to_metrics(trace, self.metrics,
                                       plan_choice=choice)
        return compiled, trace, choice

    def why(self, sql: Optional[str] = None,
            top_k: int = 10, *,
            options: Optional[ExecutionOptions] = None) -> str:
        """"Why did the optimizer pick this plan?" — the rendered §2.5
        baseline diff followed by the search-space trace tables."""
        _compiled, trace, choice = self.plan_choice(sql, options=options)
        return "\n".join([
            render_plan_choice(choice),
            "",
            render_optimizer_trace_report(trace, top_k=top_k),
        ])

    # -- EXPLAIN ANALYZE internals --------------------------------------------

    def analyze_plan(self, compiled: CompiledQuery
                     ) -> Tuple[List[StepAnalysis], QueryResult]:
        """Execute a compiled plan and join each DSQL step's estimates
        with its measured execution stats."""
        result = self.runner.run(compiled.dsql_plan)
        analyses: List[StepAnalysis] = []
        for step, stats in zip(compiled.dsql_plan.steps, result.step_stats):
            if step.kind is StepKind.DMS:
                kind = "DMS"
                operation = (step.movement.describe() if step.movement
                             else "Move")
                actual_bytes = stats.total_bytes()
            else:
                kind = "Return"
                operation = "Return"
                actual_bytes = sum(stats.network_bytes.values())
            analyses.append(StepAnalysis(
                index=step.index,
                kind=kind,
                operation=operation,
                estimated_rows=step.estimated_rows,
                actual_rows=stats.rows_moved,
                estimated_bytes=step.estimated_bytes,
                actual_bytes=actual_bytes,
                estimated_seconds=step.estimated_cost,
                actual_seconds=stats.elapsed_seconds,
            ))
        return analyses, result

    # -- request lifecycle / system views --------------------------------------

    def refresh_system_views(self) -> None:
        """Materialize the ``sys.dm_pdw_*`` and ``sys.query_store_*``
        snapshot tables from the live request registry and query store.
        Called automatically whenever a query mentions a system view;
        callable directly to pre-warm them."""
        refresh_system_views(self.appliance, self.requests,
                             query_store=self.query_store)

    def requests_report(self, slow_only: bool = False) -> str:
        """The flight recorder rendered as terminal tables (the
        ``repro requests`` output)."""
        return render_requests_report(self.requests, slow_only=slow_only)

    # -- telemetry reports -----------------------------------------------------

    def trace_report(self) -> str:
        """The nested span tree accumulated so far."""
        return self.tracer.render_spans()

    def stats_report(self) -> str:
        """Compile-phase timing breakdown plus all counter totals."""
        lines = ["Phase timings:"]
        compile_span = self.tracer.find("compile")
        if compile_span is None:
            lines.append("  (no compilation traced)")
        else:
            for span in compile_span.walk():
                lines.append(
                    f"  {span.name:<28} "
                    f"{span.duration_seconds * 1e3:9.3f} ms")
        lines += ["", "Counters:"]
        counters = self.tracer.render_counters()
        lines += ["  " + line for line in counters.splitlines()]
        return "\n".join(lines)

    # -- plumbing --------------------------------------------------------------

    def _resolve(self, sql: Optional[str]) -> str:
        resolved = sql if sql is not None else self.sql
        if resolved is None:
            raise ReproError(
                "no SQL given: pass sql to the method or bind a query "
                "when creating the PdwSession")
        return resolved


def render_analysis_table(analyses: List[StepAnalysis]) -> str:
    """The EXPLAIN ANALYZE table: one aligned row per DSQL step plus a
    totals row.

    "est s (DMS)" is the DMS cost model's *data-movement* prediction only
    — local SQL extraction time is outside the model (§5) — whereas
    "act s" is the full simulated step time, so the two columns are not
    directly comparable on movement-light steps.
    """
    headers = ["step", "operation", "est rows", "act rows",
               "est bytes", "act bytes", "est s (DMS)", "act s"]
    rows = [[
        str(a.index),
        a.operation,
        f"{a.estimated_rows:.0f}",
        str(a.actual_rows),
        f"{a.estimated_bytes:.0f}",
        str(a.actual_bytes),
        f"{a.estimated_seconds:.6f}",
        f"{a.actual_seconds:.6f}",
    ] for a in analyses]
    if analyses:
        rows.append([
            "",
            "total",
            f"{sum(a.estimated_rows for a in analyses):.0f}",
            str(sum(a.actual_rows for a in analyses)),
            f"{sum(a.estimated_bytes for a in analyses):.0f}",
            str(sum(a.actual_bytes for a in analyses)),
            f"{sum(a.estimated_seconds for a in analyses):.6f}",
            f"{sum(a.actual_seconds for a in analyses):.6f}",
        ])
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: List[str]) -> str:
        padded = []
        for i, cell in enumerate(cells):
            # left-align the operation column, right-align numbers
            if i == 1:
                padded.append(cell.ljust(widths[i]))
            else:
                padded.append(cell.rjust(widths[i]))
        return "  ".join(padded).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows[:len(analyses)]]
    if analyses:
        lines.append(fmt(["-" * w for w in widths]))
        lines.append(fmt(rows[-1]))
    return "\n".join(lines)
