"""``PdwSession`` — one user's front door to the reproduction.

A session is a :class:`repro.service.PdwService` — the one control-node
core: engine, runners, plan cache, admission, request registry, Query
Store and metrics — plus three things of its own: a bound default
query, a live tracer by default, and the views over the pipeline:

* :meth:`PdwSession.compile` — SQL text → :class:`CompiledQuery`, an
  uncached compilation;
* :meth:`PdwSession.run` — :meth:`~repro.service.PdwService.execute`
  on the bound query: admitted, served from the plan cache (a repeated
  shape is a hit), run on the appliance → :class:`QueryResult`;
* :meth:`PdwSession.explain` — human-readable plan report;
  ``explain(analyze=True)`` runs the query as one request through
  ``execute`` (as :meth:`profile` does) and renders a per-DSQL-step
  table of estimated vs. actual rows / DMS bytes / simulated seconds — the
  reproduction's EXPLAIN ANALYZE;
* :meth:`PdwSession.profile` — one request run through ``execute`` with
  per-node / per-operator profiling: skew statistics over the DMS
  transfer matrices and Q-errors joining optimizer estimates against
  runtime actuals (:meth:`profile_report` renders the tables; ``repro
  profile`` on the CLI);
* :meth:`PdwSession.why` — compile with the optimizer search-space
  recorder on and render "why this plan": the winning distributed plan
  against the §2.5 parallelized-serial baseline (per-subtree DMS cost
  deltas) plus the enumeration/prune/enforce trace tables
  (``repro why`` on the CLI; ``explain(optimizer=True)`` appends the
  same section).  :meth:`PdwSession.optimizer_trace` and
  :meth:`PdwSession.plan_choice` return the structured forms;
* :meth:`trace_report`, :meth:`stats_report` and
  :meth:`requests_report` — the span tree, one compilation's phase
  timings and counters (read off the compiled query and its optimizer
  trace), and the flight recorder as text; the last is SELECTs over
  the ``sys.dm_pdw_*`` views, run as queries of the session (so they
  show up in the recorder and the Query Store too).

A session created with just SQL text binds that text as its default query,
so the one-liner from the README works::

    print(PdwSession("SELECT COUNT(*) AS n FROM lineitem")
          .explain(analyze=True))

Every knob travels in one frozen
:class:`repro.service.ExecutionOptions` object accepted at construction
(``PdwSession(options=...)``) and on every verb (``run(options=...)``);
each option means the same here as at the service.  Execution uses the
numpy backend by default (``executor="reference"`` runs the
tree-walking oracle), one DSQL step at a time as §2.4 walks the plan.

Telemetry is on by default: with ``options.trace`` set the session
builds a :class:`~repro.telemetry.Tracer` (the service's default is the
no-op tracer), so every compile and run appends spans to
:attr:`PdwSession.tracer`.  The tracer only times: a run's data
movement is on its :attr:`QueryResult.step_stats`, and the session's
totals are the ``pdw_dms_*`` and ``pdw_step_*`` series of
:attr:`PdwSession.metrics`.

Two consequences of sharing the service's core: a session keeps up to
64 cached compilations (each with its MEMO, XML and DSQL plan) alive
for its lifetime, and its runs pass admission with the service's
defaults — one query in flight, 32 waiting — so a session shared by
more than 33 threads at once raises
:class:`~repro.common.errors.QueueFullError` for the excess.  Use
:class:`~repro.service.PdwService` with a larger ``max_queue`` for
many concurrent clients.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.appliance.runner import QueryResult
from repro.appliance.storage import Appliance
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import ReproError
from repro.obs.export import optimizer_trace_to_metrics, profile_to_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.opt_trace import OptimizerTrace
from repro.obs.profiler import QueryProfile, build_query_profile
from repro.obs.report import (
    render_analyze_table,
    render_optimizer_trace_report,
    render_profile_report,
    requests_report,
)
from repro.obs.query_store import QueryStore
from repro.obs.requests import RequestRegistry
from repro.optimizer.search import OptimizerConfig
from repro.pdw.engine import CompiledQuery
from repro.pdw.enumerator import PdwConfig
from repro.pdw.why import PlanChoice, explain_plan_choice, render_plan_choice
from repro.service.options import ExecutionOptions
from repro.service.service import PdwService
from repro.telemetry import Tracer


class PdwSession(PdwService):
    """The control-node core with a bound default query, a live tracer
    by default, and the view verbs; the recommended API."""

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
        options = options if options is not None else ExecutionOptions()
        if tracer is None and options.trace:
            tracer = Tracer()
        super().__init__(scale=scale, node_count=node_count,
                         appliance=appliance, shell=shell,
                         options=options, serial_config=serial_config,
                         pdw_config=pdw_config, tracer=tracer,
                         metrics=metrics, requests=requests,
                         query_store=query_store)
        self.sql = sql

    def compile(self, sql: Optional[str] = None, *,
                options: Optional[ExecutionOptions] = None
                ) -> CompiledQuery:
        """Compile SQL (or the session's bound query) into a DSQL plan,
        bypassing the plan cache."""
        return self._uncached(sql, options)

    def run(self, sql: Optional[str] = None, *,
            options: Optional[ExecutionOptions] = None) -> QueryResult:
        """:meth:`~repro.service.PdwService.execute` on ``sql`` or the
        session's bound query.

        The :class:`QueryResult` carries the client rows and per-step
        stats, plus the compiled-plan handle (``result.plan``), the
        plan-cache verdict and a wall-clock queue/compile/execute
        breakdown (``result.timing``); iterating the result iterates
        its rows.
        """
        return self.execute(self._resolve(sql), options=options)

    def explain(self, sql: Optional[str] = None,
                analyze: bool = False,
                verbose: bool = False,
                optimizer: bool = False, *,
                options: Optional[ExecutionOptions] = None) -> str:
        """Render the compiled plan; ``analyze=True`` also runs the query
        as one request (as :meth:`profile` does), renders the plan that
        ran and appends the per-step estimated-vs-actual table;
        ``optimizer=True`` recompiles with the search-space recorder on
        and appends the "why this plan" §2.5 baseline diff plus the
        enumeration/prune/enforce trace.  With both, the trace is that
        second compile's, of the same text: the same plan as the one
        that ran."""
        if optimizer:
            compiled, trace, choice = self.plan_choice(sql, options=options)
        elif not analyze:
            compiled = self.compile(sql, options=options)
        if analyze:
            result, profile = self._analyzed(sql, options)
            compiled = result.plan  # the plan that ran
        text = compiled.explain(verbose=verbose)
        if analyze:
            text = "\n".join([
                text,
                "",
                render_analyze_table(profile.steps),
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
        """One request through :meth:`~repro.service.PdwService.execute`
        with per-node / per-operator profiling on and the plan cache
        off.

        Returns a :class:`repro.obs.profiler.QueryProfile`: per-step skew
        statistics over the DMS transfer matrices, per-operator actual row
        counts on every node, and Q-errors joining the winning plan's
        cardinality estimates against those actuals.  When the session's
        metrics registry is live the profile is also folded into it, so
        ``session.metrics.render_prometheus()`` includes the run.
        """
        _result, profile = self._analyzed(sql, options, profile=True)
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
        trace = OptimizerTrace()
        return self._uncached(sql, options, trace), trace

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

    # -- reports ---------------------------------------------------------------

    def requests_report(self, slow_only: bool = False) -> str:
        """The ``repro requests`` report: every table a SELECT over
        the ``sys.dm_pdw_*`` views, run as requests of this session."""
        return requests_report(self, slow_only=slow_only)

    def trace_report(self) -> str:
        """The nested span tree accumulated so far."""
        return self.tracer.render_spans()

    def stats_report(self, sql: Optional[str] = None, *,
                     options: Optional[ExecutionOptions] = None) -> str:
        """The ``repro stats`` report of one uncached compilation of
        ``sql`` with the optimizer trace on (:meth:`optimizer_trace`):
        its phase timings (when the session is traced) and its
        :meth:`~repro.pdw.engine.CompiledQuery.compile_counters`."""
        compiled, _trace = self.optimizer_trace(sql, options=options)
        counters = compiled.compile_counters()
        lines = ["Phase timings:"]
        if not self.tracer.roots:
            lines.append("  (no compilation traced)")
        else:
            for span in self.tracer.roots[-1].walk():
                lines.append(
                    f"  {span.name:<28} "
                    f"{span.duration_seconds * 1e3:9.3f} ms")
        lines += ["", "Counters:"]
        width = max(map(len, counters))
        lines += [f"  {name:<{width}}  {value:.0f}"
                  for name, value in sorted(counters.items())]
        return "\n".join(lines)

    # -- plumbing --------------------------------------------------------------

    def _analyzed(self, sql: Optional[str],
                  options: Optional[ExecutionOptions], **overrides
                  ) -> Tuple[QueryResult, QueryProfile]:
        """One request through :meth:`~repro.service.PdwService.execute`
        with the plan cache off — compiled fresh, so the estimates are
        for this call's literals and not for those of a cached template
        — and its steps' estimates joined with their actuals."""
        resolved = self._resolve(sql)
        result = self.execute(resolved, options=self._call_options(
            options).override(use_plan_cache=False, **overrides))
        profile = build_query_profile(
            result.plan.dsql_plan.steps, result.step_stats,
            node_count=self.appliance.node_count,
            sql=resolved,
            elapsed_seconds=result.elapsed_seconds,
            dms_seconds=result.dms_seconds,
        )
        return result, profile

    def _uncached(self, sql: Optional[str],
                  options: Optional[ExecutionOptions],
                  opt_trace: Optional[OptimizerTrace] = None
                  ) -> CompiledQuery:
        """One compilation of ``sql`` or the bound query, bypassing the
        plan cache."""
        opts = self._call_options(options)
        resolved = self._resolve(sql)
        # EXPLAIN over sys.dm_pdw_* must see the views registered and
        # populated before binding.
        self._refresh_views_for(resolved)
        with self._compile_lock:
            return self.engine.compile(resolved, hints=opts.hints_dict,
                                       opt_trace=opt_trace)

    def _resolve(self, sql: Optional[str]) -> str:
        resolved = sql if sql is not None else self.sql
        if resolved is None:
            raise ReproError(
                "no SQL given: pass sql to the method or bind a query "
                "when creating the PdwSession")
        return resolved
