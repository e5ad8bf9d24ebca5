"""``PdwService`` — the control node: one compile-and-run core over one
appliance.

Every query either front door runs goes through :meth:`PdwService.execute`
(:class:`repro.session.PdwSession` is a subclass that adds a bound
default query, a live tracer and the view verbs).  Many client threads
may call it concurrently, and each call flows through

1. **admission** — :class:`repro.service.AdmissionController` grants an
   execution slot (bounded queue, priority classes, typed
   reject/timeout errors);
2. **the parameterized plan cache** — the query is normalized
   (:func:`repro.service.parameterize`), served from cache on a hit,
   compiled once per shape on a miss (single-flight: concurrent misses
   on the same shape wait for one compilation);
3. **instantiation** — the cached template is stamped out for this
   execution: its prepared steps (parsed and bound once) with the new
   literals swapped into their slots and private temp-table names, so
   concurrent executions never collide on the appliance;
4. **execution** on the call's :class:`repro.appliance.runner.DsqlRunner`,
   one per executor, built on first use, which runs the plan's steps
   one at a time (§2.4);
5. **accounting** — once, when the request finishes
   (:meth:`PdwService._finish`): the request record is completed (or
   failed), the Query Store stamped, and the request's series written
   to the :class:`~repro.obs.metrics.MetricsRegistry` — per-tenant
   counters, phase latency histograms, rows and slow requests, and
   its steps' rows, bytes and times read off their
   :class:`~repro.appliance.dms_runtime.StepExecutionStats` — beside
   the cache and admission gauges, rendered by
   :meth:`PdwService.metrics_text` in Prometheus text format.  Each
   of these facts has this one writer: the runtime and the runner
   write no series.

Each sink (metrics, request registry, Query Store) is live iff
``options.trace`` (the default) unless one is passed in.  The tracer
defaults to the no-op tracer; pass ``tracer=`` to trace served queries
end to end.

Every call returns an enriched :class:`~repro.appliance.runner.QueryResult`
— rows, columns, the compiled-plan handle, the cache-hit flag and a
queue/compile/execute timing breakdown.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.appliance.runner import DsqlRunner, ExecutionTiming, QueryResult
from repro.appliance.storage import Appliance
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import ReproError, ServiceClosedError
from repro.obs.metrics import VALUE_LOCK, MetricsRegistry, NULL_METRICS
from repro.obs.query_store import NULL_QUERY_STORE, QueryStore
from repro.obs.requests import (
    NULL_REQUESTS,
    RequestRegistry,
)
from repro.obs.system_views import (
    mentions_system_views,
    refresh_system_views,
    register_system_views,
)
from repro.optimizer.search import OptimizerConfig
from repro.pdw.engine import CompiledQuery, PdwEngine
from repro.pdw.enumerator import PdwConfig
from repro.service.admission import (
    DEFAULT_MAX_IN_FLIGHT,
    AdmissionController,
)
from repro.service.options import ExecutionOptions
from repro.service.plan_cache import (
    CacheEntry,
    PlanCache,
    QueryShape,
    bind_params,
    instantiate_plan,
    slot_literals,
)
from repro.telemetry import NULL_TRACER, Tracer
from repro.workloads.tpch_datagen import build_tpch_appliance

#: The series the service writes — the compile histogram on a cache
#: miss, the rest in :meth:`PdwService._finish` for a finished request:
#: (name, kind, help, label names).
_REQUEST_SERIES = (
    ("pdw_service_compile_seconds", "histogram",
     "Wall-clock seconds spent compiling on a cache miss", ()),
    ("pdw_service_queries_total", "counter",
     "Queries per tenant, priority and outcome",
     ("tenant", "priority", "outcome")),
    ("pdw_service_tenant_seconds_total", "counter",
     "Wall-clock seconds consumed per tenant", ("tenant",)),
    ("pdw_service_latency_seconds", "histogram",
     "End-to-end and per-phase service latency", ("phase",)),
    ("pdw_service_rows_total", "counter",
     "Rows returned to clients by completed queries", ()),
    ("pdw_service_slow_total", "counter",
     "Finished queries at or over the slow-query threshold", ()),
    ("pdw_step_rows_total", "counter",
     "Rows produced per source node per DSQL step",
     ("step", "op", "node")),
    ("pdw_step_reader_bytes_total", "counter",
     "Bytes read per source node per DSQL step", ("step", "op", "node")),
    ("pdw_dms_rows_moved_total", "counter",
     "Rows moved per DMS operation kind", ("op",)),
    ("pdw_step_seconds", "histogram",
     "Simulated elapsed seconds per DSQL step", ("op",)),
    ("pdw_step_node_wall_seconds", "gauge",
     "Measured wall-clock seconds per node task per DSQL step",
     ("step", "op", "node")),
)


class PdwService:
    """Accepts many concurrent queries over one simulated appliance.

    Thread-safe by construction: clients call :meth:`execute` from
    their own threads (or :meth:`submit` for a future-based interface).
    Compilation is serialized — the engine is not thread-safe and a
    warm cache makes compiles rare.  Executions hold one of
    ``max_in_flight`` admission slots; the default is
    :data:`~repro.service.admission.DEFAULT_MAX_IN_FLIGHT` (one),
    because both executors run under one GIL: overlapping
    executions only take turns, more slowly than a queue would make
    them.  Concurrent clients are queued by priority, not refused
    (``max_queue``); pass a larger ``max_in_flight`` to overlap them.
    A ``tracer`` records spans from one thread at a time, so trace a
    service only while a single client drives it.
    """

    def __init__(self, *,
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
                 query_store: Optional[QueryStore] = None,
                 plan_cache_size: int = 64,
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 max_queue: int = 32):
        if (appliance is None) != (shell is None):
            raise ReproError(
                "pass both appliance and shell, or neither "
                "(a shell database must describe its appliance)")
        if appliance is None:
            appliance, shell = build_tpch_appliance(scale=scale,
                                                    node_count=node_count)
        self.appliance = appliance
        self.shell = shell
        opts = self.options = (options if options is not None
                               else ExecutionOptions())
        # One defaults rule: each sink is live iff options.trace, and a
        # sink passed in wins (share one to correlate front doors, pass
        # its NULL_* form to opt out).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if metrics is None:
            metrics = MetricsRegistry() if opts.trace else NULL_METRICS
        self.metrics = metrics
        # Each request series resolved once per label values, here, by
        # its one writer: {(name, *label values): child}.
        self._families = {
            name: getattr(metrics, kind)(name, help, labelnames=labels)
            for name, kind, help, labels in _REQUEST_SERIES}
        self._series: Dict[tuple, object] = {}
        if metrics.enabled:  # the label-free totals render from zero
            for name, _kind, _help, labels in _REQUEST_SERIES:
                if not labels:
                    self._child(name)
        if requests is None:
            requests = RequestRegistry() if opts.trace else NULL_REQUESTS
        self.requests = requests
        # pdw_service_slow_total counts against the recorder's threshold.
        self._slow_threshold = requests.slow_threshold_seconds
        if query_store is None:
            query_store = QueryStore() if opts.trace else NULL_QUERY_STORE
        self.query_store = query_store
        if requests.enabled or query_store.enabled:
            register_system_views(appliance)
        self.engine = PdwEngine(shell, serial_config, pdw_config,
                                tracer=self.tracer)
        # Per-call options may pick another executor; each gets one
        # runner, built on first use and kept.
        self._runners: Dict[str, DsqlRunner] = {}
        self._runners_lock = threading.Lock()
        self.runner = self._runner_for(opts)
        self.plan_cache = PlanCache(plan_cache_size, metrics=metrics)
        self.admission = AdmissionController(
            max_in_flight=max_in_flight, max_queue=max_queue,
            metrics=metrics)
        self._compile_lock = threading.Lock()
        self._execution_ids = itertools.count(1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str, *,
                options: Optional[ExecutionOptions] = None,
                tenant: Optional[str] = None,
                priority: Optional[str] = None,
                timeout_seconds: Optional[float] = None) -> QueryResult:
        """Admit, compile-or-hit, instantiate and run one query.

        ``options`` overrides the service defaults for this call;
        ``tenant``/``priority``/``timeout_seconds`` are conveniences
        overriding the corresponding options fields.  Raises the typed
        admission errors (:class:`~repro.common.errors.QueueFullError`,
        :class:`~repro.common.errors.AdmissionTimeoutError`,
        :class:`~repro.common.errors.ServiceClosedError`) and the usual
        compilation/execution errors.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        opts = self._call_options(options)
        overrides = {}
        if tenant is not None:
            overrides["tenant"] = tenant
        if priority is not None:
            overrides["priority"] = priority
        if timeout_seconds is not None:
            overrides["timeout_seconds"] = timeout_seconds
        if overrides:
            opts = opts.override(**overrides)
        started = time.perf_counter()
        request = self.requests.begin(sql, tenant=opts.tenant,
                                      priority=opts.priority)
        # Refresh after begin so a DMV query observes itself (queued).
        self._refresh_views_for(sql)
        try:
            ticket = self.admission.admit(
                priority=opts.priority, tenant=opts.tenant,
                timeout_seconds=opts.timeout_seconds)
        except Exception as exc:
            request.rejected(str(exc))
            raise
        try:
            request.compiling()
            compiled, cache_hit, compile_seconds, mapping, shape = \
                self._compiled_for(sql, opts)
            plan, temp_names = instantiate_plan(
                compiled, mapping, next(self._execution_ids))
            execute_started = time.perf_counter()
            try:
                result = self._runner_for(opts).run(
                    plan, keep_temps=True, profile=opts.profile,
                    request=request)
            finally:
                for name in temp_names:
                    self.appliance.drop_table(name)
            execute_seconds = time.perf_counter() - execute_started
        except Exception as exc:
            self._finish(sql, opts, request, ticket, started, error=exc)
            raise
        result.plan = compiled
        result.cache_hit = cache_hit
        result.timing = ExecutionTiming(
            queue_seconds=ticket.queued_seconds,
            compile_seconds=compile_seconds,
            execute_seconds=execute_seconds,
        )
        result.request_id = request.request_id
        self._finish(sql, opts, request, ticket, started, result=result,
                     shape=shape)
        return result

    def submit(self, sql: str, **kwargs) -> "Future[QueryResult]":
        """:meth:`execute` on the service's client pool; returns a
        future.  Handy for fire-and-gather callers; benchmarks drive
        their own client threads instead."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, self.admission.max_in_flight),
                    thread_name_prefix="repro-client")
            pool = self._pool
        return pool.submit(self.execute, sql, **kwargs)

    def execute_many(self, statements: Sequence[str], **kwargs
                     ) -> List[QueryResult]:
        """Run a batch concurrently through :meth:`submit`; results in
        input order; the first failure propagates after the batch
        drains."""
        futures = [self.submit(sql, **kwargs) for sql in statements]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Stop admitting, wake queued waiters, shut the client pool."""
        self._closed = True
        self.admission.close()
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "PdwService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-call plumbing -----------------------------------------------------

    def _call_options(self, options: Optional[ExecutionOptions]
                      ) -> ExecutionOptions:
        """The effective options for one call: the per-call object,
        else the constructor's."""
        return options if options is not None else self.options

    def _runner_for(self, opts: ExecutionOptions) -> DsqlRunner:
        runner = self._runners.get(opts.executor)
        if runner is None:
            with self._runners_lock:
                runner = self._runners.get(opts.executor)
                if runner is None:
                    runner = self._runners[opts.executor] = DsqlRunner(
                        self.appliance, tracer=self.tracer,
                        executor=opts.executor)
        return runner

    def _refresh_views_for(self, sql: str) -> None:
        """Populate the system views before binding a query that reads
        them."""
        if (self.requests.enabled or self.query_store.enabled) \
                and mentions_system_views(sql):
            self.refresh_system_views()

    # -- plan acquisition ------------------------------------------------------

    def _compiled_for(self, sql: str, opts: ExecutionOptions):
        """(compiled template, cache_hit, compile_seconds, mapping,
        shape).

        Cache path: normalize, look up, and on a miss compile exactly
        once per shape (single-flight under the one global compile lock
        — the engine shares mutable optimizer state).  A hit whose
        parameter vector cannot be bound unambiguously, or whose new
        values would not all land in the template's literal slots (a
        literal the optimizer folded away), falls back to a private
        compilation, uncached.
        """
        if not opts.use_plan_cache:
            compiled, seconds = self._compile(sql, opts)
            return compiled, False, seconds, None, None
        shape = self.plan_cache.shape(sql, opts.hints)
        version = self.appliance.schema_version
        entry = self.plan_cache.lookup(shape, version)
        if entry is None:
            entry, seconds, racing_hit = self._compile_into_cache(
                shape, sql, opts, version)
            if not racing_hit:
                entry.executions += 1
                return entry.compiled, False, seconds, None, shape
        mapping = bind_params(entry.shape.params, shape.params,
                              entry.shape.structural)
        if mapping and not self._binds(entry.compiled, mapping):
            mapping = None
        if mapping is None:
            # Ambiguous substitution: recompile privately for
            # correctness; keep the cached template for future calls.
            entry.misses_ambiguous += 1
            compiled, seconds = self._compile(sql, opts)
            return compiled, False, seconds, None, shape
        entry.executions += 1
        return entry.compiled, True, 0.0, mapping or None, shape

    def _binds(self, compiled: CompiledQuery, mapping) -> bool:
        """Whether ``mapping``'s new values can be swapped into the
        template's prepared steps: one slot per template value, and a
        slot for each."""
        literals = slot_literals(mapping)
        if literals is None:
            return False
        prepared = (compiled.prepared
                    or self.runner.runtime.prepared(compiled.dsql_plan))
        return prepared.binds(literals)

    def _compile_into_cache(self, shape: QueryShape, sql: str,
                            opts: ExecutionOptions, version: int):
        """Single-flight compile of ``shape``.  Compiles are serialized
        by the compile lock, so the cache is re-checked under it: the
        first thread in compiles and inserts, and a racer that waited
        for the lock finds the entry — no per-shape state outlives the
        call.  Returns (entry, compile_seconds, racing_hit) where
        ``racing_hit`` says this thread found a ready entry instead of
        compiling."""
        started = time.perf_counter()
        with self._compile_lock:
            existing = self.plan_cache.peek(shape.key)
            if existing is not None \
                    and existing.schema_version == version:
                return existing, 0.0, True
            compiled, seconds = self._compile_locked(sql, opts, started)
            entry = self.plan_cache.insert(CacheEntry(
                shape=shape, compiled=compiled, schema_version=version))
            return entry, seconds, False

    def _compile(self, sql: str, opts: ExecutionOptions):
        started = time.perf_counter()
        with self._compile_lock:
            return self._compile_locked(sql, opts, started)

    def _compile_locked(self, sql: str, opts: ExecutionOptions,
                        started: float):
        """Compile ``sql`` under the compile lock, taken since
        ``started``: the compile histogram observes the wait too."""
        compiled = self.engine.compile(sql, hints=opts.hints_dict)
        seconds = time.perf_counter() - started
        if self.metrics.enabled:
            self._child("pdw_service_compile_seconds").observe(seconds)
        return compiled, seconds

    # -- accounting ------------------------------------------------------------

    def _finish(self, sql: str, opts: ExecutionOptions, request, ticket,
                started: float, result: Optional[QueryResult] = None,
                shape: Optional[QueryShape] = None,
                error: Optional[BaseException] = None) -> None:
        """Record one admitted request as it finishes, once: release its
        admission slot, complete its record (``result``) or fail it
        (``error``), stamp the Query Store with a completed one, and
        write its metric series.  A failed request writes no step
        series, as it writes no Query Store row."""
        self.admission.release(ticket)
        total = time.perf_counter() - started
        if result is None:
            request.failed(str(error), total_seconds=total)
        else:
            timing = result.timing
            timing.total_seconds = total
            request.complete(rows=len(result.rows),
                             cache_hit=result.cache_hit,
                             queue_seconds=timing.queue_seconds,
                             compile_seconds=timing.compile_seconds,
                             execute_seconds=timing.execute_seconds,
                             total_seconds=total,
                             plan=result.plan.dsql_plan)
            if self.query_store.enabled:
                # Stamp the *template* plan — instantiated plans carry
                # per-execution temp names that would split the hash.
                self.query_store.stamp(
                    sql, result.plan.dsql_plan, result,
                    schema_version=self.appliance.schema_version,
                    cache_hit=result.cache_hit, timing=timing,
                    shape_key=shape.text_key if shape is not None
                    else None)
        if not self.metrics.enabled:
            return
        series = self._child
        with VALUE_LOCK:  # one acquisition for every series below
            series("pdw_service_queries_total", opts.tenant, opts.priority,
                   "failed" if result is None else "ok").add(1)
            series("pdw_service_tenant_seconds_total",
                   opts.tenant).add(total)
            series("pdw_service_latency_seconds", "total").record(total)
            if total >= self._slow_threshold:
                series("pdw_service_slow_total").add(1)
            if result is None:
                return
            for phase, seconds in (("queue", timing.queue_seconds),
                                   ("compile", timing.compile_seconds),
                                   ("execute", timing.execute_seconds)):
                series("pdw_service_latency_seconds",
                       phase).record(seconds)
            series("pdw_service_rows_total").add(len(result.rows))
            for stats in result.step_stats:
                step = stats.step_index
                op = (stats.operation.value if stats.operation is not None
                      else "return")
                for node, rows in stats.node_rows.items():
                    series("pdw_step_rows_total", step, op, node).add(rows)
                for node, nbytes in stats.reader_bytes.items():
                    series("pdw_step_reader_bytes_total", step, op,
                           node).add(nbytes)
                series("pdw_dms_rows_moved_total", op).add(stats.rows_moved)
                series("pdw_step_seconds", op).record(stats.elapsed_seconds)
                # Measured (not simulated) per-node wall clock of the
                # extract+route task (under the numpy executor, the
                # group's wall ÷ n).
                for node, wall in stats.node_wall_seconds.items():
                    series("pdw_step_node_wall_seconds", step, op,
                           node).set(wall)

    def _child(self, name: str, *values):
        """The child of request series ``name`` for ``values`` (its
        label values in order), resolved on first use and kept: the
        series rendered are the ones written."""
        key = (name,) + values
        child = self._series.get(key)
        if child is None:
            family = self._families[name]
            child = self._series[key] = family.labels(
                **dict(zip(family.labelnames, values)))
        return child

    # -- introspection ---------------------------------------------------------

    def refresh_system_views(self) -> None:
        """Materialize the ``sys.dm_pdw_*`` snapshot tables from the
        live registry, plan cache and admission controller.  Called
        automatically whenever an executed query mentions a system
        view; callable directly to pre-warm them."""
        refresh_system_views(self.appliance, self.requests,
                             plan_cache=self.plan_cache,
                             admission=self.admission,
                             query_store=self.query_store)

    def metrics_text(self) -> str:
        """The service registry in Prometheus text exposition format."""
        return self.metrics.render_prometheus()

    def stats(self) -> Dict[str, object]:
        return {
            "plan_cache": self.plan_cache.stats(),
            "admission": self.admission.stats(),
            "requests": self.requests.stats(),
            "query_store": self.query_store.stats(),
            "schema_version": self.appliance.schema_version,
        }
