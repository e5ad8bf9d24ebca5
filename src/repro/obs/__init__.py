"""repro.obs — the observability subsystem.

Beside :mod:`repro.telemetry`'s span trees (which time, and count
nothing), this package adds the feedback layer the paper's §2.5 claim
needs to be *checked* rather than assumed:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms with a zero-overhead no-op default
  (:data:`NULL_METRICS`), mirroring the ``NULL_TRACER`` contract;
* :mod:`repro.obs.profiler` — per-node / per-operator runtime actuals
  joined with the winning plan's cardinality estimates: skew statistics
  (max/mean, coefficient of variation) and Q-error profiles;
* :mod:`repro.obs.opt_trace` — the optimizer search-space recorder
  (:class:`OptimizerTrace`, handed to the optimizer only when a trace
  is wanted): per-group enumeration, prune and enforce accounting, hint
  overrides;
* :mod:`repro.obs.requests` — the live request-lifecycle layer
  (:class:`RequestRegistry` / :data:`NULL_REQUESTS`): every query gets a
  ``request_id`` tracked queued → compiling → running → complete, with
  per-step and per-node progress updated in-flight, plus the bounded
  flight recorder of completed requests;
* :mod:`repro.obs.query_store` — the persistent plan + runtime-stats
  history (:class:`QueryStore` / :data:`NULL_QUERY_STORE`): every
  completed execution aggregated per normalized shape × plan hash, with
  JSONL persistence and plan-regression detection — the fifth lens, and
  ROADMAP item 11's correction-cache substrate;
* :mod:`repro.obs.system_views` — the eight virtual system views
  (``sys.dm_pdw_*`` plus ``sys.query_store_*``), snapshot-materialized
  as replicated pseudo-tables so they are queryable through the normal
  parse → optimize → execute path;
* :mod:`repro.obs.export` — structured sinks: the JSONL event log
  (:data:`EVENTS` maps each event kind to the one record type that
  declares its fields; one generic codec writes, checks and reads every
  kind) and Prometheus text;
* :mod:`repro.obs.report` — the rendered ``repro profile`` and
  ``repro why`` tables, and the ``repro requests`` / ``repro
  querystore`` reports as SELECTs over the system views;
* :mod:`repro.obs.schema_check` — ``python -m repro.obs.schema_check``
  CLI used by CI to validate emitted JSONL.
"""

from repro.obs.export import (
    EVENTS,
    decode_event,
    events_to_jsonl,
    optimizer_trace_to_events,
    optimizer_trace_to_metrics,
    profile_to_events,
    profile_to_metrics,
    query_store_to_metrics,
    request_to_event,
    requests_to_events,
    to_event,
    validate_event,
    validate_events,
    validate_jsonl,
    write_jsonl,
)
from repro.obs.opt_trace import (
    EnumerationRecord,
    GroupTrace,
    HintOverrideRecord,
    MovementRecord,
    OptimizerTrace,
    OptimizerTraceSummary,
    PruneRecord,
    format_property_key,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.profiler import (
    OperatorEstimate,
    OperatorObserver,
    OperatorProfile,
    QErrorSummary,
    QueryProfile,
    SkewStats,
    StepProfile,
    build_query_profile,
    fragment_operator_estimates,
    operator_kind,
    q_error,
    skew_stats,
    summarize_q_errors,
)
from repro.obs.query_store import (
    NULL_QUERY_STORE,
    NullQueryStore,
    PlanRegression,
    PlanStats,
    QueryStore,
    ShapeStats,
    StepCardinality,
    normalized_shape_key,
    plan_shape_digest,
)
from repro.obs.report import (
    render_group_table,
    render_operator_table,
    render_optimizer_trace_report,
    render_profile_report,
    render_prune_effectiveness_table,
    query_store_report,
    render_query_store_regressions,
    render_rejected_movements_table,
    render_step_table,
    requests_report,
)
from repro.obs.requests import (
    NULL_REQUEST,
    NULL_REQUESTS,
    NullRequestHandle,
    NullRequestRegistry,
    REQUEST_STATES,
    RequestHandle,
    RequestRecord,
    RequestRegistry,
    StepProgress,
    TERMINAL_STATES,
)
from repro.obs.system_views import (
    SYSTEM_VIEW_NAMES,
    mentions_system_views,
    refresh_system_views,
    register_system_views,
    system_view_defs,
)

__all__ = [
    "EVENTS",
    "decode_event",
    "events_to_jsonl",
    "optimizer_trace_to_events",
    "optimizer_trace_to_metrics",
    "profile_to_events",
    "profile_to_metrics",
    "to_event",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "write_jsonl",
    "EnumerationRecord",
    "GroupTrace",
    "HintOverrideRecord",
    "MovementRecord",
    "OptimizerTrace",
    "OptimizerTraceSummary",
    "PruneRecord",
    "format_property_key",
    "DEFAULT_BUCKETS",
    "MetricsError",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "OperatorEstimate",
    "OperatorObserver",
    "OperatorProfile",
    "QErrorSummary",
    "QueryProfile",
    "SkewStats",
    "StepProfile",
    "build_query_profile",
    "fragment_operator_estimates",
    "operator_kind",
    "q_error",
    "skew_stats",
    "summarize_q_errors",
    "render_group_table",
    "render_operator_table",
    "render_optimizer_trace_report",
    "render_profile_report",
    "render_prune_effectiveness_table",
    "render_rejected_movements_table",
    "render_step_table",
    "render_query_store_regressions",
    "requests_report",
    "query_store_report",
    "request_to_event",
    "requests_to_events",
    "query_store_to_metrics",
    "NULL_QUERY_STORE",
    "NullQueryStore",
    "PlanRegression",
    "PlanStats",
    "QueryStore",
    "ShapeStats",
    "StepCardinality",
    "normalized_shape_key",
    "plan_shape_digest",
    "NULL_REQUEST",
    "NULL_REQUESTS",
    "NullRequestHandle",
    "NullRequestRegistry",
    "REQUEST_STATES",
    "RequestHandle",
    "RequestRecord",
    "RequestRegistry",
    "StepProgress",
    "TERMINAL_STATES",
    "SYSTEM_VIEW_NAMES",
    "mentions_system_views",
    "refresh_system_views",
    "register_system_views",
    "system_view_defs",
]
