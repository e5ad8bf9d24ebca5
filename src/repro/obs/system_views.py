"""The appliance's queryable system views (``sys.dm_pdw_*`` DMVs).

The product ships its runtime state as Dynamic Management Views on the
control node; this module reproduces that surface.  Eight replicated
pseudo-tables are registered in the catalog/shell database (the parser
already folds ``sys.dm_pdw_exec_requests`` down to its last component,
so the ``sys.`` spelling works through the ordinary parse -> optimize ->
execute path), and :func:`refresh_system_views` snapshot-materializes
their rows on demand from the live sources of truth:

* ``sys.dm_pdw_exec_requests`` — one row per active or retained request
  (:class:`repro.obs.requests.RequestRegistry`), with its numeric
  submission sequence and the recorder's slow-query verdict;
* ``sys.dm_pdw_request_steps`` — one row per DSQL step of each request,
  live step status included;
* ``sys.dm_pdw_dms_workers`` — one row per (request, step, node)
  extract+route task that has reported progress;
* ``sys.dm_pdw_plan_cache`` — one row per parameterized plan-cache
  entry (:class:`repro.service.PlanCache`);
* ``sys.dm_pdw_admission`` — one row of admission-controller state
  (:class:`repro.service.AdmissionController`);
* ``sys.query_store_query_texts`` — one row per normalized query shape
  retained by the :class:`repro.obs.query_store.QueryStore`, with the
  max Q-error across its plans;
* ``sys.query_store_plans`` — one row per (shape, plan hash) with
  execution counts, bytes moved and max Q-error;
* ``sys.query_store_runtime_stats`` — per-plan latency aggregates
  (mean/min/max/last, phase totals).

A refresh replaces rows through
:meth:`repro.appliance.storage.Appliance.replace_system_rows`, which is
**schema-version neutral**: querying a DMV never invalidates the plan
cache, and cached DMV query plans re-execute against fresh snapshots.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, REPLICATED, TableDef
from repro.common.types import BIGINT, BOOLEAN, DOUBLE, INTEGER, varchar
from repro.obs.requests import RequestRecord, RequestRegistry

__all__ = [
    "EXEC_REQUESTS",
    "REQUEST_STEPS",
    "DMS_WORKERS",
    "PLAN_CACHE",
    "ADMISSION",
    "QS_QUERY_TEXTS",
    "QS_PLANS",
    "QS_RUNTIME_STATS",
    "SYSTEM_VIEW_NAMES",
    "system_view_defs",
    "register_system_views",
    "refresh_system_views",
    "mentions_system_views",
]

EXEC_REQUESTS = "dm_pdw_exec_requests"
REQUEST_STEPS = "dm_pdw_request_steps"
DMS_WORKERS = "dm_pdw_dms_workers"
PLAN_CACHE = "dm_pdw_plan_cache"
ADMISSION = "dm_pdw_admission"
QS_QUERY_TEXTS = "query_store_query_texts"
QS_PLANS = "query_store_plans"
QS_RUNTIME_STATS = "query_store_runtime_stats"

SYSTEM_VIEW_NAMES = (EXEC_REQUESTS, REQUEST_STEPS, DMS_WORKERS,
                     PLAN_CACHE, ADMISSION,
                     QS_QUERY_TEXTS, QS_PLANS, QS_RUNTIME_STATS)

#: Cheap pre-parse triggers: a query can only read a system view if its
#: text mentions one of the shared name prefixes.
_VIEW_MARKERS = ("dm_pdw_", "query_store_")

#: SQL text in ``dm_pdw_exec_requests.command`` is truncated to this.
_COMMAND_WIDTH = 200


def mentions_system_views(sql: str) -> bool:
    """Whether ``sql`` might read a system view (refresh trigger)."""
    lowered = sql.lower()
    return any(marker in lowered for marker in _VIEW_MARKERS)


def system_view_defs() -> List[TableDef]:
    """Fresh definitions of all eight views (``row_count`` is mutable
    per-appliance state, so every appliance gets its own copies)."""
    return [
        TableDef(EXEC_REQUESTS, [
            Column("request_id", varchar(16), nullable=False),
            Column("status", varchar(16), nullable=False),
            Column("tenant", varchar(32)),
            Column("priority", varchar(16)),
            Column("command", varchar(_COMMAND_WIDTH)),
            Column("cache_hit", BOOLEAN),
            Column("plan_digest", varchar(16)),
            Column("total_steps", INTEGER),
            Column("current_step", INTEGER),
            Column("rows_returned", INTEGER),
            Column("queue_ms", DOUBLE),
            Column("compile_ms", DOUBLE),
            Column("execute_ms", DOUBLE),
            Column("total_ms", DOUBLE),
            Column("error_text", varchar(_COMMAND_WIDTH)),
            Column("request_seq", INTEGER),
            Column("is_slow", BOOLEAN),
        ], REPLICATED, is_system=True),
        TableDef(REQUEST_STEPS, [
            Column("request_id", varchar(16), nullable=False),
            Column("step_index", INTEGER, nullable=False),
            Column("kind", varchar(8)),
            Column("operation", varchar(64)),
            Column("status", varchar(16)),
            Column("row_count", BIGINT),
            Column("total_bytes", BIGINT),
            Column("elapsed_ms", DOUBLE),
            Column("wall_ms", DOUBLE),
        ], REPLICATED, is_system=True),
        TableDef(DMS_WORKERS, [
            Column("request_id", varchar(16), nullable=False),
            Column("step_index", INTEGER, nullable=False),
            Column("pdw_node_id", INTEGER, nullable=False),
            Column("rows_processed", BIGINT),
            Column("bytes_processed", BIGINT),
            Column("wall_ms", DOUBLE),
            Column("status", varchar(16)),
        ], REPLICATED, is_system=True),
        TableDef(PLAN_CACHE, [
            Column("shape_key", varchar(_COMMAND_WIDTH), nullable=False),
            Column("schema_version", INTEGER),
            Column("compile_count", INTEGER),
            Column("hit_count", INTEGER),
            Column("execution_count", INTEGER),
            Column("ambiguous_misses", INTEGER),
        ], REPLICATED, is_system=True),
        TableDef(ADMISSION, [
            Column("in_flight", INTEGER),
            Column("queue_depth", INTEGER),
            Column("max_in_flight", INTEGER),
            Column("max_queue", INTEGER),
            Column("admitted_total", INTEGER),
            Column("rejected_total", INTEGER),
        ], REPLICATED, is_system=True),
        TableDef(QS_QUERY_TEXTS, [
            Column("query_id", INTEGER, nullable=False),
            Column("query_text", varchar(_COMMAND_WIDTH), nullable=False),
            Column("example_sql", varchar(_COMMAND_WIDTH)),
            Column("plan_count", INTEGER),
            Column("execution_count", INTEGER),
            Column("first_seen", DOUBLE),
            Column("last_seen", DOUBLE),
            Column("max_q_error", DOUBLE),
        ], REPLICATED, is_system=True),
        TableDef(QS_PLANS, [
            Column("query_id", INTEGER, nullable=False),
            Column("plan_hash", varchar(16), nullable=False),
            Column("schema_version", INTEGER),
            Column("is_current", BOOLEAN),
            Column("baseline_eligible", BOOLEAN),
            Column("execution_count", INTEGER),
            Column("cache_hits", INTEGER),
            Column("step_count", INTEGER),
            Column("rows_returned", BIGINT),
            Column("bytes_moved", BIGINT),
            Column("max_q_error", DOUBLE),
            Column("first_seen", DOUBLE),
            Column("last_seen", DOUBLE),
        ], REPLICATED, is_system=True),
        TableDef(QS_RUNTIME_STATS, [
            Column("query_id", INTEGER, nullable=False),
            Column("plan_hash", varchar(16), nullable=False),
            Column("execution_count", INTEGER),
            Column("mean_ms", DOUBLE),
            Column("min_ms", DOUBLE),
            Column("max_ms", DOUBLE),
            Column("last_ms", DOUBLE),
            Column("wall_mean_ms", DOUBLE),
            Column("queue_ms_total", DOUBLE),
            Column("compile_ms_total", DOUBLE),
            Column("execute_ms_total", DOUBLE),
            Column("rows_returned", BIGINT),
            Column("bytes_moved", BIGINT),
            Column("max_q_error", DOUBLE),
        ], REPLICATED, is_system=True),
    ]


def register_system_views(appliance: Appliance) -> None:
    """Idempotently create all eight views on ``appliance`` (empty).

    Registration is schema-version neutral (system tables never count
    as DDL), so a service can register them lazily without flushing its
    plan cache.
    """
    for table in system_view_defs():
        if not appliance.catalog.has_table(table.name):
            appliance.create_table(table)


def _one_line(text: str, width: int = _COMMAND_WIDTH) -> str:
    return " ".join(text.split())[:width]


def _exec_request_row(record: RequestRecord,
                      slow_threshold_seconds: float) -> Tuple:
    return (
        record.request_id,
        record.status,
        record.tenant,
        record.priority,
        _one_line(record.sql),
        record.cache_hit,
        record.plan_digest,
        record.step_count,
        record.current_step,
        record.rows_returned,
        record.queue_seconds * 1e3,
        record.compile_seconds * 1e3,
        record.execute_seconds * 1e3,
        record.total_seconds * 1e3,
        _one_line(record.error),
        _request_id_key(record),
        record.is_slow(slow_threshold_seconds),
    )


def _request_id_key(record: RequestRecord) -> int:
    try:
        return int(record.request_id[3:])
    except (TypeError, ValueError):
        return 0


def refresh_system_views(appliance: Appliance,
                         requests: RequestRegistry,
                         plan_cache=None,
                         admission=None,
                         query_store=None) -> None:
    """Materialize a consistent snapshot of all eight views.

    Sources are snapshotted first (each under its own lock), then each
    view's rows are swapped in atomically — a concurrent scan sees
    either the old snapshot or the new one, never a mix within one
    table.  Safe to call from any thread, any number of times.
    """
    register_system_views(appliance)
    records = sorted(requests.snapshot(), key=_request_id_key)

    exec_rows: List[Tuple] = []
    step_rows: List[Tuple] = []
    worker_rows: List[Tuple] = []
    if records:
        # Active records mutate in flight (per-node dicts fill in from
        # the threads running them); hold the registry lock while
        # flattening so no row is built from a half-applied transition.
        with requests._lock:
            for record in records:
                exec_rows.append(_exec_request_row(
                    record, requests.slow_threshold_seconds))
                for step in record.steps:
                    step_rows.append((
                        record.request_id, step.index, step.kind,
                        _one_line(step.operation, 64), step.status,
                        step.rows_moved, step.bytes_moved,
                        step.elapsed_seconds * 1e3,
                        step.wall_seconds * 1e3,
                    ))
                    for node_id in sorted(step.node_rows):
                        worker_rows.append((
                            record.request_id, step.index, node_id,
                            step.node_rows[node_id],
                            step.node_bytes.get(node_id, 0),
                            step.node_wall_seconds.get(node_id, 0.0)
                            * 1e3,
                            step.status,
                        ))

    cache_rows: List[Tuple] = []
    if plan_cache is not None:
        for entry in plan_cache.entries():
            cache_rows.append((
                _one_line(entry.shape.key),
                entry.schema_version,
                entry.compile_count,
                entry.hits,
                entry.executions,
                entry.misses_ambiguous,
            ))

    admission_rows: List[Tuple] = []
    if admission is not None:
        stats = admission.stats()
        admission_rows.append((
            stats["in_flight"], stats["queue_depth"],
            stats["max_in_flight"], stats["max_queue"],
            stats["admitted_total"], sum(stats["rejected_total"].values()),
        ))

    text_rows: List[Tuple] = []
    plan_rows: List[Tuple] = []
    runtime_rows: List[Tuple] = []
    if query_store is not None and query_store.enabled:
        # One snapshot under the store's lock so SQL joins across the
        # three query_store_* views are mutually consistent.
        with query_store._lock:
            for shape in query_store.shapes():
                current = shape.current_plan()
                text_rows.append((
                    shape.query_id,
                    _one_line(shape.shape_key),
                    _one_line(shape.example_sql),
                    len(shape.plans),
                    shape.execution_count,
                    shape.first_seen,
                    shape.last_seen,
                    max((plan.max_q_error for plan in shape.plans),
                        default=1.0),
                ))
                for plan in shape.plans:
                    plan_rows.append((
                        shape.query_id,
                        plan.plan_hash,
                        plan.schema_version,
                        plan is current,
                        plan.baseline_eligible,
                        plan.execution_count,
                        plan.cache_hits,
                        len(plan.steps),
                        plan.rows_returned_total,
                        plan.bytes_moved_total,
                        plan.max_q_error,
                        plan.first_seen,
                        plan.last_seen,
                    ))
                    runtime_rows.append((
                        shape.query_id,
                        plan.plan_hash,
                        plan.execution_count,
                        plan.mean_elapsed_seconds * 1e3,
                        plan.elapsed_seconds_min * 1e3,
                        plan.elapsed_seconds_max * 1e3,
                        plan.elapsed_seconds_last * 1e3,
                        plan.mean_wall_seconds * 1e3,
                        plan.queue_seconds_total * 1e3,
                        plan.compile_seconds_total * 1e3,
                        plan.execute_seconds_total * 1e3,
                        plan.rows_returned_total,
                        plan.bytes_moved_total,
                        plan.max_q_error,
                    ))

    appliance.replace_system_rows(EXEC_REQUESTS, exec_rows)
    appliance.replace_system_rows(REQUEST_STEPS, step_rows)
    appliance.replace_system_rows(DMS_WORKERS, worker_rows)
    appliance.replace_system_rows(PLAN_CACHE, cache_rows)
    appliance.replace_system_rows(ADMISSION, admission_rows)
    appliance.replace_system_rows(QS_QUERY_TEXTS, text_rows)
    appliance.replace_system_rows(QS_PLANS, plan_rows)
    appliance.replace_system_rows(QS_RUNTIME_STATS, runtime_rows)
