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

Each view is declared once, as the table of its columns (name, SQL
type, nullability and how the value is read off the view's source
object): :func:`system_view_defs` builds its definition from that
table and :func:`refresh_system_views` each of its rows.

A refresh replaces rows through
:meth:`repro.appliance.storage.Appliance.replace_system_rows`, which is
**schema-version neutral**: querying a DMV never invalidates the plan
cache, and cached DMV query plans re-execute against fresh snapshots.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, REPLICATED, TableDef
from repro.common.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SqlType,
    varchar,
)
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

#: Cheap pre-parse triggers: a query can only read a system view if its
#: text mentions one of the shared name prefixes.
_VIEW_MARKERS = ("dm_pdw_", "query_store_")

#: SQL text in ``dm_pdw_exec_requests.command`` is truncated to this.
_COMMAND_WIDTH = 200


def _one_line(text: str, width: int = _COMMAND_WIDTH) -> str:
    return " ".join(text.split())[:width]


def _request_id_key(record: RequestRecord) -> int:
    try:
        return int(record.request_id[3:])
    except (TypeError, ValueError):
        return 0


#: One column of a view: its name, SQL type, whether it takes NULL, and
#: its value read off one source of the view's rows.
ViewColumn = Tuple[str, SqlType, bool, Callable[..., object]]

#: Every view, in refresh order, as the one table of its columns.  A
#: view's sources are the argument tuples :func:`refresh_system_views`
#: builds one row from each of: ``(record, slow threshold)`` per
#: request, ``(record, step)`` per DSQL step, ``(record, step, node)``
#: per node a finished step ran on, ``(entry,)`` per plan-cache entry,
#: ``(admission stats,)`` once, ``(shape,)`` per Query Store shape and
#: ``(shape, plan)`` per plan.
_VIEWS: Dict[str, Tuple[ViewColumn, ...]] = {
    EXEC_REQUESTS: (
        ("request_id", varchar(16), False, lambda r, _: r.request_id),
        ("status", varchar(16), False, lambda r, _: r.status),
        ("tenant", varchar(32), True, lambda r, _: r.tenant),
        ("priority", varchar(16), True, lambda r, _: r.priority),
        ("command", varchar(_COMMAND_WIDTH), True,
         lambda r, _: _one_line(r.sql)),
        ("cache_hit", BOOLEAN, True, lambda r, _: r.cache_hit),
        ("plan_digest", varchar(16), True, lambda r, _: r.plan_digest),
        ("total_steps", INTEGER, True, lambda r, _: r.step_count),
        ("current_step", INTEGER, True, lambda r, _: r.current_step),
        ("rows_returned", INTEGER, True, lambda r, _: r.rows_returned),
        ("queue_ms", DOUBLE, True, lambda r, _: r.queue_seconds * 1e3),
        ("compile_ms", DOUBLE, True,
         lambda r, _: r.compile_seconds * 1e3),
        ("execute_ms", DOUBLE, True,
         lambda r, _: r.execute_seconds * 1e3),
        ("total_ms", DOUBLE, True, lambda r, _: r.total_seconds * 1e3),
        ("error_text", varchar(_COMMAND_WIDTH), True,
         lambda r, _: _one_line(r.error)),
        ("request_seq", INTEGER, True, lambda r, _: _request_id_key(r)),
        ("is_slow", BOOLEAN, True, lambda r, slow: r.is_slow(slow)),
    ),
    REQUEST_STEPS: (
        ("request_id", varchar(16), False, lambda r, _: r.request_id),
        ("step_index", INTEGER, False, lambda _, s: s.index),
        ("kind", varchar(8), True, lambda _, s: s.kind),
        ("operation", varchar(64), True,
         lambda _, s: _one_line(s.operation, 64)),
        ("status", varchar(16), True, lambda _, s: s.status),
        ("row_count", BIGINT, True, lambda _, s: s.stats.rows_moved),
        ("total_bytes", BIGINT, True, lambda _, s: s.stats.moved_bytes()),
        ("elapsed_ms", DOUBLE, True,
         lambda _, s: s.stats.elapsed_seconds * 1e3),
        ("wall_ms", DOUBLE, True, lambda _, s: s.stats.wall_seconds * 1e3),
    ),
    DMS_WORKERS: (
        ("request_id", varchar(16), False, lambda r, s, n: r.request_id),
        ("step_index", INTEGER, False, lambda r, s, n: s.index),
        ("pdw_node_id", INTEGER, False, lambda r, s, n: n),
        ("rows_processed", BIGINT, True,
         lambda r, s, n: s.stats.node_rows[n]),
        ("bytes_processed", BIGINT, True,
         lambda r, s, n: s.stats.moved_node_bytes().get(n, 0)),
        ("wall_ms", DOUBLE, True,
         lambda r, s, n: s.stats.node_wall_seconds.get(n, 0.0) * 1e3),
        ("status", varchar(16), True, lambda r, s, n: s.status),
    ),
    PLAN_CACHE: (
        ("shape_key", varchar(_COMMAND_WIDTH), False,
         lambda e: _one_line(e.shape.key)),
        ("schema_version", INTEGER, True, lambda e: e.schema_version),
        ("compile_count", INTEGER, True, lambda e: e.compile_count),
        ("hit_count", INTEGER, True, lambda e: e.hits),
        ("execution_count", INTEGER, True, lambda e: e.executions),
        ("ambiguous_misses", INTEGER, True, lambda e: e.misses_ambiguous),
    ),
    ADMISSION: (
        ("in_flight", INTEGER, True, lambda a: a["in_flight"]),
        ("queue_depth", INTEGER, True, lambda a: a["queue_depth"]),
        ("max_in_flight", INTEGER, True, lambda a: a["max_in_flight"]),
        ("max_queue", INTEGER, True, lambda a: a["max_queue"]),
        ("admitted_total", INTEGER, True, lambda a: a["admitted_total"]),
        ("rejected_total", INTEGER, True,
         lambda a: sum(a["rejected_total"].values())),
    ),
    QS_QUERY_TEXTS: (
        ("query_id", INTEGER, False, lambda q: q.query_id),
        ("query_text", varchar(_COMMAND_WIDTH), False,
         lambda q: _one_line(q.shape_key)),
        ("example_sql", varchar(_COMMAND_WIDTH), True,
         lambda q: _one_line(q.example_sql)),
        ("plan_count", INTEGER, True, lambda q: len(q.plans)),
        ("execution_count", INTEGER, True, lambda q: q.execution_count),
        ("first_seen", DOUBLE, True, lambda q: q.first_seen),
        ("last_seen", DOUBLE, True, lambda q: q.last_seen),
        ("max_q_error", DOUBLE, True,
         lambda q: max((p.max_q_error for p in q.plans), default=1.0)),
    ),
    QS_PLANS: (
        ("query_id", INTEGER, False, lambda q, _: q.query_id),
        ("plan_hash", varchar(16), False, lambda _, p: p.plan_hash),
        ("schema_version", INTEGER, True, lambda _, p: p.schema_version),
        ("is_current", BOOLEAN, True, lambda q, p: p is q.current_plan()),
        ("baseline_eligible", BOOLEAN, True,
         lambda _, p: p.baseline_eligible),
        ("execution_count", INTEGER, True, lambda _, p: p.execution_count),
        ("cache_hits", INTEGER, True, lambda _, p: p.cache_hits),
        ("step_count", INTEGER, True, lambda _, p: len(p.steps)),
        ("rows_returned", BIGINT, True,
         lambda _, p: p.rows_returned_total),
        ("bytes_moved", BIGINT, True, lambda _, p: p.bytes_moved_total),
        ("max_q_error", DOUBLE, True, lambda _, p: p.max_q_error),
        ("first_seen", DOUBLE, True, lambda _, p: p.first_seen),
        ("last_seen", DOUBLE, True, lambda _, p: p.last_seen),
    ),
    QS_RUNTIME_STATS: (
        ("query_id", INTEGER, False, lambda q, _: q.query_id),
        ("plan_hash", varchar(16), False, lambda _, p: p.plan_hash),
        ("execution_count", INTEGER, True, lambda _, p: p.execution_count),
        ("mean_ms", DOUBLE, True,
         lambda _, p: p.mean_elapsed_seconds * 1e3),
        ("min_ms", DOUBLE, True, lambda _, p: p.elapsed_seconds_min * 1e3),
        ("max_ms", DOUBLE, True, lambda _, p: p.elapsed_seconds_max * 1e3),
        ("last_ms", DOUBLE, True,
         lambda _, p: p.elapsed_seconds_last * 1e3),
        ("wall_mean_ms", DOUBLE, True,
         lambda _, p: p.mean_wall_seconds * 1e3),
        ("queue_ms_total", DOUBLE, True,
         lambda _, p: p.queue_seconds_total * 1e3),
        ("compile_ms_total", DOUBLE, True,
         lambda _, p: p.compile_seconds_total * 1e3),
        ("execute_ms_total", DOUBLE, True,
         lambda _, p: p.execute_seconds_total * 1e3),
        ("rows_returned", BIGINT, True,
         lambda _, p: p.rows_returned_total),
        ("bytes_moved", BIGINT, True, lambda _, p: p.bytes_moved_total),
        ("max_q_error", DOUBLE, True, lambda _, p: p.max_q_error),
    ),
}

SYSTEM_VIEW_NAMES = tuple(_VIEWS)


def mentions_system_views(sql: str) -> bool:
    """Whether ``sql`` might read a system view (refresh trigger)."""
    lowered = sql.lower()
    return any(marker in lowered for marker in _VIEW_MARKERS)


def _view_def(view: str) -> TableDef:
    return TableDef(view, [Column(name, sql_type, nullable=nullable)
                           for name, sql_type, nullable, _ in _VIEWS[view]],
                    REPLICATED, is_system=True)


def system_view_defs() -> List[TableDef]:
    """Fresh definitions of all eight views (``row_count`` is mutable
    per-appliance state, so every appliance gets its own copies)."""
    return [_view_def(view) for view in _VIEWS]


def register_system_views(appliance: Appliance) -> None:
    """Idempotently create all eight views on ``appliance`` (empty).

    Registration is schema-version neutral (system tables never count
    as DDL), so a service can register them lazily without flushing its
    plan cache.
    """
    for view in _VIEWS:
        if not appliance.catalog.has_table(view):
            appliance.create_table(_view_def(view))


def _rows(view: str, sources: List[tuple]) -> List[Tuple]:
    """One row of ``view`` per source, each column read off it."""
    values = [value for _, _, _, value in _VIEWS[view]]
    return [tuple([value(*source) for value in values])
            for source in sources]


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
    rows: Dict[str, List[Tuple]] = {}
    records = sorted(requests.snapshot(), key=_request_id_key)
    if records:
        # Active records mutate in flight (a step's stats land as it
        # ends, from the thread running it); hold the registry lock
        # while flattening so no row is built from a half-applied
        # transition.
        with requests._lock:
            slow = requests.slow_threshold_seconds
            steps = [(record, step) for record in records
                     for step in record.steps]
            rows[EXEC_REQUESTS] = _rows(
                EXEC_REQUESTS, [(record, slow) for record in records])
            rows[REQUEST_STEPS] = _rows(REQUEST_STEPS, steps)
            rows[DMS_WORKERS] = _rows(
                DMS_WORKERS, [(record, step, node) for record, step in steps
                              for node in sorted(step.stats.node_rows)])
    if plan_cache is not None:
        rows[PLAN_CACHE] = _rows(
            PLAN_CACHE, [(entry,) for entry in plan_cache.entries()])
    if admission is not None:
        rows[ADMISSION] = _rows(ADMISSION, [(admission.stats(),)])
    if query_store is not None and query_store.enabled:
        # One snapshot under the store's lock so SQL joins across the
        # three query_store_* views are mutually consistent.
        with query_store._lock:
            shapes = query_store.shapes()
            plans = [(shape, plan) for shape in shapes
                     for plan in shape.plans]
            rows[QS_QUERY_TEXTS] = _rows(
                QS_QUERY_TEXTS, [(shape,) for shape in shapes])
            rows[QS_PLANS] = _rows(QS_PLANS, plans)
            rows[QS_RUNTIME_STATS] = _rows(QS_RUNTIME_STATS, plans)
    for view in _VIEWS:
        appliance.replace_system_rows(view, rows.get(view, []))
