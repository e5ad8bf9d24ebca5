"""Structured export sinks for query profiles and optimizer traces.

Three formats, two sources of truth
(:class:`repro.obs.profiler.QueryProfile` for runtime profiles,
:class:`repro.obs.opt_trace.OptimizerTrace` for the optimizer's search
space):

* **JSONL event log** — one self-describing event per line (``query``,
  ``step``, ``operator`` for profiles; ``optimizer_summary``,
  ``optimizer_group``, ``optimizer_prune``, ``optimizer_enforce``,
  ``optimizer_hint``, ``plan_choice`` for traces), append-friendly and
  greppable; every event is checkable against :data:`EVENT_SCHEMAS`
  (hand-rolled validation — no third-party schema library is assumed in
  the environment);
* **JSON profile document** — the nested ``QueryProfile.to_dict()`` form;
* **Prometheus text** — labeled series via :func:`profile_to_metrics`,
  :func:`optimizer_trace_to_metrics` and :func:`query_store_to_metrics`
  into a :class:`repro.obs.metrics.MetricsRegistry` plus the registry's
  ``render_prometheus``.  Each sink writes only the facts its source
  alone holds: the ``pdw_service_*``, ``pdw_step_*`` and ``pdw_dms_*``
  series of a request are written once, by
  :class:`repro.service.PdwService` as the request finishes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.opt_trace import OptimizerTrace
from repro.obs.profiler import QueryProfile
from repro.obs.requests import RequestRecord, RequestRegistry

__all__ = [
    "profile_to_events",
    "optimizer_trace_to_events",
    "request_to_event",
    "requests_to_events",
    "events_to_jsonl",
    "write_jsonl",
    "EVENT_SCHEMAS",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "profile_to_metrics",
    "optimizer_trace_to_metrics",
    "query_store_to_metrics",
]


# -- event log -----------------------------------------------------------------


def profile_to_events(profile: QueryProfile) -> List[dict]:
    """Flatten a profile into schema-checked events: one ``query`` event,
    one ``step`` event per DSQL step, one ``operator`` event per joined
    operator."""
    summary = profile.q_error_summary()
    events: List[dict] = [{
        "event": "query",
        "sql": profile.sql,
        "node_count": profile.node_count,
        "steps": len(profile.steps),
        "elapsed_seconds": profile.elapsed_seconds,
        "dms_seconds": profile.dms_seconds,
        "q_error_count": summary.count,
        "q_error_median": summary.median,
        "q_error_p95": summary.p95,
        "q_error_max": summary.max,
    }]
    for step in profile.steps:
        events.append({"event": "step", **step.to_dict()})
    for op in profile.operators:
        events.append({"event": "operator", **op.to_dict()})
    return events


def optimizer_trace_to_events(trace: OptimizerTrace,
                              plan_choice=None) -> List[dict]:
    """Flatten an optimizer trace into schema-checked events: one
    ``optimizer_summary``, one ``optimizer_group`` per MEMO group, one
    ``optimizer_prune`` per prune victim, one ``optimizer_enforce`` per
    costed movement, one ``optimizer_hint`` per hint override — plus a
    ``plan_choice`` event when the §2.5 baseline comparison
    (:class:`repro.pdw.why.PlanChoice`, duck-typed via ``to_dict``) is
    supplied."""
    summary = trace.summary()
    events: List[dict] = [{
        "event": "optimizer_summary",
        "groups": summary.groups,
        "expressions": summary.expressions,
        "options_considered": summary.options_considered,
        "options_retained": summary.options_retained,
        "options_pruned": summary.options_pruned,
        "enforcers_added": summary.enforcers_added,
        "movements_considered": summary.movements_considered,
        "movements_rejected": summary.movements_rejected,
        "hint_overrides": summary.hint_overrides,
        "optimize_seconds": summary.optimize_seconds,
        "plan_cost": summary.plan_cost,
        "plan_distribution": trace.plan_distribution,
    }]
    for group in trace.groups.values():
        events.append({
            "event": "optimizer_group",
            "group": group.group,
            "interesting": list(group.interesting),
            "expressions": len(group.enumerated),
            "options_considered": group.options_considered,
            "options_retained": group.options_retained,
            "retained": [
                {"option": desc, "property_key": key, "cost": cost}
                for desc, key, cost in group.retained
            ],
        })
    for prune in trace.prunes:
        events.append({
            "event": "optimizer_prune",
            "group": prune.group,
            "victim": prune.victim,
            "property_key": prune.property_key,
            "victim_cost": prune.victim_cost,
            "survivor": prune.survivor,
            "survivor_cost": prune.survivor_cost,
            "cost_delta": prune.cost_delta,
        })
    for move in trace.movements:
        events.append({
            "event": "optimizer_enforce",
            "group": move.group,
            "operation": move.operation,
            "movement": move.movement,
            "property_key": move.property_key,
            "source": move.source,
            "target": move.target,
            "rows": move.rows,
            "row_width": move.row_width,
            "reader": move.reader,
            "network": move.network,
            "writer": move.writer,
            "bulk_copy": move.bulk_copy,
            "move_cost": move.move_cost,
            "total_cost": move.total_cost,
            "chosen": move.chosen,
            "context": move.context,
        })
    for override in trace.hint_overrides:
        events.append({
            "event": "optimizer_hint",
            "group": override.group,
            "table": override.table,
            "strategy": override.strategy,
            "displaced": list(override.displaced),
            "displaced_costs": list(override.displaced_costs),
            "kept": override.kept,
        })
    if plan_choice is not None:
        events.append({"event": "plan_choice", **plan_choice.to_dict()})
    return events


def request_to_event(record: RequestRecord,
                     slow_threshold_seconds: float) -> dict:
    """One flight-recorder record as a ``request_complete`` event."""
    return {
        "event": "request_complete",
        "request_id": record.request_id,
        "status": record.status,
        "sql": record.sql,
        "tenant": record.tenant,
        "priority": record.priority,
        "cache_hit": record.cache_hit,
        "plan_digest": record.plan_digest,
        "steps": record.step_count,
        "rows": record.rows_returned,
        "queue_seconds": record.queue_seconds,
        "compile_seconds": record.compile_seconds,
        "execute_seconds": record.execute_seconds,
        "total_seconds": record.total_seconds,
        "slow": record.is_slow(slow_threshold_seconds),
        "error": record.error,
        "step_actuals": [
            {
                "step": step.index,
                "kind": step.kind,
                "operation": step.operation,
                "rows": step.rows_moved,
                "bytes": step.bytes_moved,
                "seconds": step.elapsed_seconds,
            }
            for step in record.steps
        ],
    }


def requests_to_events(registry: RequestRegistry) -> List[dict]:
    """Flatten the flight recorder into schema-checked
    ``request_complete`` events (one per retained record)."""
    threshold = registry.slow_threshold_seconds
    return [request_to_event(record, threshold)
            for record in registry.completed()]


def events_to_jsonl(events: Iterable[dict]) -> str:
    return "".join(json.dumps(event, sort_keys=True) + "\n"
                   for event in events)


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_to_jsonl(events))


# -- schema validation ---------------------------------------------------------

# Field → (type spec, required).  Type specs: a type / tuple of types,
# "number", "number?" (number or null), "str_int_map" (JSON object keyed
# by stringified node ids with integer values), or "transfer_list".
_NUM = "number"
_OPT_NUM = "number?"

EVENT_SCHEMAS: Dict[str, Dict[str, Tuple[object, bool]]] = {
    "query": {
        "sql": (str, True),
        "node_count": (int, True),
        "steps": (int, True),
        "elapsed_seconds": (_NUM, True),
        "dms_seconds": (_NUM, True),
        "q_error_count": (int, True),
        "q_error_median": (_NUM, True),
        "q_error_p95": (_NUM, True),
        "q_error_max": (_NUM, True),
    },
    "step": {
        "step": (int, True),
        "kind": (str, True),
        "operation": (str, True),
        "estimated_rows": (_NUM, True),
        "actual_rows": (int, True),
        "estimated_bytes": (_NUM, True),
        "actual_bytes": (int, True),
        "estimated_seconds": (_NUM, True),
        "actual_seconds": (_NUM, True),
        "q_error": (_NUM, True),
        "source_rows": ("str_int_map", True),
        "source_skew_cov": (_NUM, True),
        "source_skew_imbalance": (_NUM, True),
        "received_bytes": ("str_int_map", True),
        "receive_skew_cov": (_NUM, True),
        "transfers": ("transfer_list", True),
    },
    "operator": {
        "step": (int, True),
        "kind": (str, True),
        "label": (str, True),
        "node_rows": ("str_int_map", True),
        "actual_rows": (int, True),
        "estimated_rows": (_OPT_NUM, True),
        "q_error": (_OPT_NUM, True),
        "skew_cov": (_NUM, True),
        "skew_imbalance": (_NUM, True),
    },
    # -- optimizer search-space trace events -----------------------------------
    "optimizer_summary": {
        "groups": (int, True),
        "expressions": (int, True),
        "options_considered": (int, True),
        "options_retained": (int, True),
        "options_pruned": (int, True),
        "enforcers_added": (int, True),
        "movements_considered": (int, True),
        "movements_rejected": (int, True),
        "hint_overrides": (int, True),
        "optimize_seconds": (_NUM, True),
        "plan_cost": (_NUM, True),
        "plan_distribution": (str, True),
    },
    "optimizer_group": {
        "group": (int, True),
        "interesting": ("str_list", True),
        "expressions": (int, True),
        "options_considered": (int, True),
        "options_retained": (int, True),
        "retained": ("retained_list", True),
    },
    "optimizer_prune": {
        "group": (int, True),
        "victim": (str, True),
        "property_key": (str, True),
        "victim_cost": (_NUM, True),
        "survivor": (str, True),
        "survivor_cost": (_NUM, True),
        "cost_delta": (_NUM, True),
    },
    "optimizer_enforce": {
        "group": (int, True),
        "operation": (str, True),
        "movement": (str, True),
        "property_key": (str, True),
        "source": (str, True),
        "target": (str, True),
        "rows": (_NUM, True),
        "row_width": (_NUM, True),
        "reader": (_NUM, True),
        "network": (_NUM, True),
        "writer": (_NUM, True),
        "bulk_copy": (_NUM, True),
        "move_cost": (_NUM, True),
        "total_cost": (_NUM, True),
        "chosen": (bool, True),
        "context": (str, True),
    },
    "optimizer_hint": {
        "group": (int, True),
        "table": (str, True),
        "strategy": (str, True),
        "displaced": ("str_list", True),
        "displaced_costs": ("num_list", True),
        "kept": (int, True),
    },
    "plan_choice": {
        "sql": (str, True),
        "plan_cost": (_NUM, True),
        "baseline_cost": (_NUM, True),
        "delta": (_NUM, True),
        "delta_pct": (_NUM, True),
        "baseline_matches": (bool, True),
        "movements_plan": (int, True),
        "movements_baseline": (int, True),
        "movements_shared": (int, True),
    },
    # -- query-store flush / persistence events --------------------------------
    "query_store_flush": {
        "query_id": (int, True),
        "shape_key": (str, True),
        "example_sql": (str, True),
        "first_seen": (_NUM, True),
        "last_seen": (_NUM, True),
        "execution_count": (int, True),
        "plans": ("plan_stats_list", True),
    },
    # -- request flight-recorder events ----------------------------------------
    "request_complete": {
        "request_id": (str, True),
        "status": (str, True),
        "sql": (str, True),
        "tenant": (str, True),
        "priority": (str, True),
        "cache_hit": (bool, True),
        "plan_digest": (str, True),
        "steps": (int, True),
        "rows": (int, True),
        "queue_seconds": (_NUM, True),
        "compile_seconds": (_NUM, True),
        "execute_seconds": (_NUM, True),
        "total_seconds": (_NUM, True),
        "slow": (bool, True),
        "error": (str, True),
        "step_actuals": ("step_list", True),
    },
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_field(name: str, value: object, spec: object) -> Optional[str]:
    if spec == _NUM:
        if not _is_number(value):
            return f"field {name!r} must be a number, got {value!r}"
        return None
    if spec == _OPT_NUM:
        if value is not None and not _is_number(value):
            return f"field {name!r} must be a number or null, got {value!r}"
        return None
    if spec == "str_int_map":
        if not isinstance(value, dict):
            return f"field {name!r} must be an object, got {value!r}"
        for key, entry in value.items():
            if not isinstance(key, str) or not _lenient_int(key):
                return f"field {name!r} has non-node key {key!r}"
            if not isinstance(entry, int) or isinstance(entry, bool):
                return f"field {name!r}[{key}] must be an int, got {entry!r}"
        return None
    if spec == "str_list":
        if not isinstance(value, list) or not all(
                isinstance(entry, str) for entry in value):
            return f"field {name!r} must be a list of strings, got {value!r}"
        return None
    if spec == "num_list":
        if not isinstance(value, list) or not all(
                _is_number(entry) for entry in value):
            return f"field {name!r} must be a list of numbers, got {value!r}"
        return None
    if spec == "retained_list":
        if not isinstance(value, list):
            return f"field {name!r} must be a list, got {value!r}"
        for entry in value:
            if not isinstance(entry, dict):
                return f"field {name!r} entries must be objects"
            if not isinstance(entry.get("option"), str) \
                    or not isinstance(entry.get("property_key"), str) \
                    or not _is_number(entry.get("cost")):
                return (f"field {name!r} entry needs str 'option', "
                        f"str 'property_key', number 'cost': {entry!r}")
        return None
    if spec == "step_list":
        if not isinstance(value, list):
            return f"field {name!r} must be a list, got {value!r}"
        for entry in value:
            if not isinstance(entry, dict):
                return f"field {name!r} entries must be objects"
            for part in ("step", "rows", "bytes"):
                if not isinstance(entry.get(part), int) or isinstance(
                        entry.get(part), bool):
                    return (f"field {name!r} entry missing int "
                            f"{part!r}: {entry!r}")
            for part in ("kind", "operation"):
                if not isinstance(entry.get(part), str):
                    return (f"field {name!r} entry missing str "
                            f"{part!r}: {entry!r}")
            if not _is_number(entry.get("seconds")):
                return (f"field {name!r} entry missing number "
                        f"'seconds': {entry!r}")
        return None
    if spec == "plan_stats_list":
        if not isinstance(value, list):
            return f"field {name!r} must be a list, got {value!r}"
        for entry in value:
            if not isinstance(entry, dict):
                return f"field {name!r} entries must be objects"
            if not isinstance(entry.get("plan_hash"), str):
                return (f"field {name!r} entry missing str "
                        f"'plan_hash': {entry!r}")
            for part in ("schema_version", "execution_count",
                         "cache_hits", "last_seen_seq"):
                if not isinstance(entry.get(part), int) or isinstance(
                        entry.get(part), bool):
                    return (f"field {name!r} entry missing int "
                            f"{part!r}: {entry!r}")
            if not isinstance(entry.get("baseline_eligible"), bool):
                return (f"field {name!r} entry missing bool "
                        f"'baseline_eligible': {entry!r}")
            for part in ("elapsed_seconds_total", "wall_seconds_total",
                         "queue_seconds_total", "compile_seconds_total",
                         "execute_seconds_total", "max_q_error",
                         "first_seen", "last_seen"):
                if not _is_number(entry.get(part)):
                    return (f"field {name!r} entry missing number "
                            f"{part!r}: {entry!r}")
            if not isinstance(entry.get("steps"), list):
                return (f"field {name!r} entry missing list "
                        f"'steps': {entry!r}")
        return None
    if spec == "transfer_list":
        if not isinstance(value, list):
            return f"field {name!r} must be a list, got {value!r}"
        for entry in value:
            if not isinstance(entry, dict):
                return f"field {name!r} entries must be objects"
            for part in ("src", "dst", "rows", "bytes"):
                if not isinstance(entry.get(part), int) or isinstance(
                        entry.get(part), bool):
                    return (f"field {name!r} entry missing int "
                            f"{part!r}: {entry!r}")
        return None
    if isinstance(value, bool) and spec in (int, float):
        return f"field {name!r} must be {spec}, got bool"
    if not isinstance(value, spec):  # type: ignore[arg-type]
        return f"field {name!r} must be {spec}, got {value!r}"
    return None


def _lenient_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def validate_event(event: object) -> List[str]:
    """Schema errors for one event (empty list — valid)."""
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    kind = event.get("event")
    schema = EVENT_SCHEMAS.get(kind)  # type: ignore[arg-type]
    if schema is None:
        return [f"unknown event type {kind!r}"]
    errors: List[str] = []
    for name, (spec, required) in schema.items():
        if name not in event:
            if required:
                errors.append(f"missing field {name!r}")
            continue
        error = _check_field(name, event[name], spec)
        if error:
            errors.append(error)
    for name in event:
        if name != "event" and name not in schema:
            errors.append(f"unexpected field {name!r}")
    return errors


def validate_events(events: Iterable[object]) -> List[str]:
    """Schema errors across a whole event stream, prefixed by position."""
    errors: List[str] = []
    for index, event in enumerate(events):
        for error in validate_event(event):
            errors.append(f"event {index}: {error}")
    return errors


def validate_jsonl(text: str) -> List[str]:
    """Validate raw JSONL content (parse errors become schema errors)."""
    events: List[object] = []
    errors: List[str] = []
    for index, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            errors.append(f"line {index}: invalid JSON ({exc})")
    return errors + validate_events(events)


# -- metrics sink --------------------------------------------------------------


def profile_to_metrics(profile: QueryProfile,
                       registry: MetricsRegistry) -> None:
    """Record a profile into a registry as labeled series.

    Families: ``pdw_operator_rows_total{step,op,node}``,
    ``pdw_step_received_bytes_total{step,node}``,
    ``pdw_step_skew_cov{step}`` / ``pdw_step_receive_skew_cov{step}``
    gauges, and a ``pdw_q_error`` histogram over every joined
    estimate/actual pair — the facts only a profile knows.  A step's
    source rows are not among them: the service writes
    ``pdw_step_rows_total`` once, from the request's step stats.
    """
    if not registry.enabled:
        return
    received = registry.counter(
        "pdw_step_received_bytes_total",
        "Bytes received per destination node per DSQL step",
        labelnames=("step", "node"))
    source_skew = registry.gauge(
        "pdw_step_skew_cov",
        "Coefficient of variation of per-node source rows per DSQL step",
        labelnames=("step",))
    receive_skew = registry.gauge(
        "pdw_step_receive_skew_cov",
        "Coefficient of variation of per-node received bytes per DSQL step",
        labelnames=("step",))
    op_rows = registry.counter(
        "pdw_operator_rows_total",
        "Rows produced per operator per node",
        labelnames=("step", "op", "node"))
    q_hist = registry.histogram(
        "pdw_q_error",
        "Q-error of every joined estimate/actual pair")
    for step in profile.steps:
        step_label = str(step.index)
        for node, nbytes in step.received_bytes.items():
            received.labels(step=step_label, node=str(node)).inc(nbytes)
        source_skew.labels(step=step_label).set(step.source_skew.cov)
        receive_skew.labels(step=step_label).set(step.receive_skew.cov)
        q_hist.observe(step.q_error)
        for op in step.operators:
            for node, rows in op.node_rows.items():
                op_rows.labels(step=step_label, op=op.kind,
                               node=str(node)).inc(rows)
            if op.q_error is not None:
                q_hist.observe(op.q_error)


def optimizer_trace_to_metrics(trace: OptimizerTrace,
                               registry: MetricsRegistry,
                               plan_choice=None) -> None:
    """Record an optimizer trace into a registry as ``pdw_optimizer_*``
    series.

    Families: search-space counters
    (``pdw_optimizer_{groups,expressions}_total``,
    ``pdw_optimizer_options_{considered,retained,pruned}``,
    ``pdw_optimizer_pruned_by_property_total{key}``,
    ``pdw_optimizer_enforcers_added_total{op}``,
    ``pdw_optimizer_movements_{considered,rejected}_total``,
    ``pdw_optimizer_hint_overrides_total``) and cost gauges
    (``pdw_optimizer_optimize_seconds``,
    ``pdw_optimizer_plan_cost_seconds``; with a §2.5 comparison also
    ``pdw_optimizer_baseline_cost_seconds`` /
    ``pdw_optimizer_baseline_delta_seconds``).
    """
    if not registry.enabled:
        return
    summary = trace.summary()
    registry.counter(
        "pdw_optimizer_groups_total",
        "MEMO groups visited by the PDW enumeration").inc(summary.groups)
    registry.counter(
        "pdw_optimizer_expressions_total",
        "Logical expressions enumerated across all groups",
    ).inc(summary.expressions)
    registry.counter(
        "pdw_optimizer_options_considered",
        "Distributed plan options generated during enumeration",
    ).inc(summary.options_considered)
    registry.counter(
        "pdw_optimizer_options_retained",
        "Options surviving the interesting-property prune",
    ).inc(summary.options_retained)
    registry.counter(
        "pdw_optimizer_options_pruned",
        "Options discarded by cost-based pruning",
    ).inc(summary.options_pruned)
    registry.counter(
        "pdw_optimizer_movements_considered_total",
        "DMS movements costed (enforcers and union branch moves)",
    ).inc(summary.movements_considered)
    registry.counter(
        "pdw_optimizer_movements_rejected_total",
        "Costed DMS movements the optimizer did not choose",
    ).inc(summary.movements_rejected)
    registry.counter(
        "pdw_optimizer_hint_overrides_total",
        "Option sets overridden by §3.1 query hints",
    ).inc(summary.hint_overrides)
    pruned_by_key = registry.counter(
        "pdw_optimizer_pruned_by_property_total",
        "Prune victims per interesting-property key",
        labelnames=("key",))
    for key, (count, _mean, _max) in trace.prune_effectiveness().items():
        pruned_by_key.labels(key=key).inc(count)
    enforcers = registry.counter(
        "pdw_optimizer_enforcers_added_total",
        "DMS enforcer steps inserted into retained options, per operation",
        labelnames=("op",))
    for move in trace.movements:
        if move.chosen and move.context == "enforce":
            enforcers.labels(op=move.operation).inc()
    registry.gauge(
        "pdw_optimizer_optimize_seconds",
        "Wall-clock seconds spent in the traced PDW optimization",
    ).set(summary.optimize_seconds)
    registry.gauge(
        "pdw_optimizer_plan_cost_seconds",
        "DMS cost of the winning distributed plan (simulated seconds)",
    ).set(summary.plan_cost)
    if plan_choice is not None:
        registry.gauge(
            "pdw_optimizer_baseline_cost_seconds",
            "DMS cost of the §2.5 parallelized-serial baseline",
        ).set(plan_choice.baseline_cost)
        registry.gauge(
            "pdw_optimizer_baseline_delta_seconds",
            "Extra DMS seconds the §2.5 baseline pays over the chosen plan",
        ).set(plan_choice.delta)


def query_store_to_metrics(store, registry: MetricsRegistry) -> None:
    """Record a :class:`repro.obs.query_store.QueryStore` into a
    registry as ``pdw_query_store_*`` series.

    Every family is a gauge set to the store's current figure, so an
    export is idempotent — exporting twice publishes the same values:
    ``pdw_query_store_shapes``, ``pdw_query_store_plans``,
    ``pdw_query_store_regressions``, ``pdw_query_store_max_q_error``,
    ``pdw_query_store_executions``, ``pdw_query_store_rows``,
    ``pdw_query_store_bytes_moved`` and
    ``pdw_query_store_seconds{phase}`` (queue / compile / execute /
    elapsed, the last simulated).
    """
    if not registry.enabled or not store.enabled:
        return
    shapes = store.shapes()
    plan_count = 0
    executions = 0
    rows = 0
    bytes_moved = 0
    max_q = 1.0
    queue = compile_s = execute = elapsed = 0.0
    with store._lock:
        for shape in shapes:
            for plan in shape.plans.values():
                plan_count += 1
                executions += plan.execution_count
                rows += plan.rows_returned_total
                bytes_moved += plan.bytes_moved_total
                max_q = max(max_q, plan.max_q_error)
                queue += plan.queue_seconds_total
                compile_s += plan.compile_seconds_total
                execute += plan.execute_seconds_total
                elapsed += plan.elapsed_seconds_total
    registry.gauge(
        "pdw_query_store_shapes",
        "Distinct normalized query shapes retained by the query store",
    ).set(len(shapes))
    registry.gauge(
        "pdw_query_store_plans",
        "Distinct (shape, plan hash) pairs retained by the query store",
    ).set(plan_count)
    registry.gauge(
        "pdw_query_store_regressions",
        "Shapes whose current plan regresses past a prior plan",
    ).set(len(store.regressions()))
    registry.gauge(
        "pdw_query_store_max_q_error",
        "Worst per-step cardinality Q-error observed across all plans",
    ).set(max_q)
    registry.gauge(
        "pdw_query_store_executions",
        "Executions aggregated into the query store",
    ).set(executions)
    registry.gauge(
        "pdw_query_store_rows",
        "Rows returned across all store-recorded executions",
    ).set(rows)
    registry.gauge(
        "pdw_query_store_bytes_moved",
        "DMS bytes moved across all store-recorded executions",
    ).set(bytes_moved)
    seconds = registry.gauge(
        "pdw_query_store_seconds",
        "Store-recorded seconds per lifecycle phase "
        "(elapsed is simulated)",
        labelnames=("phase",))
    seconds.labels(phase="queue").set(queue)
    seconds.labels(phase="compile").set(compile_s)
    seconds.labels(phase="execute").set(execute)
    seconds.labels(phase="elapsed").set(elapsed)
