"""Structured export sinks for query profiles, optimizer traces, the
flight recorder and the Query Store.

Two formats:

* **JSONL event log** — one self-describing event per line, append-
  friendly and greppable.  Each event kind is declared once, as a
  dataclass whose annotated fields are the event's fields with their
  JSON types; :data:`EVENTS` maps the ``event`` tag to that record
  type.  :func:`to_event` writes any registered record and
  :func:`decode_event` checks and reads one back (the Query Store's
  ``load`` rebuilds its shapes with it), so what is written and what
  is read have one definition;
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
import typing
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.opt_trace import (
    GroupEvent,
    HintOverrideRecord,
    MovementRecord,
    OptimizerTrace,
    OptimizerTraceSummary,
    PlanChoiceEvent,
    PruneRecord,
    RetainedOption,
)
from repro.obs.profiler import (
    OperatorProfile,
    QueryEvent,
    QueryProfile,
    StepProfile,
)
from repro.obs.query_store import ShapeStats
from repro.obs.requests import RequestRecord, RequestRegistry

__all__ = [
    "EVENTS",
    "StepActual",
    "RequestEvent",
    "to_event",
    "decode_event",
    "profile_to_events",
    "optimizer_trace_to_events",
    "request_to_event",
    "requests_to_events",
    "events_to_jsonl",
    "write_jsonl",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "profile_to_metrics",
    "optimizer_trace_to_metrics",
    "query_store_to_metrics",
]


@dataclass(frozen=True)
class StepActual:
    """One DSQL step of a finished request."""

    step: int
    kind: str
    operation: str
    rows: int
    bytes: int
    seconds: float


@dataclass(frozen=True)
class RequestEvent:
    """One flight-recorder record as the ``request_complete`` event."""

    request_id: str
    status: str
    sql: str
    tenant: str
    priority: str
    cache_hit: bool
    plan_digest: str
    steps: int
    rows: int
    queue_seconds: float
    compile_seconds: float
    execute_seconds: float
    total_seconds: float
    slow: bool
    error: str
    step_actuals: Tuple[StepActual, ...]


#: Every JSONL event kind and the record that declares its fields.
EVENTS: Dict[str, type] = {
    "query": QueryEvent,
    "step": StepProfile,
    "operator": OperatorProfile,
    "optimizer_summary": OptimizerTraceSummary,
    "optimizer_group": GroupEvent,
    "optimizer_prune": PruneRecord,
    "optimizer_enforce": MovementRecord,
    "optimizer_hint": HintOverrideRecord,
    "plan_choice": PlanChoiceEvent,
    "query_store_flush": ShapeStats,
    "request_complete": RequestEvent,
}

_KINDS = {record_type: kind for kind, record_type in EVENTS.items()}


# -- writing -------------------------------------------------------------------


def to_event(record: object) -> dict:
    """A registered record as its JSON event: the ``event`` tag plus one
    entry per field — nested records become objects, tuples and lists
    arrays, and node-id maps objects keyed by the stringified id."""
    return {"event": _KINDS[type(record)], **_encode(record)}


def _encode(value: object) -> object:
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _encode(item)
                for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def profile_to_events(profile: QueryProfile) -> List[dict]:
    """Flatten a profile into events: one ``query`` event, one ``step``
    event per DSQL step, one ``operator`` event per joined operator."""
    return [to_event(record) for record in
            [profile.event(), *profile.steps, *profile.operators]]


def optimizer_trace_to_events(trace: OptimizerTrace,
                              plan_choice=None) -> List[dict]:
    """Flatten an optimizer trace into events: one
    ``optimizer_summary``, one ``optimizer_group`` per MEMO group, one
    ``optimizer_prune`` per prune victim, one ``optimizer_enforce`` per
    costed movement, one ``optimizer_hint`` per hint override — plus a
    ``plan_choice`` event when the §2.5 baseline comparison
    (:class:`repro.pdw.why.PlanChoice`, duck-typed via ``event``) is
    supplied."""
    records: List[object] = [trace.summary()]
    records += [
        GroupEvent(
            group=group.group,
            interesting=group.interesting,
            expressions=len(group.enumerated),
            options_considered=group.options_considered,
            options_retained=group.options_retained,
            retained=tuple(RetainedOption(*entry)
                           for entry in group.retained),
        )
        for group in trace.groups.values()
    ]
    records += trace.prunes + trace.movements + trace.hint_overrides
    if plan_choice is not None:
        records.append(plan_choice.event())
    return [to_event(record) for record in records]


def request_to_event(record: RequestRecord,
                     slow_threshold_seconds: float) -> dict:
    """One flight-recorder record as a ``request_complete`` event."""
    return to_event(RequestEvent(
        request_id=record.request_id,
        status=record.status,
        sql=record.sql,
        tenant=record.tenant,
        priority=record.priority,
        cache_hit=record.cache_hit,
        plan_digest=record.plan_digest,
        steps=record.step_count,
        rows=record.rows_returned,
        queue_seconds=record.queue_seconds,
        compile_seconds=record.compile_seconds,
        execute_seconds=record.execute_seconds,
        total_seconds=record.total_seconds,
        slow=record.is_slow(slow_threshold_seconds),
        error=record.error,
        step_actuals=tuple(
            StepActual(step=step.index, kind=step.kind,
                       operation=step.operation,
                       rows=step.stats.rows_moved,
                       bytes=step.stats.moved_bytes(),
                       seconds=step.stats.elapsed_seconds)
            for step in record.steps),
    ))


def requests_to_events(registry: RequestRegistry) -> List[dict]:
    """Flatten the flight recorder into ``request_complete`` events (one
    per retained record)."""
    threshold = registry.slow_threshold_seconds
    return [request_to_event(record, threshold)
            for record in registry.completed()]


def events_to_jsonl(events: Iterable[dict]) -> str:
    return "".join(json.dumps(event, sort_keys=True) + "\n"
                   for event in events)


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_to_jsonl(events))


# -- reading -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _field_types(record_type: type) -> Dict[str, object]:
    hints = typing.get_type_hints(record_type)
    return {f.name: hints[f.name] for f in fields(record_type)}


def decode_event(event: object, errors: List[str]) -> Optional[object]:
    """The record a JSON ``event`` declares, rebuilt from its fields; or
    ``None``, with every mismatch appended to ``errors``."""
    if not isinstance(event, dict):
        errors.append(f"event must be an object, got {type(event).__name__}")
        return None
    kind = event.get("event")
    record_type = EVENTS.get(kind) if isinstance(kind, str) else None
    if record_type is None:
        errors.append(f"unknown event type {kind!r}")
        return None
    body = {name: value for name, value in event.items() if name != "event"}
    return _decode_record(record_type, body, "", errors)


def _decode_record(record_type: type, data: dict, prefix: str,
                   errors: List[str]) -> Optional[object]:
    types = _field_types(record_type)
    before = len(errors)
    values = {}
    for name, declared in types.items():
        if name not in data:
            errors.append(f"missing field {prefix + name!r}")
        else:
            values[name] = _decode(declared, data[name], prefix + name,
                                   errors)
    errors.extend(f"unexpected field {prefix + name!r}"
                  for name in data if name not in types)
    return None if len(errors) > before else record_type(**values)


def _decode(declared: object, value: object, name: str,
            errors: List[str]) -> object:
    """``value`` read as the JSON form of the ``declared`` type: ``int``
    (never a bool), ``float`` (an int is taken), ``str``, ``bool``,
    ``Optional[X]``, ``List[X]``, ``Tuple[X, ...]``, ``Dict[int, X]``
    keyed by stringified node ids, and nested records."""
    origin = typing.get_origin(declared)
    args = typing.get_args(declared)
    if is_dataclass(declared):
        if isinstance(value, dict):
            return _decode_record(declared, value, name + ".", errors)
        expected = "an object"
    elif origin is typing.Union:  # Optional[X]
        if value is None:
            return None
        inner = next(arg for arg in args if arg is not type(None))
        return _decode(inner, value, name, errors)
    elif origin in (list, tuple):
        if isinstance(value, list):
            items = [_decode(args[0], item, f"{name}[{index}]", errors)
                     for index, item in enumerate(value)]
            return items if origin is list else tuple(items)
        expected = "a list"
    elif origin is dict:
        if isinstance(value, dict):
            decoded = {}
            for key, item in value.items():
                try:
                    node = int(key)
                except (TypeError, ValueError):
                    errors.append(f"field {name!r} has non-node key {key!r}")
                    continue
                decoded[node] = _decode(args[1], item, f"{name}[{key}]",
                                        errors)
            return decoded
        expected = "an object"
    elif declared is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        expected = "a number"
    elif declared is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        expected = "an int"
    elif declared is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif declared is bool:
        if isinstance(value, bool):
            return value
        expected = "a bool"
    else:
        raise TypeError(f"{name}: no JSON form for {declared!r}")
    errors.append(f"field {name!r} must be {expected}, got {value!r}")
    return None


def validate_event(event: object) -> List[str]:
    """Schema errors for one event (empty list — valid)."""
    errors: List[str] = []
    decode_event(event, errors)
    return errors


def validate_events(events: Iterable[object]) -> List[str]:
    """Schema errors across a whole event stream, prefixed by position."""
    errors: List[str] = []
    for index, event in enumerate(events):
        for error in validate_event(event):
            errors.append(f"event {index}: {error}")
    return errors


def validate_jsonl(text: str) -> List[str]:
    """Validate raw JSONL content (parse errors become schema errors),
    each error prefixed by its 1-based line in ``text``."""
    errors: List[str] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(f"line {number}: {error}"
                      for error in validate_event(event))
    return errors


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
    # Each step's operators are observed right after the step, so the
    # histogram's float sum adds in the same order on every export.
    operators: Dict[int, List[OperatorProfile]] = {}
    for op in profile.operators:
        operators.setdefault(op.step, []).append(op)
    for step in profile.steps:
        step_label = str(step.step)
        for node, nbytes in step.received_bytes.items():
            received.labels(step=step_label, node=str(node)).inc(nbytes)
        source_skew.labels(step=step_label).set(step.source_skew_cov)
        receive_skew.labels(step=step_label).set(step.receive_skew_cov)
        q_hist.observe(step.q_error)
        for op in operators.get(step.step, ()):
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
            for plan in shape.plans:
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
