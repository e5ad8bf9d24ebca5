"""The Query Store: persistent plan + runtime-stats history per shape.

SQL Server's Query Store is the canonical form of history-driven
optimization infrastructure: every completed execution is aggregated
per **normalized query shape** (the plan cache's :func:`parameterize`
key, computed *without* hints so a hint-forced plan lands under the same
shape) × **plan hash** (a literal-insensitive digest of the template
DSQL plan's steps).  Each (shape, plan) bucket accumulates

* execution count and cache-hit count;
* total/min/max/last **wall** seconds (measured) and the same
  aggregates over **simulated elapsed** seconds (the quantity the DMS
  cost model predicts — deterministic, unaffected by queue waits);
* per-phase timing totals (queue / compile / execute);
* rows returned and bytes moved;
* per-step actual cardinalities joined against the optimizer's
  estimates, with the max Q-error observed
  (:func:`repro.obs.profiler.q_error`);
* first/last-seen timestamps and the schema_version in effect.

This is ROADMAP item 11's correction-cache substrate: observed
cardinalities keyed by (shape, step), durable across restarts as JSONL:
:meth:`QueryStore.to_events` are schema-valid ``query_store_flush``
events, written by :func:`repro.obs.export.write_jsonl` and merged back
by :meth:`QueryStore.load`.

**Regression detection** (:meth:`QueryStore.regressions`): a shape whose
*current* plan (the one seen most recently) has a mean simulated latency
exceeding a prior plan's by a configurable factor is flagged.  Baselines
must share the current plan's ``schema_version`` and be
``baseline_eligible`` — loading history recorded under a different
schema version keeps the counts but disqualifies those plans as
baselines, so stale pre-DDL timings never indict a post-DDL plan.

Zero-overhead default: :data:`NULL_QUERY_STORE` follows the
``NULL_REQUESTS`` contract — a shared no-op singleton with
``enabled = False`` and no per-call allocation (the booby-trap test
monkeypatches every record constructor to prove it).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.obs.profiler import q_error

__all__ = [
    "StepCardinality",
    "PlanStats",
    "ShapeStats",
    "PlanRegression",
    "QueryStore",
    "NullQueryStore",
    "NULL_QUERY_STORE",
    "normalized_shape_key",
    "plan_shape_digest",
    "DEFAULT_MAX_SHAPES",
    "DEFAULT_REGRESSION_FACTOR",
    "DEFAULT_MIN_EXECUTIONS",
]

#: LRU bound on distinct shapes retained (the store is a bounded cache,
#: like the flight recorder; evictions are counted in ``stats()``).
DEFAULT_MAX_SHAPES = 256

#: A current plan regresses when its mean simulated latency exceeds the
#: best eligible baseline plan's by this factor.
DEFAULT_REGRESSION_FACTOR = 1.5

#: Both the current plan and a baseline need this many executions before
#: the detector trusts their means.
DEFAULT_MIN_EXECUTIONS = 2

def _parameterized_key(sql: str, by_parse: bool = False) -> str:
    """``parameterize(sql).key`` with a whitespace-flattening fallback
    for text the parameterizer cannot handle.  ``by_parse`` computes
    the same key by the parser alone, so a text no client sent (a DSQL
    step's) stays out of the parameterizer's memos.  Imported lazily —
    ``repro.service`` imports ``repro.obs``, not the other way round."""
    try:
        from repro.service.plan_cache import (
            parameterize,
            parameterize_by_parse,
        )
        lift = parameterize_by_parse if by_parse else parameterize
        return lift(sql).key
    except Exception:
        return " ".join(sql.split())


def normalized_shape_key(sql: str) -> str:
    """The store's shape key: the plan cache's parameterized key,
    computed **without hints** so hinted and unhinted executions of the
    same text share one shape (that is what makes a hint-forced plan
    change visible as two plans of one shape).  For callers that hold
    no :class:`~repro.service.plan_cache.QueryShape` of the text — the
    service passes its shape's ``text_key`` to :meth:`QueryStore.stamp`
    instead."""
    return _parameterized_key(sql)


def plan_shape_digest(plan) -> str:
    """The plan hash: a literal-insensitive fingerprint of a
    **template** DSQL plan, shared by the Query Store's ``plan_hash``
    and the request record's ``plan_digest``.

    Each step's SQL is parameterized first (by the parser, so step
    texts stay out of the client-text memos), so two compilations of the
    same shape with different literals — a cache miss after an
    eviction, an uncached private recompile — share a hash, while a
    genuinely different plan (movement strategy, step structure) does
    not.  Hash the template (``compiled.dsql_plan``), never an
    instantiated plan: instantiation renames temp tables per execution.
    Computed once per template and kept on it (``plan.shape_hash``).
    """
    cached = plan.shape_hash
    if cached is not None:
        return cached
    digest = hashlib.sha1()
    for step in plan.steps:
        digest.update(step.label.encode("utf-8", "replace"))
        digest.update(b"\x00")
        digest.update(
            _parameterized_key(step.sql, by_parse=True).encode(
                "utf-8", "replace"))
        digest.update(b"\x00")
    # Racing first requests compute the same hash; last store wins.
    cached = plan.shape_hash = digest.hexdigest()[:12]
    return cached


@dataclass
class StepCardinality:
    """Observed vs. estimated cardinality for one DSQL step of one plan.

    The feedback loop's raw material: ``estimated_rows`` is the
    optimizer's shell-db guess baked into the template, the actuals
    accumulate across executions, ``max_q_error`` is the worst
    estimate/actual divergence seen.
    """

    index: int
    kind: str = ""
    operation: str = ""
    estimated_rows: float = 0.0
    executions: int = 0
    actual_rows_total: int = 0
    actual_rows_last: int = 0
    max_q_error: float = 1.0

    @property
    def mean_actual_rows(self) -> float:
        if self.executions <= 0:
            return 0.0
        return self.actual_rows_total / self.executions

@dataclass
class PlanStats:
    """Runtime-stat aggregates for one plan of one shape."""

    plan_hash: str
    schema_version: int = 0
    #: Cleared when the plan's history was recorded under a different
    #: schema version than the store's current one (see ``load``) — an
    #: ineligible plan still shows its counts but never serves as a
    #: regression baseline nor gets indicted as a regression.
    baseline_eligible: bool = True
    execution_count: int = 0
    cache_hits: int = 0
    rows_returned_total: int = 0
    bytes_moved_total: int = 0
    wall_seconds_total: float = 0.0
    wall_seconds_min: float = 0.0
    wall_seconds_max: float = 0.0
    wall_seconds_last: float = 0.0
    elapsed_seconds_total: float = 0.0
    elapsed_seconds_min: float = 0.0
    elapsed_seconds_max: float = 0.0
    elapsed_seconds_last: float = 0.0
    queue_seconds_total: float = 0.0
    compile_seconds_total: float = 0.0
    execute_seconds_total: float = 0.0
    first_seen: float = 0.0
    last_seen: float = 0.0
    #: Monotonic recency tie-break (wall clocks can collide).
    last_seen_seq: int = 0
    max_q_error: float = 1.0
    steps: List[StepCardinality] = field(default_factory=list)

    @property
    def mean_wall_seconds(self) -> float:
        if self.execution_count <= 0:
            return 0.0
        return self.wall_seconds_total / self.execution_count

    @property
    def mean_elapsed_seconds(self) -> float:
        """Mean *simulated* latency — the regression detector's metric
        (deterministic; queue waits under concurrency never inflate
        it)."""
        if self.execution_count <= 0:
            return 0.0
        return self.elapsed_seconds_total / self.execution_count

@dataclass
class ShapeStats:
    """One normalized query shape and every plan observed for it — and,
    field for field, its ``query_store_flush`` event."""

    query_id: int
    shape_key: str
    example_sql: str = ""
    first_seen: float = 0.0
    last_seen: float = 0.0
    execution_count: int = 0
    plans: List[PlanStats] = field(default_factory=list)

    def plan(self, plan_hash: str) -> Optional[PlanStats]:
        return next((plan for plan in self.plans
                     if plan.plan_hash == plan_hash), None)

    def current_plan(self) -> Optional[PlanStats]:
        """The most recently executed plan (the one the shape would run
        next — what the regression detector judges)."""
        if not self.plans:
            return None
        return max(self.plans, key=lambda plan: plan.last_seen_seq)


@dataclass(frozen=True)
class PlanRegression:
    """One flagged shape: its current plan runs slower than a prior one."""

    query_id: int
    shape_key: str
    example_sql: str
    plan_hash: str            # the regressed (current) plan
    baseline_hash: str        # the faster prior plan
    current_mean_seconds: float
    baseline_mean_seconds: float
    slowdown: float           # current / baseline mean ratio
    executions: int           # current plan's execution count
    schema_version: int


class QueryStore:
    """Aggregates every completed execution per shape × plan.

    Thread-safe: the service's client threads stamp through one lock,
    and snapshot readers (system-view materialization, exports, the
    regression detector) take the same lock, so no reader sees a
    half-applied update.
    """

    enabled = True

    def __init__(self, max_shapes: int = DEFAULT_MAX_SHAPES,
                 regression_factor: float = DEFAULT_REGRESSION_FACTOR,
                 min_executions: int = DEFAULT_MIN_EXECUTIONS):
        self.max_shapes = max(1, int(max_shapes))
        self.regression_factor = float(regression_factor)
        self.min_executions = max(1, int(min_executions))
        self._lock = threading.RLock()
        self._shapes: "OrderedDict[str, ShapeStats]" = OrderedDict()
        self._next_id = 1
        self._seq = 0
        self._recorded = 0
        self._evicted = 0

    # -- intake ----------------------------------------------------------------

    def stamp(self, sql: str, plan, result, *,
              schema_version: int = 0,
              cache_hit: bool = False,
              timing=None,
              shape_key: Optional[str] = None) -> None:
        """Record one completed execution.

        ``plan`` must be the **template** DSQL plan
        (``compiled.dsql_plan``) — instantiated plans carry
        per-execution temp names.  ``result`` is the
        :class:`~repro.appliance.runner.QueryResult`; ``timing`` the
        wall-clock :class:`~repro.appliance.runner.ExecutionTiming`
        breakdown when the caller has one (defaults to
        ``result.timing``).  ``shape_key`` is ``sql``'s hint-free
        parameterized key when the caller normalized it already
        (default: :func:`normalized_shape_key`).
        """
        if timing is None:
            timing = getattr(result, "timing", None)
        step_stats = getattr(result, "step_stats", ())
        facts = plan.step_facts
        # Per call, only the actuals: rows and bytes each step moved.
        steps = [(index, kind, operation, estimated, int(stats.rows_moved))
                 for (index, kind, operation, estimated), stats
                 in zip(facts, step_stats)]
        if timing is not None:
            wall = timing.total_seconds
            queue = timing.queue_seconds
            compile_s = timing.compile_seconds
            execute = timing.execute_seconds
        else:
            wall = sum(stats.wall_seconds for stats in step_stats)
            queue = compile_s = 0.0
            execute = wall
        self.record_execution(
            shape_key if shape_key is not None
            else normalized_shape_key(sql), plan_shape_digest(plan),
            example_sql=sql,
            schema_version=schema_version,
            cache_hit=cache_hit,
            rows=len(result.rows),
            bytes_moved=sum(stats.moved_bytes()
                            for _, stats in zip(facts, step_stats)),
            elapsed_seconds=result.elapsed_seconds,
            wall_seconds=wall,
            queue_seconds=queue,
            compile_seconds=compile_s,
            execute_seconds=execute,
            steps=steps,
        )

    def record_execution(self, shape_key: str, plan_hash: str, *,
                         example_sql: str = "",
                         schema_version: int = 0,
                         cache_hit: bool = False,
                         rows: int = 0,
                         bytes_moved: int = 0,
                         elapsed_seconds: float = 0.0,
                         wall_seconds: float = 0.0,
                         queue_seconds: float = 0.0,
                         compile_seconds: float = 0.0,
                         execute_seconds: float = 0.0,
                         steps: Sequence[Tuple[int, str, str, float, int]]
                         = (),
                         now: Optional[float] = None) -> None:
        """The aggregation core: fold one execution's scalars into the
        (shape, plan) bucket.  ``steps`` carries
        ``(index, kind, operation, estimated_rows, actual_rows)``
        tuples."""
        if now is None:
            now = time.time()
        with self._lock:
            self._seq += 1
            self._recorded += 1
            shape = self._shapes.get(shape_key)
            if shape is None:
                shape = ShapeStats(query_id=self._next_id,
                                   shape_key=shape_key,
                                   example_sql=example_sql,
                                   first_seen=now, last_seen=now)
                self._next_id += 1
                self._shapes[shape_key] = shape
            else:
                self._shapes.move_to_end(shape_key)
            shape.last_seen = now
            shape.execution_count += 1
            plan = shape.plan(plan_hash)
            if plan is None:
                plan = PlanStats(plan_hash=plan_hash,
                                 schema_version=schema_version,
                                 first_seen=now)
                shape.plans.append(plan)
            first = plan.execution_count == 0
            plan.execution_count += 1
            if cache_hit:
                plan.cache_hits += 1
            # A plan re-observed after DDL is a live plan again: carry
            # its stats forward under the new version and restore its
            # baseline eligibility.
            plan.schema_version = schema_version
            plan.baseline_eligible = True
            plan.rows_returned_total += int(rows)
            plan.bytes_moved_total += int(bytes_moved)
            plan.wall_seconds_total += wall_seconds
            plan.wall_seconds_last = wall_seconds
            plan.elapsed_seconds_total += elapsed_seconds
            plan.elapsed_seconds_last = elapsed_seconds
            if first:
                plan.wall_seconds_min = wall_seconds
                plan.wall_seconds_max = wall_seconds
                plan.elapsed_seconds_min = elapsed_seconds
                plan.elapsed_seconds_max = elapsed_seconds
            else:
                plan.wall_seconds_min = min(plan.wall_seconds_min,
                                            wall_seconds)
                plan.wall_seconds_max = max(plan.wall_seconds_max,
                                            wall_seconds)
                plan.elapsed_seconds_min = min(plan.elapsed_seconds_min,
                                               elapsed_seconds)
                plan.elapsed_seconds_max = max(plan.elapsed_seconds_max,
                                               elapsed_seconds)
            plan.queue_seconds_total += queue_seconds
            plan.compile_seconds_total += compile_seconds
            plan.execute_seconds_total += execute_seconds
            plan.last_seen = now
            plan.last_seen_seq = self._seq
            for index, kind, operation, estimated, actual in steps:
                while len(plan.steps) <= index:
                    plan.steps.append(StepCardinality(
                        index=len(plan.steps)))
                card = plan.steps[index]
                card.kind = kind
                card.operation = operation
                card.estimated_rows = estimated
                card.executions += 1
                card.actual_rows_total += actual
                card.actual_rows_last = actual
                card.max_q_error = max(card.max_q_error,
                                       q_error(estimated, actual))
                plan.max_q_error = max(plan.max_q_error,
                                       card.max_q_error)
            while len(self._shapes) > self.max_shapes:
                self._shapes.popitem(last=False)
                self._evicted += 1

    # -- snapshots -------------------------------------------------------------

    def shapes(self) -> List[ShapeStats]:
        """Retained shapes ordered by query_id.  The objects are live —
        flatten them while holding ``_lock`` (the system-view
        materializer and the exporters do)."""
        with self._lock:
            return sorted(self._shapes.values(),
                          key=lambda shape: shape.query_id)

    def find(self, shape_key: str) -> Optional[ShapeStats]:
        with self._lock:
            return self._shapes.get(shape_key)

    def regressions(self, factor: Optional[float] = None,
                    min_executions: Optional[int] = None
                    ) -> List[PlanRegression]:
        """Shapes whose current plan's mean simulated latency exceeds
        the best eligible prior plan's by ``factor``.  Baselines must
        share the current plan's schema_version, be baseline-eligible
        and have ``min_executions`` runs (as must the current plan)."""
        if factor is None:
            factor = self.regression_factor
        if min_executions is None:
            min_executions = self.min_executions
        flagged: List[PlanRegression] = []
        with self._lock:
            for shape in self._shapes.values():
                current = shape.current_plan()
                if current is None or not current.baseline_eligible \
                        or current.execution_count < min_executions:
                    continue
                baselines = [
                    plan for plan in shape.plans
                    if plan is not current
                    and plan.baseline_eligible
                    and plan.schema_version == current.schema_version
                    and plan.execution_count >= min_executions
                    and plan.mean_elapsed_seconds > 0.0
                ]
                if not baselines:
                    continue
                best = min(baselines,
                           key=lambda plan: plan.mean_elapsed_seconds)
                if current.mean_elapsed_seconds \
                        > factor * best.mean_elapsed_seconds:
                    flagged.append(PlanRegression(
                        query_id=shape.query_id,
                        shape_key=shape.shape_key,
                        example_sql=shape.example_sql,
                        plan_hash=current.plan_hash,
                        baseline_hash=best.plan_hash,
                        current_mean_seconds=current.mean_elapsed_seconds,
                        baseline_mean_seconds=best.mean_elapsed_seconds,
                        slowdown=(current.mean_elapsed_seconds
                                  / best.mean_elapsed_seconds),
                        executions=current.execution_count,
                        schema_version=current.schema_version,
                    ))
        flagged.sort(key=lambda r: r.slowdown, reverse=True)
        return flagged

    def observed_cardinalities(self, shape_key: str
                               ) -> Dict[int, float]:
        """ROADMAP item 11's hook: mean observed rows per step index of
        the shape's current plan (empty when unknown)."""
        with self._lock:
            shape = self._shapes.get(shape_key)
            if shape is None:
                return {}
            current = shape.current_plan()
            if current is None:
                return {}
            return {card.index: card.mean_actual_rows
                    for card in current.steps if card.executions}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "shapes": len(self._shapes),
                "plans": sum(len(shape.plans)
                             for shape in self._shapes.values()),
                "executions": sum(shape.execution_count
                                  for shape in self._shapes.values()),
                "recorded": self._recorded,
                "evicted_shapes": self._evicted,
                "max_shapes": self.max_shapes,
                "regression_factor": self.regression_factor,
                "min_executions": self.min_executions,
            }

    # -- persistence -----------------------------------------------------------

    def to_events(self) -> List[dict]:
        """One ``query_store_flush`` event per shape — the export format
        *and* the persistence format: written as JSONL they round-trip
        bit-identically through :meth:`load` (floats survive via
        ``repr`` exactness)."""
        from repro.obs.export import to_event
        with self._lock:
            return [to_event(shape) for shape in
                    sorted(self._shapes.values(), key=lambda s: s.query_id)]

    def load(self, path: str,
             schema_version: Optional[int] = None) -> int:
        """Merge a saved store in; returns shapes loaded.

        With ``schema_version`` given (the appliance's current
        version), loaded plans recorded under any *other* version keep
        their history but lose baseline eligibility — a restarted
        service whose data changed never compares new plans against
        stale timings.  Pass ``None`` to restore verbatim.

        A loaded shape the store does not hold keeps its saved
        ``query_id`` unless a live shape has it, and then takes the next
        free one.  A shape the store holds keeps its live plans and
        gains the loaded plans it lacks, as older than every live one.

        Every line is decoded against its event record before anything
        is merged: a line that is not JSON or does not decode raises
        :class:`ReproError` naming the line, and the store is left as it
        was.  Valid events of other types are skipped.
        """
        # Imported here: export imports requests, which imports this.
        from repro.obs.export import decode_event

        shapes: List[ShapeStats] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                errors: List[str] = []
                try:
                    record = decode_event(json.loads(line), errors)
                except ValueError as exc:
                    errors.append(str(exc))
                if errors:
                    raise ReproError(
                        f"{path} line {number}: not a loadable "
                        f"query_store_flush event: {'; '.join(errors)}")
                if isinstance(record, ShapeStats):
                    shapes.append(record)
        with self._lock:
            for shape in shapes:
                if schema_version is not None:
                    for plan in shape.plans:
                        if plan.schema_version != schema_version:
                            plan.baseline_eligible = False
                live = self._shapes.get(shape.shape_key)
                if live is None:
                    if any(held.query_id == shape.query_id
                           for held in self._shapes.values()):
                        shape.query_id = self._next_id
                    self._shapes[shape.shape_key] = shape
                    self._seq = max(self._seq, max(
                        (plan.last_seen_seq for plan in shape.plans),
                        default=0))
                else:
                    for plan in shape.plans:
                        if live.plan(plan.plan_hash) is None:
                            plan.last_seen_seq = 0
                            live.plans.append(plan)
                            live.execution_count += plan.execution_count
                    live.first_seen = min(live.first_seen, shape.first_seen)
                    shape = live
                self._shapes.move_to_end(shape.shape_key)
                self._next_id = max(self._next_id, shape.query_id + 1)
            while len(self._shapes) > self.max_shapes:
                self._shapes.popitem(last=False)
                self._evicted += 1
        return len(shapes)


class NullQueryStore(QueryStore):
    """The disabled store: records nothing, allocates nothing."""

    enabled = False
    __slots__ = ()
    max_shapes = 0
    regression_factor = DEFAULT_REGRESSION_FACTOR
    min_executions = DEFAULT_MIN_EXECUTIONS
    _lock = threading.RLock()

    def __init__(self):  # no per-instance state at all
        pass

    def stamp(self, sql, plan, result, *, schema_version=0,
              cache_hit=False, timing=None, shape_key=None):
        del sql, plan, result, schema_version, cache_hit, timing, shape_key

    def record_execution(self, shape_key, plan_hash, **kwargs):
        del shape_key, plan_hash, kwargs

    def shapes(self):
        return []

    def find(self, shape_key):
        del shape_key
        return None

    def regressions(self, factor=None, min_executions=None):
        del factor, min_executions
        return []

    def observed_cardinalities(self, shape_key):
        del shape_key
        return {}

    def stats(self):
        return {"shapes": 0, "plans": 0, "executions": 0,
                "recorded": 0, "evicted_shapes": 0, "max_shapes": 0,
                "regression_factor": self.regression_factor,
                "min_executions": self.min_executions}

    def to_events(self):
        return []

    def load(self, path, schema_version=None):
        del path, schema_version
        return 0


NULL_QUERY_STORE = NullQueryStore()
