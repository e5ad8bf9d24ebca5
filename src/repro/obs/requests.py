"""Live request lifecycle tracking: the registry behind the DMVs.

The shipped product exposes the appliance's runtime state as queryable
system views (``sys.dm_pdw_exec_requests`` and friends); this module is
the in-memory source of truth those views materialize from.  Every query
admitted through :class:`repro.session.PdwSession` or
:class:`repro.service.PdwService` gets a ``request_id`` and a
:class:`RequestRecord` tracked through its lifecycle::

    queued -> compiling -> running (step k/n) -> moving data
           -> complete | failed | rejected

with per-step (:class:`StepProgress`) and per-node progress updated
*in flight*, at step granularity, by hooks in
:class:`repro.appliance.runner.DsqlRunner`: a step keeps its
:class:`~repro.appliance.dms_runtime.StepExecutionStats` when it ends,
and its totals and per-node rows, bytes and wall time are read off
them.

Completed records move into a bounded ring buffer — the **flight
recorder** — with a slow-query threshold, so a busy service retains the
recent past at fixed memory cost.  :mod:`repro.obs.export` turns the
recorder into schema-validated ``request_complete`` JSONL events;
:mod:`repro.obs.system_views` snapshots registry state into replicated
pseudo-tables the engine itself can query.  The recorder is bounded, so
it is no source of counts: the service writes each finished request's
``pdw_service_*`` series once, as it finishes.

Zero-overhead default: :data:`NULL_REQUESTS` / :data:`NULL_REQUEST`
follow the ``NULL_TRACER`` / ``NULL_METRICS`` contract — shared no-op
singletons with ``enabled = False`` and no per-call allocation, so the
untracked path stays allocation-free (the booby-trap tests monkeypatch
the record constructors to prove it).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.obs.query_store import plan_shape_digest

if TYPE_CHECKING:
    from repro.appliance.dms_runtime import StepExecutionStats

__all__ = [
    "StepProgress",
    "RequestRecord",
    "RequestHandle",
    "RequestRegistry",
    "NullRequestHandle",
    "NullRequestRegistry",
    "NULL_REQUEST",
    "NULL_REQUESTS",
    "REQUEST_STATES",
    "TERMINAL_STATES",
]

#: Every status a request can report, in lifecycle order.
REQUEST_STATES = ("queued", "compiling", "running", "moving data",
                  "complete", "failed", "rejected")

#: Statuses that move a record from the active set into the recorder.
TERMINAL_STATES = frozenset({"complete", "failed", "rejected"})

#: Default flight-recorder capacity (completed records retained).
DEFAULT_CAPACITY = 256

#: Default slow-query threshold in *measured* seconds end to end.
DEFAULT_SLOW_SECONDS = 1.0


@lru_cache(maxsize=None)
def _not_ended() -> "StepExecutionStats":
    """What a step's stats read until it ends: zeros, in one object
    every such step shares (the step's own stats replace it)."""
    # Imported here: the appliance imports this module.
    from repro.appliance.dms_runtime import StepExecutionStats
    return StepExecutionStats(step_index=-1, operation=None)


@dataclass
class StepProgress:
    """Live per-step accounting for one request's DSQL step.

    ``status`` walks ``pending -> running -> complete``; ``stats`` is
    the step's :class:`~repro.appliance.dms_runtime.StepExecutionStats`
    once it has ended (zeros before), so a concurrent DMV read sees the
    figures of the steps finished so far.
    """

    index: int
    kind: str = ""                # "DMS" or "Return"
    operation: str = ""
    status: str = "pending"
    stats: "StepExecutionStats" = field(default_factory=_not_ended)


@dataclass
class RequestRecord:
    """One query's trip through the appliance, live or completed."""

    request_id: str
    sql: str
    tenant: str = "default"
    priority: str = "normal"
    status: str = "queued"
    submitted_at: float = 0.0     # epoch seconds
    ended_at: Optional[float] = None
    cache_hit: bool = False
    plan_digest: str = ""
    step_count: int = 0
    current_step: int = -1
    rows_returned: int = 0
    error: str = ""
    queue_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    steps: List[StepProgress] = field(default_factory=list)

    @property
    def is_active(self) -> bool:
        return self.status not in TERMINAL_STATES

    def is_slow(self, threshold_seconds: float) -> bool:
        return self.total_seconds >= threshold_seconds


class RequestHandle:
    """The mutation surface one in-flight request's instrumentation uses.

    Handed out by :meth:`RequestRegistry.begin` and threaded through the
    service and the runner (``run(plan, request=...)``).  Every method
    takes the registry lock, so concurrent DMV snapshots never see torn
    rows.
    """

    enabled = True
    __slots__ = ("_registry", "_record")

    def __init__(self, registry: "RequestRegistry",
                 record: RequestRecord):
        self._registry = registry
        self._record = record

    @property
    def request_id(self) -> str:
        return self._record.request_id

    @property
    def record(self) -> RequestRecord:
        return self._record

    # -- lifecycle transitions -------------------------------------------------

    def compiling(self) -> None:
        with self._registry._lock:
            self._record.status = "compiling"

    def begin_plan(self, plan) -> None:
        """The service is about to run ``plan`` (the template): one
        :class:`StepProgress` per DSQL step, labelled from the
        template's kept step facts, and go ``running``."""
        record = self._record
        steps = [StepProgress(index=index, kind=kind, operation=operation)
                 for index, kind, operation, _ in plan.step_facts]
        with self._registry._lock:
            record.step_count = len(steps)
            record.steps = steps
            record.status = "running"

    def begin_step(self, index: int) -> None:
        with self._registry._lock:
            record = self._record
            if not (0 <= index < len(record.steps)):
                return
            step = record.steps[index]
            step.status = "running"
            record.current_step = index
            # DMS steps *are* the data movement; the paper's lifecycle
            # surfaces them as a distinct observable state.
            record.status = ("moving data" if step.kind == "DMS"
                             else "running")

    def end_step(self, index: int, stats) -> None:
        """Step ``index`` finished with its
        :class:`~repro.appliance.dms_runtime.StepExecutionStats`, kept
        as they are: the step's totals and, per executing node, its
        rows, wall time and bytes — read by a DMS step, sent to the
        control node by the Return step."""
        with self._registry._lock:
            record = self._record
            if not (0 <= index < len(record.steps)):
                return
            step = record.steps[index]
            step.status = "complete"
            step.stats = stats
            record.status = "running"

    # -- terminal transitions ---------------------------------------------------

    def complete(self, rows: int = 0, cache_hit: bool = False,
                 queue_seconds: float = 0.0,
                 compile_seconds: float = 0.0,
                 execute_seconds: float = 0.0,
                 total_seconds: float = 0.0, plan=None) -> None:
        """The request finished: ``plan`` is the template that ran, whose
        plan hash (:func:`~repro.obs.query_store.plan_shape_digest`)
        becomes the record's ``plan_digest``.  Hashed here, after the
        admission slot is released, not when the plan starts."""
        record = self._record
        if plan is not None:
            record.plan_digest = plan_shape_digest(plan)
        record.rows_returned = rows
        record.cache_hit = cache_hit
        record.queue_seconds = queue_seconds
        record.compile_seconds = compile_seconds
        record.execute_seconds = execute_seconds
        record.total_seconds = total_seconds
        self._registry._finish(record, "complete")

    def failed(self, error: str, total_seconds: float = 0.0) -> None:
        record = self._record
        record.error = str(error)
        record.total_seconds = total_seconds
        self._registry._finish(record, "failed")

    def rejected(self, error: str) -> None:
        record = self._record
        record.error = str(error)
        self._registry._finish(record, "rejected")


class RequestRegistry:
    """Assigns request ids, tracks in-flight queries, retains the past.

    Thread-safe: the session and every service client thread mutate
    through :class:`RequestHandle` under one lock, and snapshot readers
    (DMV materialization, exports, ``stats()``) take the same lock, so a
    reader never observes a half-applied transition.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_threshold_seconds: float = DEFAULT_SLOW_SECONDS):
        self.capacity = max(1, int(capacity))
        self.slow_threshold_seconds = float(slow_threshold_seconds)
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._active: "OrderedDict[str, RequestRecord]" = OrderedDict()
        self._recorder: Deque[RequestRecord] = deque(maxlen=self.capacity)
        self._counts: Dict[str, int] = {}

    # -- intake ----------------------------------------------------------------

    def begin(self, sql: str, tenant: str = "default",
              priority: str = "normal") -> RequestHandle:
        record = RequestRecord(
            request_id=f"QID{next(self._ids)}",
            sql=sql, tenant=tenant, priority=priority,
            submitted_at=time.time())
        with self._lock:
            self._active[record.request_id] = record
        return RequestHandle(self, record)

    def _finish(self, record: RequestRecord, status: str) -> None:
        with self._lock:
            record.status = status
            record.ended_at = time.time()
            record.current_step = -1
            self._active.pop(record.request_id, None)
            self._recorder.append(record)
            self._counts[status] = self._counts.get(status, 0) + 1

    # -- snapshots -------------------------------------------------------------

    def active(self) -> List[RequestRecord]:
        """In-flight records, oldest first."""
        with self._lock:
            return list(self._active.values())

    def completed(self) -> List[RequestRecord]:
        """The flight recorder's retained records, oldest first."""
        with self._lock:
            return list(self._recorder)

    def snapshot(self) -> List[RequestRecord]:
        """Active then retained records — the DMV materialization set."""
        with self._lock:
            return list(self._active.values()) + list(self._recorder)

    def find(self, request_id: str) -> Optional[RequestRecord]:
        with self._lock:
            record = self._active.get(request_id)
            if record is not None:
                return record
            for record in self._recorder:
                if record.request_id == request_id:
                    return record
        return None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "active": len(self._active),
                "retained": len(self._recorder),
                "capacity": self.capacity,
                "slow_threshold_seconds": self.slow_threshold_seconds,
                "slow": sum(
                    1 for record in self._recorder
                    if record.is_slow(self.slow_threshold_seconds)),
                "finished": dict(self._counts),
            }


class NullRequestHandle:
    """The shared do-nothing handle: every hook is a no-op."""

    enabled = False
    __slots__ = ()
    request_id = None

    def compiling(self):
        pass

    def begin_plan(self, plan):
        del plan

    def begin_step(self, index):
        del index

    def end_step(self, index, stats):
        del index, stats

    def complete(self, rows=0, cache_hit=False, queue_seconds=0.0,
                 compile_seconds=0.0, execute_seconds=0.0,
                 total_seconds=0.0, plan=None):
        del rows, cache_hit, queue_seconds, compile_seconds
        del execute_seconds, total_seconds, plan

    def failed(self, error, total_seconds=0.0):
        del error, total_seconds

    def rejected(self, error):
        del error


NULL_REQUEST = NullRequestHandle()


class NullRequestRegistry(RequestRegistry):
    """The default registry: tracks nothing, allocates nothing."""

    enabled = False
    __slots__ = ()
    capacity = 0
    slow_threshold_seconds = DEFAULT_SLOW_SECONDS

    def __init__(self):  # no per-instance state at all
        pass

    def begin(self, sql, tenant="default", priority="normal"):
        del sql, tenant, priority
        return NULL_REQUEST

    def active(self):
        return []

    def completed(self):
        return []

    def snapshot(self):
        return []

    def find(self, request_id):
        del request_id
        return None

    def stats(self):
        return {"active": 0, "retained": 0, "capacity": 0,
                "slow_threshold_seconds": DEFAULT_SLOW_SECONDS, "slow": 0,
                "finished": {}}


NULL_REQUESTS = NullRequestRegistry()
