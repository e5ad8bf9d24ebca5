"""Admission control: bounded queueing with priority classes.

A production control node never lets an unbounded burst of queries pile
onto the appliance — it caps concurrent executions, queues a bounded
backlog, and rejects or times out the rest with an error the client can
act on.  :class:`AdmissionController` is that gate:

* at most ``max_in_flight`` queries hold an execution slot at once;
* at most ``max_queue`` more wait, ordered by **priority class**
  (``interactive`` < ``normal`` < ``batch``; FIFO within a class) —
  a freed slot always goes to the best-ranked waiter;
* a queue at capacity rejects immediately with
  :class:`~repro.common.errors.QueueFullError`;
* a waiter that exceeds its timeout raises
  :class:`~repro.common.errors.AdmissionTimeoutError`;
* :meth:`close` wakes every waiter with
  :class:`~repro.common.errors.ServiceClosedError`.

Implementation: one condition variable plus a heap of waiter records.
Waiters are woken collectively (``notify_all``) and the heap head claims
the slot, so priority order is decided by data, not by wake-up timing;
cancelled records (timeout/close) are lazily popped.  Queue depth and
in-flight gauges plus per-outcome counters land on the metrics registry
as ``pdw_service_*`` series.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import (
    AdmissionTimeoutError,
    QueueFullError,
    ServiceClosedError,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.service.options import PRIORITY_CLASSES

#: Execution slots by default: what the data plane can run at once.
#: Both executors run under one GIL, so a second
#: concurrent execution adds no throughput — two 4-slot clients convoy
#: on the GIL hand-off between short numpy calls and finish *fewer*
#: queries than one — and a waiting query is better off in the queue,
#: where priorities order it.  Used by every front door that has the
#: knob (:class:`AdmissionController`, ``PdwService``, the CLI).
DEFAULT_MAX_IN_FLIGHT = 1

_WAITING = 0
_CANCELLED = 1


@dataclass(order=True)
class _Waiter:
    rank: int
    seq: int
    state: int = field(default=_WAITING, compare=False)


@dataclass
class AdmissionTicket:
    """Proof of admission; hand it back via
    :meth:`AdmissionController.release`."""

    priority: str
    tenant: str
    seq: int
    queued_seconds: float = 0.0
    released: bool = False


class AdmissionController:
    """The concurrency gate in front of the execution stack."""

    def __init__(self, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 max_queue: int = 32,
                 default_timeout_seconds: Optional[float] = None,
                 metrics: MetricsRegistry = NULL_METRICS):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.default_timeout_seconds = default_timeout_seconds
        self._cond = threading.Condition()
        self._heap: List[_Waiter] = []
        self._queued = 0          # live (non-cancelled) waiters
        self._in_flight = 0
        self._seq = itertools.count(1)
        self._closed = False
        # Totals (also exported as metrics when the registry is live).
        self.admitted_total = 0
        self.rejected_total: Dict[str, int] = {
            "queue_full": 0, "timeout": 0, "closed": 0,
        }
        # Each series resolved once, here; every one renders from zero.
        gauge, counter = metrics.gauge, metrics.counter
        self._in_flight_gauge = gauge(
            "pdw_service_in_flight",
            "Queries currently holding an execution slot").labels()
        self._queue_gauge = gauge(
            "pdw_service_queue_depth",
            "Queries waiting for an execution slot").labels()
        self._wait = metrics.histogram(
            "pdw_service_queue_wait_seconds",
            "Seconds spent waiting for admission").labels()
        admitted = counter("pdw_service_admitted_total",
                           "Queries granted an execution slot",
                           labelnames=("priority",))
        rejected = counter("pdw_service_rejected_total",
                           "Queries refused by admission control",
                           labelnames=("reason", "priority"))
        self._admitted = {priority: admitted.labels(priority=priority)
                          for priority in PRIORITY_CLASSES}
        self._rejected = {
            (reason, priority): rejected.labels(reason=reason,
                                                priority=priority)
            for reason in self.rejected_total
            for priority in PRIORITY_CLASSES}

    # -- metric plumbing -------------------------------------------------------

    def _gauges(self) -> None:
        self._in_flight_gauge.set(self._in_flight)
        self._queue_gauge.set(self._queued)

    def _count_admitted(self, priority: str, waited: float) -> None:
        self.admitted_total += 1
        self._admitted[priority].inc()
        self._wait.observe(waited)

    def _count_rejected(self, reason: str, priority: str) -> None:
        self.rejected_total[reason] += 1
        self._rejected[(reason, priority)].inc()

    # -- the gate --------------------------------------------------------------

    def _prune(self) -> None:
        while self._heap and self._heap[0].state == _CANCELLED:
            heapq.heappop(self._heap)

    def admit(self, priority: str = "normal", tenant: str = "default",
              timeout_seconds: Optional[float] = None) -> AdmissionTicket:
        """Block until an execution slot is granted.

        Raises :class:`QueueFullError` immediately when the wait queue
        is at capacity, :class:`AdmissionTimeoutError` when the slot
        does not free up within the timeout (explicit argument, else
        the controller default, else wait forever), and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        rank = PRIORITY_CLASSES[priority]
        if timeout_seconds is None:
            timeout_seconds = self.default_timeout_seconds
        started = time.monotonic()
        with self._cond:
            if self._closed:
                self._count_rejected("closed", priority)
                raise ServiceClosedError(
                    "service is closed", tenant, priority)
            self._prune()
            if not self._heap and self._in_flight < self.max_in_flight:
                self._in_flight += 1
                self._count_admitted(priority, 0.0)
                self._gauges()
                return AdmissionTicket(priority, tenant,
                                       next(self._seq))
            if self._queued >= self.max_queue:
                self._count_rejected("queue_full", priority)
                raise QueueFullError(
                    f"admission queue full "
                    f"({self._queued} waiting, cap {self.max_queue})",
                    tenant, priority)
            waiter = _Waiter(rank, next(self._seq))
            heapq.heappush(self._heap, waiter)
            self._queued += 1
            self._gauges()
            deadline = (started + timeout_seconds
                        if timeout_seconds is not None else None)
            try:
                while True:
                    if self._closed:
                        self._count_rejected("closed", priority)
                        raise ServiceClosedError(
                            "service closed while queued",
                            tenant, priority)
                    self._prune()
                    if (self._in_flight < self.max_in_flight
                            and self._heap
                            and self._heap[0] is waiter):
                        heapq.heappop(self._heap)
                        self._in_flight += 1
                        waited = time.monotonic() - started
                        self._count_admitted(priority, waited)
                        # Another slot may be free for the next waiter.
                        self._cond.notify_all()
                        return AdmissionTicket(
                            priority, tenant, waiter.seq,
                            queued_seconds=waited)
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._count_rejected("timeout", priority)
                            raise AdmissionTimeoutError(
                                f"no execution slot within "
                                f"{timeout_seconds:.3f}s "
                                f"(priority {priority!r})",
                                tenant, priority)
                    self._cond.wait(remaining)
            finally:
                if waiter.state == _WAITING and self._heap \
                        and waiter in self._heap:
                    waiter.state = _CANCELLED
                self._queued -= 1
                # A granted waiter was already popped; mark consistency
                # for the granted case where state stays _WAITING but
                # the record left the heap.
                if waiter.state == _CANCELLED:
                    self._cond.notify_all()
                self._gauges()

    def release(self, ticket: AdmissionTicket) -> None:
        """Return ``ticket``'s execution slot; wakes the best waiter."""
        with self._cond:
            if ticket.released:
                return
            ticket.released = True
            self._in_flight -= 1
            self._gauges()
            self._cond.notify_all()

    def close(self) -> None:
        """Refuse new work and wake every queued waiter with
        :class:`ServiceClosedError`.  In-flight queries finish."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._queued

    def stats(self) -> Dict[str, object]:
        with self._cond:
            return {
                "in_flight": self._in_flight,
                "queue_depth": self._queued,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "rejected_total": dict(self.rejected_total),
            }
