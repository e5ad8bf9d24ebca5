"""The PDW serving layer: concurrent sessions over one appliance.

A production appliance is a multi-user system: the control node accepts
many concurrent queries, compiles each into a DSQL plan, and schedules
them across the compute nodes.  This package supplies that front end for
the reproduction:

* :class:`PdwService` — accepts queries from many client threads and
  runs them through the existing engine/runner stack with inter-query
  concurrency (each execution gets a private temp-table namespace, so
  plans overlap safely on one appliance);
* :class:`PlanCache` / :func:`parameterize` — the parameterized plan
  cache: queries are normalized by lifting predicate literals to
  parameter markers, so Q5 compiles once and executes thousands of
  times with different constants (LRU-bounded, invalidated on DDL,
  hits/misses/evictions on the service's MetricsRegistry);
* :class:`AdmissionController` — bounded queueing with priority
  classes, a max-in-flight limit, and typed timeout/reject errors;
* :class:`ExecutionOptions` — the one frozen options surface shared by
  :class:`repro.session.PdwSession` and the service;
* :mod:`repro.service.traffic` — the traffic generator driving N
  concurrent clients through a parameterized TPC-H mix, reporting
  p50/p95/p99 latency and queries/sec.
"""

from repro.common.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.options import (
    ExecutionOptions,
    PRIORITY_CLASSES,
)
from repro.service.plan_cache import (
    PlanCache,
    QueryShape,
    parameterize,
)
from repro.service.service import PdwService
from repro.service.traffic import (
    DEFAULT_MIX,
    QueryTemplate,
    TrafficReport,
    render_report,
    run_traffic,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "AdmissionTimeoutError",
    "DEFAULT_MIX",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceError",
    "ExecutionOptions",
    "PRIORITY_CLASSES",
    "PdwService",
    "PlanCache",
    "QueryShape",
    "QueryTemplate",
    "TrafficReport",
    "parameterize",
    "render_report",
    "run_traffic",
]
