"""Traffic generation: N concurrent clients driving a TPC-H mix.

The serving layer's claims — compile once per shape, overlap executions,
bound the queue — only mean something under concurrent load, so this
module supplies a deterministic load generator: a weighted mix of
**parameterized TPC-H templates** (each arrival draws fresh literals
from a seeded RNG, exercising the plan cache's normalize/bind path, not
just repeat-the-string), driven by ``clients`` threads issuing
``queries_per_client`` queries each through one :class:`PdwService`.

:func:`run_traffic` returns a :class:`TrafficReport` with p50/p95/p99
latency, queries/sec, per-template counts and the service's cache and
admission statistics; :func:`render_report` formats it for the CLI's
``serve``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import AdmissionError

#: Data ranges the generator draws from (TPC-H dates span 1992..1998;
#: staying inside 1993..1997 keeps every window selective but nonempty).
_YEARS = (1993, 1994, 1995, 1996, 1997)
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
             "MACHINERY")
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


@dataclass(frozen=True)
class QueryTemplate:
    """One member of the mix: a name, a literal-drawing SQL factory and
    a selection weight."""

    name: str
    make_sql: Callable[[random.Random], str]
    weight: float = 1.0


def _q1(rng: random.Random) -> str:
    cutoff = f"{rng.choice(_YEARS)}-{rng.randint(1, 12):02d}-01"
    return f"""
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '{cutoff}'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def _q6(rng: random.Random) -> str:
    year = rng.choice(_YEARS)
    low = round(rng.choice((0.02, 0.03, 0.05, 0.06)), 2)
    return f"""
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '{year}-01-01'
  AND l_shipdate < DATE '{year + 1}-01-01'
  AND l_discount BETWEEN {low} AND {round(low + 0.02, 2)}
  AND l_quantity < {rng.choice((24, 25, 30, 35))}
"""


def _q3(rng: random.Random) -> str:
    date = f"{rng.choice(_YEARS)}-0{rng.randint(1, 9)}-15"
    return f"""
SELECT l_orderkey,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{rng.choice(_SEGMENTS)}'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '{date}'
  AND l_shipdate > DATE '{date}'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""


def _q5(rng: random.Random) -> str:
    year = rng.choice(_YEARS)
    return f"""
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = '{rng.choice(_REGIONS)}'
  AND o_orderdate >= DATE '{year}-01-01'
  AND o_orderdate < DATE '{year + 1}-01-01'
GROUP BY n_name
ORDER BY revenue DESC
"""


def _join(rng: random.Random) -> str:
    return f"""
SELECT c_custkey, o_orderdate
FROM orders, customer
WHERE o_custkey = c_custkey
  AND o_totalprice > {rng.choice((100, 1000, 25000, 50000, 100000))}
"""


#: The default mix: the selective scans dominate (as interactive traffic
#: does), the heavy joins arrive steadily.
DEFAULT_MIX: Sequence[QueryTemplate] = (
    QueryTemplate("Q1", _q1, weight=2.0),
    QueryTemplate("Q6", _q6, weight=3.0),
    QueryTemplate("Q3", _q3, weight=1.0),
    QueryTemplate("Q5", _q5, weight=1.0),
    QueryTemplate("JOIN", _join, weight=2.0),
)

#: Priority classes drawn per arrival (mostly normal, some interactive
#: probes, a batch tail).
_PRIORITY_MIX = (("normal", 0.6), ("interactive", 0.25), ("batch", 0.15))


def _draw_priority(rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for name, share in _PRIORITY_MIX:
        acc += share
        if roll <= acc:
            return name
    return "batch"


@dataclass
class TrafficReport:
    """What one traffic run measured."""

    clients: int
    queries_per_client: int
    completed: int
    rejected: int
    errors: int
    wall_seconds: float
    latencies: List[float] = field(default_factory=list)
    #: Per-phase wall seconds of every completed query, keyed
    #: "queue" / "compile" / "execute" (from ``QueryResult.timing``).
    phase_latencies: Dict[str, List[float]] = field(default_factory=dict)
    per_template: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    admission_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of completed-query latency, seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def phase_percentile(self, phase: str, q: float) -> float:
        """Nearest-rank percentile of one phase's latency, seconds."""
        values = self.phase_latencies.get(phase)
        if not values:
            return 0.0
        ordered = sorted(values)
        rank = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[rank]


def run_traffic(service, *,
                clients: int = 4,
                queries_per_client: int = 10,
                seed: int = 2012,
                mix: Optional[Sequence[QueryTemplate]] = None,
                timeout_seconds: Optional[float] = None) -> TrafficReport:
    """Drive ``clients`` threads through the mix; gather the report.

    Deterministic for a given seed: each client owns
    ``random.Random(seed + client_id)``, so template choices and drawn
    literals don't depend on thread interleaving.  Admission rejections
    (queue full / timeout) are counted, not raised; any other error is
    counted and the first one re-raised at the end — a load generator
    must not bury correctness bugs.
    """
    templates = list(mix or DEFAULT_MIX)
    weights = [t.weight for t in templates]
    report = TrafficReport(clients=clients,
                           queries_per_client=queries_per_client,
                           completed=0, rejected=0, errors=0,
                           wall_seconds=0.0)
    lock = threading.Lock()
    first_error: List[BaseException] = []

    def client(client_id: int) -> None:
        rng = random.Random(seed + client_id)
        tenant = f"tenant-{client_id % 3}"
        for _ in range(queries_per_client):
            template = rng.choices(templates, weights=weights)[0]
            sql = template.make_sql(rng)
            # Derive from the service's defaults so knobs like
            # use_plan_cache / executor survive into each arrival.
            options = service.options.override(
                tenant=tenant, priority=_draw_priority(rng),
                timeout_seconds=timeout_seconds)
            arrival = time.perf_counter()
            try:
                result = service.execute(sql, options=options)
            except AdmissionError:
                with lock:
                    report.rejected += 1
                continue
            except Exception as error:  # noqa: BLE001 - re-raised below
                with lock:
                    report.errors += 1
                    if not first_error:
                        first_error.append(error)
                continue
            latency = time.perf_counter() - arrival
            timing = result.timing
            with lock:
                report.completed += 1
                report.latencies.append(latency)
                if timing is not None:
                    phases = report.phase_latencies
                    phases.setdefault("queue", []).append(
                        timing.queue_seconds)
                    phases.setdefault("compile", []).append(
                        timing.compile_seconds)
                    phases.setdefault("execute", []).append(
                        timing.execute_seconds)
                report.per_template[template.name] = \
                    report.per_template.get(template.name, 0) + 1

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"traffic-{i}")
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - started
    report.cache_stats = service.plan_cache.stats()
    report.admission_stats = service.admission.stats()
    if first_error:
        raise first_error[0]
    return report


def render_report(report: TrafficReport) -> str:
    """The traffic report as an aligned text block."""
    cache = report.cache_stats
    lines = [
        f"clients            {report.clients}",
        f"queries/client     {report.queries_per_client}",
        f"completed          {report.completed}",
        f"rejected           {report.rejected}",
        f"errors             {report.errors}",
        f"wall seconds       {report.wall_seconds:.3f}",
        f"queries/sec        {report.queries_per_second:.1f}",
        f"latency p50        {report.p50 * 1e3:.2f} ms",
        f"latency p95        {report.p95 * 1e3:.2f} ms",
        f"latency p99        {report.p99 * 1e3:.2f} ms",
    ]
    for phase in ("queue", "compile", "execute"):
        if report.phase_latencies.get(phase):
            lines.append(
                f"{phase + ' p50/p95':<18} "
                f"{report.phase_percentile(phase, 0.50) * 1e3:.2f} / "
                f"{report.phase_percentile(phase, 0.95) * 1e3:.2f} ms")
    lines += [
        f"plan cache         {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses / "
        f"{cache.get('evictions', 0)} evictions "
        f"({cache.get('size', 0)} cached)",
    ]
    if report.per_template:
        mix = ", ".join(f"{name}:{count}" for name, count
                        in sorted(report.per_template.items()))
        lines.append(f"template mix       {mix}")
    return "\n".join(lines)
