"""The timed pass (tracing off): end-to-end metrics of one workload.

**Reference speed.**  The sandbox this runs in shares its cores: the same
code takes 10-40 % longer from one minute (or one tenth of a second) to
the next.  So every client runs one fixed calibration unit -- a pure-Python
scan over 20 000 rows, about 2 ms -- between ops, and an op's wall time is
reported as if the host had run the units around it in exactly
``REFERENCE_UNIT_S``: ``seconds * REFERENCE_UNIT_S / mean(unit before,
unit after)``.  The units' own time counts towards no metric.  On a quiet
host the factor is 1; the ``info`` line carries the run's raw throughput
and median factor.
"""

from __future__ import annotations

import datetime
import resource
import statistics
import sys
import threading
import time
import traceback
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from workloads import (
    Op,
    Sample,
    Workload,
    client_stream,
    executor_for,
    leaked_temp_tables,
    resolved_defaults,
    set_up,
    verify,
    warm_up,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: What one calibration unit takes on this sandbox when nothing else runs.
REFERENCE_UNIT_S = 0.0018


class HostSpeed:
    """The calibration unit: a filter-and-aggregate scan, shaped like the
    node-local work the program does (tuples of mixed types, a dict of
    running sums), over a working set that does not fit the L2 cache."""

    def __init__(self, rows: int = 20000):
        start = datetime.date(1995, 1, 1)
        self._rows = [(i, i % 7, i * 1.01, f"text-{i}",
                       start + datetime.timedelta(days=i % 2000),
                       float(i % 50), i * 3, f"m{i % 7}")
                      for i in range(rows)]
        self._cutoff = datetime.date(1997, 1, 1)

    def unit(self) -> float:
        """Run one unit; its wall seconds."""
        started = time.perf_counter()
        sums: Dict[int, float] = {}
        cutoff = self._cutoff
        for _key, group, value, _text, day, quantity, _n, _mode in self._rows:
            if day < cutoff and quantity < 30.0:
                sums[group] = sums.get(group, 0.0) + value * (1 - quantity / 100)
        return time.perf_counter() - started


class Record(NamedTuple):
    seconds: float          # as measured
    at_reference: float     # at reference speed
    op: Op
    outcome: object         # Sample, or the exception


def run_clients(execute: Callable[[Op], Sample],
                streams: Sequence[Iterator[Op]], seconds: float,
                prefix: int, host: HostSpeed
                ) -> Tuple[List[List[Record]], float]:
    """Closed loop: each client sends its next op when the previous one
    has returned (one calibration unit in between), until ``seconds``
    have passed and it has sent at least ``prefix`` ops.  One client runs
    on the calling thread."""
    records: List[List[Record]] = [[] for _ in streams]
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        stream, mine = streams[index], records[index]
        before = host.unit()
        while len(mine) < prefix or time.perf_counter() < deadline:
            op = next(stream)
            sent = time.perf_counter()
            try:
                outcome = execute(op)
            except Exception as error:  # noqa: BLE001 - counted as failed
                if not any(isinstance(r.outcome, Exception) for r in mine):
                    traceback.print_exc(file=sys.stderr)
                outcome = error
            took = time.perf_counter() - sent
            after = host.unit()
            mine.append(Record(
                took, took * REFERENCE_UNIT_S / ((before + after) / 2),
                op, outcome))
            before = after

    if len(streams) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records, time.perf_counter() - started


def completed(records: Sequence[Sequence[Record]]) -> List[Record]:
    return [r for mine in records for r in mine
            if isinstance(r.outcome, Sample)]


def throughput(records: Sequence[Sequence[Record]]) -> float:
    """Completed ops per second of the clients' busy time, at reference
    speed: each closed-loop client contributes its ops over the time they
    took."""
    return sum(
        sum(isinstance(r.outcome, Sample) for r in mine)
        / sum(r.at_reference for r in mine)
        for mine in records if mine)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (linear interpolation), q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: Workload, seed: int, seconds: float,
            setups: int = SETUPS) -> Dict[str, object]:
    host = HostSpeed()
    setup_seconds = []
    front = None
    for _ in range(setups):
        if front is not None and workload.service:
            front.close()
        front = None            # free the previous appliance first
        before = [host.unit() for _ in range(5)]
        started = time.perf_counter()
        front = set_up(workload, seed)
        took = time.perf_counter() - started
        units = before + [host.unit() for _ in range(5)]
        setup_seconds.append(took * REFERENCE_UNIT_S
                             / statistics.fmean(units))
    warm_up(workload, front)

    streams = [client_stream(workload, seed, client)
               for client in range(workload.clients)]
    records, wall = run_clients(executor_for(workload, front), streams,
                                seconds, workload.prefix, host)

    checked, wrong = verify(workload, front, seed)
    leaked = leaked_temp_tables(front.appliance)
    if workload.service:
        front.close()

    done = completed(records)
    latencies = [r.at_reference * 1e3 for r in done]
    # Exact counts: the seed-independent prefix of every client.  The
    # compile-only workload has executed nothing in the timed pass, so its
    # execution counts are those of the verified plans (one per template).
    counted = [r.outcome for r in completed(
        [mine[:workload.prefix] for mine in records])]
    executed = counted if workload.service else checked
    sent = sum(map(len, records))
    attempted = sent + len(checked)
    failed = sent - len(done) + len(wrong)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "queries_per_s": throughput(records),
        "query_ms_p50": percentile(latencies, 50),
        "query_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "plan_cost_s": sum(s.plan_cost for s in counted),
        "sim_seconds": sum(s.sim_seconds for s in executed),
        "dms_bytes": sum(s.dms_bytes for s in executed),
        "rows_returned": sum(s.rows for s in executed),
    }
    return {
        "correct": failed == 0 and leaked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "scale": workload.scale, "clients": workload.clients,
            "samples": len(done), "counted_ops": len(counted),
            "raw_queries_per_s": len(done) / wall,
            "host_speed": statistics.median(
                r.at_reference / r.seconds for r in done),
            "mismatched": wrong, "temp_tables_leaked": leaked,
            "failed_share": failed / attempted,
            **resolved_defaults(front),
        },
    }
