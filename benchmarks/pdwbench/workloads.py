"""The four pdwbench workloads: what each sends, through which front door.

A workload is a closed loop: every client waits for its reply before it
sends its next query.  The program is built with front-door defaults only
(``PdwSession(options=ExecutionOptions(trace=False))`` / ``PdwService()``
over an appliance generated from the seed); the resolved executor and
runtime are recorded by the caller, never chosen here.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import (
    ExecutionOptions,
    PdwService,
    PdwSession,
    QueryResult,
    build_tpch_appliance,
    run_reference,
)
from repro.appliance.storage import Appliance

from templates import ROUNDS, SCAN, SHUFFLE, TEMPLATES, TPCH, novel_shapes

NODES = 8

#: Priority classes drawn per arrival, as in repro.service.traffic.
_PRIORITIES = ("normal", "interactive", "batch")
_PRIORITY_SHARES = (0.6, 0.25, 0.15)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    clients: int
    #: The templates of one round (repeats are weights); each client
    #: sends a seeded shuffle of it, round after round.
    mix: Tuple[str, ...]
    service: bool = True
    #: serve_mix only: tenants/priorities per arrival, and one never-seen
    #: shape closing every round (1 in 20 = 5 %).
    mixed: bool = False

    @property
    def templates(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.mix))

    @property
    def round_size(self) -> int:
        return len(self.mix) + self.mixed

    @property
    def prefix(self) -> int:
        """Ops per client whose exact counts are summed: the shortest
        run that sends every domain member of every template equally
        often, so the counted SQL multiset does not depend on the seed."""
        return (ROUNDS // self.clients) * self.round_size


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("compile_cold", 0.002, 1, TPCH, service=False),
    Workload("exec_scan", 0.005, 1, SCAN),
    Workload("exec_shuffle", 0.005, 1, SHUFFLE),
    Workload("serve_mix", 0.003, 2, SCAN + SCAN + SHUFFLE, mixed=True),
)}


class Op(NamedTuple):
    template: str
    sql: str
    #: Extra ``PdwService.execute`` arguments (tenant, priority).
    kwargs: dict


def client_stream(workload: Workload, seed: int, client: int,
                  tag: str = "") -> Iterator[Op]:
    """One client's endless, seed-determined op sequence.  ``tag`` names
    the pass, so each pass's never-seen shapes are new to the service."""
    rng = random.Random(f"pdwbench:{seed}:{workload.name}:{client}")
    literals = {name: TEMPLATES[name].literals(seed, client, workload.clients)
                for name in workload.templates}
    novel = novel_shapes(seed, client, tag)
    tenant = f"tenant-{client % 3}"

    def kwargs() -> dict:
        if not workload.mixed:
            return {}
        priority = rng.choices(_PRIORITIES, _PRIORITY_SHARES)[0]
        return {"tenant": tenant, "priority": priority}

    while True:
        order = list(workload.mix)
        rng.shuffle(order)
        for name in order:
            yield Op(name, next(literals[name]), kwargs())
        if workload.mixed:
            yield Op("NOVEL", next(novel), kwargs())


# -- the program under test ---------------------------------------------------

def set_up(workload: Workload, seed: int, appliance_and_shell=None):
    """Data + statistics + front door, all at their defaults."""
    appliance, shell = appliance_and_shell or build_tpch_appliance(
        scale=workload.scale, node_count=NODES, seed=seed)
    if workload.service:
        return PdwService(appliance=appliance, shell=shell)
    return PdwSession(appliance=appliance, shell=shell,
                      options=ExecutionOptions(trace=False))


class Sample(NamedTuple):
    """What one completed op contributes to the metrics."""

    plan_cost: float
    sim_seconds: float = 0.0
    dms_bytes: int = 0
    rows: int = 0
    cache_hit: bool = False
    queue: float = 0.0
    compile: float = 0.0
    execute: float = 0.0
    total: float = 0.0


def sample_of(result: QueryResult) -> Sample:
    timing = result.timing
    return Sample(
        plan_cost=result.plan.plan_cost,
        sim_seconds=result.elapsed_seconds,
        dms_bytes=sum(s.total_bytes() for s in result.step_stats),
        rows=len(result.rows),
        cache_hit=result.cache_hit,
        queue=timing.queue_seconds if timing else 0.0,
        compile=timing.compile_seconds if timing else 0.0,
        execute=timing.execute_seconds if timing else 0.0,
        total=timing.total_seconds if timing else 0.0,
    )


def executor_for(workload: Workload, front) -> Callable[[Op], Sample]:
    """The closed-loop body: send one op through the front door."""
    if workload.service:
        return lambda op: sample_of(front.execute(op.sql, **op.kwargs))
    return lambda op: Sample(plan_cost=front.compile(op.sql).plan_cost)


def warm_up(workload: Workload, front) -> List[float]:
    """One fixed instance of every template, single-threaded, in fixed
    order: fills the plan cache (so plan choice never depends on thread
    interleaving or the seed's literal order) and the scan caches.
    Returns each template's first-execution seconds."""
    execute = executor_for(workload, front)
    first = []
    for name in workload.templates:
        template = TEMPLATES[name]
        started = time.perf_counter()
        execute(Op(name, template.render(*template.domain[0]), {}))
        first.append(time.perf_counter() - started)
    return first


# -- correctness ----------------------------------------------------------------

def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def same_rows(actual: QueryResult, expected: QueryResult,
              ordered: bool) -> bool:
    """Row-for-row equality with the float tolerance of the repo's
    equivalence tests; order matters only under ORDER BY."""
    if ordered:
        left, right = actual.rows, expected.rows
    else:
        left, right = actual.sorted_rows(), expected.sorted_rows()
    return len(left) == len(right) and all(
        len(a) == len(b) and all(map(_same_value, a, b))
        for a, b in zip(left, right))


def verify(workload: Workload, front, seed: int
           ) -> Tuple[List[Sample], List[str]]:
    """The first drawn instance of every template through the workload's
    own path, against the reference interpreter on the single-system
    image.  Returns the checked executions and the names that differ."""
    appliance = front.appliance
    checks = [(name, next(TEMPLATES[name].literals(seed)))
              for name in workload.templates]
    if workload.mixed:
        checks.append(("NOVEL", next(novel_shapes(seed, 0, "verify"))))
    samples, wrong = [], []
    for name, sql in checks:
        if workload.service:
            result = front.execute(sql)
        else:
            compiled = front.compile(sql)
            result = front.runner.run(compiled.dsql_plan)
            result.plan = compiled
        expected = run_reference(appliance, sql, executor="reference")
        ordered = bool(result.plan.dsql_plan.order_by)
        if not same_rows(result, expected, ordered):
            wrong.append(name)
        samples.append(sample_of(result))
    return samples, wrong


def leaked_temp_tables(appliance: Appliance) -> int:
    return sum(name.startswith("temp_id_")
               for node in (appliance.control, *appliance.compute)
               for name in node.tables)


def resolved_defaults(front) -> Dict[str, Optional[object]]:
    """What the front door's defaults resolved to (recorded, not set)."""
    return {"executor": front.options.executor,
            "parallel": front.options.parallel}
