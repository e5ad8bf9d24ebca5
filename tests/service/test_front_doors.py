"""Both front doors are one control-node core.

``PdwSession.run`` is ``PdwService.execute`` on the session's bound
query, so every TPC-H query must come back the same through either door
— cold, and again as a plan-cache hit with new literals — and leave the
same trail: one completed request and one Query Store execution per
call.  A cached template is shared by every runner of the core, and a
tracer handed to the service sees a served query's compile and execute.
"""

from __future__ import annotations

import datetime
import re

import pytest

from repro import ExecutionOptions, PdwService, PdwSession
from repro.service.plan_cache import parameterize
from repro.telemetry import Tracer
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.conftest import canonical

SCALE = 0.001

#: A date literal, any other string literal (kept), or a bare integer.
LITERAL = re.compile(r"DATE '([\d-]+)'|'[^']*'|(?<![\w.#])\d+(?![\w.])")


def with_new_literals(sql: str) -> str:
    """``sql`` with every date parameter three days later and every
    integer parameter above 1 one higher: the same shape, bindable to
    its cached template, with values the template never saw."""
    shape = parameterize(sql)
    movable = set(shape.params) - shape.structural

    def shift(match: re.Match) -> str:
        text, date = match.group(0), match.group(1)
        if date is not None:
            if ("str", date, True) in movable:
                later = (datetime.date.fromisoformat(date)
                         + datetime.timedelta(days=3))
                return f"DATE '{later}'"
        elif text.isdigit() and int(text) > 1 \
                and ("int", int(text), False) in movable:
            return str(int(text) + 1)
        return text

    return LITERAL.sub(shift, sql)


def footprint(result):
    """Everything the two doors must agree on for one call."""
    return {
        "rows": result.rows,
        "columns": result.columns,
        "cache_hit": result.cache_hit,
        "dsql": [step.sql for step in result.plan.dsql_plan.steps],
        "plan_cost": result.plan.plan_cost,
        "steps": [(stats.rows_moved, stats.total_bytes(),
                   dict(stats.node_rows))
                  for stats in result.step_stats],
    }


def trail(door):
    """(completed requests, Query Store executions) so far."""
    return (door.requests.stats()["finished"].get("complete", 0),
            door.query_store.stats()["executions"])


@pytest.fixture(scope="module", params=[3, 8], ids=["3-nodes", "8-nodes"])
def appliance_and_shell(request):
    return build_tpch_appliance(scale=SCALE, node_count=request.param)


def test_front_doors_agree_cold_and_on_a_hit(appliance_and_shell):
    appliance, shell = appliance_and_shell
    session = PdwSession(appliance=appliance, shell=shell)
    service = PdwService(appliance=appliance, shell=shell)
    try:
        for name, sql in TPCH_QUERIES.items():
            for text, hit in ((sql, False), (with_new_literals(sql), True)):
                before = (trail(session), trail(service))
                ran = session.run(text)
                served = service.execute(text)
                assert ran.cache_hit is hit, name
                assert footprint(ran) == footprint(served), name
                for door, result, (requests, executions) in (
                        (session, ran, before[0]),
                        (service, served, before[1])):
                    assert trail(door) == (requests + 1,
                                           executions + 1), name
                    assert door.requests.find(
                        result.request_id).status == "complete", name
    finally:
        service.close()
    assert session.plan_cache.stats()["hits"] == len(TPCH_QUERIES)


def test_template_is_shared_across_runners(appliance_and_shell):
    appliance, shell = appliance_and_shell
    service = PdwService(appliance=appliance, shell=shell)
    sql = TPCH_QUERIES["Q3"]
    try:
        service.execute(sql)
        numpy = service.execute(with_new_literals(sql))
        reference = service.execute(
            with_new_literals(sql),
            options=ExecutionOptions(executor="reference"))
    finally:
        service.close()
    assert numpy.cache_hit and reference.cache_hit
    assert reference.plan is numpy.plan
    assert canonical(reference.rows) == canonical(numpy.rows)


def test_served_queries_are_traced(appliance_and_shell):
    appliance, shell = appliance_and_shell
    tracer = Tracer()
    service = PdwService(appliance=appliance, shell=shell, tracer=tracer)
    sql = TPCH_QUERIES["Q5"]
    try:
        service.execute(sql)
        assert [span.name for span in tracer.roots] == ["compile",
                                                       "execute"]
        assert tracer.find("dsql.generate") is not None
        assert service.execute(with_new_literals(sql)).cache_hit
    finally:
        service.close()
    hit = tracer.roots[2:]
    assert [span.name for span in hit] == ["execute"]
    assert any(span.name.startswith("step") for span in hit[0].children)
