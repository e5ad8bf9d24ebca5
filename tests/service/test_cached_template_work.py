"""A plan-cache hit redoes no template work.

After each text's first execution, 200 repeated cached executions of
the same texts must lex no text (``skeleton``), create no metric
child, rebuild no Query Store step facts
(no ``step_profile``, the same ``step_facts`` on the template), and
count each GROUP BY's rows with the same number of ``np.bincount``
calls as the first cached call did.  Each figure stays at its
first-call value: what is computed per template is computed once, and
only what differs between calls is computed per call.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.obs import profiler
from repro.service import PdwService
from repro.service import plan_cache
from repro.vector import np_executor

TEXTS = [
    # Q1: two GROUP BYs with many aggregates over NULL-free columns.
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, "
    "COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    # Q6: a keyless aggregate.
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' "
    "AND l_shipdate < DATE '1995-01-01' AND l_quantity < 24",
    # A shuffle into a grouped join.
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS t "
    "FROM customer, orders WHERE c_custkey = o_custkey "
    "AND o_orderstatus <> 'P' GROUP BY c_mktsegment "
    "ORDER BY c_mktsegment",
    "SELECT o_custkey, COUNT(*) AS n FROM orders "
    "WHERE o_orderstatus = 'F' GROUP BY o_custkey",
]

REPEATS = 200


class _Calls:
    """Counts calls to a wrapped function, and the calls from each
    caller that count (pass no ``weights``)."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        self.counting = Counter()
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            if "weights" not in kwargs:
                self.counting[sys._getframe(1).f_code.co_name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _children(service: PdwService) -> int:
    return sum(len(metric._children) for metric in service.metrics.metrics())


@pytest.fixture()
def service(tpch):
    plan_cache.clear_shape_memo()
    appliance, shell = tpch
    svc = PdwService(appliance=appliance, shell=shell)
    yield svc
    svc.close()
    plan_cache.clear_shape_memo()


def test_cached_executions_redo_no_template_work(service, monkeypatch):
    lexes = _Calls(monkeypatch, plan_cache, "skeleton")
    profiles = _Calls(monkeypatch, profiler, "step_profile")
    group_counts = _Calls(monkeypatch, np_executor, "_group_counts")
    bincounts = _Calls(monkeypatch, np, "bincount")

    templates = {}
    for sql in TEXTS:  # the first call of each text
        result = service.execute(sql)
        templates[sql] = result.plan.dsql_plan
    first = (lexes.count, _children(service), profiles.count)
    facts = {sql: plan.step_facts for sql, plan in templates.items()}
    assert all(facts.values())

    per_call = {}
    for repeat in range(REPEATS):
        sql = TEXTS[repeat % len(TEXTS)]
        counted = (group_counts.count, bincounts.count)
        bincounts.counting.clear()
        result = service.execute(sql)
        assert result.cache_hit
        assert result.plan.dsql_plan is templates[sql]
        calls = (group_counts.count - counted[0],
                 bincounts.count - counted[1], dict(bincounts.counting))
        # Each text's first cached call sets its per-call figures.
        assert per_call.setdefault(sql, calls) == calls, sql

    assert (lexes.count, _children(service), profiles.count) == first
    assert {sql: plan.step_facts for sql, plan in templates.items()} \
        == facts
    assert all(templates[sql].step_facts is facts[sql] for sql in TEXTS)
    # Q1 runs two GROUP BYs (the nodes' partial, the final): one count
    # each, and none of its aggregates counts rows again (a SUM's
    # weighted bincount adds values).
    q1_group_counts, _, q1_counting = per_call[TEXTS[0]]
    assert q1_group_counts == q1_counting["_group_counts"] == 2
    assert "_np_aggregate" not in q1_counting
    assert service.stats()["plan_cache"]["hits"] == REPEATS
