"""Observability under both executors.

``profile=True`` must keep collecting per-node / per-operator actuals
when steps execute on typed ndarrays over a whole node group: the
profile's events — skew coverage, Q-errors, transfer matrices,
operator postorder — are bit-identical to the reference interpreter's,
and the ``profile`` CLI works end to end with either ``--executor``.
"""

from __future__ import annotations

import pytest

from repro.appliance.runner import DsqlRunner
from repro.common.executors import EXECUTORS
from repro.obs.export import profile_to_events
from repro.obs.profiler import build_query_profile
from repro.workloads.tpch_queries import TPCH_QUERIES


def profile_for(appliance, plan, sql, executor):
    result = DsqlRunner(appliance, executor=executor).run(
        plan, profile=True)
    return build_query_profile(
        plan.steps, result.step_stats,
        node_count=appliance.node_count,
        sql=sql,
        elapsed_seconds=result.elapsed_seconds,
        dms_seconds=result.dms_seconds,
    )


@pytest.mark.parametrize("name", ["Q1", "Q5", "Q12"])
def test_numpy_profile_matches_reference(name, tpch, tpch_engine):
    appliance, _ = tpch
    sql = TPCH_QUERIES[name]
    plan = tpch_engine.compile(sql).dsql_plan
    reference = profile_for(appliance, plan, sql, "reference")
    numpy = profile_for(appliance, plan, sql, "numpy")
    # Identical operator postorder (same joins, same shapes), identical
    # Q-error and skew tables — every exported event matches.
    assert profile_to_events(numpy) == profile_to_events(reference)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_profile_has_join_operator_actuals(executor, tpch, tpch_engine):
    appliance, _ = tpch
    sql = ("SELECT COUNT(*) AS n FROM lineitem, orders "
           "WHERE l_orderkey = o_orderkey")
    plan = tpch_engine.compile(sql).dsql_plan
    profile = profile_for(appliance, plan, sql, executor)
    labels = [operator.label for operator in profile.operators]
    assert any("Join" in label for label in labels), labels
    assert profile.operators
    for operator in profile.operators:
        assert operator.actual_rows >= 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_profile_cli_runs(capsys, executor):
    from repro.__main__ import main

    code = main([
        "--scale", "0.001", "--nodes", "4", "--executor", executor,
        "profile",
        "SELECT COUNT(*) AS n FROM lineitem, orders "
        "WHERE l_orderkey = o_orderkey",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Per-operator profile" in out
    assert "InnerJoin" in out
    assert "q-err" in out


def test_run_cli_numpy_matches_reference(capsys):
    from repro.__main__ import main

    sql = "SELECT n_name FROM nation ORDER BY n_name LIMIT 3"
    outputs = {}
    for executor in EXECUTORS:
        code = main(["--scale", "0.001", "--nodes", "4",
                     "--executor", executor, "run", sql])
        assert code == 0
        outputs[executor] = capsys.readouterr().out.splitlines()[:4]
    assert outputs["numpy"] == outputs["reference"]
