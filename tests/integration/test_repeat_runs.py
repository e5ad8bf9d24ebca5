"""Repeat runs on the full TPC-H workload are identical.

A runner keeps state between runs — prepared templates, kernel memos,
string dictionaries, the day table — and the appliance gets and drops
temp tables on every run.  None of it may change *what* a run computes:
rows, row order, per-step byte/row accounting, simulated times and
profiler output must be the same on a warm runner as on a fresh one.
Only the measured wall-clock fields may differ, and ``stats_view``
leaves them out."""

from __future__ import annotations

import pytest

from repro.appliance.runner import DsqlRunner
from repro.obs.export import profile_to_events
from repro.obs.profiler import build_query_profile
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names

from tests.conftest import stats_view

#: The fields a profiled run adds to its step stats.
PROFILE_FIELDS = ("transfers", "node_operators")


def assert_same_run(result, expected):
    assert result.columns == expected.columns
    assert result.rows == expected.rows
    assert stats_view(result.step_stats) == stats_view(expected.step_stats)
    assert result.elapsed_seconds == expected.elapsed_seconds
    assert result.dms_seconds == expected.dms_seconds


def no_temps(appliance) -> bool:
    return not any(table.is_temp for table in appliance.catalog.tables())


@pytest.mark.parametrize("name", query_names())
def test_tpch_warm_rerun_matches_a_fresh_runner(name, tpch, tpch_engine):
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
    warm = DsqlRunner(appliance)
    first = warm.run(plan)
    assert no_temps(appliance)
    second = warm.run(plan)
    fresh = DsqlRunner(appliance).run(plan)
    assert_same_run(second, first)
    assert_same_run(fresh, first)
    assert no_temps(appliance)


@pytest.mark.parametrize("name", ["Q1", "Q5", "Q12"])
def test_tpch_profile_is_repeatable(name, tpch, tpch_engine):
    appliance, _ = tpch
    sql = TPCH_QUERIES[name]
    plan = tpch_engine.compile(sql).dsql_plan
    runner = DsqlRunner(appliance)

    def profiled():
        result = runner.run(plan, profile=True)
        return result, build_query_profile(
            plan.steps, result.step_stats,
            node_count=appliance.node_count,
            sql=sql,
            elapsed_seconds=result.elapsed_seconds,
            dms_seconds=result.dms_seconds,
        )

    plain = runner.run(plan)
    first, first_profile = profiled()
    second, second_profile = profiled()
    # Full structured export — skew tables, transfer matrices and
    # Q-errors — is bit-identical across runs.
    assert profile_to_events(second_profile) == \
        profile_to_events(first_profile)
    assert_same_run(second, first)
    # Profiling adds its per-node columns and changes nothing else.
    assert plain.rows == first.rows
    assert [{key: value for key, value in step.items()
             if key not in PROFILE_FIELDS}
            for step in stats_view(first.step_stats)] == [
        {key: value for key, value in step.items()
         if key not in PROFILE_FIELDS}
        for step in stats_view(plain.step_stats)]
    assert plain.elapsed_seconds == first.elapsed_seconds


def test_reference_rerun_with_profile_is_identical(tpch, tpch_engine):
    """The reference executor re-parses each step's SQL per node; its
    profiled reruns are identical too."""
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES["Q12"]).dsql_plan
    runner = DsqlRunner(appliance, executor="reference")
    first = runner.run(plan, profile=True)
    second = runner.run(plan, profile=True)
    assert_same_run(second, first)
    assert all(step.node_operators for step in first.step_stats)
