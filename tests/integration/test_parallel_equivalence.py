"""Parallel runtime ⇄ serial backend equivalence on the full TPC-H
workload.

The schedulers never change *what* is computed, only *when*: rows,
per-step byte/row accounting, simulated times and profiler output must
be identical between the two backends.  Only the measured wall-clock
fields (``node_wall_seconds`` / ``wall_seconds``) may differ."""

from __future__ import annotations

import pytest

from repro.appliance.runner import DsqlRunner
from repro.appliance.scheduler import StepDag
from repro.obs.profiler import build_query_profile
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names

from tests.conftest import canonical

#: The simulated/accounting fields of StepExecutionStats — everything
#: except the measured wall clocks, which legitimately differ between
#: backends.
COMPARED_FIELDS = (
    "step_index", "operation",
    "reader_bytes", "network_bytes", "writer_bytes", "bulk_bytes",
    "rows_moved", "relational_rows",
    "movement_seconds", "relational_seconds", "elapsed_seconds",
    "node_rows", "transfers", "node_operators",
)


def stats_view(stats):
    return [
        {name: getattr(step, name) for name in COMPARED_FIELDS}
        for step in stats
    ]


@pytest.mark.parametrize("name", query_names())
def test_tpch_parallel_matches_serial(name, tpch, tpch_engine):
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
    serial = DsqlRunner(appliance, parallel=False).run(plan)
    parallel = DsqlRunner(appliance, parallel=True).run(plan)

    assert parallel.columns == serial.columns
    # row multisets must match; the global ORDER BY rows match exactly
    assert parallel.sorted_rows() == serial.sorted_rows()
    if plan.order_by:
        assert parallel.rows == serial.rows
    # per-step accounting is merged in node/step order → identical
    # floats, not merely approximately equal
    assert stats_view(parallel.step_stats) == stats_view(serial.step_stats)
    assert parallel.elapsed_seconds == serial.elapsed_seconds
    assert parallel.dms_seconds == serial.dms_seconds


@pytest.mark.parametrize("name", ["Q1", "Q5", "Q12"])
def test_tpch_profile_matches_serial(name, tpch, tpch_engine):
    appliance, _ = tpch
    sql = TPCH_QUERIES[name]
    plan = tpch_engine.compile(sql).dsql_plan

    def profiled(parallel: bool):
        result = DsqlRunner(appliance, parallel=parallel).run(
            plan, profile=True)
        return build_query_profile(
            plan.steps, result.step_stats,
            node_count=appliance.node_count,
            sql=sql,
            elapsed_seconds=result.elapsed_seconds,
            dms_seconds=result.dms_seconds,
        )

    serial = profiled(parallel=False)
    parallel = profiled(parallel=True)
    # Full structured export — skew tables, transfer matrices and
    # Q-errors — is bit-identical across backends.
    assert parallel.to_dict() == serial.to_dict()


def test_bushy_tpch_plan_exposes_step_parallelism(tpch_engine):
    """At least one TPC-H plan must have a DAG wider than a chain —
    otherwise DAG scheduling never overlaps anything."""
    widths = {}
    for name in query_names():
        plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
        dag = StepDag(plan)
        widths[name] = dag.max_width
        # every step must be reachable and the Return must come last
        waves = dag.waves()
        assert sum(len(wave) for wave in waves) == len(plan.steps)
        if len(plan.steps) > 1:
            assert waves[-1] == [len(plan.steps) - 1]
    assert max(widths.values()) >= 2, widths


def test_parallel_runtime_with_interpreter_backend(tpch, tpch_engine):
    """parallel=True composes with the reference executor (re-parse
    per node), profiles included."""
    appliance, _ = tpch
    plan = tpch_engine.compile(TPCH_QUERIES["Q12"]).dsql_plan
    serial = DsqlRunner(appliance, parallel=False,
                        executor="reference").run(plan, profile=True)
    parallel = DsqlRunner(appliance, parallel=True,
                          executor="reference").run(plan, profile=True)
    assert canonical(parallel.rows) == canonical(serial.rows)
    assert stats_view(parallel.step_stats) == stats_view(serial.step_stats)
