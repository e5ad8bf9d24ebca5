"""End-to-end profiling: PdwSession.profile over the TPC-H appliance.

Covers the full loop: DSQL generation annotates per-operator estimates,
the profiled runner collects per-node actuals and transfer matrices, the
profiler joins the two, and the exports validate against the event
schemas.
"""

import json

import pytest

from repro.appliance.interpreter import PlanInterpreter
from repro.obs.export import (
    decode_event,
    profile_to_events,
    validate_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import RequestRegistry
from repro.obs.profiler import (
    OperatorObserver,
    OperatorProfile,
    StepProfile,
    skew_stats,
)
from repro.obs.report import render_profile_report
from repro.pdw.dms import DmsOperation
from repro.pdw.dsql import StepKind
from repro.service import ExecutionOptions
from repro.session import PdwSession

JOIN_SQL = (
    "SELECT l_returnflag, COUNT(*) AS n "
    "FROM lineitem, orders WHERE l_orderkey = o_orderkey "
    "GROUP BY l_returnflag"
)


@pytest.fixture(scope="module")
def session(tpch):
    appliance, shell = tpch
    return PdwSession(appliance=appliance, shell=shell)


@pytest.fixture(scope="module")
def profile(session):
    return session.profile(JOIN_SQL)


class TestProfileContents:
    def test_every_step_profiled(self, session, profile):
        compiled = session.compile(JOIN_SQL)
        assert len(profile.steps) == len(compiled.dsql_plan.steps)
        assert profile.node_count == session.appliance.node_count

    def test_source_rows_cover_nodes_and_sum_to_actual(self, profile):
        for step in profile.steps:
            assert step.source_rows, f"step {step.step} has no node rows"
            assert sum(step.source_rows.values()) == step.actual_rows

    def test_transfer_matrix_consistent(self, profile):
        # Row conservation: every transfer matrix sums to the rows the
        # step moved, and destinations match the movement's target.
        for step in profile.steps:
            assert step.transfers
            moved = sum(transfer.rows for transfer in step.transfers)
            assert moved == step.actual_rows

    def test_operators_joined_with_estimates(self, profile):
        ops = profile.operators
        assert ops, "no operators profiled"
        joined = [op for op in ops if op.q_error is not None]
        # The plan for this query is simple enough that every profiled
        # operator kind matches the winning plan fragment exactly.
        assert len(joined) == len(ops)
        for op in joined:
            assert op.q_error >= 1.0
            assert sum(op.node_rows.values()) == op.actual_rows

    def test_estimates_are_exact_on_foreign_key_join(self, profile):
        # Statistics are built from the loaded data, so the optimizer's
        # estimates on this join/group-by plan are essentially exact.
        summary = profile.q_error_summary()
        assert summary.count > 0
        assert summary.max < 1.5

    def test_skew_stats_present(self, profile):
        dms = [s for s in profile.steps if s.kind == "DMS"]
        assert dms
        for step in dms:
            skew = skew_stats(step.source_rows.values())
            assert step.source_skew_cov == skew.cov
            assert step.source_skew_imbalance == skew.imbalance >= 1.0

    def test_metrics_registry_populated(self, session, profile):
        del profile  # computed by the fixture against the same session
        text = session.metrics.render_prometheus()
        assert "pdw_step_rows_total" in text
        assert "pdw_operator_rows_total" in text
        assert "pdw_q_error_bucket" in text

    def test_report_renders(self, profile):
        text = render_profile_report(profile)
        assert "q-err" in text
        assert "skew cov" in text
        assert "Get(lineitem)" in text

    def test_events_validate_and_round_trip(self, profile):
        events = profile_to_events(profile)
        assert validate_events(events) == []
        assert json.loads(json.dumps(events)) == events

    def test_events_decode_back_to_the_profile_records(self, profile):
        """What was written is what is read: each JSON event decodes to
        the record it was written from."""
        records = [profile.event(), *profile.steps, *profile.operators]
        errors = []
        decoded = [decode_event(json.loads(json.dumps(event)), errors)
                   for event in profile_to_events(profile)]
        assert errors == []
        assert decoded == records
        assert decoded[0].steps == len(profile.steps)


SHUFFLE_SQL = "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_custkey"


@pytest.fixture(scope="module", params=[3, 4], ids=lambda n: f"{n}nodes")
def sized_session(request):
    return PdwSession(scale=0.001, node_count=request.param)


@pytest.mark.parametrize("sql", [SHUFFLE_SQL, JOIN_SQL],
                         ids=["shuffle", "join"])
def test_step_and_operator_events_decode_to_the_rows_written(
        sized_session, sql):
    """A profile's rows are its events: every ``step`` / ``operator``
    event decodes to a :class:`StepProfile` / :class:`OperatorProfile`
    equal to the row it was written from."""
    profile = sized_session.profile(sql)
    assert any(step.transfers for step in profile.steps)
    assert profile.operators
    errors = []
    decoded = [decode_event(json.loads(json.dumps(event)), errors)
               for event in profile_to_events(profile)[1:]]
    assert errors == []
    assert [type(record) for record in decoded] == \
        [StepProfile] * len(profile.steps) \
        + [OperatorProfile] * len(profile.operators)
    assert decoded == [*profile.steps, *profile.operators]


class TestResultsUnchanged:
    def test_profiled_run_returns_same_rows(self, session):
        plain = session.run(JOIN_SQL)
        compiled = session.compile(JOIN_SQL)
        profiled = session.runner.run(compiled.dsql_plan, profile=True)
        assert profiled.sorted_rows() == plain.sorted_rows()


class TestDisabledPathOverhead:
    def test_plain_run_collects_no_profiling_data(self, session):
        compiled = session.compile(JOIN_SQL)
        result = session.runner.run(compiled.dsql_plan)
        for stats in result.step_stats:
            assert stats.node_operators == {}
            assert stats.transfers == {}

    def test_plain_run_never_calls_observer(self, session, monkeypatch):
        # The per-operator hook must not fire at all when profiling is
        # off — not merely discard its argument.
        def boom(self, op, rows_out):
            raise AssertionError("observer fired on an unprofiled run")

        monkeypatch.setattr(OperatorObserver, "record", boom)
        compiled = session.compile(JOIN_SQL)
        result = session.runner.run(compiled.dsql_plan)
        assert result.rows

    def test_interpreter_without_observer_pays_one_test(self, session):
        # Sanity: PlanInterpreter defaults to observer=None and the
        # profiled path is opt-in per run.
        interpreter = PlanInterpreter(session.appliance.single_system_image())
        assert interpreter.observer is None

    def test_plain_run_after_profiled_run_collects_nothing(self, session):
        compiled = session.compile(JOIN_SQL)
        session.runner.run(compiled.dsql_plan, profile=True)
        result = session.runner.run(compiled.dsql_plan)
        for stats in result.step_stats:
            assert stats.node_operators == {}
            assert stats.transfers == {}


class TestSessionWiring:
    def test_trace_false_uses_null_metrics(self, tpch):
        appliance, shell = tpch
        quiet = PdwSession(appliance=appliance, shell=shell,
                           options=ExecutionOptions(trace=False))
        assert quiet.metrics.enabled is False
        quiet.profile(JOIN_SQL)  # still works, just records no metrics
        assert quiet.metrics.render_prometheus() == ""

    def test_explicit_registry_wins(self, tpch):
        appliance, shell = tpch
        registry = MetricsRegistry()
        explicit = PdwSession(appliance=appliance, shell=shell,
                              options=ExecutionOptions(trace=False),
                              metrics=registry)
        explicit.profile(JOIN_SQL)
        assert registry.snapshot()

    def test_return_step_estimates_annotated(self, session):
        compiled = session.compile(JOIN_SQL)
        for step in compiled.dsql_plan.steps:
            assert step.operator_estimates
            if step.kind is StepKind.RETURN:
                kinds = [e.kind for e in step.operator_estimates]
                assert "GroupBy" in kinds


class TestStepRowsOneWriter:
    def test_profile_counts_step_rows_once(self, tpch):
        """After a profile, pdw_step_rows_total holds each node's rows
        of each step once, under the DMS operation vocabulary."""
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False),
                             metrics=MetricsRegistry(),
                             requests=RequestRegistry())
        session.profile(JOIN_SQL)
        (record,) = session.requests.completed()
        series = session.metrics.snapshot()["pdw_step_rows_total"]
        assert sum(series.values()) == sum(
            sum(step.stats.node_rows.values()) for step in record.steps) > 0
        vocabulary = {op.value for op in DmsOperation} | {"return"}
        assert {dict(labels)["op"] for labels in series} <= vocabulary


class TestProfileAfterRun:
    def test_profile_compiles_for_its_own_literals(self, tpch):
        """Profiling a shape the session already ran gives the Q-errors
        of a fresh compilation, not those of the cached template."""
        from repro.workloads.tpch_queries import Q1
        shifted = Q1.replace("1998-09-02", "1995-06-17")
        assert shifted != Q1
        appliance, shell = tpch
        warm = PdwSession(appliance=appliance, shell=shell)
        warm.run(Q1)
        fresh = PdwSession(appliance=appliance, shell=shell)
        expected = fresh.profile(shifted)
        got = warm.profile(shifted)
        assert got.step_q_errors() == expected.step_q_errors()
        assert got.operator_q_errors() == expected.operator_q_errors()
