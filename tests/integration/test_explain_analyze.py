"""PdwSession / EXPLAIN ANALYZE integration tests.

The per-step "actual" columns of ``explain(analyze=True)`` must agree
with what an independent ``DsqlRunner`` execution of the same plan
measures, and the rendered report must carry the estimated-vs-actual
table the ISSUE's acceptance criteria describe.
"""

import pytest

from repro import ExecutionOptions, PdwSession, TPCH_QUERIES
from repro.appliance.runner import DsqlRunner
from repro.common.errors import ReproError
from repro.pdw.dsql import StepKind

ANALYZE_QUERIES = ["Q1", "Q12", "Q14"]


@pytest.fixture(scope="module")
def session(tpch):
    appliance, shell = tpch
    return PdwSession(appliance=appliance, shell=shell)


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", ANALYZE_QUERIES)
    def test_actuals_match_runner(self, session, tpch, name):
        appliance, _shell = tpch
        compiled = session.compile(TPCH_QUERIES[name])
        analyses, result = session.analyze_plan(compiled)

        reference = DsqlRunner(appliance).run(compiled.dsql_plan)
        assert len(analyses) == len(compiled.dsql_plan.steps)
        assert len(reference.step_stats) == len(analyses)

        for analysis, stats, step in zip(analyses, reference.step_stats,
                                         compiled.dsql_plan.steps):
            assert analysis.index == step.index
            assert analysis.actual_rows == stats.rows_moved
            if step.kind is StepKind.DMS:
                assert analysis.kind == "DMS"
                assert analysis.actual_bytes == stats.total_bytes()
            else:
                assert analysis.kind == "Return"
                assert analysis.actual_bytes == sum(
                    stats.network_bytes.values())
            assert analysis.actual_seconds == pytest.approx(
                stats.elapsed_seconds)
            assert analysis.estimated_rows == step.estimated_rows
            assert analysis.estimated_seconds == step.estimated_cost

        # The joined result rows equal a plain run of the same plan.
        assert result.sorted_rows() == reference.sorted_rows()

    @pytest.mark.parametrize("name", ANALYZE_QUERIES)
    def test_estimates_present_for_movement_steps(self, session, name):
        compiled = session.compile(TPCH_QUERIES[name])
        analyses, _result = session.analyze_plan(compiled)
        for analysis in analyses:
            if analysis.kind == "DMS" and analysis.actual_rows:
                assert analysis.estimated_rows > 0
                assert analysis.estimated_bytes > 0

    def test_analyze_runs_on_the_calls_executor(self, session,
                                                return_executors):
        reference = ExecutionOptions(executor="reference")
        session.explain(TPCH_QUERIES["Q12"], analyze=True,
                        options=reference)
        assert return_executors == ["reference"]
        compiled = session.compile(TPCH_QUERIES["Q12"])
        session.analyze_plan(compiled, options=reference)
        session.analyze_plan(compiled)
        assert return_executors == ["reference", "reference", "numpy"]

    def test_rendered_table(self, session):
        text = session.explain(TPCH_QUERIES["Q12"], analyze=True)
        assert "est rows" in text and "act rows" in text
        assert "est bytes" in text and "act bytes" in text
        assert "est s" in text and "act s" in text
        assert "result rows" in text

    def test_explain_without_analyze_does_not_execute(self, session):
        text = session.explain(TPCH_QUERIES["Q12"])
        assert "DSQL plan" in text
        assert "act rows" not in text

    def test_explain_verbose_includes_counters(self, session):
        text = session.explain(TPCH_QUERIES["Q12"], verbose=True)
        assert "Compilation counters" in text
        assert "serial.memo.groups" in text
        assert "pdw.alternatives.retained" in text


class TestSessionApi:
    def test_bound_query(self, tpch):
        appliance, shell = tpch
        session = PdwSession("SELECT n_name FROM nation ORDER BY n_name",
                             appliance=appliance, shell=shell)
        result = session.run()
        assert result.rows[0][0] == "ALGERIA"
        text = session.explain(analyze=True)
        assert "act rows" in text

    def test_missing_sql_raises(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        with pytest.raises(ReproError):
            session.compile()

    def test_mismatched_appliance_shell_raises(self, tpch):
        appliance, _shell = tpch
        with pytest.raises(ReproError):
            PdwSession(appliance=appliance)

    def test_trace_covers_pipeline_and_execution(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        session.run(TPCH_QUERIES["Q12"])
        report = session.trace_report()
        for phase in ("compile", "parse", "serial", "xml.serialize",
                      "xml.parse", "pdw.optimize", "dsql.generate",
                      "execute"):
            assert phase in report
        compile_span = session.tracer.find("compile")
        assert compile_span.duration_seconds > 0.0
        execute_span = session.tracer.find("execute")
        assert execute_span.duration_seconds > 0.0

    def test_stats_report(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        session.compile(TPCH_QUERIES["Q12"])
        report = session.stats_report()
        assert "Phase timings" in report
        assert "pdw.alternatives.generated" in report

    def test_untraced_session_still_works(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False))
        result = session.run("SELECT COUNT(*) AS n FROM nation")
        assert result.rows == [(25,)]
        assert session.trace_report() == "(no spans recorded)"
        # Derived counters still available without a tracer.
        compiled = session.compile("SELECT COUNT(*) AS n FROM nation")
        counters = compiled.compile_counters()
        assert counters["serial.memo.groups"] > 0
        assert "pdw.alternatives.retained" in counters
