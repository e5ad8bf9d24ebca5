"""PdwSession / EXPLAIN ANALYZE integration tests.

``explain(analyze=True)`` is one request through ``execute``: its
per-step "actual" columns must agree with what an independent
``DsqlRunner`` execution of the same plan measures, the rendered report
must carry the estimated-vs-actual table, and the run must show up in
the request DMV, the Query Store and the service's series exactly once.
"""

import pytest

import repro.session as session_module
from repro import ExecutionOptions, PdwSession, TPCH_QUERIES
from repro.appliance.runner import DsqlRunner
from repro.common.errors import ReproError
from repro.obs.profiler import build_query_profile
from repro.pdw.dsql import StepKind

ANALYZE_QUERIES = ["Q1", "Q12", "Q14"]


@pytest.fixture(scope="module")
def session(tpch):
    appliance, shell = tpch
    return PdwSession(appliance=appliance, shell=shell)


def analyze(session, monkeypatch, sql, **kwargs):
    """``session.explain(sql, analyze=True)``: the text, the one
    :class:`QueryResult` its ``execute`` call returned, and the
    :class:`StepProfile` rows its table was rendered from."""
    results, profiles = [], []
    execute = type(session).execute

    def spy_execute(self, *args, **inner):
        result = execute(self, *args, **inner)
        results.append(result)
        return result

    def spy_profile(*args, **inner):
        profile = build_query_profile(*args, **inner)
        profiles.append(profile)
        return profile

    monkeypatch.setattr(type(session), "execute", spy_execute)
    monkeypatch.setattr(session_module, "build_query_profile", spy_profile)
    text = session.explain(sql, analyze=True, **kwargs)
    monkeypatch.undo()
    assert len(results) == 1 and len(profiles) == 1
    steps = profiles[0].steps
    # The table's step rows are these profiles, cell by cell.
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.split()[:2] == ["step", "operation"]) + 2
    rows = []
    for line in lines[start:]:
        if line.lstrip().startswith("-"):
            break
        cells = line.split()
        rows.append((cells[0], " ".join(cells[1:-6]), *cells[-6:]))
    assert rows == [(str(s.step), s.operation,
                     f"{s.estimated_rows:.0f}", str(s.actual_rows),
                     f"{s.estimated_bytes:.0f}", str(s.actual_bytes),
                     f"{s.estimated_seconds:.6f}",
                     f"{s.actual_seconds:.6f}") for s in steps]
    return text, results[0], steps


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", ANALYZE_QUERIES)
    def test_actuals_match_runner(self, session, tpch, monkeypatch, name):
        appliance, _shell = tpch
        text, result, steps = analyze(session, monkeypatch,
                                      TPCH_QUERIES[name])
        plan = result.plan.dsql_plan
        # The plan shown is the one that ran, compiled as compile() does.
        assert text.startswith(result.plan.explain())
        assert plan.describe() == \
            session.compile(TPCH_QUERIES[name]).dsql_plan.describe()

        reference = DsqlRunner(appliance).run(plan)
        assert len(steps) == len(plan.steps)
        assert len(reference.step_stats) == len(steps)

        for analysis, stats, step in zip(steps, reference.step_stats,
                                         plan.steps):
            assert analysis.step == step.index
            assert analysis.actual_rows == stats.rows_moved
            if step.kind is StepKind.DMS:
                assert analysis.kind == "DMS"
                assert analysis.operation == step.movement.describe()
                assert analysis.actual_bytes == stats.total_bytes()
            else:
                assert analysis.kind == "Return"
                assert analysis.operation == "Return"
                assert analysis.actual_bytes == sum(
                    stats.network_bytes.values())
            assert analysis.actual_seconds == pytest.approx(
                stats.elapsed_seconds)
            assert analysis.estimated_rows == step.estimated_rows
            assert analysis.estimated_bytes == step.estimated_bytes
            assert analysis.estimated_seconds == step.estimated_cost

        # The joined result rows equal a plain run of the same plan.
        assert result.sorted_rows() == reference.sorted_rows()
        assert f"-- {len(reference.rows)} result rows" in text

    @pytest.mark.parametrize("name", ANALYZE_QUERIES)
    def test_estimates_present_for_movement_steps(self, session,
                                                  monkeypatch, name):
        _text, _result, steps = analyze(session, monkeypatch,
                                        TPCH_QUERIES[name])
        for analysis in steps:
            if analysis.kind == "DMS" and analysis.actual_rows:
                assert analysis.estimated_rows > 0
                assert analysis.estimated_bytes > 0

    def test_analyze_runs_on_the_calls_executor(self, session,
                                                return_executors):
        reference = ExecutionOptions(executor="reference")
        session.explain(TPCH_QUERIES["Q12"], analyze=True,
                        options=reference)
        assert return_executors == ["reference"]
        session.explain(TPCH_QUERIES["Q12"], analyze=True)
        assert return_executors == ["reference", "numpy"]

    def test_analyze_is_one_request(self, tpch):
        """EXPLAIN ANALYZE is a request, as ``profile()`` is: one
        ``complete`` DMV row, one Query Store execution and one
        ``pdw_service_queries_total`` count."""
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        sql = TPCH_QUERIES["Q12"]
        session.explain(sql, analyze=True)
        executions = session.query_store.stats()["executions"]
        queries = session.metrics.snapshot()["pdw_service_queries_total"]
        dmv = session.run(
            "SELECT request_id, plan_digest FROM sys.dm_pdw_exec_requests "
            "WHERE status = 'complete'")
        record = session.requests.completed()[0]
        assert record.sql == sql
        assert dmv.rows == [(record.request_id, record.plan_digest)]
        assert executions == 1
        assert queries == {(("outcome", "ok"), ("priority", "normal"),
                            ("tenant", "default")): 1}

    def test_analyze_with_optimizer_shows_the_plan_it_traced(
            self, session, monkeypatch):
        """The trace comes from a second, recorder-on compile of the
        same text: its plan is the one that ran."""
        plans = []
        plan_choice = type(session).plan_choice

        def spy(self, *args, **inner):
            compiled, trace, choice = plan_choice(self, *args, **inner)
            plans.append(compiled)
            return compiled, trace, choice

        monkeypatch.setattr(type(session), "plan_choice", spy)
        text, result, _steps = analyze(session, monkeypatch,
                                       TPCH_QUERIES["Q12"], optimizer=True)
        assert len(plans) == 1
        assert plans[0].dsql_plan.describe() == \
            result.plan.dsql_plan.describe()
        assert plans[0].plan_cost == result.plan.plan_cost
        assert text.startswith(result.plan.explain())

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
        session.run(TPCH_QUERIES["Q12"])
        report = session.stats_report(TPCH_QUERIES["Q12"])
        assert "Phase timings" in report
        assert "pdw.alternatives.generated" in report
        # One compilation's counts, read off its records: the optimizer
        # trace's too, and nothing the run before it moved.
        assert "pdw.groups_enumerated" in report
        assert "dms." not in report

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
