"""`repro requests` and `repro querystore` are SELECTs over the system
views: every printed table is, row for row and in order, the formatted
result of the SELECT behind it, under the tables' fixed headers and
number formats."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.obs.system_views import mentions_system_views
from repro.service import ExecutionOptions, PdwService
from repro.session import PdwSession

REQUEST_HEADERS = ["request", "status", "cache", "steps", "rows",
                   "queue ms", "compile ms", "exec ms", "total ms",
                   "command"]
STEP_HEADERS = ["step", "kind", "operation", "status", "rows", "bytes",
                "sim ms", "wall ms"]
SHAPE_HEADERS = ["query", "execs", "plans", "current", "mean ms",
                 "max q-err", "query text"]
PLAN_HEADERS = ["plan", "cur", "base", "sv", "execs", "hits", "mean ms",
                "min ms", "max ms", "bytes moved", "q-err"]


def clip(sql, width=48):
    flat = " ".join(sql.split())
    return flat if len(flat) <= width else flat[:width - 3] + "..."


def q_err(value):
    return f"{value:.3g}" if value >= 1000 else f"{value:.2f}"


def tokens(cells):
    """A row compared as its whitespace-separated tokens: an empty cell
    and column padding both vanish."""
    return " ".join(cells).split()


def tables(out):
    """(title, header tokens, row token lists) of every printed table:
    a header line over a rule of dashes, rows up to a blank line."""
    lines = out.splitlines()
    found = []
    for i, line in enumerate(lines):
        if i >= 2 and line.strip() and set(line) <= {"-", " "}:
            rows = []
            for row in lines[i + 1:]:
                if not row.strip():
                    break
                rows.append(row.split())
            found.append((lines[i - 2], lines[i - 1].split(), rows))
    return found


@pytest.fixture
def selects(monkeypatch):
    """Every system-view SELECT the CLI runs, in order, as (sql, rows
    as dicts by column name)."""
    captured = []
    execute = PdwService.execute

    def spy(self, sql, **kwargs):
        result = execute(self, sql, **kwargs)
        if mentions_system_views(sql):
            captured.append((sql, [dict(zip(result.columns, row))
                                   for row in result.rows]))
        return result

    monkeypatch.setattr(PdwService, "execute", spy)
    return captured


class TestRequestsReport:
    def test_every_table_is_its_select(self, capsys, selects):
        code = main(["--scale", "0.001", "--nodes", "4", "requests",
                     "--clients", "2", "--queries", "3", "--slow-ms", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Flight recorder: ")
        assert "(threshold 0 ms)" in out.splitlines()[0]
        printed = tables(out)
        assert [sql.split(" FROM ")[1].split()[0] for sql, _ in selects] \
            == ["sys.dm_pdw_exec_requests", "sys.dm_pdw_plan_cache",
                "sys.dm_pdw_exec_requests", "sys.dm_pdw_request_steps"]
        (_, status_rows), (_, cache_rows), (_, request_rows), \
            (_, step_rows) = selects

        title, header, rows = printed[0]
        assert title.startswith("Requests by status")
        assert header == ["status", "requests"]
        assert rows == [tokens([r["status"], str(r["n"])])
                        for r in status_rows]

        title, header, rows = printed[1]
        assert title.startswith("Plan cache")
        assert header == ["hits", "execs", "shape"]
        assert rows == [tokens([str(r["hit_count"]),
                                str(r["execution_count"]), r["shape_key"]])
                        for r in cache_rows]

        title, header, rows = printed[2]
        assert title == "Completed requests:"
        assert header == tokens(REQUEST_HEADERS)
        assert request_rows and all(r["is_slow"] for r in request_rows)
        assert [r["request_seq"] for r in request_rows] \
            == sorted(r["request_seq"] for r in request_rows)
        assert rows == [tokens([
            r["request_id"], r["status"],
            "hit" if r["cache_hit"] else "miss", str(r["total_steps"]),
            str(r["rows_returned"]), f"{r['queue_ms']:.2f}",
            f"{r['compile_ms']:.2f}", f"{r['execute_ms']:.2f}",
            f"{r['total_ms']:.2f}", clip(r["command"])])
            for r in request_rows]

        # Threshold zero: every request is slow, and each gets its own
        # step table, the SELECT's rows for it in step order.
        detail = printed[3:]
        assert len(detail) == len(request_rows)
        for request, (title, header, rows) in zip(request_rows, detail):
            assert title == (f"Step detail for {request['request_id']} "
                             f"({request['total_ms']:.2f} ms):")
            assert header == tokens(STEP_HEADERS)
            assert rows == [tokens([
                str(s["step_index"]), s["kind"], s["operation"] or "-",
                s["status"], str(s["row_count"]), str(s["total_bytes"]),
                f"{s['elapsed_ms']:.2f}", f"{s['wall_ms']:.2f}"])
                for s in step_rows
                if s["request_id"] == request["request_id"]]
            assert rows

    def test_slow_only_selects_slow_requests(self, capsys, selects):
        code = main(["--scale", "0.001", "--nodes", "2", "requests",
                     "--clients", "1", "--queries", "2",
                     "--slow", "--slow-ms", "1000000"])
        assert code == 0
        out = capsys.readouterr().out
        # Nothing is that slow: no request table, no step SELECT.
        assert "No completed requests recorded." in out
        assert "Slow requests:" not in out
        assert len(selects) == 3 and selects[-1][1] == []
        assert "is_slow" in selects[-1][0]


class TestQueryStoreReport:
    def test_every_table_is_its_select(self, capsys, selects):
        code = main(["--scale", "0.001", "--nodes", "2", "querystore",
                     "--clients", "2", "--queries", "4",
                     "--hint", "customer=shuffle", "--factor", "1.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Query store: ")
        assert "plan regression(s) detected" in out
        (_, shape_rows), (_, plan_rows) = selects
        printed = tables(out)

        title, header, rows = printed[0]
        assert title == "Hottest shapes (top 10):"
        assert header == tokens(SHAPE_HEADERS)
        assert rows == [tokens([
            f"Q{r['query_id']}", str(r["execution_count"]),
            str(r["plan_count"]), r["plan_hash"], f"{r['mean_ms']:.3f}",
            q_err(r["max_q_error"]),
            clip(r["example_sql"] or r["query_text"])])
            for r in shape_rows]

        # The hint forced a second plan under at least one shape; each
        # multi-plan shape gets its own table, its plans in order.
        query_ids = list(dict.fromkeys(r["query_id"] for r in plan_rows))
        assert query_ids and printed[1:] and \
            len(printed[1:]) == len(query_ids)
        for query_id, (title, header, rows) in zip(query_ids, printed[1:]):
            plans = [r for r in plan_rows if r["query_id"] == query_id]
            assert len(plans) > 1
            assert title == (f"Plans for Q{query_id} "
                             f"({clip(plans[0]['example_sql'])}):")
            assert header == tokens(PLAN_HEADERS)
            assert sum(bool(p["is_current"]) for p in plans) == 1
            assert rows == [tokens([
                p["plan_hash"], "*" if p["is_current"] else "",
                "y" if p["baseline_eligible"] else "n",
                str(p["schema_version"]), str(p["execution_count"]),
                str(p["cache_hits"]), f"{p['mean_ms']:.3f}",
                f"{p['min_ms']:.3f}", f"{p['max_ms']:.3f}",
                str(p["bytes_moved"]), q_err(p["max_q_error"])])
                for p in plans]

    def test_regressions_only_runs_no_select(self, capsys, selects):
        code = main(["--scale", "0.001", "--nodes", "2", "querystore",
                     "--clients", "1", "--queries", "2",
                     "--hint", "customer=shuffle", "--factor", "1.2",
                     "--regressions"])
        assert code == 0
        assert "plan regression(s) detected" in capsys.readouterr().out
        assert selects == []


class TestSessionReport:
    def test_requests_report_runs_as_session_queries(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        session.run("SELECT COUNT(*) AS n FROM nation")
        report = session.requests_report()
        assert "Completed requests:" in report
        assert "Requests by status (sys.dm_pdw_exec_requests):" in report
        # Its SELECTs are requests of the session, recorded like any.
        commands = [r.sql for r in session.requests.completed()]
        assert any("sys.dm_pdw_plan_cache" in sql for sql in commands)

    def test_untraced_session_reports_no_requests(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False))
        session.run("SELECT COUNT(*) AS n FROM nation")
        report = session.requests_report()
        assert report.startswith("Flight recorder: 0/0 retained")
        assert report.endswith("No completed requests recorded.")
