"""CLI (`python -m repro`) tests."""

import json

import pytest

from repro.__main__ import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCli:
    def test_explain(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "explain", "SELECT n_name FROM nation ORDER BY n_name")
        assert code == 0
        assert "DSQL plan" in out
        assert "Distributed plan" in out

    def test_run_prints_rows(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "run", "SELECT n_name FROM nation ORDER BY n_name LIMIT 3")
        assert code == 0
        assert "ALGERIA" in out
        assert "3 rows" in out

    def test_run_truncates(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "run", "--max-rows", "2",
            "SELECT n_name FROM nation ORDER BY n_name")
        assert code == 0
        assert "more rows" in out

    def test_memo(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "memo", "SELECT n_name FROM nation")
        assert code == 0
        assert "Group" in out and "(root)" in out

    def test_calibrate(self, capsys):
        code, out = run_cli(capsys, "--nodes", "4", "calibrate")
        assert code == 0
        assert "reader_hash" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag", ["--parallel-runtime",
                                      "--serial-runtime"])
    def test_there_is_no_runtime_flag(self, flag):
        with pytest.raises(SystemExit):  # DSQL steps run one at a time
            main([flag, "run", "SELECT n_name FROM nation"])

    @pytest.mark.parametrize("argv", [
        ("serve", "--slow-seconds", "1"),
        ("querystore", "--save", "store.jsonl"),
    ])
    def test_removed_traffic_flags(self, argv):
        # One threshold flag (--slow-ms); --jsonl is the store's file.
        with pytest.raises(SystemExit):
            main(list(argv))

    @pytest.mark.parametrize("verb", ["serve", "requests", "querystore"])
    def test_traffic_verbs_share_their_flags(self, verb):
        from repro.__main__ import build_parser

        args = build_parser().parse_args([
            verb, "--clients", "2", "--queries", "3", "--seed", "7",
            "--max-in-flight", "2", "--max-queue", "5",
            "--cache-size", "9", "--slow-ms", "250",
            "--prometheus", "metrics.prom"])
        assert (args.clients, args.queries, args.seed, args.max_in_flight,
                args.max_queue, args.cache_size, args.slow_ms,
                args.prometheus) == (2, 3, 7, 2, 5, 9, 250.0,
                                     "metrics.prom")
        assert build_parser().parse_args([verb]).slow_ms == 1000.0

    def test_join_query_roundtrip(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "run", "SELECT c_name FROM customer, orders "
                   "WHERE c_custkey = o_custkey LIMIT 1")
        assert code == 0
        assert "DSQL steps" in out

    def test_stats_json_parses(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "stats", "--json", "SELECT COUNT(*) AS n FROM nation")
        assert code == 0
        parsed = json.loads(out)
        assert [s["name"] for s in parsed["spans"]] == ["compile"]
        assert parsed["counters"]


class TestProfileCli:
    SQL = ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
           "GROUP BY l_returnflag")

    def test_profile_renders_tables(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "profile", self.SQL)
        assert code == 0
        assert "skew cov" in out
        assert "q-err" in out
        assert "Q-error:" in out
        assert "Get(lineitem)" in out

    def test_profile_jsonl_is_its_one_machine_readable_output(
            self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["profile", "--json", self.SQL])
        assert raised.value.code == 2
        capsys.readouterr()
        jsonl = tmp_path / "events.jsonl"
        code, _out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "profile", self.SQL, "--jsonl", str(jsonl))
        assert code == 0
        events = [json.loads(line)
                  for line in jsonl.read_text().splitlines()]
        query = events[0]
        assert query["event"] == "query"
        assert query["node_count"] == 4
        assert query["q_error_count"] > 0
        kinds = {event["event"] for event in events}
        assert kinds == {"query", "step", "operator"}

    def test_profile_jsonl_and_prometheus_sinks(self, capsys, tmp_path):
        from repro.obs.export import validate_jsonl

        jsonl = tmp_path / "events.jsonl"
        prom = tmp_path / "metrics.prom"
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "profile", self.SQL,
            "--jsonl", str(jsonl), "--prometheus", str(prom))
        assert code == 0
        assert validate_jsonl(jsonl.read_text()) == []
        assert "pdw_step_rows_total" in prom.read_text()

    def test_schema_check_module(self, capsys, tmp_path):
        from repro.obs.schema_check import main as check_main

        jsonl = tmp_path / "events.jsonl"
        run_cli(capsys, "--scale", "0.001", "--nodes", "4",
                "profile", self.SQL, "--jsonl", str(jsonl))
        assert check_main([str(jsonl)]) == 0
        jsonl.write_text('{"event": "bogus"}\n')
        assert check_main([str(jsonl)]) == 1


class TestWhyCli:
    SQL = ("SELECT c_name FROM customer, orders "
           "WHERE c_custkey = o_custkey")

    def test_why_renders_diff_and_trace(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4", "why", self.SQL)
        assert code == 0
        assert "Why this plan?" in out
        assert "Search space:" in out
        assert "Per-group enumeration:" in out

    def test_why_jsonl_validates_with_required_events(self, capsys,
                                                      tmp_path):
        from repro.obs.schema_check import main as check_main

        jsonl = tmp_path / "opt.jsonl"
        prom = tmp_path / "opt.prom"
        code, _out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4", "why", self.SQL,
            "--jsonl", str(jsonl), "--prometheus", str(prom))
        assert code == 0
        assert check_main([str(jsonl), "--require", "optimizer_summary",
                           "--require", "plan_choice"]) == 0
        text = prom.read_text()
        assert "pdw_optimizer_options_considered" in text
        # The smoke contract: a nonzero considered count was exported.
        line = next(l for l in text.splitlines()
                    if l.startswith("pdw_optimizer_options_considered "))
        assert float(line.split()[-1]) > 0

    def test_why_with_hint(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4", "why", self.SQL,
            "--hint", "orders=replicate")
        assert code == 0
        assert "Hint override" in out

    def test_why_bad_hint_errors(self, capsys):
        code = main(["--scale", "0.001", "--nodes", "4", "why", self.SQL,
                     "--hint", "orders"])
        assert code == 1

    def test_schema_check_require_missing_fails(self, capsys, tmp_path):
        from repro.obs.schema_check import main as check_main

        jsonl = tmp_path / "events.jsonl"
        run_cli(capsys, "--scale", "0.001", "--nodes", "4",
                "profile", "SELECT n_name FROM nation",
                "--jsonl", str(jsonl))
        # Profile logs contain no optimizer events.
        assert check_main([str(jsonl),
                           "--require", "optimizer_summary"]) == 1

    def test_schema_check_require_unknown_type_rejected(self, tmp_path):
        from repro.obs.schema_check import main as check_main

        jsonl = tmp_path / "events.jsonl"
        jsonl.write_text("")
        with pytest.raises(SystemExit):
            check_main([str(jsonl), "--require", "no_such_event"])

    def test_explain_optimizer_flag(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.001", "--nodes", "4",
            "explain", "--optimizer", self.SQL)
        assert code == 0
        assert "DSQL plan" in out
        assert "Why this plan?" in out
        assert "Search space:" in out


class TestQuerystoreCli:
    ARGS = ("--scale", "0.001", "--nodes", "2", "querystore",
            "--clients", "1", "--queries", "2",
            "--hint", "customer=shuffle", "--factor", "1.2")

    def test_report_and_dogfood_rows(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "Query store:" in out
        assert "Hottest shapes (top 10):" in out
        assert "plan regression(s) detected" in out

    def test_regressions_only(self, capsys):
        code, out = run_cli(capsys, *self.ARGS, "--regressions")
        assert code == 0
        assert "plan regression(s) detected" in out
        assert "slower than prior plan" in out

    def test_jsonl_schema_checks_and_loads_back(self, capsys, tmp_path):
        from repro.obs.query_store import QueryStore
        from repro.obs.schema_check import main as check_main

        jsonl = tmp_path / "store.jsonl"
        prom = tmp_path / "store.prom"
        code, _out = run_cli(capsys, *self.ARGS,
                             "--jsonl", str(jsonl),
                             "--prometheus", str(prom))
        assert code == 0
        assert check_main([str(jsonl),
                           "--require", "query_store_flush"]) == 0
        capsys.readouterr()
        shapes = [line for line in prom.read_text().splitlines()
                  if line.startswith("pdw_query_store_shapes ")]
        assert shapes and float(shapes[0].split()[1]) > 0
        reloaded = QueryStore()
        loaded = reloaded.load(str(jsonl))
        assert loaded > 0
        assert len(reloaded.regressions(factor=1.2)) >= 1
        # --load reads what --jsonl wrote.
        code = main(["--scale", "0.001", "--nodes", "2", "querystore",
                     "--clients", "1", "--queries", "1", "--regressions",
                     "--load", str(jsonl)])
        assert code == 0
        assert f"-- loaded {loaded} shapes" in capsys.readouterr().err

    def test_bad_hint_errors(self):
        code = main(["--scale", "0.001", "--nodes", "2", "querystore",
                     "--hint", "customer"])
        assert code == 1


class TestJsonlSchemaError:
    """Every ``--jsonl`` writer validates first: one schema error prints
    ``schema error: ...`` to stderr, writes neither file and exits 1."""

    QUERY = "SELECT n_name FROM nation"
    TRAFFIC = ("--clients", "1", "--queries", "1")

    @pytest.mark.parametrize("command", ["profile", "why", "requests",
                                         "querystore"])
    def test_schema_error_exits_1(self, command, capsys, tmp_path,
                                  monkeypatch):
        import repro.obs.export

        monkeypatch.setattr(repro.obs.export, "validate_events",
                            lambda events: ["injected", "second"])
        jsonl, prom = tmp_path / "events.jsonl", tmp_path / "metrics.prom"
        args = (self.TRAFFIC if command in ("requests", "querystore")
                else (self.QUERY,))
        code = main(["--scale", "0.001", "--nodes", "2", command, *args,
                     "--jsonl", str(jsonl), "--prometheus", str(prom)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["schema error: injected",
                                    "schema error: second"]
        assert not jsonl.exists() and not prom.exists()
