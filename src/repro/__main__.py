"""Command-line interface: compile and run queries against a generated
TPC-H appliance.

    python -m repro explain "SELECT COUNT(*) AS n FROM lineitem"
    python -m repro explain --analyze "SELECT COUNT(*) AS n FROM lineitem"
    python -m repro run "SELECT n_name FROM nation ORDER BY n_name LIMIT 5"
    python -m repro memo "SELECT c_name FROM customer WHERE c_custkey < 10"
    python -m repro stats "SELECT COUNT(*) AS n FROM lineitem"
    python -m repro profile "SELECT COUNT(*) AS n FROM lineitem, orders \
WHERE l_orderkey = o_orderkey"
    python -m repro why "SELECT COUNT(*) AS n FROM lineitem, orders \
WHERE l_orderkey = o_orderkey"
    python -m repro calibrate --nodes 8
    python -m repro serve --clients 4 --queries 8
    python -m repro requests --clients 4 --queries 8
    python -m repro querystore --clients 4 --queries 8 \
--hint customer=shuffle --regressions

``serve`` runs the multi-user serving layer (:mod:`repro.service`) under
a parameterized TPC-H traffic mix — concurrent clients, parameterized
plan cache, admission control — and prints latency percentiles,
throughput and cache statistics; ``serve --smoke`` is the CI guard
(requires plan-cache hits and a reported p99).  Throughput is measured
by ``benchmarks/pdwbench`` (its ``serve_mix`` workload).

``requests`` drives the same traffic mix and then *dogfoods* the
``sys.dm_pdw_*`` system views: the per-status request counts and the
plan-cache contents are answered by SQL queries through the normal
parse → optimize → execute path, followed by the flight recorder's
request and step tables.  ``--slow`` restricts to requests over the
slow-query threshold; ``--json`` prints the flight-recorder events as a
JSON array; ``--jsonl PATH`` writes the schema-validated event log;
``--prometheus PATH`` writes the ``pdw_request_*`` series alongside the
service metrics.

``querystore`` drives the same mix and then reads the Query Store — the
persistent per-shape plan + runtime-stats history — back through the
``sys.query_store_*`` views over normal SQL, prints the plan-history
tables and the plan-regression verdicts, and exports the store as
schema-validated ``query_store_flush`` JSONL events, Prometheus
``pdw_query_store_*`` series, or a reloadable ``--save`` file.
``--hint TABLE=STRATEGY`` re-runs the mix templates touching that table
with a §3.1 hint after the plain pass, forcing an alternate plan under
the same shape so ``--regressions`` has something to flag.

``profile`` executes the query with per-node / per-operator profiling on
and renders skew + Q-error tables; ``--json`` prints the structured
profile document instead, ``--jsonl PATH`` writes the validated event
log, and ``--prometheus PATH`` dumps the session metrics registry in
Prometheus text format.

``why`` compiles with the optimizer search-space recorder on and answers
"why did the optimizer pick this plan?": the winning distributed plan is
diffed against the §2.5 parallelized-serial baseline (per-subtree DMS
cost deltas), followed by per-group enumeration statistics, the top-k
costliest considered-but-rejected movements, and prune effectiveness per
interesting-property key.  ``--jsonl`` / ``--prometheus`` export the
same numbers as validated events and ``pdw_optimizer_*`` series.

Options ``--scale`` and ``--nodes`` size the appliance (defaults: scale
0.002, 8 nodes).  ``--trace`` appends the nested telemetry span tree
(parse → serial → XML → PDW → DSQL → execute) to any command's output.
``--executor {reference,numpy}`` picks the execution backend by name —
``numpy`` (the default) runs each DSQL step once over every node's
fragment on typed ndarrays, ``reference`` runs the tree-walking oracle
node by node.  ``--parallel-runtime`` schedules DSQL steps as a
dependency DAG on a thread pool instead of the default §2.4 serial walk
(one step at a time); both produce identical rows and stats.  The
appliance is regenerated deterministically on every invocation, so
results are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import (
    Calibrator,
    ExecutionOptions,
    GroundTruthConstants,
    PdwSession,
)
from repro.common.executors import EXECUTORS
from repro.service.admission import DEFAULT_MAX_IN_FLIGHT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PDW query optimizer reproduction (SIGMOD 2012)")
    parser.add_argument("--scale", type=float, default=0.002,
                        help="TPC-H scale factor (default 0.002)")
    parser.add_argument("--nodes", type=int, default=8,
                        help="compute node count (default 8)")
    parser.add_argument("--trace", action="store_true",
                        help="print the telemetry span tree afterwards")
    parser.add_argument("--executor", choices=EXECUTORS, default=None,
                        help="execution backend: numpy (typed ndarray "
                             "kernels over each step's whole node "
                             "group, default) or reference (the "
                             "tree-walking oracle, node by node)")
    parser.add_argument("--parallel-runtime", action="store_true",
                        help="schedule DSQL steps as a dependency DAG "
                             "on a thread pool instead of one step at "
                             "a time")
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain", help="compile a query and show plan + DSQL steps")
    explain.add_argument("sql")
    explain.add_argument("--analyze", action="store_true",
                         help="execute the plan and show estimated vs. "
                              "actual rows/bytes/time per DSQL step")
    explain.add_argument("--verbose", action="store_true",
                         help="include memo/pruning compilation counters")
    explain.add_argument("--optimizer", action="store_true",
                         help="append the \"why this plan\" §2.5 baseline "
                              "diff and the optimizer search-space trace")

    run = sub.add_parser(
        "run", help="compile, execute on the appliance, print rows")
    run.add_argument("sql")
    run.add_argument("--max-rows", type=int, default=20,
                     help="rows to print (default 20)")

    memo = sub.add_parser(
        "memo", help="show the serial MEMO the PDW side consumes")
    memo.add_argument("sql")

    stats = sub.add_parser(
        "stats", help="compile a query and print phase timings + counters")
    stats.add_argument("sql")
    stats.add_argument("--json", action="store_true",
                       help="print spans + counters as a JSON document")

    profile = sub.add_parser(
        "profile",
        help="execute with per-node/per-operator profiling: skew + Q-error")
    profile.add_argument("sql")
    profile.add_argument("--json", action="store_true",
                         help="print the profile document as JSON instead "
                              "of tables")
    profile.add_argument("--jsonl", metavar="PATH",
                         help="write the schema-validated JSONL event log")
    profile.add_argument("--prometheus", metavar="PATH",
                         help="write the metrics registry in Prometheus "
                              "text format")

    why = sub.add_parser(
        "why",
        help='"why this plan": §2.5 baseline diff + search-space trace')
    why.add_argument("sql")
    why.add_argument("--hint", action="append", default=[],
                     metavar="TABLE=STRATEGY",
                     help="§3.1 query hint, e.g. orders=replicate "
                          "(repeatable)")
    why.add_argument("--top", type=int, default=10,
                     help="rejected movements to show (default 10)")
    why.add_argument("--jsonl", metavar="PATH",
                     help="write the schema-validated optimizer event log")
    why.add_argument("--prometheus", metavar="PATH",
                     help="write the metrics registry in Prometheus "
                          "text format")

    sub.add_parser(
        "calibrate", help="run the lambda calibration (paper 3.3.3)")

    serve = sub.add_parser(
        "serve",
        help="run the multi-user serving layer under a TPC-H traffic "
             "mix: plan cache + admission control + percentiles")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads (default 4)")
    serve.add_argument("--queries", type=int, default=8,
                       help="queries per client (default 8)")
    serve.add_argument("--seed", type=int, default=2012,
                       help="traffic RNG seed (default 2012)")
    serve.add_argument("--max-in-flight", type=int,
                       default=DEFAULT_MAX_IN_FLIGHT,
                       help="admission: concurrent executions (default 1)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="admission: wait-queue bound (default 32)")
    serve.add_argument("--cache-size", type=int, default=64,
                       help="plan cache capacity (default 64)")
    serve.add_argument("--slow-seconds", type=float, default=None,
                       help="flight-recorder slow-query threshold in "
                            "seconds (default 1.0)")
    serve.add_argument("--smoke", action="store_true",
                       help="CI smoke mode: require plan-cache hits and "
                            "a reported p99")
    serve.add_argument("--prometheus", metavar="PATH",
                       help="write the service metrics registry in "
                            "Prometheus text format")

    requests = sub.add_parser(
        "requests",
        help="drive the service, then query the sys.dm_pdw_* system "
             "views over SQL and print the request flight recorder")
    requests.add_argument("--clients", type=int, default=4,
                          help="concurrent client threads (default 4)")
    requests.add_argument("--queries", type=int, default=8,
                          help="queries per client (default 8)")
    requests.add_argument("--seed", type=int, default=2012,
                          help="traffic RNG seed (default 2012)")
    requests.add_argument("--max-in-flight", type=int,
                          default=DEFAULT_MAX_IN_FLIGHT,
                          help="admission: concurrent executions "
                               "(default 1)")
    requests.add_argument("--max-queue", type=int, default=32,
                          help="admission: wait-queue bound (default 32)")
    requests.add_argument("--cache-size", type=int, default=64,
                          help="plan cache capacity (default 64)")
    requests.add_argument("--slow", action="store_true",
                          help="show only requests over the slow-query "
                               "threshold")
    requests.add_argument("--slow-ms", type=float, default=None,
                          help="slow-query threshold in milliseconds "
                               "(default 1000)")
    requests.add_argument("--json", action="store_true",
                          help="print the flight-recorder events as a "
                               "JSON array instead of tables")
    requests.add_argument("--jsonl", metavar="PATH",
                          help="write the schema-validated "
                               "request_complete event log")
    requests.add_argument("--prometheus", metavar="PATH",
                          help="write pdw_request_* series (plus the "
                               "service metrics) in Prometheus text "
                               "format")

    querystore = sub.add_parser(
        "querystore",
        help="drive the service, then dogfood the sys.query_store_* "
             "views and print plan history + regression verdicts")
    querystore.add_argument("--clients", type=int, default=4,
                            help="concurrent client threads (default 4)")
    querystore.add_argument("--queries", type=int, default=8,
                            help="queries per client (default 8)")
    querystore.add_argument("--seed", type=int, default=2012,
                            help="traffic RNG seed (default 2012)")
    querystore.add_argument("--max-in-flight", type=int,
                            default=DEFAULT_MAX_IN_FLIGHT,
                            help="admission: concurrent executions "
                                 "(default 1)")
    querystore.add_argument("--max-queue", type=int, default=32,
                            help="admission: wait-queue bound "
                                 "(default 32)")
    querystore.add_argument("--cache-size", type=int, default=64,
                            help="plan cache capacity (default 64)")
    querystore.add_argument("--hint", action="append", default=[],
                            metavar="TABLE=STRATEGY",
                            help="after the plain traffic, re-run every "
                                 "mix template touching TABLE with this "
                                 "§3.1 hint — forces an alternate plan "
                                 "under the same shape (repeatable)")
    querystore.add_argument("--hinted-repeats", type=int, default=2,
                            help="executions per hinted template "
                                 "(default 2)")
    querystore.add_argument("--top", type=int, default=10,
                            help="hottest shapes to show (default 10)")
    querystore.add_argument("--factor", type=float, default=1.5,
                            help="regression factor: flag when the "
                                 "current plan's mean latency exceeds a "
                                 "prior plan's by this (default 1.5)")
    querystore.add_argument("--regressions", action="store_true",
                            help="print only the regression verdicts")
    querystore.add_argument("--save", metavar="PATH",
                            help="persist the store as JSONL "
                                 "query_store_flush events")
    querystore.add_argument("--load", metavar="PATH",
                            help="load a previously saved store before "
                                 "the traffic runs (baselines re-keyed "
                                 "to the current schema_version)")
    querystore.add_argument("--jsonl", metavar="PATH",
                            help="write the schema-validated "
                                 "query_store_flush event log")
    querystore.add_argument("--prometheus", metavar="PATH",
                            help="write pdw_query_store_* series (plus "
                                 "the service metrics) in Prometheus "
                                 "text format")

    return parser


def _parse_hints(pairs: List[str]) -> Optional[dict]:
    """``TABLE=STRATEGY`` pairs from repeated ``--hint`` flags; raises
    SystemExit-friendly ValueError on a malformed pair."""
    hints = {}
    for pair in pairs:
        table, _sep, strategy = pair.partition("=")
        if not table or not strategy:
            raise ValueError(
                f"bad --hint {pair!r}: expected TABLE=STRATEGY")
        hints[table] = strategy
    return hints or None


def _cli_options(args) -> ExecutionOptions:
    """ExecutionOptions from the global CLI flags."""
    return ExecutionOptions(
        executor=args.executor,
        parallel=True if args.parallel_runtime else None)


def _cmd_serve(args) -> int:
    from repro.obs.export import requests_to_metrics
    from repro.service import PdwService, render_report, run_traffic

    service = PdwService(
        scale=args.scale, node_count=args.nodes,
        options=_cli_options(args),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        plan_cache_size=args.cache_size,
        slow_seconds=args.slow_seconds)
    try:
        report = run_traffic(service, clients=args.clients,
                             queries_per_client=args.queries,
                             seed=args.seed)
    finally:
        # Closed before reporting; its metrics and stats stay readable.
        service.close()
    print(render_report(report))
    cache = service.plan_cache.stats()
    hits = cache["hits"]
    print(f"pdw_service_plan_cache_hits {hits}")
    # Shapes parsed vs. templates compiled into the cache: equal when
    # the parser runs once per shape, not once per query.
    print(f"pdw_service_plan_cache_shape_parses {cache['shape_parses']}")
    print(f"pdw_service_plan_cache_inserts {cache['inserts']}")
    # Fold the flight recorder into the service registry so the serve
    # output and --prometheus carry the pdw_request_* series (including
    # pdw_request_slow_total against the configured --slow-seconds).
    requests_to_metrics(service.requests, service.metrics)
    slow = service.requests.stats()["slow"]
    print(f"pdw_request_slow_total {slow}")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(service.metrics_text())
        print(f"-- wrote metrics to {args.prometheus}", file=sys.stderr)
    if not args.smoke:
        return 0
    failures = []
    if hits <= 0:
        failures.append("plan cache recorded no hits")
    if cache["shape_parses"] != cache["inserts"]:
        failures.append(
            f"{cache['shape_parses']} shape parses for "
            f"{cache['inserts']} cached shapes")
    if report.completed <= 0:
        failures.append("no queries completed")
    if report.p99 <= 0:
        failures.append("no p99 latency reported")
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def _cmd_requests(args) -> int:
    from repro.obs.export import (
        events_to_jsonl,
        requests_to_events,
        requests_to_metrics,
        validate_events,
    )
    from repro.obs.report import render_requests_report
    from repro.obs.requests import RequestRegistry
    from repro.service import PdwService, run_traffic

    registry = RequestRegistry(
        slow_threshold_seconds=(args.slow_ms / 1e3
                                if args.slow_ms is not None else 1.0))
    service = PdwService(
        scale=args.scale, node_count=args.nodes,
        options=_cli_options(args),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        plan_cache_size=args.cache_size,
        requests=registry)
    try:
        run_traffic(service, clients=args.clients,
                    queries_per_client=args.queries, seed=args.seed)
        # Dogfood: the system views answered through the normal SQL path.
        by_status = service.execute(
            "SELECT status, COUNT(*) AS n FROM sys.dm_pdw_exec_requests "
            "GROUP BY status ORDER BY status")
        cached = service.execute(
            "SELECT shape_key, hit_count, execution_count "
            "FROM sys.dm_pdw_plan_cache ORDER BY execution_count DESC, "
            "shape_key LIMIT 10")
    finally:
        service.close()
    events = requests_to_events(registry)
    if args.json:
        print(json.dumps(events, indent=2, sort_keys=True))
    else:
        print("SELECT status, COUNT(*) AS n "
              "FROM sys.dm_pdw_exec_requests GROUP BY status:")
        for status, n in by_status.rows:
            print(f"  {status:<10} {n}")
        print()
        print("sys.dm_pdw_plan_cache (top 10 by executions):")
        for shape_key, hit_count, executions in cached.rows:
            print(f"  hits={hit_count:<4} execs={executions:<4} "
                  f"{shape_key}")
        print()
        print(render_requests_report(registry, slow_only=args.slow))
    if args.jsonl:
        errors = validate_events(events)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(events_to_jsonl(events))
        print(f"-- wrote {len(events)} events to {args.jsonl}",
              file=sys.stderr)
    if args.prometheus:
        requests_to_metrics(registry, service.metrics)
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(service.metrics_text())
        print(f"-- wrote metrics to {args.prometheus}", file=sys.stderr)
    return 0


def _cmd_querystore(args) -> int:
    import random

    from repro.obs.export import (
        events_to_jsonl,
        query_store_to_metrics,
        validate_events,
    )
    from repro.obs.query_store import QueryStore
    from repro.obs.report import (
        render_query_store_regressions,
        render_query_store_report,
    )
    from repro.service import DEFAULT_MIX, PdwService, run_traffic

    try:
        hints = _parse_hints(args.hint)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    store = QueryStore(regression_factor=args.factor)
    service = PdwService(
        scale=args.scale, node_count=args.nodes,
        options=_cli_options(args),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        plan_cache_size=args.cache_size,
        query_store=store)
    try:
        if args.load:
            loaded = store.load(
                args.load,
                schema_version=service.appliance.schema_version)
            print(f"-- loaded {loaded} shapes from {args.load}",
                  file=sys.stderr)
        run_traffic(service, clients=args.clients,
                    queries_per_client=args.queries, seed=args.seed)
        if hints:
            # The hinted pass: force an alternate plan for every mix
            # template that touches a hinted table.  Each repeat runs
            # the template plain and then hinted — the store keys
            # shapes without hints, so both plans land under one shape
            # with the hinted (current) plan last, exactly what the
            # regression detector compares.
            rng = random.Random(args.seed + 1000)
            opts = service.options.override(hints=hints)
            for _ in range(max(1, args.hinted_repeats)):
                for template in DEFAULT_MIX:
                    sql = template.make_sql(rng)
                    lowered = sql.lower()
                    if any(table.lower() in lowered for table in hints):
                        service.execute(sql)
                        service.execute(sql, options=opts)
        # Dogfood: the query-store views answered through normal SQL.
        runtime = service.execute(
            "SELECT query_id, plan_hash, execution_count, mean_ms "
            "FROM sys.query_store_runtime_stats "
            "ORDER BY execution_count DESC, query_id, plan_hash "
            "LIMIT 10")
    finally:
        service.close()
    regressions = store.regressions()
    if args.regressions:
        print(render_query_store_regressions(regressions))
    else:
        print("SELECT query_id, plan_hash, execution_count, mean_ms "
              "FROM sys.query_store_runtime_stats (top 10):")
        for query_id, plan_hash, execs, mean_ms in runtime.rows:
            print(f"  Q{query_id:<4} {plan_hash}  execs={execs:<4} "
                  f"mean={mean_ms:.3f} ms")
        print()
        print(render_query_store_report(store, top=args.top))
    if args.save:
        count = store.save(args.save)
        print(f"-- saved {count} shapes to {args.save}", file=sys.stderr)
    if args.jsonl:
        events = store.to_events()
        errors = validate_events(events)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(events_to_jsonl(events))
        print(f"-- wrote {len(events)} events to {args.jsonl}",
              file=sys.stderr)
    if args.prometheus:
        query_store_to_metrics(store, service.metrics)
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(service.metrics_text())
        print(f"-- wrote metrics to {args.prometheus}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "calibrate":
        result = Calibrator(node_count=args.nodes).calibrate()
        truth = GroundTruthConstants()
        constants = result.constants
        print("fitted lambda constants (vs simulator ground truth):")
        for label, fitted, target in (
            ("reader_direct", constants.lambda_reader_direct,
             truth.reader_direct),
            ("reader_hash", constants.lambda_reader_hash,
             truth.reader_hash),
            ("network", constants.lambda_network, truth.network),
            ("writer", constants.lambda_writer, truth.writer),
            ("bulk_copy", constants.lambda_bulk_copy, truth.bulk_copy),
        ):
            print(f"  {label:<14} {fitted:.3e}  (truth {target:.3e})")
        return 0

    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "requests":
        return _cmd_requests(args)
    if args.command == "querystore":
        return _cmd_querystore(args)

    session = PdwSession(
        args.sql, scale=args.scale, node_count=args.nodes,
        options=_cli_options(args))

    if args.command == "memo":
        compiled = session.compile()
        print(compiled.serial.memo.dump(compiled.serial.root_group))

    elif args.command == "explain":
        print(session.explain(analyze=args.analyze, verbose=args.verbose,
                              optimizer=args.optimizer))

    elif args.command == "why":
        from repro.obs.export import (
            events_to_jsonl,
            optimizer_trace_to_events,
            validate_events,
        )

        try:
            hints = _parse_hints(args.hint)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        _compiled, trace, choice = session.plan_choice(
            options=session.options.with_hints(hints))
        from repro.obs.report import render_optimizer_trace_report
        from repro.pdw.why import render_plan_choice

        print(render_plan_choice(choice))
        print()
        print(render_optimizer_trace_report(trace, top_k=args.top))
        if args.jsonl:
            events = optimizer_trace_to_events(trace, plan_choice=choice)
            errors = validate_events(events)
            if errors:
                for error in errors:
                    print(f"schema error: {error}", file=sys.stderr)
                return 1
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                handle.write(events_to_jsonl(events))
            print(f"-- wrote {len(events)} events to {args.jsonl}",
                  file=sys.stderr)
        if args.prometheus:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(session.metrics.render_prometheus())
            print(f"-- wrote metrics to {args.prometheus}",
                  file=sys.stderr)

    elif args.command == "stats":
        session.compile()
        if args.json:
            print(session.tracer.to_json())
        else:
            print(session.stats_report())

    elif args.command == "profile":
        from repro.obs.export import (
            events_to_jsonl,
            profile_to_events,
            validate_events,
        )
        from repro.obs.report import render_profile_report

        profile = session.profile()
        if args.json:
            print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_profile_report(profile))
        if args.jsonl:
            events = profile_to_events(profile)
            errors = validate_events(events)
            if errors:
                for error in errors:
                    print(f"schema error: {error}", file=sys.stderr)
                return 1
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                handle.write(events_to_jsonl(events))
            print(f"-- wrote {len(events)} events to {args.jsonl}",
                  file=sys.stderr)
        if args.prometheus:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(session.metrics.render_prometheus())
            print(f"-- wrote metrics to {args.prometheus}",
                  file=sys.stderr)

    else:  # run
        # session.run() rather than a raw runner call, so the query is
        # tracked by the request registry (and may itself target the
        # sys.dm_pdw_* system views).
        result = session.run()
        print(" | ".join(result.columns))
        for row in result.rows[:args.max_rows]:
            print(" | ".join(str(value) for value in row))
        if len(result.rows) > args.max_rows:
            print(f"... {len(result.rows) - args.max_rows} more rows")
        print(f"-- {len(result.rows)} rows, "
              f"{result.elapsed_seconds * 1e3:.3f} ms simulated "
              f"({result.dms_seconds * 1e3:.3f} ms data movement), "
              f"{len(result.plan.dsql_plan.steps)} DSQL steps, "
              f"request {result.request_id}")

    if args.trace:
        print()
        print("Telemetry spans:")
        print(session.trace_report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
