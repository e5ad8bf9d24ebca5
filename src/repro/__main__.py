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

``requests`` and ``querystore`` drive the same mix and then report
it as ``SELECT`` statements over the system views, run through the
normal parse → optimize → execute path: ``requests`` reads the
``sys.dm_pdw_*`` views (requests per status, the plan cache, the
completed requests, step detail for every request over ``--slow-ms``),
``querystore`` the ``sys.query_store_*`` views (hottest shapes, every
plan of a multi-plan shape) and adds the plan-regression verdicts.
``querystore --hint TABLE=STRATEGY`` re-runs the mix templates touching
that table with a §3.1 hint, forcing an alternate plan under the same
shape; ``--load`` reads back a store its ``--jsonl`` wrote.  The three
traffic verbs share their traffic, service, threshold and
``--prometheus`` flags.

``profile`` executes the query with per-node / per-operator profiling on
and renders skew + Q-error tables; ``--jsonl PATH`` writes the validated
event log (``--jsonl /dev/stdout`` prints it), and ``--prometheus PATH``
dumps the session metrics registry in Prometheus text format.

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
node by node.  Either way DSQL steps run one at a time, as §2.4 walks
the plan.  The appliance is regenerated deterministically on every
invocation, so results are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro import (
    Calibrator,
    ExecutionOptions,
    GroundTruthConstants,
    PdwSession,
)
from repro.common.executors import EXECUTORS
from repro.obs.requests import DEFAULT_SLOW_SECONDS
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

    # The flags the three traffic verbs share.
    traffic = argparse.ArgumentParser(add_help=False)
    traffic.add_argument("--clients", type=int, default=4,
                         help="concurrent client threads (default 4)")
    traffic.add_argument("--queries", type=int, default=8,
                         help="queries per client (default 8)")
    traffic.add_argument("--seed", type=int, default=2012,
                         help="traffic RNG seed (default 2012)")
    traffic.add_argument("--max-in-flight", type=int,
                         default=DEFAULT_MAX_IN_FLIGHT,
                         help="admission: concurrent executions (default 1)")
    traffic.add_argument("--max-queue", type=int, default=32,
                         help="admission: wait-queue bound (default 32)")
    traffic.add_argument("--cache-size", type=int, default=64,
                         help="plan cache capacity (default 64)")
    traffic.add_argument("--slow-ms", type=float,
                         default=DEFAULT_SLOW_SECONDS * 1e3,
                         help="flight-recorder slow-query threshold in "
                              "milliseconds (default 1000)")
    traffic.add_argument("--prometheus", metavar="PATH",
                         help="write the service metrics registry "
                              "(querystore: plus pdw_query_store_* "
                              "series) in Prometheus text format")

    serve = sub.add_parser(
        "serve", parents=[traffic],
        help="run the multi-user serving layer under a TPC-H traffic "
             "mix: plan cache + admission control + percentiles")
    serve.add_argument("--smoke", action="store_true",
                       help="CI smoke mode: require plan-cache hits and "
                            "a reported p99")

    requests = sub.add_parser(
        "requests", parents=[traffic],
        help="drive the service, then report it as SQL over the "
             "sys.dm_pdw_* system views")
    requests.add_argument("--slow", action="store_true",
                          help="show only requests over the slow-query "
                               "threshold")
    requests.add_argument("--jsonl", metavar="PATH",
                          help="write the schema-validated "
                               "request_complete event log")

    querystore = sub.add_parser(
        "querystore", parents=[traffic],
        help="drive the service, then report the sys.query_store_* "
             "views and the plan-regression verdicts")
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
    querystore.add_argument("--load", metavar="PATH",
                            help="load a store written by --jsonl before "
                                 "the traffic runs (baselines re-keyed "
                                 "to the current schema_version)")
    querystore.add_argument("--jsonl", metavar="PATH",
                            help="write the schema-validated "
                                 "query_store_flush event log")

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


def _write_jsonl(path: str, events: List[dict]) -> bool:
    """Validate ``events`` and write them to ``path`` as JSONL.  On a
    schema error print each error to stderr, write nothing and return
    False (the command then exits 1)."""
    from repro.obs.export import validate_events, write_jsonl

    errors = validate_events(events)
    for error in errors:
        print(f"schema error: {error}", file=sys.stderr)
    if errors:
        return False
    sys.stdout.flush()  # a PATH of /dev/stdout lands after the report
    write_jsonl(events, path)
    print(f"-- wrote {len(events)} events to {path}", file=sys.stderr)
    return True


def _write_prometheus(path: str, text: str) -> None:
    """Write Prometheus exposition ``text`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"-- wrote metrics to {path}", file=sys.stderr)


def _drive(args, then: Callable, setup: Optional[Callable] = None,
           **service_kwargs) -> int:
    """Build the service the traffic flags describe, run ``setup`` on
    it (when given), drive the TPC-H mix through it and hand it and the
    traffic report to ``then`` while it is still open; then close it
    and, if ``then`` returned 0, write ``--prometheus``.  Returns
    ``then``'s exit code."""
    from repro.obs.requests import RequestRegistry
    from repro.service import PdwService, run_traffic

    service = PdwService(
        scale=args.scale, node_count=args.nodes,
        options=ExecutionOptions(executor=args.executor),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        plan_cache_size=args.cache_size,
        requests=RequestRegistry(slow_threshold_seconds=args.slow_ms / 1e3),
        **service_kwargs)
    try:
        if setup is not None:
            setup(service)
        traffic = run_traffic(service, clients=args.clients,
                              queries_per_client=args.queries,
                              seed=args.seed)
        code = then(service, traffic)
    finally:
        service.close()
    if code == 0 and args.prometheus:
        _write_prometheus(args.prometheus, service.metrics_text())
    return code


#: The series ``serve`` prints, read from the service's registry: hits,
#: shapes parsed vs. templates compiled into the cache (equal when the
#: parser runs once per shape, not once per query), and finished
#: queries at or over ``--slow-ms``.
_SERVE_SERIES = ("pdw_service_plan_cache_hits",
                 "pdw_service_plan_cache_shape_parses",
                 "pdw_service_plan_cache_inserts",
                 "pdw_service_slow_total")


def _cmd_serve(args) -> int:
    from repro.service import render_report

    def then(service, traffic) -> int:
        print(render_report(traffic))
        snapshot = service.metrics.snapshot()
        totals = {name: int(sum(snapshot.get(name, {}).values()))
                  for name in _SERVE_SERIES}
        for name, value in totals.items():
            print(f"{name} {value}")
        if not args.smoke:
            return 0
        hits, parses, inserts, _slow = totals.values()
        failures = [failure for failed, failure in (
            (hits <= 0, "plan cache recorded no hits"),
            (parses != inserts,
             f"{parses} shape parses for {inserts} cached shapes"),
            (traffic.completed <= 0, "no queries completed"),
            (traffic.p99 <= 0, "no p99 latency reported")) if failed]
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("smoke ok")
        return 0

    return _drive(args, then)


def _cmd_requests(args) -> int:
    from repro.obs.export import requests_to_events
    from repro.obs.report import requests_report

    def then(service, _traffic) -> int:
        print(requests_report(service, slow_only=args.slow))
        # After the report, so its own SELECTs are events too, as they
        # are pdw_service_queries_total counts.
        if args.jsonl and not _write_jsonl(
                args.jsonl, requests_to_events(service.requests)):
            return 1
        return 0

    return _drive(args, then)


def _cmd_querystore(args) -> int:
    import random

    from repro.obs.export import query_store_to_metrics
    from repro.obs.query_store import QueryStore
    from repro.obs.report import (
        query_store_report,
        render_query_store_regressions,
    )
    from repro.service import DEFAULT_MIX

    try:
        hints = _parse_hints(args.hint)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    def load(service) -> None:
        loaded = service.query_store.load(
            args.load, schema_version=service.appliance.schema_version)
        print(f"-- loaded {loaded} shapes from {args.load}",
              file=sys.stderr)

    def then(service, _traffic) -> int:
        store = service.query_store
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
        if args.regressions:
            print(render_query_store_regressions(store.regressions()))
        else:
            print(query_store_report(service, top=args.top))
        if args.jsonl and not _write_jsonl(args.jsonl, store.to_events()):
            return 1
        if args.prometheus:
            query_store_to_metrics(store, service.metrics)
        return 0

    return _drive(args, then, setup=load if args.load else None,
                  query_store=QueryStore(regression_factor=args.factor))


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

    traffic = {"serve": _cmd_serve, "requests": _cmd_requests,
               "querystore": _cmd_querystore}.get(args.command)
    if traffic is not None:
        return traffic(args)

    session = PdwSession(
        args.sql, scale=args.scale, node_count=args.nodes,
        options=ExecutionOptions(executor=args.executor))

    if args.command == "memo":
        compiled = session.compile()
        print(compiled.serial.memo.dump(compiled.serial.root_group))

    elif args.command == "explain":
        print(session.explain(analyze=args.analyze, verbose=args.verbose,
                              optimizer=args.optimizer))

    elif args.command == "why":
        from repro.obs.export import optimizer_trace_to_events

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
        if args.jsonl and not _write_jsonl(
                args.jsonl,
                optimizer_trace_to_events(trace, plan_choice=choice)):
            return 1
        if args.prometheus:
            _write_prometheus(args.prometheus,
                              session.metrics.render_prometheus())

    elif args.command == "stats":
        if args.json:
            import json

            compiled, _trace = session.optimizer_trace()
            counters = sorted(compiled.compile_counters().items())
            print(json.dumps({**session.tracer.to_dict(),
                              "counters": dict(counters)},
                             indent=2, default=str))
        else:
            print(session.stats_report())

    elif args.command == "profile":
        from repro.obs.export import profile_to_events
        from repro.obs.report import render_profile_report

        profile = session.profile()
        print(render_profile_report(profile))
        if args.jsonl and not _write_jsonl(args.jsonl,
                                           profile_to_events(profile)):
            return 1
        if args.prometheus:
            _write_prometheus(args.prometheus,
                              session.metrics.render_prometheus())

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
