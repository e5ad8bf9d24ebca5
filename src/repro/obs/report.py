"""Human-readable rendering of query profiles and optimizer traces.

``render_analyze_table`` produces the EXPLAIN ANALYZE table: one row
of estimated vs. actual rows, bytes and seconds per DSQL step.

``render_profile_report`` produces the ``repro profile`` output: a
per-step table (movement, skew coefficient, Q-error), a per-operator
table (per-node row counts, skew, Q-error), and the workload-style
Q-error summary line.

``render_optimizer_trace_report`` produces the search-space half of the
``repro why`` output: per-group enumeration statistics, the top-k
costliest considered-but-rejected movements, and prune effectiveness per
interesting-property key.

``requests_report`` and ``query_store_report`` produce the ``repro
requests`` and ``repro querystore`` outputs: every table is a SELECT
over the system views through the service's ``execute``, rendered by
``render_table``; ``render_query_store_regressions`` renders the
computed plan-regression verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.opt_trace import OptimizerTrace
from repro.obs.profiler import QueryProfile, StepProfile

__all__ = [
    "render_table",
    "render_analyze_table",
    "render_step_table",
    "render_operator_table",
    "render_profile_report",
    "render_group_table",
    "render_rejected_movements_table",
    "render_prune_effectiveness_table",
    "render_optimizer_trace_report",
    "requests_report",
    "render_query_store_regressions",
    "query_store_report",
]

# Per-node row vectors are shown verbatim up to this many participants;
# larger appliances collapse to min/mean/max.
_MAX_INLINE_NODES = 8


def render_table(headers: List[str], rows: List[List[str]],
                 left_columns: frozenset = frozenset()) -> str:
    """Aligned fixed-width table (numbers right, names left)."""
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: List[str]) -> str:
        padded = []
        for i, cell in enumerate(cells):
            if i in left_columns:
                padded.append(cell.ljust(widths[i]))
            else:
                padded.append(cell.rjust(widths[i]))
        return "  ".join(padded).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)


def _node_vector(node_rows: Dict[int, int]) -> str:
    if not node_rows:
        return "-"
    values = [rows for _node, rows in sorted(node_rows.items())]
    if len(values) == 1:
        return str(values[0])
    if len(values) <= _MAX_INLINE_NODES:
        return "[" + " ".join(str(v) for v in values) + "]"
    mean = sum(values) / len(values)
    return f"min={min(values)} mean={mean:.0f} max={max(values)}"


def _fmt_q(q: Optional[float]) -> str:
    if q is None:
        return "-"
    if q >= 1000:
        return f"{q:.3g}"
    return f"{q:.2f}"


def render_analyze_table(steps: Sequence[StepProfile]) -> str:
    """The EXPLAIN ANALYZE table: one aligned row per DSQL step plus a
    totals row under a second rule.

    "est s (DMS)" is the DMS cost model's *data-movement* prediction only
    — local SQL extraction time is outside the model (§5) — whereas
    "act s" is the full simulated step time, so the two columns are not
    directly comparable on movement-light steps.
    """
    headers = ["step", "operation", "est rows", "act rows",
               "est bytes", "act bytes", "est s (DMS)", "act s"]
    rows = [[
        str(s.step),
        s.operation,
        f"{s.estimated_rows:.0f}",
        str(s.actual_rows),
        f"{s.estimated_bytes:.0f}",
        str(s.actual_bytes),
        f"{s.estimated_seconds:.6f}",
        f"{s.actual_seconds:.6f}",
    ] for s in steps]
    rows.append([
        "",
        "total",
        f"{sum(s.estimated_rows for s in steps):.0f}",
        str(sum(s.actual_rows for s in steps)),
        f"{sum(s.estimated_bytes for s in steps):.0f}",
        str(sum(s.actual_bytes for s in steps)),
        f"{sum(s.estimated_seconds for s in steps):.6f}",
        f"{sum(s.actual_seconds for s in steps):.6f}",
    ])
    lines = render_table(headers, rows,
                         left_columns=frozenset({1})).split("\n")
    lines.insert(-1, lines[1])  # the rule again, above the totals
    return "\n".join(lines)


def render_step_table(profile: QueryProfile) -> str:
    headers = ["step", "operation", "est rows", "act rows", "node rows",
               "skew cov", "max/mean", "recv skew", "q-err"]
    rows = [[
        str(s.step),
        s.operation,
        f"{s.estimated_rows:.0f}",
        str(s.actual_rows),
        _node_vector(s.source_rows),
        f"{s.source_skew_cov:.3f}",
        f"{s.source_skew_imbalance:.2f}",
        f"{s.receive_skew_cov:.3f}" if s.kind == "DMS" else "-",
        _fmt_q(s.q_error),
    ] for s in profile.steps]
    return render_table(headers, rows, left_columns=frozenset({1}))


def render_operator_table(profile: QueryProfile) -> str:
    headers = ["step", "operator", "node rows", "act rows", "est rows",
               "skew cov", "q-err"]
    rows = [[
        str(op.step),
        op.label,
        _node_vector(op.node_rows),
        str(op.actual_rows),
        f"{op.estimated_rows:.0f}" if op.estimated_rows is not None
        else "-",
        f"{op.skew_cov:.3f}",
        _fmt_q(op.q_error),
    ] for op in profile.operators]
    return render_table(headers, rows, left_columns=frozenset({1}))


def render_profile_report(profile: QueryProfile) -> str:
    summary = profile.q_error_summary()
    lines = [
        "Per-step profile (skew over source nodes, recv over "
        "destination bytes):",
        render_step_table(profile),
    ]
    if profile.operators:
        lines += [
            "",
            "Per-operator profile (winning-plan estimates vs. "
            "interpreter actuals):",
            render_operator_table(profile),
        ]
    lines += [
        "",
        f"Q-error: n={summary.count} median={_fmt_q(summary.median)} "
        f"p95={_fmt_q(summary.p95)} max={_fmt_q(summary.max)}",
        f"-- {profile.elapsed_seconds * 1e3:.3f} ms simulated "
        f"({profile.dms_seconds * 1e3:.3f} ms data movement) on "
        f"{profile.node_count} nodes",
    ]
    return "\n".join(lines)


# -- optimizer trace tables ----------------------------------------------------


def render_group_table(trace: OptimizerTrace) -> str:
    """Per-MEMO-group enumeration statistics: interesting properties,
    expressions enumerated, options considered vs. retained."""
    headers = ["group", "interesting", "exprs", "considered", "retained",
               "kept options"]
    rows = []
    for group in sorted(trace.groups):
        g = trace.groups[group]
        rows.append([
            str(g.group),
            ",".join(g.interesting) if g.interesting else "-",
            str(len(g.enumerated)),
            str(g.options_considered),
            str(g.options_retained),
            "; ".join(f"{key}={cost:.6f}s"
                      for _desc, key, cost in g.retained) or "-",
        ])
    return render_table(headers, rows, left_columns=frozenset({1, 5}))


def render_rejected_movements_table(trace: OptimizerTrace,
                                    top_k: int = 10) -> str:
    """The top-k costliest movements the optimizer costed and walked
    away from — the §2.5 "alternatives considered" evidence."""
    headers = ["group", "movement", "ctx", "source -> target", "rows",
               "move cost", "total"]
    rows = [[
        str(m.group),
        m.movement,
        m.context,
        f"{m.source} -> {m.target}",
        f"{m.rows:.0f}",
        f"{m.move_cost:.6f}s",
        f"{m.total_cost:.6f}s",
    ] for m in trace.rejected_movements(top_k)]
    return render_table(headers, rows, left_columns=frozenset({1, 2, 3}))


def render_prune_effectiveness_table(trace: OptimizerTrace) -> str:
    """Per interesting-property key: how many options pruning discarded
    and how much worse they were than their survivors."""
    headers = ["property", "pruned", "mean delta", "max delta"]
    rows = [[
        key,
        str(count),
        f"{mean_delta:.6f}s",
        f"{max_delta:.6f}s",
    ] for key, (count, mean_delta, max_delta)
        in trace.prune_effectiveness().items()]
    return render_table(headers, rows, left_columns=frozenset({0}))


def render_optimizer_trace_report(trace: OptimizerTrace,
                                  top_k: int = 10) -> str:
    """The search-space half of ``repro why``: summary line, per-group
    table, rejected movements, prune effectiveness, hint overrides."""
    s = trace.summary()
    lines = [
        "Search space: "
        f"{s.groups} groups, {s.expressions} expressions, "
        f"{s.options_considered} options considered, "
        f"{s.options_retained} retained "
        f"({s.options_pruned} pruned), "
        f"{s.enforcers_added} DMS enforcers added, "
        f"{s.movements_considered} movements costed "
        f"({s.movements_rejected} rejected) "
        f"in {s.optimize_seconds * 1e3:.3f} ms",
        "",
        "Per-group enumeration:",
        render_group_table(trace),
    ]
    if s.movements_rejected:
        lines += [
            "",
            f"Costliest considered-but-rejected movements (top {top_k}):",
            render_rejected_movements_table(trace, top_k),
        ]
    if trace.prunes:
        lines += [
            "",
            "Prune effectiveness per interesting property:",
            render_prune_effectiveness_table(trace),
        ]
    for override in trace.hint_overrides:
        displaced = ", ".join(
            f"{desc} ({cost:.6f}s)" for desc, cost in
            zip(override.displaced, override.displaced_costs))
        lines += [
            "",
            f"Hint override: group {override.group} forced "
            f"'{override.strategy}' for table {override.table!r}, "
            f"displacing {displaced}; {override.kept} option(s) kept.",
        ]
    return "\n".join(lines)


# -- system-view reports: each table a SELECT through ``execute`` -------------

STATUS_SQL = ("SELECT status, COUNT(*) AS n FROM sys.dm_pdw_exec_requests "
              "GROUP BY status ORDER BY status")
PLAN_CACHE_SQL = ("SELECT hit_count, execution_count, shape_key "
                  "FROM sys.dm_pdw_plan_cache "
                  "ORDER BY execution_count DESC, shape_key LIMIT 10")
#: ``{slow}`` is empty, or `` AND is_slow`` for the slow requests only.
REQUESTS_SQL = ("SELECT request_id, status, cache_hit, total_steps, "
                "rows_returned, queue_ms, compile_ms, execute_ms, "
                "total_ms, command, is_slow, request_seq "
                "FROM sys.dm_pdw_exec_requests WHERE status IN "
                "('complete', 'failed', 'rejected'){slow} "
                "ORDER BY request_seq")
STEPS_SQL = ("SELECT request_id, step_index, kind, operation, status, "
             "row_count, total_bytes, elapsed_ms, wall_ms "
             "FROM sys.dm_pdw_request_steps ORDER BY request_id, step_index")
#: ``{top}`` is the number of shapes shown.
HOTTEST_SHAPES_SQL = (
    "SELECT t.query_id, t.execution_count, t.plan_count, p.plan_hash, "
    "r.mean_ms, t.max_q_error, t.example_sql, t.query_text "
    "FROM sys.query_store_query_texts t, sys.query_store_plans p, "
    "sys.query_store_runtime_stats r WHERE p.query_id = t.query_id "
    "AND p.is_current AND r.query_id = p.query_id "
    "AND r.plan_hash = p.plan_hash "
    "ORDER BY t.execution_count DESC, t.query_id LIMIT {top}")
MULTI_PLAN_SQL = (
    "SELECT p.query_id, p.plan_hash, p.is_current, p.baseline_eligible, "
    "p.schema_version, p.execution_count, p.cache_hits, r.mean_ms, "
    "r.min_ms, r.max_ms, p.bytes_moved, p.max_q_error, t.example_sql, "
    "t.query_text, p.first_seen FROM sys.query_store_plans p, "
    "sys.query_store_runtime_stats r, sys.query_store_query_texts t "
    "WHERE r.query_id = p.query_id AND r.plan_hash = p.plan_hash "
    "AND t.query_id = p.query_id AND t.plan_count > 1 "
    "ORDER BY p.query_id, p.first_seen, p.plan_hash")


def _clip_sql(sql: str, width: int = 48) -> str:
    flat = " ".join(sql.split())
    return flat if len(flat) <= width else flat[: width - 3] + "..."


def requests_report(service, slow_only: bool = False) -> str:
    """The ``repro requests`` report of ``service`` (a
    :class:`~repro.service.PdwService`): the flight recorder's stats,
    requests per status, the plan cache, the completed (or only the
    slow) requests, and step detail for every slow one."""
    enabled = service.requests.enabled
    views = [
        "", "Requests by status (sys.dm_pdw_exec_requests):",
        render_table(["status", "requests"],
                     [[status, str(n)] for status, n
                      in service.execute(STATUS_SQL).rows], frozenset({0})),
        "", "Plan cache, top 10 by executions (sys.dm_pdw_plan_cache):",
        render_table(["hits", "execs", "shape"],
                     [[str(hits), str(execs), shape] for hits, execs, shape
                      in service.execute(PLAN_CACHE_SQL).rows],
                     frozenset({2})),
    ] if enabled else []
    stats = service.requests.stats()
    finished = ", ".join(f"{status}={count}" for status, count
                         in sorted(stats["finished"].items())) or "none"
    lines = [
        f"Flight recorder: {stats['retained']}/{stats['capacity']} "
        f"retained, {stats['active']} active, {stats['slow']} slow "
        f"(threshold {stats['slow_threshold_seconds'] * 1e3:.0f} ms); "
        f"finished: {finished}",
    ] + views
    records = (service.execute(REQUESTS_SQL.format(
        slow=" AND is_slow" if slow_only else "")).rows if enabled else [])
    if not records:
        return "\n".join(lines + ["", "No completed requests recorded."])
    lines += [
        "", "Slow requests:" if slow_only else "Completed requests:",
        render_table(
            ["request", "status", "cache", "steps", "rows", "queue ms",
             "compile ms", "exec ms", "total ms", "command"],
            [[request_id, status, "hit" if hit else "miss", str(steps),
              str(rows), *(f"{ms:.2f}" for ms in timings),
              _clip_sql(command)]
             for (request_id, status, hit, steps, rows, *timings, command,
                  _slow, _seq) in records],
            frozenset({0, 1, 9})),
    ]
    steps: Dict[str, List[List[str]]] = {}
    if any(record[10] for record in records):
        for (request_id, index, kind, operation, status, rows, nbytes,
             elapsed, wall) in service.execute(STEPS_SQL).rows:
            steps.setdefault(request_id, []).append([
                str(index), kind, operation or "-", status, str(rows),
                str(nbytes), f"{elapsed:.2f}", f"{wall:.2f}"])
    for request_id, *_, total, _command, slow, _seq in records:
        if slow and request_id in steps:
            lines += [
                "", f"Step detail for {request_id} ({total:.2f} ms):",
                render_table(["step", "kind", "operation", "status",
                              "rows", "bytes", "sim ms", "wall ms"],
                             steps[request_id], frozenset({1, 2, 3})),
            ]
    return "\n".join(lines)


def render_query_store_regressions(regressions) -> str:
    """The regression verdicts: one paragraph per flagged shape, or an
    all-clear line."""
    if not regressions:
        return "No plan regressions detected."
    lines = [f"{len(regressions)} plan regression(s) detected:"]
    for reg in regressions:
        lines += [
            "",
            f"Q{reg.query_id}: plan {reg.plan_hash} runs "
            f"{reg.slowdown:.2f}x slower than prior plan "
            f"{reg.baseline_hash} "
            f"({reg.current_mean_seconds * 1e3:.3f} ms vs "
            f"{reg.baseline_mean_seconds * 1e3:.3f} ms mean, "
            f"{reg.executions} execs, schema v{reg.schema_version})",
            f"  {_clip_sql(reg.example_sql or reg.shape_key, 72)}",
        ]
    return "\n".join(lines)


def query_store_report(service, top: int = 10) -> str:
    """The ``repro querystore`` report of ``service`` (a
    :class:`~repro.service.PdwService`): the store's stats, the hottest
    shapes, every plan of each multi-plan shape, and the regression
    verdicts."""
    store = service.query_store
    stats = store.stats()
    lines = [
        f"Query store: {stats['shapes']} shapes, {stats['plans']} plans, "
        f"{stats['executions']} executions recorded "
        f"({stats['evicted_shapes']} shapes evicted, "
        f"capacity {stats['max_shapes']})",
    ]
    hottest = (service.execute(HOTTEST_SHAPES_SQL.format(top=int(top))).rows
               if store.enabled else [])
    if not hottest:
        return "\n".join(lines + ["", "No executions recorded."])
    lines += [
        "", f"Hottest shapes (top {top}):",
        render_table(
            ["query", "execs", "plans", "current", "mean ms",
             "max q-err", "query text"],
            [[f"Q{query_id}", str(execs), str(plans), plan_hash,
              f"{mean_ms:.3f}", _fmt_q(max_q), _clip_sql(example or text)]
             for (query_id, execs, plans, plan_hash, mean_ms, max_q,
                  example, text) in hottest],
            frozenset({0, 3, 6})),
    ]
    shapes: Dict[int, Tuple[str, List[List[str]]]] = {}
    for (query_id, plan_hash, current, eligible, version, execs, hits,
         *timings, moved, max_q, example, text, _first_seen) \
            in service.execute(MULTI_PLAN_SQL).rows:
        plans = shapes.setdefault(
            query_id, (_clip_sql(example or text), []))[1]
        plans.append([
            plan_hash, "*" if current else "", "y" if eligible else "n",
            str(version), str(execs), str(hits),
            *(f"{ms:.3f}" for ms in timings), str(moved), _fmt_q(max_q)])
    for query_id, (title, plans) in shapes.items():
        lines += [
            "", f"Plans for Q{query_id} ({title}):",
            render_table(["plan", "cur", "base", "sv", "execs", "hits",
                          "mean ms", "min ms", "max ms", "bytes moved",
                          "q-err"], plans, frozenset({0, 1, 2})),
        ]
    lines += ["", render_query_store_regressions(store.regressions())]
    return "\n".join(lines)
