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

``render_requests_report`` produces the ``repro requests`` output: the
flight recorder's per-request summary table (status, cache verdict,
phase timings) plus a per-step actuals table for slow requests.

``render_query_store_report`` produces the ``repro querystore`` output:
the per-shape history table, the per-plan runtime-stats table, and the
plan-regression verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.opt_trace import OptimizerTrace
from repro.obs.profiler import QueryProfile, StepProfile
from repro.obs.requests import RequestRecord, RequestRegistry

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
    "render_requests_table",
    "render_request_steps_table",
    "render_requests_report",
    "render_query_store_table",
    "render_query_store_plans_table",
    "render_query_store_regressions",
    "render_query_store_report",
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
        str(s.index),
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
        str(s.index),
        s.operation,
        f"{s.estimated_rows:.0f}",
        str(s.actual_rows),
        _node_vector(s.source_rows),
        f"{s.source_skew.cov:.3f}",
        f"{s.source_skew.imbalance:.2f}",
        f"{s.receive_skew.cov:.3f}" if s.kind == "DMS" else "-",
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
        f"{op.skew.cov:.3f}",
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


# -- request flight-recorder tables --------------------------------------------


def _clip_sql(sql: str, width: int = 48) -> str:
    flat = " ".join(sql.split())
    return flat if len(flat) <= width else flat[: width - 3] + "..."


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def render_requests_table(records: List[RequestRecord]) -> str:
    """One row per request: the ``sys.dm_pdw_exec_requests`` view in
    terminal form."""
    headers = ["request", "status", "cache", "steps", "rows",
               "queue ms", "compile ms", "exec ms", "total ms", "command"]
    rows = [[
        r.request_id,
        r.status,
        "hit" if r.cache_hit else "miss",
        str(r.step_count),
        str(r.rows_returned),
        _fmt_ms(r.queue_seconds),
        _fmt_ms(r.compile_seconds),
        _fmt_ms(r.execute_seconds),
        _fmt_ms(r.total_seconds),
        _clip_sql(r.sql),
    ] for r in records]
    return render_table(headers, rows, left_columns=frozenset({0, 1, 9}))


def render_request_steps_table(record: RequestRecord) -> str:
    """Per-step actuals for one request: the
    ``sys.dm_pdw_request_steps`` view in terminal form."""
    headers = ["step", "kind", "operation", "status", "rows", "bytes",
               "sim ms", "wall ms"]
    rows = [[
        str(s.index),
        s.kind,
        s.operation or "-",
        s.status,
        str(s.rows_moved),
        str(s.bytes_moved),
        _fmt_ms(s.elapsed_seconds),
        _fmt_ms(s.wall_seconds),
    ] for s in record.steps]
    return render_table(headers, rows, left_columns=frozenset({1, 2, 3}))


def render_requests_report(registry: RequestRegistry,
                           slow_only: bool = False) -> str:
    """The ``repro requests`` output: recorder stats, the per-request
    table, and step-level detail for every slow request."""
    stats = registry.stats()
    records = registry.slow() if slow_only else registry.completed()
    finished = ", ".join(f"{status}={count}" for status, count
                         in sorted(stats["finished"].items())) or "none"
    lines = [
        f"Flight recorder: {stats['retained']}/{stats['capacity']} "
        f"retained, {stats['active']} active, {stats['slow']} slow "
        f"(threshold {stats['slow_threshold_seconds'] * 1e3:.0f} ms); "
        f"finished: {finished}",
    ]
    if not records:
        lines += ["", "No completed requests recorded."]
        return "\n".join(lines)
    lines += [
        "",
        "Slow requests:" if slow_only else "Completed requests:",
        render_requests_table(records),
    ]
    threshold = stats["slow_threshold_seconds"]
    for record in records:
        if record.steps and record.is_slow(threshold):
            lines += [
                "",
                f"Step detail for {record.request_id} "
                f"({record.total_seconds * 1e3:.2f} ms):",
                render_request_steps_table(record),
            ]
    return "\n".join(lines)


# -- query-store tables --------------------------------------------------------


def render_query_store_table(shapes, top: int = 10) -> str:
    """One row per retained shape (hottest first): the
    ``sys.query_store_query_texts`` view in terminal form."""
    ranked = sorted(shapes, key=lambda s: s.execution_count,
                    reverse=True)[:top]
    headers = ["query", "execs", "plans", "current", "mean ms",
               "max q-err", "query text"]
    rows = []
    for shape in ranked:
        current = shape.current_plan()
        rows.append([
            f"Q{shape.query_id}",
            str(shape.execution_count),
            str(len(shape.plans)),
            current.plan_hash if current else "-",
            f"{current.mean_elapsed_seconds * 1e3:.3f}"
            if current else "-",
            _fmt_q(max((p.max_q_error for p in shape.plans.values()),
                       default=1.0)),
            _clip_sql(shape.example_sql or shape.shape_key),
        ])
    return render_table(headers, rows, left_columns=frozenset({0, 3, 6}))


def render_query_store_plans_table(shape) -> str:
    """One row per plan of one shape: the ``sys.query_store_plans`` +
    ``sys.query_store_runtime_stats`` join in terminal form."""
    current = shape.current_plan()
    headers = ["plan", "cur", "base", "sv", "execs", "hits",
               "mean ms", "min ms", "max ms", "bytes moved", "q-err"]
    rows = [[
        plan.plan_hash,
        "*" if plan is current else "",
        "y" if plan.baseline_eligible else "n",
        str(plan.schema_version),
        str(plan.execution_count),
        str(plan.cache_hits),
        f"{plan.mean_elapsed_seconds * 1e3:.3f}",
        f"{plan.elapsed_seconds_min * 1e3:.3f}",
        f"{plan.elapsed_seconds_max * 1e3:.3f}",
        str(plan.bytes_moved_total),
        _fmt_q(plan.max_q_error),
    ] for plan in shape.plans.values()]
    return render_table(headers, rows, left_columns=frozenset({0, 1, 2}))


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


def render_query_store_report(store, top: int = 10) -> str:
    """The ``repro querystore`` output: store stats, the hottest-shapes
    table, per-plan detail for every multi-plan shape, and the
    regression verdicts."""
    stats = store.stats()
    lines = [
        f"Query store: {stats['shapes']} shapes, {stats['plans']} plans, "
        f"{stats['executions']} executions recorded "
        f"({stats['evicted_shapes']} shapes evicted, "
        f"capacity {stats['max_shapes']})",
    ]
    shapes = store.shapes()
    if not shapes:
        lines += ["", "No executions recorded."]
        return "\n".join(lines)
    lines += [
        "",
        f"Hottest shapes (top {top}):",
        render_query_store_table(shapes, top),
    ]
    for shape in shapes:
        if len(shape.plans) > 1:
            lines += [
                "",
                f"Plans for Q{shape.query_id} "
                f"({_clip_sql(shape.example_sql or shape.shape_key)}):",
                render_query_store_plans_table(shape),
            ]
    lines += ["", render_query_store_regressions(store.regressions())]
    return "\n".join(lines)
