"""E12 (Figure 4 step 06.ii) — search-space sizes and the option bound.

For every TPC-H query: serial MEMO size (groups / logical / physical
expressions), PDW options considered and retained, and verification of
the paper's per-group bound: #options ≤ #interesting properties + 1.
"""

from conftest import fmt_row, report

from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import PdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES


def test_memo_sizes(benchmark, tpch_bench):
    _, shell = tpch_bench
    optimizer = SerialOptimizer(shell)

    rows = []
    bound_ok = True
    for name, sql in TPCH_QUERIES.items():
        serial = optimizer.optimize_sql(sql)
        pdw = PdwOptimizer(serial.memo, serial.root_group,
                           node_count=shell.node_count,
                           equivalence=serial.equivalence)
        plan = pdw.optimize()
        groups = len(serial.memo.canonical_groups())
        logical = serial.memo.expression_count(logical_only=True)
        physical = serial.memo.expression_count() - logical
        for group_id, options in pdw.options.items():
            bound = len(pdw.interesting.get(group_id, ())) + 1
            if len(options) > bound:
                bound_ok = False
        rows.append(fmt_row(
            name, groups, logical, physical,
            plan.options_considered, plan.options_retained,
            widths=[8, 8, 10, 10, 12, 10]))

    benchmark(optimizer.optimize_sql, TPCH_QUERIES["Q5"])

    lines = [
        "Search-space sizes across the TPC-H suite",
        "",
        fmt_row("query", "groups", "logical", "physical",
                "considered", "retained", widths=[8, 8, 10, 10, 12, 10]),
    ] + rows + [
        "",
        "per-group bound (options <= interesting properties + 1): "
        + ("holds for every group of every query" if bound_ok
           else "VIOLATED"),
    ]
    report("E12_memo_sizes", lines)

    assert bound_ok
