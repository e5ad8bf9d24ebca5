"""E16 (extension; §3.2) — top-down vs bottom-up enumeration.

*"While our current implementation employs a bottom-up search strategy, a
top-down enumeration technique is equally applicable to the PDW QO
design."*  We implement both and verify the claim: identical optimal plan
costs on every TPC-H query, with different search effort profiles.
"""

from conftest import fmt_row, report

from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import PdwOptimizer
from repro.pdw.topdown import TopDownPdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES


def test_topdown_vs_bottomup(benchmark, tpch_bench):
    _, shell = tpch_bench
    optimizer = SerialOptimizer(shell)

    rows = []
    all_equal = True
    for name, sql in TPCH_QUERIES.items():
        serial = optimizer.optimize_sql(sql)
        bottom_up = PdwOptimizer(
            serial.memo, serial.root_group, shell.node_count,
            equivalence=serial.equivalence).optimize()
        top_down = TopDownPdwOptimizer(
            serial.memo, serial.root_group, shell.node_count,
            equivalence=serial.equivalence).optimize()
        equal = abs(bottom_up.cost - top_down.cost) <= \
            1e-12 + 1e-6 * max(bottom_up.cost, top_down.cost)
        all_equal = all_equal and equal
        rows.append(fmt_row(
            name, f"{bottom_up.cost:.8f}", f"{top_down.cost:.8f}",
            bottom_up.options_considered, top_down.options_considered,
            "yes" if equal else "NO",
            widths=[8, 14, 14, 14, 14, 6]))

    serial = optimizer.optimize_sql(TPCH_QUERIES["Q5"])
    benchmark(lambda: TopDownPdwOptimizer(
        serial.memo, serial.root_group, shell.node_count,
        equivalence=serial.equivalence).optimize())

    lines = [
        "Top-down vs bottom-up PDW enumeration (paper 3.2: "
        "'equally applicable')",
        "",
        fmt_row("query", "bottom-up", "top-down", "bu effort",
                "td effort", "same", widths=[8, 14, 14, 14, 14, 6]),
    ] + rows
    report("E16_topdown_vs_bottomup", lines)

    assert all_equal, \
        "both strategies must find equally-cheap optimal plans"
