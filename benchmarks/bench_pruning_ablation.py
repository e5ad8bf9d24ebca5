"""E9 (Figure 4 step 06.ii) — interesting-property pruning ablation.

The PDW enumerator keeps at most (#interesting properties + 1) options
per group.  We compare enumeration effort with and without the pruning
and verify optimality is preserved — pruning by interesting properties is
lossless for the final plan while shrinking the option space.
"""

from conftest import fmt_row, report

from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import PdwConfig, PdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES


def run_both(shell, serial):
    pruned_optimizer = PdwOptimizer(
        serial.memo, serial.root_group, node_count=shell.node_count,
        equivalence=serial.equivalence,
        config=PdwConfig(prune_per_property=True))
    pruned = pruned_optimizer.optimize()
    full_optimizer = PdwOptimizer(
        serial.memo, serial.root_group, node_count=shell.node_count,
        equivalence=serial.equivalence,
        config=PdwConfig(prune_per_property=False))
    full = full_optimizer.optimize()
    return pruned, full


def test_pruning_ablation(benchmark, tpch_bench):
    _, shell = tpch_bench
    optimizer = SerialOptimizer(shell)

    rows = []
    all_equal = True
    totals = [0, 0]
    for name, sql in TPCH_QUERIES.items():
        serial = optimizer.optimize_sql(sql)
        pruned, full = run_both(shell, serial)
        equal = abs(pruned.cost - full.cost) <= 1e-12 + 1e-6 * full.cost
        all_equal = all_equal and equal
        totals[0] += pruned.options_retained
        totals[1] += full.options_retained
        rows.append(fmt_row(
            name, pruned.options_retained, full.options_retained,
            f"{pruned.cost:.6f}", f"{full.cost:.6f}",
            "yes" if equal else "NO",
            widths=[8, 16, 16, 14, 14, 6]))

    serial = optimizer.optimize_sql(TPCH_QUERIES["Q5"])
    benchmark(run_both, shell, serial)

    lines = [
        "Interesting-property pruning ablation (Figure 4, step 06.ii)",
        "",
        fmt_row("query", "options (pruned)", "options (full)",
                "cost (pruned)", "cost (full)", "same",
                widths=[8, 16, 16, 14, 14, 6]),
    ] + rows + [
        "",
        f"total options retained: pruned {totals[0]} vs full {totals[1]} "
        f"({totals[0] / max(1, totals[1]) * 100:.0f}%)",
    ]
    report("E9_pruning_ablation", lines)

    assert all_equal, "pruning must preserve the optimal plan"
    assert totals[0] <= totals[1]
