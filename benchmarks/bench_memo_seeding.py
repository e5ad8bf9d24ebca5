"""E10 (§3.1) — MEMO seeding under exploration timeout.

*"For very large search spaces, the SQL Server optimizer uses a timeout
mechanism ... In those cases the initial execution alternatives placed in
the MEMO have a big influence on the space considered.  For PDW
optimization, we 'seed' the MEMO with execution plans that consider
distribution information of tables, for collocated operations."*

Scenario: a small driver table G joins a collocated key table F1 (tiny,
selective intermediate) and a non-collocated low-selectivity table F2
(many-to-many, exploding intermediate).  Under the exploration timeout
(greedy fallback) the cardinality-only order starts with the *smaller*
F2 and pays for moving the large F1 afterwards; the collocation-aware
seed joins F1 first for free and only re-shuffles the tiny intermediate.
"""

from conftest import fmt_row, report

from repro.catalog.schema import Catalog, Column, TableDef, hash_distributed
from repro.catalog.shell_db import ShellDatabase
from repro.catalog.statistics import ColumnStats
from repro.common.types import INTEGER
from repro.optimizer.search import OptimizerConfig, SerialOptimizer
from repro.pdw.enumerator import PdwOptimizer

NODES = 8


def make_shell():
    catalog = Catalog([
        TableDef("g",
                 [Column("g_key", INTEGER), Column("g_tag", INTEGER)],
                 hash_distributed("g_key"), row_count=20_000),
        TableDef("f1",
                 [Column("a_key", INTEGER), Column("a_val", INTEGER)],
                 hash_distributed("a_key"), row_count=850_000,
                 primary_key=("a_key",)),
        TableDef("f2",
                 [Column("b_tag", INTEGER), Column("b_val", INTEGER)],
                 hash_distributed("b_tag"), row_count=800_000),
    ])
    shell = ShellDatabase(catalog, node_count=NODES)

    def put(table, column, rows, distinct):
        shell.set_column_stats(
            table, column, ColumnStats(rows, 0, distinct, 1, distinct, 4))

    put("g", "g_key", 20e3, 20e3)
    put("g", "g_tag", 20e3, 50)       # low-cardinality tag
    put("f1", "a_key", 850e3, 850e3)  # unique key, collocated with g_key
    put("f1", "a_val", 850e3, 1000)
    put("f2", "b_tag", 800e3, 50)     # many-to-many tag join
    put("f2", "b_val", 800e3, 1000)
    return shell


# The FROM order matters: the normalized input tree (g ⋈ f2 first) is
# always seeded into the MEMO, so the timeout fallback starts from the
# *bad* order unless the collocation seed adds the good one.
SQL = ("SELECT a_val, b_val FROM g, f2, f1 "
       "WHERE g_key = a_key AND g_tag = b_tag")


def optimize(shell, seed):
    config = OptimizerConfig(exhaustive_join_limit=2,
                             seed_collocated_joins=seed)
    serial = SerialOptimizer(shell, config).optimize_sql(SQL)
    plan = PdwOptimizer(serial.memo, serial.root_group,
                        node_count=NODES,
                        equivalence=serial.equivalence).optimize()
    return plan


def test_memo_seeding(benchmark):
    shell = make_shell()
    seeded = optimize(shell, seed=True)
    unseeded = optimize(shell, seed=False)

    benchmark(optimize, shell, True)

    improvement = (unseeded.cost / seeded.cost
                   if seeded.cost > 0 else float("inf"))
    lines = [
        "MEMO seeding under timeout (paper 3.1): greedy fallback "
        "(exhaustive limit 2, i.e. no exhaustive 3-way exploration)",
        "",
        fmt_row("configuration", "plan cost (s)", widths=[34, 16]),
        fmt_row("greedy, cardinality only", f"{unseeded.cost:.6f}",
                widths=[34, 16]),
        fmt_row("greedy + collocation seed", f"{seeded.cost:.6f}",
                widths=[34, 16]),
        "",
        f"seeding improvement: {improvement:.2f}x",
        "",
        "Seeded plan:",
        seeded.root.tree_string(),
        "",
        "Unseeded plan:",
        unseeded.root.tree_string(),
    ]
    report("E10_memo_seeding", lines)

    assert seeded.cost <= unseeded.cost * (1 + 1e-9)
    assert improvement > 1.5, "collocation seeding must pay off here"
