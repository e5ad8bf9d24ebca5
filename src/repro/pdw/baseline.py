"""Baseline: parallelize the best *serial* plan (paper §2.5).

*"Unlike earlier approaches that simply parallelize the best serial plan,
our optimizer considers a rich space of execution alternatives."*  To
quantify that claim (benchmarks E3/E8) we implement the strawman: take the
serial optimizer's winning physical plan, freeze its shape (join order,
aggregation placement), and let the PDW machinery insert only the data
movements required to make each operator legal.

Implementation: the serial physical plan is mapped back to a logical tree,
memoized into a *fresh* MEMO with no exploration (each group holds exactly
one expression), and handed to the standard :class:`PdwOptimizer` — which
then has no join-order freedom, only movement choices.  Aggregations keep
their local/global freedom (real systems could always split an agg without
changing "the plan"), which makes the baseline as strong as possible.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra import physical as phys
from repro.algebra.logical import (
    AggPhase,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
)
from repro.algebra.physical import PlanNode
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import PdwOptimizerError
from repro.obs.opt_trace import OptimizerTrace
from repro.optimizer.cardinality import StatsContext
from repro.optimizer.memo import Memo
from repro.optimizer.search import OptimizationResult, SerialOptimizer
from repro.pdw.enumerator import PdwConfig, PdwOptimizer, PdwPlan


def physical_to_logical(node: PlanNode) -> LogicalOp:
    """Map a serial physical plan back to logical operators."""
    op = node.op
    children = [physical_to_logical(child) for child in node.children]

    if isinstance(op, phys.TableScan):
        get = LogicalGet(op.table, op.columns, op.alias)
        return get
    if isinstance(op, phys.Filter):
        return LogicalSelect(children[0], op.predicate)
    if isinstance(op, phys.ComputeScalar):
        return LogicalProject(children[0], op.outputs)
    if isinstance(op, (phys.HashJoin, phys.MergeJoin, phys.NestedLoopJoin)):
        # Physical hash joins may have swapped probe/build children; the
        # logical join is insensitive to the order for INNER, and other
        # kinds were never swapped.
        return LogicalJoin(op.kind, children[0], children[1], op.predicate)
    if isinstance(op, (phys.HashAggregate, phys.StreamAggregate)):
        return LogicalGroupBy(children[0], op.keys, op.aggregates,
                              AggPhase(op.phase))
    raise PdwOptimizerError(
        f"cannot lower {type(op).__name__} back to logical algebra")


def parallelize_serial_plan(serial: OptimizationResult,
                            shell: ShellDatabase,
                            config: Optional[PdwConfig] = None,
                            opt_trace: Optional[OptimizerTrace] = None
                            ) -> PdwPlan:
    """Cost-optimally insert data movement into the best serial plan.

    The plan *shape* is fixed; only movement placement is optimized —
    which is exactly what "parallelizing the best serial plan" can do.
    ``opt_trace`` records the (movement-only) enumeration the same way it
    does for the full optimizer.
    """
    logical_root = physical_to_logical(serial.best_serial_plan)

    stats = StatsContext(shell)
    stats.register_tree(logical_root)
    # Derived columns (aggregates, computed projections) need widths.
    for var_id, width in serial.stats.var_widths.items():
        stats.var_widths.setdefault(var_id, width)
    for var_id, origin in serial.stats.var_origins.items():
        stats.var_origins.setdefault(var_id, origin)

    memo = Memo(stats)
    root_group = memo.insert_tree(logical_root)
    # Add local/global splits (no join reordering): the strongest version
    # of the baseline.
    SerialOptimizer(shell)._explore_aggregate_splits(memo)

    optimizer = PdwOptimizer(memo, root_group,
                             node_count=shell.node_count,
                             equivalence=serial.equivalence,
                             config=config,
                             opt_trace=opt_trace)
    return optimizer.optimize()
