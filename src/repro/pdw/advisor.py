"""Automated partitioning design (the paper's reference [10]).

The PDW paper cites Nehme & Bruno, *"Automated partitioning design in
parallel database systems"* (SIGMOD 2011) — by the same team, built
directly on this optimizer: candidate table distributions are evaluated
by compiling a workload in *what-if* mode and reading the DMS cost the
PDW optimizer reports.

:class:`PartitioningAdvisor` implements that loop:

1. extract candidate distribution columns from the workload (columns in
   equality-join predicates and group-by keys — the same "interesting
   columns" of §3.2, observed per base table);
2. add REPLICATED as a candidate for every table, charged a storage/
   maintenance penalty so replication must earn its keep;
3. greedy search: repeatedly apply the single table-distribution change
   that most reduces total workload cost, until a fixed point.

The advisor never touches the input shell database; every what-if
evaluation runs against a re-distributed copy that shares the column
statistics (re-partitioning does not change global statistics — another
convenience of the paper's shell-database design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
)
from repro.catalog.schema import (
    Catalog,
    REPLICATED,
    TableDef,
    TableDistribution,
    hash_distributed,
)
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import PdwOptimizerError
from repro.optimizer.binder import Binder
from repro.optimizer.normalize import normalize
from repro.pdw.engine import PdwEngine
from repro.sql.parser import parse_query

Design = Dict[str, TableDistribution]


@dataclass
class WorkloadQuery:
    """One workload entry: SQL plus a relative execution frequency."""

    sql: str
    weight: float = 1.0


@dataclass
class DesignEvaluation:
    """Cost of one candidate design on the workload."""

    design: Design
    query_costs: List[float]
    replication_penalty: float

    @property
    def total_cost(self) -> float:
        return sum(self.query_costs) + self.replication_penalty


@dataclass
class AdvisorResult:
    """The recommendation plus the search trace."""

    recommended: Design
    initial: DesignEvaluation
    final: DesignEvaluation
    steps: List[Tuple[str, TableDistribution, float]] = field(
        default_factory=list)
    designs_evaluated: int = 0

    @property
    def improvement(self) -> float:
        if self.final.total_cost <= 0:
            return float("inf")
        return self.initial.total_cost / self.final.total_cost

    def describe(self) -> str:
        lines = [
            f"evaluated {self.designs_evaluated} candidate designs",
            f"initial workload cost: {self.initial.total_cost:.6f}s",
            f"final workload cost:   {self.final.total_cost:.6f}s "
            f"({self.improvement:.2f}x better)",
            "recommended design:",
        ]
        for table, dist in sorted(self.recommended.items()):
            lines.append(f"  {table:<12} {dist}")
        return "\n".join(lines)


class PartitioningAdvisor:
    """Greedy what-if search over table distribution designs."""

    def __init__(self, shell: ShellDatabase,
                 workload: Sequence[WorkloadQuery],
                 replication_penalty_per_byte: float = 1.0e-9,
                 max_rounds: int = 8):
        if not workload:
            raise PdwOptimizerError("advisor needs a non-empty workload")
        self.shell = shell
        self.workload = list(workload)
        self.replication_penalty_per_byte = replication_penalty_per_byte
        self.max_rounds = max_rounds

    # -- candidate generation ---------------------------------------------------

    def candidate_distributions(self) -> Dict[str, List[TableDistribution]]:
        """Candidate placements per table: hash on each interesting
        column observed in the workload, plus REPLICATED."""
        interesting = self._interesting_columns()
        candidates: Dict[str, List[TableDistribution]] = {}
        for table in self.shell.tables():
            if table.is_temp:
                continue
            options: List[TableDistribution] = [REPLICATED]
            for column in sorted(interesting.get(table.name.lower(), ())):
                options.append(hash_distributed(column))
            current = table.distribution
            if current not in options:
                options.append(current)
            candidates[table.name.lower()] = options
        return candidates

    def _interesting_columns(self) -> Dict[str, Set[str]]:
        result: Dict[str, Set[str]] = {}
        binder_catalog = self.shell.catalog
        for entry in self.workload:
            query = normalize(
                Binder(binder_catalog).bind(parse_query(entry.sql)))
            origins = _column_origins(query.root)
            for op in _walk(query.root):
                if isinstance(op, LogicalJoin) and op.predicate is not None:
                    left_ids = frozenset(
                        v.id for v in op.left.output_columns())
                    right_ids = frozenset(
                        v.id for v in op.right.output_columns())
                    for left_var, right_var in ex.equi_join_pairs(
                            op.predicate, left_ids, right_ids):
                        for var in (left_var, right_var):
                            origin = origins.get(var.id)
                            if origin is not None:
                                result.setdefault(origin[0], set()).add(
                                    origin[1])
                if isinstance(op, LogicalGroupBy):
                    for key in op.keys:
                        origin = origins.get(key.id)
                        if origin is not None:
                            result.setdefault(origin[0], set()).add(
                                origin[1])
        return result

    # -- what-if evaluation --------------------------------------------------------

    def current_design(self) -> Design:
        return {
            table.name.lower(): table.distribution
            for table in self.shell.tables() if not table.is_temp
        }

    def evaluate(self, design: Design) -> DesignEvaluation:
        """Compile the workload against a re-distributed shell copy."""
        shell = self._shell_for(design)
        engine = PdwEngine(shell)
        costs = [
            engine.compile(entry.sql).plan_cost
            * entry.weight
            for entry in self.workload
        ]
        penalty = 0.0
        for table_name, distribution in design.items():
            if distribution == REPLICATED:
                table = self.shell.table(table_name)
                penalty += (self.replication_penalty_per_byte
                            * table.row_count
                            * self.shell.avg_row_width(table_name)
                            * max(1, self.shell.node_count - 1))
        return DesignEvaluation(dict(design), costs, penalty)

    def _shell_for(self, design: Design) -> ShellDatabase:
        tables = []
        for table in self.shell.tables():
            if table.is_temp:
                continue
            distribution = design.get(table.name.lower(),
                                      table.distribution)
            tables.append(TableDef(
                table.name,
                list(table.columns),
                distribution,
                row_count=table.row_count,
                primary_key=table.primary_key,
            ))
        shell = ShellDatabase(Catalog(tables), self.shell.node_count)
        for table in tables:
            for column in table.columns:
                if self.shell.has_column_stats(table.name, column.name):
                    shell.set_column_stats(
                        table.name, column.name,
                        self.shell.column_stats(table.name, column.name))
        return shell

    # -- greedy search ----------------------------------------------------------------

    def recommend(self) -> AdvisorResult:
        candidates = self.candidate_distributions()
        design = self.current_design()
        initial = self.evaluate(design)
        best = initial
        evaluated = 1
        steps: List[Tuple[str, TableDistribution, float]] = []

        for _ in range(self.max_rounds):
            round_best: Optional[DesignEvaluation] = None
            round_change: Optional[Tuple[str, TableDistribution]] = None
            for table_name, options in candidates.items():
                for option in options:
                    if design[table_name] == option:
                        continue
                    trial = dict(design)
                    trial[table_name] = option
                    evaluation = self.evaluate(trial)
                    evaluated += 1
                    if (round_best is None
                            or evaluation.total_cost
                            < round_best.total_cost):
                        round_best = evaluation
                        round_change = (table_name, option)
            if round_best is None or \
                    round_best.total_cost >= best.total_cost - 1e-15:
                break
            design = round_best.design
            best = round_best
            steps.append((round_change[0], round_change[1],
                          round_best.total_cost))

        return AdvisorResult(
            recommended=design,
            initial=initial,
            final=best,
            steps=steps,
            designs_evaluated=evaluated,
        )


def _walk(op: LogicalOp):
    yield op
    for child in op.children:
        yield from _walk(child)


def _column_origins(root: LogicalOp) -> Dict[int, Tuple[str, str]]:
    origins: Dict[int, Tuple[str, str]] = {}
    for op in _walk(root):
        if isinstance(op, LogicalGet):
            for var in op.columns:
                origins[var.id] = (op.table.name.lower(),
                                   var.name.lower())
    return origins
