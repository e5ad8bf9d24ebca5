"""Logical-plan interpreter: the reference compute-node "DBMS instance".

Each DSQL step ships a SQL statement to the nodes; the node parses and
binds it against its local catalog and runs it against its local table
fragments.  No local optimization is done — a deliberate simplification
(the paper's cost model does not charge for local relational work either),
but joins do use hashing on equality predicates so execution stays
polynomial.

Rows travel as ``dict`` environments mapping column-variable id → value,
and every scalar expression is evaluated per row by the recursive
:func:`repro.algebra.evaluator.evaluate`.  This is the oracle
(``executor="reference"``): the production executor
(:mod:`repro.vector.np_executor`) is held to its rows, row order,
counters and observer events on the full TPC-H suite and on generated
data.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra import expressions as ex
from repro.algebra.evaluator import evaluate
from repro.algebra.logical import (
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    Query,
)
from repro.catalog.statistics import sort_key
from repro.common.errors import ExecutionError

Env = Dict[int, object]


class InterpreterStats:
    """Row-processing counters (feed the simulated relational time).

    ``wall_seconds`` is the *measured* wall clock spent in
    ``run_query`` (or ``run_columns``).  An interpreter (and its stats
    object) is confined to the one thread executing its step — over a
    whole node group under the production executor, over one node
    under the oracle — so the counters need no locks.
    """

    def __init__(self):
        self.rows_scanned = 0
        self.rows_processed = 0
        self.wall_seconds = 0.0


class PlanInterpreter:
    """Evaluates a bound logical tree against a table-name → rows map.

    ``observer`` (a :class:`repro.obs.profiler.OperatorObserver`, or any
    object with ``record(op, rows_out)``) receives each operator's output
    row count as it completes, in postorder.  The default ``None`` costs
    one identity test per *operator* — never per row.
    """

    def __init__(self, tables: Dict[str, List[Tuple]],
                 stats: Optional[InterpreterStats] = None,
                 observer=None):
        self.tables = {name.lower(): rows for name, rows in tables.items()}
        self.stats = stats or InterpreterStats()
        self.observer = observer

    @staticmethod
    def _predicate_fn(predicate: Optional[ex.ScalarExpr]
                      ) -> Optional[Callable[[Env], bool]]:
        """``env -> bool`` (NULL counts as False); None for no predicate."""
        if predicate is None:
            return None
        return lambda env: evaluate(predicate, env) is True

    # -- entry points -------------------------------------------------------------

    def run_query(self, query: Query) -> List[Tuple]:
        """Execute a bound query, honoring ORDER BY and TOP."""
        started = time.perf_counter()
        try:
            return self._run_query(query)
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _run_query(self, query: Query) -> List[Tuple]:
        envs = self.run(query.root)
        if query.order_by:
            for var, ascending in reversed(query.order_by):
                envs.sort(key=lambda env: sort_key(env.get(var.id)),
                          reverse=not ascending)
        if query.limit is not None:
            envs = envs[:query.limit]
        outputs = query.output_columns()
        return [tuple(env.get(var.id) for var in outputs) for env in envs]

    def run(self, op: LogicalOp) -> List[Env]:
        envs = self._dispatch(op)
        if self.observer is not None:
            self.observer.record(op, len(envs))
        return envs

    def _dispatch(self, op: LogicalOp) -> List[Env]:
        if isinstance(op, LogicalGet):
            return self._run_get(op)
        if isinstance(op, LogicalSelect):
            return self._run_select(op)
        if isinstance(op, LogicalProject):
            return self._run_project(op)
        if isinstance(op, LogicalJoin):
            return self._run_join(op)
        if isinstance(op, LogicalGroupBy):
            return self._run_group_by(op)
        if isinstance(op, LogicalUnionAll):
            return self._run_union(op)
        raise ExecutionError(f"cannot interpret {type(op).__name__}")

    # -- operators ------------------------------------------------------------------

    def _run_get(self, op: LogicalGet) -> List[Env]:
        name = op.table.name.lower()
        if name not in self.tables:
            raise ExecutionError(f"table {op.table.name!r} not on this node")
        rows = self.tables[name]
        indexes = [op.table.column_index(var.name) for var in op.columns]
        self.stats.rows_scanned += len(rows)
        ids = [var.id for var in op.columns]
        return [
            {var_id: row[index] for var_id, index in zip(ids, indexes)}
            for row in rows
        ]

    def _run_select(self, op: LogicalSelect) -> List[Env]:
        envs = self.run(op.child)
        self.stats.rows_processed += len(envs)
        accept = self._predicate_fn(op.predicate)
        return [env for env in envs if accept(env)]

    def _run_project(self, op: LogicalProject) -> List[Env]:
        envs = self.run(op.child)
        self.stats.rows_processed += len(envs)
        return [
            {var.id: evaluate(expr, env) for var, expr in op.outputs}
            for env in envs
        ]

    def _run_join(self, op: LogicalJoin) -> List[Env]:
        left = self.run(op.left)
        right = self.run(op.right)
        self.stats.rows_processed += len(left) + len(right)
        left_ids = frozenset(
            var.id for var in op.left.output_columns())
        right_ids = frozenset(
            var.id for var in op.right.output_columns())
        pairs = ex.equi_join_pairs(op.predicate, left_ids, right_ids)
        accept = self._predicate_fn(op.predicate)
        if pairs:
            return self._hash_join(op, left, right, pairs, accept)
        return self._loop_join(op, left, right, accept)

    def _hash_join(self, op: LogicalJoin, left: List[Env],
                   right: List[Env], pairs, accept) -> List[Env]:
        left_keys = [lv.id for lv, _ in pairs]
        right_keys = [rv.id for _, rv in pairs]
        table: Dict[Tuple, List[Env]] = {}
        for env in right:
            key = tuple(env.get(k) for k in right_keys)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(env)

        out: List[Env] = []
        for env in left:
            key = tuple(env.get(k) for k in left_keys)
            matches = table.get(key, ()) if not any(
                v is None for v in key) else ()
            matched = False
            for right_env in matches:
                combined = {**env, **right_env}
                if accept is None or accept(combined):
                    matched = True
                    if op.kind in (JoinKind.INNER, JoinKind.LEFT,
                                   JoinKind.CROSS):
                        out.append(combined)
                    elif op.kind is JoinKind.SEMI:
                        out.append(dict(env))
                        break
                    elif op.kind is JoinKind.ANTI:
                        break
            if not matched:
                if op.kind is JoinKind.LEFT:
                    padded = dict(env)
                    for var in op.right.output_columns():
                        padded[var.id] = None
                    out.append(padded)
                elif op.kind is JoinKind.ANTI:
                    out.append(dict(env))
        return out

    def _loop_join(self, op: LogicalJoin, left: List[Env],
                   right: List[Env], accept) -> List[Env]:
        out: List[Env] = []
        for env in left:
            matched = False
            for right_env in right:
                combined = {**env, **right_env}
                if accept is None or accept(combined):
                    matched = True
                    if op.kind in (JoinKind.INNER, JoinKind.LEFT,
                                   JoinKind.CROSS):
                        out.append(combined)
                    elif op.kind is JoinKind.SEMI:
                        out.append(dict(env))
                        break
                    elif op.kind is JoinKind.ANTI:
                        break
            if not matched:
                if op.kind is JoinKind.LEFT:
                    padded = dict(env)
                    for var in op.right.output_columns():
                        padded[var.id] = None
                    out.append(padded)
                elif op.kind is JoinKind.ANTI:
                    out.append(dict(env))
        return out

    def _run_group_by(self, op: LogicalGroupBy) -> List[Env]:
        envs = self.run(op.child)
        self.stats.rows_processed += len(envs)
        key_ids = [k.id for k in op.keys]
        groups: Dict[Tuple, List[Env]] = {}
        order: List[Tuple] = []
        for env in envs:
            key = tuple(_group_key(env.get(k)) for k in key_ids)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)

        if not op.keys and not groups:
            # Scalar aggregation over an empty input: one row of neutral
            # aggregate values (SQL semantics).
            return [{
                var.id: (0 if agg.func == "COUNT" else None)
                for var, agg in op.aggregates
            }]

        out: List[Env] = []
        for key in order:
            members = groups[key]
            env: Env = {
                k: members[0].get(k) for k in key_ids
            }
            for var, agg in op.aggregates:
                env[var.id] = _aggregate(agg, members)
            out.append(env)
        return out

    def _run_union(self, op: LogicalUnionAll) -> List[Env]:
        out: List[Env] = []
        for child, branch in zip(op.children, op.branch_columns):
            child_envs = self.run(child)
            for env in child_envs:
                out.append({
                    out_var.id: env.get(src_var.id)
                    for out_var, src_var in zip(op.outputs, branch)
                })
        return out


def _group_key(value):
    # bool is an int subclass; keep True distinct from 1 for grouping.
    if isinstance(value, bool):
        return ("b", value)
    return value


def _distinct(values: List) -> List:
    """First occurrence of each distinct value (``==`` semantics).

    Hash-based for hashable values; falls back to the linear scan only
    when some value is unhashable, preserving exact ``==`` dedup.
    """
    try:
        seen = set()
        unique = []
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        return unique
    except TypeError:
        unique = []
        for value in values:
            if value not in unique:
                unique.append(value)
        return unique


def _aggregate(agg: ex.AggExpr, members: Sequence[Env]):
    if agg.func == "COUNT" and agg.arg is None:
        return len(members)
    values = [evaluate(agg.arg, env) for env in members]
    values = [v for v in values if v is not None]
    if agg.distinct:
        values = _distinct(values)
    if agg.func == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.func == "SUM":
        total = values[0]
        for value in values[1:]:
            total += value
        return total
    if agg.func == "MIN":
        return min(values, key=sort_key)
    if agg.func == "MAX":
        return max(values, key=sort_key)
    raise ExecutionError(f"unsupported aggregate {agg.func}")
