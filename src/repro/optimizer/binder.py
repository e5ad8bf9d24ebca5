"""The algebrizer: AST → bound logical algebra.

This mirrors the SQL Server compilation front end the paper reuses (§2.5
step 2): name resolution against the shell database, typing, and the
normalizing transformations that happen before plan exploration —
in particular **subquery unnesting**, which the Q20 walkthrough (§4)
depends on:

* ``x IN (SELECT ...)`` / ``EXISTS`` become **semi joins** (anti joins when
  negated), with correlated conjuncts hoisted into the join predicate;
* correlated **scalar aggregate subqueries** are decorrelated into a
  group-by on the correlation columns joined back to the outer query
  ("subquery into join transformation" in the paper's words).

The binder produces a :class:`repro.algebra.logical.Query`.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra import expressions as ex
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
from repro.catalog.schema import Catalog
from repro.common.errors import BindError
from repro.common.types import (
    BOOLEAN, DATE, DOUBLE, INTEGER, SqlType, TypeKind, char, decimal, varchar,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_query


class VarFactory:
    """Allocates query-unique column variable ids."""

    def __init__(self):
        self._next = 1

    def new_var(self, name: str, sql_type: SqlType) -> ex.ColumnVar:
        var = ex.ColumnVar(self._next, name, sql_type)
        self._next += 1
        return var


class Scope:
    """One level of name resolution: binding name → columns.

    ``parent`` links to the enclosing query's scope for correlated
    subqueries; lookups that fall through to the parent are recorded so the
    caller can detect correlation.
    """

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._bindings: Dict[str, List[Tuple[str, ex.ColumnVar]]] = {}
        self.outer_references: List[ex.ColumnVar] = []

    def add_binding(self, name: str, columns: Sequence[Tuple[str, ex.ColumnVar]]):
        key = name.lower()
        if key in self._bindings:
            raise BindError(f"duplicate table alias {name!r}")
        self._bindings[key] = list(columns)

    def resolve(self, column: str, qualifier: Optional[str]) -> ex.ColumnVar:
        var = self._resolve_local(column, qualifier)
        if var is not None:
            return var
        if self.parent is not None:
            outer = self.parent.resolve(column, qualifier)
            self.outer_references.append(outer)
            return outer
        where = f"{qualifier}.{column}" if qualifier else column
        raise BindError(f"unknown column {where!r}")

    def _resolve_local(self, column: str,
                       qualifier: Optional[str]) -> Optional[ex.ColumnVar]:
        column_key = column.lower()
        if qualifier is not None:
            binding = self._bindings.get(qualifier.lower())
            if binding is None:
                return None
            for name, var in binding:
                if name.lower() == column_key:
                    return var
            return None
        matches = [
            var
            for binding in self._bindings.values()
            for name, var in binding
            if name.lower() == column_key
        ]
        if len(matches) > 1:
            raise BindError(f"ambiguous column {column!r}")
        return matches[0] if matches else None

    def all_columns(self) -> List[Tuple[str, ex.ColumnVar]]:
        return [pair for binding in self._bindings.values() for pair in binding]

    def binding_columns(self, name: str) -> List[Tuple[str, ex.ColumnVar]]:
        binding = self._bindings.get(name.lower())
        if binding is None:
            raise BindError(f"unknown table alias {name!r}")
        return list(binding)


def parse_type_name(type_name: str) -> SqlType:
    """Turn a CAST/CREATE type spelling into a :class:`SqlType`."""
    text = type_name.upper().strip()
    base, _, args_text = text.partition("(")
    base = base.strip()
    args = []
    if args_text:
        args = [int(a) for a in args_text.rstrip(")").split(",")]
    if base in ("INTEGER", "INT"):
        return INTEGER
    if base == "BIGINT":
        return SqlType(TypeKind.BIGINT)
    if base in ("DOUBLE", "DOUBLE PRECISION"):
        return DOUBLE
    if base == "DATE":
        return DATE
    if base == "BOOLEAN":
        return BOOLEAN
    if base == "VARCHAR":
        return varchar(args[0] if args else 255)
    if base == "CHAR":
        return char(args[0] if args else 1)
    if base == "DECIMAL":
        if len(args) >= 2:
            return decimal(args[0], args[1])
        return decimal(args[0] if args else 15, 0)
    raise BindError(f"unsupported type {type_name!r}")


def _parse_date_literal(text: str) -> datetime.date:
    date_part = text.split(" ")[0]
    try:
        return datetime.date.fromisoformat(date_part)
    except ValueError as exc:
        raise BindError(f"bad date literal {text!r}") from exc


def bind_literal(value: object, is_date: bool = False) -> ex.Constant:
    """The constant a literal binds to: the binder's conversion, and a
    prepared step's when it swaps a literal's value in its bound tree
    (:mod:`repro.appliance.prepared`)."""
    if is_date:
        return ex.Constant(_parse_date_literal(str(value)), DATE)
    if isinstance(value, str):
        return ex.Constant(value, varchar(max(1, len(value))))
    if isinstance(value, bool):
        return ex.Constant(value, BOOLEAN)
    if isinstance(value, float):
        return ex.Constant(value, DOUBLE)
    if value is None:
        return ex.Constant(None, None)
    return ex.Constant(value, INTEGER)


class _AggregateCollector:
    """Rewrites aggregate calls in an expression into fresh variables and
    collects the (var, AggExpr) definitions for the GroupBy operator."""

    def __init__(self, binder: "Binder"):
        self.binder = binder
        self.collected: List[Tuple[ex.ColumnVar, ex.AggExpr]] = []
        self._dedup: Dict[ex.AggExpr, ex.ColumnVar] = {}

    def rewrite(self, node: ast.Expr, scope: Scope) -> ex.ScalarExpr:
        if isinstance(node, ast.FuncCall) and node.is_aggregate:
            agg = self.binder._bind_aggregate(node, scope)
            if agg.func == "AVG":
                # Decompose AVG into SUM/COUNT so aggregations can later be
                # split into local and global phases (paper §4: local-global
                # aggregation in the distributed plan).
                if agg.distinct:
                    raise BindError("AVG(DISTINCT) is not supported")
                total = self._var_for(ex.AggExpr("SUM", agg.arg))
                count = self._var_for(ex.AggExpr("COUNT", agg.arg))
                return ex.Arithmetic("/", ex.CastExpr(total, DOUBLE), count)
            return self._var_for(agg)
        return self.binder._bind_scalar(node, scope, self)

    def _var_for(self, agg: ex.AggExpr) -> ex.ColumnVar:
        if agg in self._dedup:
            return self._dedup[agg]
        var = self.binder.vars.new_var(agg.func.lower(), agg.result_type)
        self._dedup[agg] = var
        self.collected.append((var, agg))
        return var


class Binder:
    """Binds a parsed SELECT against a catalog."""

    def __init__(self, catalog: Catalog, vars: Optional[VarFactory] = None):
        self.catalog = catalog
        self.vars = vars or VarFactory()

    # -- public entry points -------------------------------------------------

    def bind(self, statement) -> Query:
        if isinstance(statement, ast.UnionSelect):
            return self._bind_union(statement)
        return self._bind_plain(statement)

    def _bind_union(self, union: ast.UnionSelect) -> Query:
        tree, items = self._bind_union_body(union, Scope())
        order_by: List[Tuple[ex.ColumnVar, bool]] = []
        for order_item in union.order_by:
            order_by.append(
                (self._resolve_union_order(order_item.expr, items),
                 order_item.ascending))
        return Query(tree, [name for name, _ in items], order_by,
                     union.limit)

    def _bind_union_body(
        self, union: ast.UnionSelect, scope: Scope,
    ) -> Tuple[LogicalOp, List[Tuple[str, ex.ColumnVar]]]:
        """Bind every branch and wrap in LogicalUnionAll."""
        # Union branches cannot be correlated with an enclosing query.
        del scope
        branches: List[Tuple[LogicalOp, List[Tuple[str, ex.ColumnVar]]]] = []
        for select in union.selects:
            branches.append(self._bind_select_body(select, Scope()))
        arity = len(branches[0][1])
        for _, items in branches[1:]:
            if len(items) != arity:
                raise BindError(
                    "UNION ALL branches must have the same column count")
        outputs = [
            self.vars.new_var(name, var.sql_type)
            for name, var in branches[0][1]
        ]
        op = LogicalUnionAll(
            [tree for tree, _ in branches],
            outputs,
            [[var for _, var in items] for _, items in branches],
        )
        named = [(name, out)
                 for (name, _), out in zip(branches[0][1], outputs)]
        return op, named

    def _resolve_union_order(
        self, expr: ast.Expr, items: List[Tuple[str, ex.ColumnVar]],
    ) -> ex.ColumnVar:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise BindError(f"ORDER BY position {position} out of range")
            return items[position - 1][1]
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            for name, var in items:
                if name.lower() == expr.name.lower():
                    return var
        raise BindError(
            "UNION ORDER BY must reference an output column or ordinal")

    def _bind_plain(self, statement: ast.SelectStatement) -> Query:
        scope = Scope()
        tree, items = self._bind_select_body(statement, scope)
        output_vars: List[ex.ColumnVar] = []
        output_names: List[str] = []
        for name, var in items:
            output_vars.append(var)
            output_names.append(name)

        order_by: List[Tuple[ex.ColumnVar, bool]] = []
        for order_item in statement.order_by:
            var = self._resolve_order_expr(order_item.expr, scope, items)
            order_by.append((var, order_item.ascending))

        # Final projection narrows to exactly the select-list columns.
        if [v.id for v in tree.output_columns()] != [v.id for v in output_vars]:
            tree = LogicalProject(tree, [(v, v) for v in output_vars])
        return Query(tree, output_names, order_by, statement.limit)

    def bind_sql(self, sql: str) -> Query:
        return self.bind(parse_query(sql))

    # -- SELECT body (shared with subqueries) --------------------------------

    def _bind_select_body(
        self, statement: ast.SelectStatement, scope: Scope,
    ) -> Tuple[LogicalOp, List[Tuple[str, ex.ColumnVar]]]:
        """Bind FROM/WHERE/GROUP BY/HAVING/SELECT-list.

        Returns the logical tree and the named output columns.  DISTINCT is
        applied; ORDER BY / TOP are the caller's business.
        """
        tree = self._bind_from(statement.from_items, scope)

        if statement.where is not None:
            tree, predicate = self._bind_predicate(statement.where, scope, tree)
            if predicate is not None:
                tree = LogicalSelect(tree, predicate)

        has_aggregates = self._statement_has_aggregates(statement)

        if statement.group_by or has_aggregates:
            tree, items = self._bind_aggregation(statement, scope, tree)
        else:
            items, projections = self._bind_plain_select_list(statement, scope)
            tree = LogicalProject(tree, projections)

        if statement.distinct:
            keys = [var for _, var in items]
            tree = LogicalGroupBy(tree, keys, [])

        return tree, items

    def _statement_has_aggregates(self, statement: ast.SelectStatement) -> bool:
        def contains_aggregate(expr: ast.Expr) -> bool:
            return any(
                isinstance(node, ast.FuncCall) and node.is_aggregate
                for node in ast.walk_expr(expr)
            )

        if any(contains_aggregate(i.expr) for i in statement.select_items):
            return True
        return statement.having is not None and contains_aggregate(statement.having)

    # -- FROM -----------------------------------------------------------------

    def _bind_from(self, from_items: Sequence[ast.FromItem],
                   scope: Scope) -> LogicalOp:
        if not from_items:
            raise BindError("queries without FROM are not supported")
        tree: Optional[LogicalOp] = None
        for item in from_items:
            bound = self._bind_from_item(item, scope)
            if tree is None:
                tree = bound
            else:
                tree = LogicalJoin(JoinKind.CROSS, tree, bound)
        assert tree is not None
        return tree

    def _bind_from_item(self, item: ast.FromItem, scope: Scope) -> LogicalOp:
        if isinstance(item, ast.TableRef):
            return self._bind_table_ref(item, scope)
        if isinstance(item, ast.DerivedTable):
            return self._bind_derived_table(item, scope)
        if isinstance(item, ast.JoinClause):
            return self._bind_join_clause(item, scope)
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _bind_table_ref(self, ref: ast.TableRef, scope: Scope) -> LogicalOp:
        table = self.catalog.table(ref.name)
        columns = [
            self.vars.new_var(col.name, col.sql_type) for col in table.columns
        ]
        pairs = list(zip(table.column_names, columns))
        scope.add_binding(ref.binding_name, pairs)
        return LogicalGet(table, columns, alias=ref.binding_name)

    def _bind_derived_table(self, derived: ast.DerivedTable,
                            scope: Scope) -> LogicalOp:
        inner_scope = Scope(parent=scope)
        if isinstance(derived.subquery, ast.UnionSelect):
            if derived.subquery.order_by or derived.subquery.limit is not None:
                raise BindError(
                    "ORDER BY / TOP in derived tables is not supported")
            tree, items = self._bind_union_body(derived.subquery,
                                                inner_scope)
            scope.add_binding(derived.alias, items)
            return tree
        tree, items = self._bind_select_body(derived.subquery, inner_scope)
        if derived.subquery.order_by or derived.subquery.limit is not None:
            raise BindError("ORDER BY / TOP in derived tables is not supported")
        scope.add_binding(derived.alias, items)
        scope.outer_references.extend(inner_scope.outer_references)
        return tree

    def _bind_join_clause(self, join: ast.JoinClause, scope: Scope) -> LogicalOp:
        left = self._bind_from_item(join.left, scope)
        right = self._bind_from_item(join.right, scope)
        if join.kind == "CROSS":
            return LogicalJoin(JoinKind.CROSS, left, right)
        if join.kind in ("INNER", "LEFT"):
            kind = JoinKind.INNER if join.kind == "INNER" else JoinKind.LEFT
            predicate = self._bind_scalar(join.condition, scope)
            return LogicalJoin(kind, left, right, predicate)
        if join.kind == "RIGHT":
            predicate = self._bind_scalar(join.condition, scope)
            return LogicalJoin(JoinKind.LEFT, right, left, predicate)
        raise BindError(f"unsupported join kind {join.kind}")

    # -- WHERE / subquery unnesting -------------------------------------------

    def _bind_predicate(
        self, node: ast.Expr, scope: Scope, tree: LogicalOp,
    ) -> Tuple[LogicalOp, Optional[ex.ScalarExpr]]:
        """Bind a WHERE predicate, unnesting subqueries into joins.

        Returns the (possibly expanded) tree and the residual scalar
        predicate to apply on top of it.
        """
        residual: List[ex.ScalarExpr] = []
        for conj in self._ast_conjuncts(node):
            tree, bound = self._bind_predicate_conjunct(conj, scope, tree)
            if bound is not None:
                residual.append(bound)
        return tree, ex.make_conjunction(residual)

    def _ast_conjuncts(self, node: ast.Expr) -> List[ast.Expr]:
        if isinstance(node, ast.BinaryOp) and node.op.upper() == "AND":
            return self._ast_conjuncts(node.left) + self._ast_conjuncts(node.right)
        return [node]

    def _bind_predicate_conjunct(
        self, conj: ast.Expr, scope: Scope, tree: LogicalOp,
    ) -> Tuple[LogicalOp, Optional[ex.ScalarExpr]]:
        if isinstance(conj, ast.InSubquery):
            return self._unnest_in_subquery(conj, scope, tree), None
        if isinstance(conj, ast.ExistsExpr):
            return self._unnest_exists(conj, scope, tree), None
        if (isinstance(conj, ast.UnaryOp) and conj.op.upper() == "NOT"
                and isinstance(conj.operand, ast.ExistsExpr)):
            flipped = ast.ExistsExpr(conj.operand.subquery,
                                     negated=not conj.operand.negated)
            return self._unnest_exists(flipped, scope, tree), None
        if self._contains_scalar_subquery(conj):
            return self._unnest_scalar_subquery(conj, scope, tree)
        return tree, self._bind_scalar(conj, scope)

    def _contains_scalar_subquery(self, node: ast.Expr) -> bool:
        return any(
            isinstance(sub, ast.ScalarSubquery) for sub in ast.walk_expr(node)
        )

    def _subquery_is_plain(self, subquery: ast.SelectStatement) -> bool:
        """Plain = FROM/WHERE only, so all its columns can be exposed to
        the enclosing semi/anti join (correlation may reference any of
        them, not just the select list)."""
        return not (subquery.group_by or subquery.having
                    or subquery.distinct
                    or self._statement_has_aggregates(subquery))

    def _bind_subquery_relation(
        self, subquery: ast.SelectStatement, inner_scope: Scope,
    ) -> LogicalOp:
        """Bind a plain subquery's FROM/WHERE, exposing every column."""
        sub_tree = self._bind_from(subquery.from_items, inner_scope)
        if subquery.where is not None:
            sub_tree, predicate = self._bind_predicate(
                subquery.where, inner_scope, sub_tree)
            if predicate is not None:
                sub_tree = LogicalSelect(sub_tree, predicate)
        return sub_tree

    def _unnest_in_subquery(self, node: ast.InSubquery, scope: Scope,
                            tree: LogicalOp) -> LogicalOp:
        operand = self._bind_scalar(node.operand, scope)
        inner_scope = Scope(parent=scope)
        if isinstance(node.subquery, ast.UnionSelect):
            sub_tree, items = self._bind_union_body(node.subquery,
                                                    inner_scope)
            if len(items) != 1:
                raise BindError("IN subquery must return exactly one column")
            predicate = ex.Comparison("=", operand, items[0][1])
            kind = JoinKind.ANTI if node.negated else JoinKind.SEMI
            return LogicalJoin(kind, tree, sub_tree, predicate)
        if self._subquery_is_plain(node.subquery):
            sub_tree = self._bind_subquery_relation(node.subquery,
                                                    inner_scope)
            if len(node.subquery.select_items) != 1:
                raise BindError("IN subquery must return exactly one column")
            inner_value = self._bind_scalar(
                node.subquery.select_items[0].expr, inner_scope)
            if not isinstance(inner_value, ex.ColumnVar):
                raise BindError(
                    "IN subquery select item must be a plain column")
        else:
            sub_tree, items = self._bind_select_body(node.subquery,
                                                     inner_scope)
            if len(items) != 1:
                raise BindError("IN subquery must return exactly one column")
            inner_value = items[0][1]
        sub_tree, correlated = self._hoist_correlated_predicates(
            sub_tree, inner_scope)
        predicate = ex.make_conjunction(
            [ex.Comparison("=", operand, inner_value)] + correlated)
        kind = JoinKind.ANTI if node.negated else JoinKind.SEMI
        return LogicalJoin(kind, tree, sub_tree, predicate)

    def _unnest_exists(self, node: ast.ExistsExpr, scope: Scope,
                       tree: LogicalOp) -> LogicalOp:
        inner_scope = Scope(parent=scope)
        if self._subquery_is_plain(node.subquery):
            sub_tree = self._bind_subquery_relation(node.subquery,
                                                    inner_scope)
        else:
            sub_tree, _items = self._bind_select_body(node.subquery,
                                                      inner_scope)
        sub_tree, correlated = self._hoist_correlated_predicates(
            sub_tree, inner_scope)
        if not correlated:
            raise BindError("uncorrelated EXISTS is not supported")
        predicate = ex.make_conjunction(correlated)
        kind = JoinKind.ANTI if node.negated else JoinKind.SEMI
        return LogicalJoin(kind, tree, sub_tree, predicate)

    def _unnest_scalar_subquery(
        self, conj: ast.Expr, scope: Scope, tree: LogicalOp,
    ) -> Tuple[LogicalOp, Optional[ex.ScalarExpr]]:
        """Decorrelate ``outer_expr <op> (SELECT agg(...) FROM ... WHERE
        corr)`` into a join against a group-by (paper §4: "sub-query into
        join transformation")."""
        if not (isinstance(conj, ast.BinaryOp)
                and conj.op in ("=", "<>", "<", "<=", ">", ">=")):
            raise BindError(
                "scalar subqueries are only supported in comparisons")
        if isinstance(conj.right, ast.ScalarSubquery):
            outer_node, sub_node, op = conj.left, conj.right, conj.op
        elif isinstance(conj.left, ast.ScalarSubquery):
            outer_node, sub_node = conj.right, conj.left
            op = ex.Comparison.FLIPPED[conj.op]
        else:
            raise BindError("comparison must have a scalar subquery side")

        outer_expr = self._bind_scalar(outer_node, scope)
        subquery = sub_node.subquery
        if len(subquery.select_items) != 1:
            raise BindError("scalar subquery must return one column")
        if subquery.group_by or subquery.having or subquery.distinct:
            raise BindError(
                "scalar subqueries with GROUP BY/HAVING are not supported")

        inner_scope = Scope(parent=scope)
        sub_tree = self._bind_from(subquery.from_items, inner_scope)
        if subquery.where is not None:
            sub_tree, predicate = self._bind_predicate(
                subquery.where, inner_scope, sub_tree)
            if predicate is not None:
                sub_tree = LogicalSelect(sub_tree, predicate)
        sub_tree, correlated = self._hoist_correlated_predicates(
            sub_tree, inner_scope)

        collector = _AggregateCollector(self)
        value_expr = collector.rewrite(
            subquery.select_items[0].expr, inner_scope)
        if not collector.collected:
            raise BindError(
                "only aggregate scalar subqueries can be decorrelated")

        # Group-by keys: the inner side of every correlated equality.
        keys: List[ex.ColumnVar] = []
        join_conjuncts: List[ex.ScalarExpr] = []
        inner_cols = frozenset(
            v.id for v in self._collect_output_ids(sub_tree))
        for corr in correlated:
            if (isinstance(corr, ex.Comparison) and corr.op == "="):
                left, right = corr.left, corr.right
                if (isinstance(left, ex.ColumnVar)
                        and isinstance(right, ex.ColumnVar)):
                    inner = left if left.id in inner_cols else right
                    if inner.id not in [k.id for k in keys]:
                        keys.append(inner)
                    join_conjuncts.append(corr)
                    continue
            raise BindError(
                "only equality correlation is supported in scalar subqueries")

        # With no correlation, the subquery is a single-row scalar
        # aggregate; the comparison becomes the (non-equi) join predicate
        # against that one row.
        group = LogicalGroupBy(sub_tree, keys, collector.collected)
        join_conjuncts.append(ex.Comparison(op, outer_expr, value_expr))
        return (
            LogicalJoin(JoinKind.INNER, tree, group,
                        ex.make_conjunction(join_conjuncts)),
            None,
        )

    def _collect_output_ids(self, tree: LogicalOp) -> List[ex.ColumnVar]:
        return tree.output_columns()

    def _hoist_correlated_predicates(
        self, tree: LogicalOp, inner_scope: Scope,
    ) -> Tuple[LogicalOp, List[ex.ScalarExpr]]:
        """Remove conjuncts that reference outer columns from Select nodes
        in ``tree`` and return them separately."""
        outer_ids = {var.id for var in inner_scope.outer_references}
        if not outer_ids:
            return tree, []
        hoisted: List[ex.ScalarExpr] = []

        def rewrite(op: LogicalOp) -> LogicalOp:
            op.children = [rewrite(c) for c in op.children]
            if isinstance(op, LogicalSelect):
                keep: List[ex.ScalarExpr] = []
                local = frozenset(v.id for v in op.child.output_columns())
                for conj in ex.conjuncts(op.predicate):
                    used = conj.columns_used()
                    if used & outer_ids and used <= (outer_ids | local):
                        hoisted.append(conj)
                    else:
                        keep.append(conj)
                predicate = ex.make_conjunction(keep)
                if predicate is None:
                    return op.child
                op.predicate = predicate
            return op

        return rewrite(tree), hoisted

    # -- aggregation ------------------------------------------------------------

    def _bind_aggregation(
        self, statement: ast.SelectStatement, scope: Scope, tree: LogicalOp,
    ) -> Tuple[LogicalOp, List[Tuple[str, ex.ColumnVar]]]:
        keys: List[ex.ColumnVar] = []
        for group_expr in statement.group_by:
            bound = self._bind_scalar(group_expr, scope)
            if not isinstance(bound, ex.ColumnVar):
                raise BindError("GROUP BY expressions must be plain columns")
            if bound.id not in [k.id for k in keys]:
                keys.append(bound)

        collector = _AggregateCollector(self)
        items: List[Tuple[str, ex.ColumnVar]] = []
        post_outputs: List[Tuple[ex.ColumnVar, ex.ScalarExpr]] = []
        key_ids = {k.id for k in keys}

        for index, item in enumerate(statement.select_items):
            bound = collector.rewrite(item.expr, scope)
            name = item.alias or self._default_name(item.expr, index)
            if isinstance(bound, ex.ColumnVar):
                items.append((name, bound))
                post_outputs.append((bound, bound))
                if bound.id not in key_ids and not self._is_agg_var(
                        bound, collector):
                    raise BindError(
                        f"column {bound.name!r} must appear in GROUP BY")
            else:
                used = bound.columns_used()
                agg_ids = {var.id for var, _ in collector.collected}
                if not used <= (key_ids | agg_ids):
                    raise BindError(
                        "select expression mixes non-grouped columns")
                var = self.vars.new_var(name, ex.expression_type(bound))
                items.append((name, var))
                post_outputs.append((var, bound))

        having_pred: Optional[ex.ScalarExpr] = None
        if statement.having is not None:
            having_pred = collector.rewrite(statement.having, scope)

        grouped: LogicalOp = LogicalGroupBy(tree, keys, collector.collected)
        if having_pred is not None:
            grouped = LogicalSelect(grouped, having_pred)
        grouped = LogicalProject(grouped, post_outputs)
        return grouped, items

    def _is_agg_var(self, var: ex.ColumnVar,
                    collector: _AggregateCollector) -> bool:
        return any(var.id == v.id for v, _ in collector.collected)

    def _bind_plain_select_list(
        self, statement: ast.SelectStatement, scope: Scope,
    ) -> Tuple[List[Tuple[str, ex.ColumnVar]],
               List[Tuple[ex.ColumnVar, ex.ScalarExpr]]]:
        items: List[Tuple[str, ex.ColumnVar]] = []
        projections: List[Tuple[ex.ColumnVar, ex.ScalarExpr]] = []
        for index, item in enumerate(statement.select_items):
            if isinstance(item.expr, ast.Star):
                columns = (
                    scope.binding_columns(item.expr.qualifier)
                    if item.expr.qualifier else scope.all_columns()
                )
                for name, var in columns:
                    items.append((name, var))
                    projections.append((var, var))
                continue
            bound = self._bind_scalar(item.expr, scope)
            name = item.alias or self._default_name(item.expr, index)
            if isinstance(bound, ex.ColumnVar):
                items.append((name, bound))
                projections.append((bound, bound))
            else:
                var = self.vars.new_var(name, ex.expression_type(bound))
                items.append((name, var))
                projections.append((var, bound))
        if not projections:
            raise BindError("empty select list")
        return items, projections

    def _default_name(self, expr: ast.Expr, index: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        return f"col{index + 1}"

    def _resolve_order_expr(
        self, expr: ast.Expr, scope: Scope,
        items: List[Tuple[str, ex.ColumnVar]],
    ) -> ex.ColumnVar:
        # Ordinal (ORDER BY 1) or alias / column reference.
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise BindError(f"ORDER BY position {position} out of range")
            return items[position - 1][1]
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            for name, var in items:
                if name.lower() == expr.name.lower():
                    return var
        bound = self._bind_scalar(expr, scope)
        if isinstance(bound, ex.ColumnVar):
            for _, var in items:
                if var.id == bound.id:
                    return var
            raise BindError(
                "ORDER BY columns must appear in the select list")
        raise BindError("ORDER BY expressions must be plain columns")

    # -- scalar expressions ------------------------------------------------------

    def _bind_scalar(self, node: ast.Expr, scope: Scope,
                     collector: Optional[_AggregateCollector] = None,
                     ) -> ex.ScalarExpr:
        if isinstance(node, ast.Literal):
            return bind_literal(node.value, node.is_date)

        if isinstance(node, ast.ColumnRef):
            return scope.resolve(node.name, node.qualifier)

        if isinstance(node, ast.BinaryOp):
            op = node.op.upper()
            left = self._bind_sub(node.left, scope, collector)
            right = self._bind_sub(node.right, scope, collector)
            if op in ("AND", "OR"):
                return ex.BoolOp(op, (left, right))
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return ex.Comparison(op, left, right)
            return ex.Arithmetic(node.op, left, right)

        if isinstance(node, ast.UnaryOp):
            operand = self._bind_sub(node.operand, scope, collector)
            if node.op.upper() == "NOT":
                return ex.NotExpr(operand)
            return ex.Arithmetic("*", ex.Constant(-1, INTEGER), operand)

        if isinstance(node, ast.FuncCall):
            if node.is_aggregate:
                if collector is None:
                    raise BindError(
                        f"aggregate {node.name} not allowed here")
                return collector.rewrite(node, scope)
            args = tuple(self._bind_sub(a, scope, collector) for a in node.args)
            return ex.FuncExpr(node.name.upper(), args)

        if isinstance(node, ast.Cast):
            operand = self._bind_sub(node.operand, scope, collector)
            return ex.CastExpr(operand, parse_type_name(node.type_name))

        if isinstance(node, ast.CaseExpr):
            whens = tuple(
                (self._bind_sub(c, scope, collector),
                 self._bind_sub(r, scope, collector))
                for c, r in node.whens
            )
            otherwise = (
                self._bind_sub(node.else_result, scope, collector)
                if node.else_result is not None else None
            )
            return ex.CaseWhen(whens, otherwise)

        if isinstance(node, ast.Between):
            operand = self._bind_sub(node.operand, scope, collector)
            low = self._bind_sub(node.low, scope, collector)
            high = self._bind_sub(node.high, scope, collector)
            between = ex.BoolOp("AND", (
                ex.Comparison(">=", operand, low),
                ex.Comparison("<=", operand, high),
            ))
            return ex.NotExpr(between) if node.negated else between

        if isinstance(node, ast.Like):
            operand = self._bind_sub(node.operand, scope, collector)
            pattern = node.pattern
            if not (isinstance(pattern, ast.Literal)
                    and isinstance(pattern.value, str)):
                raise BindError("LIKE pattern must be a string literal")
            return ex.LikeExpr(operand, pattern.value, node.negated)

        if isinstance(node, ast.InList):
            operand = self._bind_sub(node.operand, scope, collector)
            values = []
            for value_node in node.values:
                if not isinstance(value_node, ast.Literal):
                    raise BindError("IN list values must be literals")
                values.append(bind_literal(value_node.value,
                                           value_node.is_date).value)
            return ex.InListExpr(operand, tuple(values), node.negated)

        if isinstance(node, ast.IsNull):
            operand = self._bind_sub(node.operand, scope, collector)
            return ex.IsNullExpr(operand, node.negated)

        if isinstance(node, (ast.InSubquery, ast.ExistsExpr,
                             ast.ScalarSubquery)):
            raise BindError(
                "subqueries are only supported as top-level WHERE conjuncts")

        if isinstance(node, ast.Star):
            raise BindError("* is only allowed in the select list / COUNT(*)")

        raise BindError(f"unsupported expression {type(node).__name__}")

    def _bind_sub(self, node: ast.Expr, scope: Scope,
                  collector: Optional[_AggregateCollector]) -> ex.ScalarExpr:
        if (collector is not None and isinstance(node, ast.FuncCall)
                and node.is_aggregate):
            return collector.rewrite(node, scope)
        return self._bind_scalar(node, scope, collector)

    def _bind_aggregate(self, node: ast.FuncCall, scope: Scope) -> ex.AggExpr:
        func = node.name.upper()
        if func == "COUNT" and len(node.args) == 1 and isinstance(
                node.args[0], ast.Star):
            return ex.AggExpr("COUNT", None, node.distinct)
        if len(node.args) != 1:
            raise BindError(f"{func} takes exactly one argument")
        arg = self._bind_scalar(node.args[0], scope)
        return ex.AggExpr(func, arg, node.distinct)


def bind_query(catalog: Catalog, sql: str) -> Query:
    """Parse and bind a SELECT statement against ``catalog``."""
    return Binder(catalog).bind_sql(sql)
