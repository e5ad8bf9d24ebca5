"""The MEMO: compact representation of the optimization search space.

Paper §2.5: *"The MEMO consists of two mutually recursive data structures,
called groups and groupExpressions.  A group represents all equivalent
operator trees producing the same output ... A groupExpression is an
operator having other groups (rather than other operators) as children."*
[Graefe, Cascades/Volcano.]

This implementation supports:

* deduplication of group expressions (same operator + same child groups),
* **group merging** via union-find when a duplicate expression proves two
  groups equivalent (the classic Cascades mechanism),
* logical properties per group — output columns, estimated cardinality,
  average row width — computed from the shell database statistics, and
* both logical and physical group expressions, so the exported search
  space looks like Figure 3(c).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
)
from repro.common.errors import OptimizerError
from repro.optimizer.cardinality import StatsContext, estimate_operator_cardinality


class GroupExpression:
    """An operator whose children are MEMO groups."""

    __slots__ = ("op", "children", "is_logical", "key", "cost",
                 "best_child_exprs")

    def __init__(self, op, children: Tuple[int, ...], is_logical: bool):
        self.op = op
        self.children = children
        self.is_logical = is_logical
        # The MEMO dedup identity.  Neither the operator nor the child
        # tuple changes after construction, so it is built once.
        self.key: tuple = (op.local_key(), children)
        self.cost: Optional[float] = None        # physical only
        self.best_child_exprs: Tuple[int, ...] = ()

    def describe(self) -> str:
        kids = ", ".join(str(c) for c in self.children)
        return f"{self.op.describe()}({kids})"


class Group:
    """All equivalent expressions producing the same intermediate result."""

    __slots__ = ("id", "expressions", "output_vars", "cardinality",
                 "row_width", "explored")

    def __init__(self, group_id: int, output_vars: Sequence[ex.ColumnVar],
                 cardinality: float, row_width: float):
        self.id = group_id
        self.expressions: List[GroupExpression] = []
        self.output_vars = list(output_vars)
        self.cardinality = cardinality
        self.row_width = row_width
        self.explored = False

    @property
    def logical_expressions(self) -> List[GroupExpression]:
        return [e for e in self.expressions if e.is_logical]

    @property
    def physical_expressions(self) -> List[GroupExpression]:
        return [e for e in self.expressions if not e.is_logical]


def derive_output_vars(op: LogicalOp,
                       child_vars: Sequence[Sequence[ex.ColumnVar]]
                       ) -> List[ex.ColumnVar]:
    """Output columns of an operator given its children's outputs."""
    if isinstance(op, LogicalGet):
        return list(op.columns)
    if isinstance(op, LogicalSelect):
        return list(child_vars[0])
    if isinstance(op, LogicalProject):
        return [var for var, _ in op.outputs]
    if isinstance(op, LogicalJoin):
        cols = list(child_vars[0])
        if op.kind.returns_right_columns:
            cols += list(child_vars[1])
        return cols
    if isinstance(op, LogicalGroupBy):
        return list(op.keys) + [var for var, _ in op.aggregates]
    if isinstance(op, LogicalUnionAll):
        return list(op.outputs)
    raise OptimizerError(f"unknown logical operator {type(op).__name__}")


class Memo:
    """The search-space container shared by exploration and implementation."""

    def __init__(self, stats: StatsContext):
        self.stats = stats
        self.groups: List[Group] = []
        # expression key -> (owning group id, the expression itself)
        self._dedup: Dict[tuple, Tuple[int, GroupExpression]] = {}
        self._parent: List[int] = []  # union-find over group ids
        # (root, topological order) of the last ``topological_order``
        # call; any change to the MEMO drops it.
        self._order: Optional[Tuple[int, List[int]]] = None

    # -- union-find ----------------------------------------------------------

    def find(self, group_id: int) -> int:
        parent = self._parent[group_id]
        if parent != group_id:
            root = self.find(parent)
            self._parent[group_id] = root
            return root
        return group_id

    def group(self, group_id: int) -> Group:
        return self.groups[self.find(group_id)]

    def _merge(self, a: int, b: int) -> int:
        """Merge group ``b`` into group ``a`` (both canonical ids)."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        keeper, absorbed = (a, b) if a < b else (b, a)
        keep_group = self.groups[keeper]
        gone_group = self.groups[absorbed]
        existing = {e.key: e for e in keep_group.expressions}
        for expr in gone_group.expressions:
            kept = existing.setdefault(expr.key, expr)
            if kept is expr:
                keep_group.expressions.append(expr)
            self._dedup[expr.key] = (keeper, kept)
        self._parent[absorbed] = keeper
        self._order = None
        keep_group.explored = keep_group.explored and gone_group.explored
        return keeper

    # -- group / expression creation ------------------------------------------

    def _new_group(self, output_vars: Sequence[ex.ColumnVar],
                   cardinality: float, row_width: float) -> Group:
        group = Group(len(self.groups), output_vars, cardinality, row_width)
        self.groups.append(group)
        self._parent.append(group.id)
        self._order = None
        return group

    def merge_equivalent(self, a: int, b: int) -> int:
        """Declare two groups equivalent; returns the surviving id."""
        return self._merge(self.find(a), self.find(b))

    def add_expression(self, group_id: int, op, children: Sequence[int],
                       is_logical: bool = True) -> Optional[GroupExpression]:
        """Add an expression to a group, merging groups on duplicates.

        Returns the (possibly pre-existing) group expression, or ``None``
        when the expression would reference its own group (which can arise
        after merges and carries no information).
        """
        group_id = self.find(group_id)
        children = self._canonical(children)
        if group_id in children:
            return None
        expr = GroupExpression(op, children, is_logical)
        found = self._dedup.get(expr.key)
        if found is not None:
            owner, existing = found
            owner = self.find(owner)
            if owner != group_id:
                self._merge(owner, group_id)
            return existing
        self.groups[group_id].expressions.append(expr)
        self._dedup[expr.key] = (group_id, expr)
        self._order = None
        return expr

    def _canonical(self, children: Sequence[int]) -> Tuple[int, ...]:
        """Canonical ids of ``children``; a root is its own answer."""
        parent = self._parent
        return tuple([c if parent[c] == c else self.find(c)
                      for c in children])

    def group_for_expression(self, op: LogicalOp,
                             children: Sequence[int]) -> int:
        """Group that owns ``op(children)``, creating one if needed.

        New groups get logical properties estimated from the children.
        """
        children = self._canonical(children)
        found = self._dedup.get((op.local_key(), children))
        if found is not None:
            return self.find(found[0])
        child_groups = [self.groups[c] for c in children]
        child_vars = [g.output_vars for g in child_groups]
        child_cards = tuple(g.cardinality for g in child_groups)
        output_vars = derive_output_vars(op, child_vars)
        for var in output_vars:
            self.stats.register_derived(var)
        cardinality = estimate_operator_cardinality(
            op, self.stats, child_cards, child_vars)
        row_width = self.stats.row_width(output_vars)
        group = self._new_group(output_vars, cardinality, row_width)
        self.add_expression(group.id, op, children, is_logical=True)
        return group.id

    def insert_tree(self, op: LogicalOp) -> int:
        """Recursively memoize a logical tree; returns the root group id."""
        child_groups = [self.insert_tree(child) for child in op.children]
        return self.group_for_expression(op, child_groups)

    # -- inspection ------------------------------------------------------------

    def canonical_groups(self) -> List[Group]:
        """All live (non-absorbed) groups."""
        return [g for g in self.groups if self.find(g.id) == g.id]

    def expression_count(self, logical_only: bool = False) -> int:
        return sum(
            len(g.logical_expressions if logical_only else g.expressions)
            for g in self.canonical_groups()
        )

    def dump(self, root: Optional[int] = None) -> str:
        """Figure-3-style textual dump of the MEMO contents."""
        lines = []
        groups = self.canonical_groups()
        for group in sorted(groups, key=lambda g: -g.id):
            exprs = "  ".join(
                f"{i + 1}. {e.describe()}"
                for i, e in enumerate(group.expressions)
            )
            marker = " (root)" if root is not None and self.find(root) == group.id else ""
            lines.append(
                f"Group {group.id}{marker} "
                f"[rows={group.cardinality:.0f}, width={group.row_width:.0f}]: "
                f"{exprs}"
            )
        return "\n".join(lines)


def topological_order(memo: Memo, root: int) -> List[int]:
    """Canonical group ids reachable from ``root``, children before parents
    (the bottom-up order the PDW enumerator wants).

    The order is kept on the MEMO until the MEMO changes, so the PDW
    side's three walks (equivalence, interesting properties, enumeration)
    cost one."""
    root = memo.find(root)
    if memo._order is not None and memo._order[0] == root:
        return list(memo._order[1])
    order: List[int] = []
    visited = set()

    def visit(group_id: int) -> None:
        group_id = memo.find(group_id)
        if group_id in visited:
            return
        visited.add(group_id)
        for expr in memo.groups[group_id].expressions:
            for child in expr.children:
                visit(child)
        order.append(group_id)

    visit(root)
    memo._order = (root, order)
    return list(order)
