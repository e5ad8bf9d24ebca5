"""Prepared DSQL steps: a plan's step SQL parsed and bound once.

The node DBMS of paper §2.4 keeps the compiled statement of a re-issued
DSQL step.  Here a plan is prepared at its first execution
(:meth:`repro.appliance.dms_runtime.DmsRuntime.prepared`): every step's
SQL is parsed and bound once, and the :class:`PreparedStep` keeps what
each later execution needs without touching the text again — the bound
tree, the temps it reads, its source nodes and hash column, the table
names each node supplies, and its metric children once resolved.

A cached template executes with new literal values through its
**literal slots**: the constants, ``LIKE`` patterns and ``IN``-list
values of the bound tree, each keyed by the value the binder made of its
literal (:func:`literal_key`).  An execution that changes some of them
gets a path copy of the tree — unchanged subtrees shared — with the new
values converted exactly as the binder converts them
(:func:`repro.optimizer.binder.bind_literal`); the copies are memoized
per step in a small LRU, so a repeated literal vector re-uses its tree
and, through the kernel memo, its compiled kernels.  No parser, no
binder.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    LogicalGroupBy,
    LogicalJoin,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    Query,
)
from repro.common.errors import BindError
from repro.optimizer.binder import bind_literal

#: A literal slot's identity: the type and value of what the binder made
#: of the literal (``True`` and ``1`` stay apart).
LeafKey = Tuple[type, object]

#: One literal as the plan cache lifts it: (type name, value, is_date).
ParamValue = Tuple[str, object, bool]

#: Slot values one execution swaps in: slot key → the new literal.
Literals = Mapping[LeafKey, ParamValue]

#: Path copies kept per step: one per recent literal vector.
COPY_LIMIT = 16


def literal_key(value: ParamValue) -> LeafKey:
    """The slot a lifted literal lands in once bound."""
    _type_name, raw, is_date = value
    bound = bind_literal(raw, is_date).value
    return type(bound), bound


def _key(value: object) -> LeafKey:
    return type(value), value


def literal_leaves(query: Query) -> FrozenSet[LeafKey]:
    """The slot keys of every constant, ``LIKE`` pattern and ``IN``
    value in ``query``'s tree."""
    found: set = set()

    def scan(expr: ex.ScalarExpr) -> None:
        if isinstance(expr, ex.Constant):
            found.add(_key(expr.value))
        elif isinstance(expr, ex.LikeExpr):
            found.add(_key(expr.pattern))
        elif isinstance(expr, ex.InListExpr):
            found.update(map(_key, expr.values))
        for child in expr.children():
            scan(child)

    def walk(op: LogicalOp) -> None:
        for expr in _expressions(op):
            scan(expr)
        for child in op.children:
            walk(child)

    walk(query.root)
    return frozenset(found)


def _expressions(op: LogicalOp) -> List[ex.ScalarExpr]:
    if isinstance(op, (LogicalSelect, LogicalJoin)):
        return [] if op.predicate is None else [op.predicate]
    if isinstance(op, LogicalProject):
        return [expr for _, expr in op.outputs]
    if isinstance(op, LogicalGroupBy):
        return [agg for _, agg in op.aggregates]
    return []


def with_literals(query: Query, swap: Mapping[LeafKey, ParamValue]
                  ) -> Query:
    """A copy of ``query`` with every slot in ``swap`` holding its new
    literal; every subtree no slot of ``swap`` reaches is shared."""

    def value(old: object, pattern: bool = False) -> object:
        new = swap.get(_key(old))
        if new is None:
            return old
        _type_name, raw, is_date = new
        if pattern:
            if not isinstance(raw, str):
                raise BindError("LIKE pattern must be a string literal")
            return raw
        return bind_literal(raw, is_date).value

    def field(item):
        if isinstance(item, ex.ScalarExpr):
            return expr_copy(item)
        if isinstance(item, tuple):
            items = tuple(field(part) for part in item)
            return item if all(map(_same, items, item)) else items
        return item

    def expr_copy(expr: ex.ScalarExpr) -> ex.ScalarExpr:
        if isinstance(expr, ex.ColumnVar):
            return expr
        if isinstance(expr, ex.Constant):
            new = swap.get(_key(expr.value))
            return expr if new is None else bind_literal(new[1], new[2])
        changes = {}
        for spec in dataclasses.fields(expr):
            old = getattr(expr, spec.name)
            if isinstance(expr, ex.LikeExpr) and spec.name == "pattern":
                new = value(old, pattern=True)
            elif isinstance(expr, ex.InListExpr) and spec.name == "values":
                new = tuple(value(item) for item in old)
                new = old if all(map(_same, new, old)) else new
            else:
                new = field(old)
            if new is not old:
                changes[spec.name] = new
        return dataclasses.replace(expr, **changes) if changes else expr

    def op_copy(op: LogicalOp) -> LogicalOp:
        children = [op_copy(child) for child in op.children]
        changes = {}
        if isinstance(op, (LogicalSelect, LogicalJoin)):
            if op.predicate is not None:
                changes["predicate"] = expr_copy(op.predicate)
        elif isinstance(op, LogicalProject):
            changes["outputs"] = [(var, expr_copy(expr))
                                  for var, expr in op.outputs]
        elif isinstance(op, LogicalGroupBy):
            changes["aggregates"] = [(var, expr_copy(agg))
                                     for var, agg in op.aggregates]
        moved = {name: new for name, new in changes.items()
                 if not _same_field(new, getattr(op, name))}
        if not moved and all(map(_same, children, op.children)):
            return op
        clone = copy.copy(op)
        clone.children = children
        for name, new in moved.items():
            setattr(clone, name, new)
        return clone

    return Query(op_copy(query.root), query.output_names, query.order_by,
                 query.limit)


def _same(new: object, old: object) -> bool:
    return new is old


def _same_field(new: object, old: object) -> bool:
    if isinstance(new, list):
        return all(a is b for (_, a), (_, b) in zip(new, old))
    return new is old


class PreparedStep:
    """One DSQL step of a plan, parsed and bound once.

    ``tables`` are the lower-cased names of the non-temp tables the tree
    reads — each source node supplies exactly those fragments — and
    ``temps`` pairs each temp it reads (the name the tree reads it
    under) with the position of the step that writes it, among the
    plan's temp-writing steps.  ``slots`` are the tree's literal slot
    keys."""

    def __init__(self, index: int, query: Query, tables: Tuple[str, ...],
                 temps: Tuple[Tuple[str, int], ...],
                 sources: Tuple[int, ...], hash_index: Optional[int]):
        self.index = index
        self.query = query
        self.tables = tables
        self.temps = temps
        self.sources = sources
        self.hash_index = hash_index
        self.slots = literal_leaves(query)
        self._slot_order = tuple(self.slots)
        self._copies: "OrderedDict[tuple, Query]" = OrderedDict()
        self._lock = threading.Lock()

    def bound_query(self, literals: Literals) -> Query:
        """The tree to run with ``literals`` swapped into the slots they
        reach: the prepared tree when they reach none, else a path copy
        (memoized, :data:`COPY_LIMIT` most recent)."""
        if not literals:
            return self.query
        changed = tuple(map(literals.get, self._slot_order))
        if not any(changed):
            return self.query
        with self._lock:
            query = self._copies.get(changed)
            if query is not None:
                self._copies.move_to_end(changed)
                return query
        query = with_literals(self.query, {
            key: new for key, new in zip(self._slot_order, changed)
            if new is not None})
        with self._lock:
            self._copies[changed] = query
            while len(self._copies) > COPY_LIMIT:
                self._copies.popitem(last=False)
        return query

    @property
    def copies(self) -> int:
        return len(self._copies)


class PreparedPlan:
    """A plan's prepared steps, in step order, and the union of their
    literal slots."""

    def __init__(self, steps: List[PreparedStep]):
        self.steps = steps
        self.slots: FrozenSet[LeafKey] = frozenset().union(
            *(step.slots for step in steps))

    def binds(self, literals: Dict[LeafKey, ParamValue]) -> bool:
        """Whether every literal of ``literals`` lands in a slot — when
        one does not (the optimizer folded it away), swapping values
        cannot reproduce what a compilation with them would run."""
        return all(key in self.slots for key in literals)
