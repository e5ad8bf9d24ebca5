"""Bound scalar expressions.

After binding, every column reference is a :class:`ColumnVar` with a
query-unique integer id.  The optimizer reasons about column-id sets, the
executor evaluates these trees against rows, and the QRel layer
(:mod:`repro.pdw.qrel`) renders them back to SQL text.

All nodes are immutable and hashable so that predicates can be deduplicated
and used as dictionary keys inside the MEMO.  The composite nodes keep
their structural hash and their ``columns_used()`` set after the first
call (:func:`_cached`): a predicate is a MEMO dedup key on both sides of
the XML hand-off, and re-hashing the whole tree on every lookup was a
measurable share of a cold compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.common.types import SqlType, INTEGER, BOOLEAN, DOUBLE


class ScalarExpr:
    """Base class for bound scalar expressions."""

    def columns_used(self) -> FrozenSet[int]:
        """Ids of all column variables referenced by this expression."""
        raise NotImplementedError

    def substitute(self, mapping: Dict[int, "ScalarExpr"]) -> "ScalarExpr":
        """Return a copy with column vars replaced per ``mapping``."""
        raise NotImplementedError

    def children(self) -> Tuple["ScalarExpr", ...]:
        return ()


@dataclass(frozen=True)
class ColumnVar(ScalarExpr):
    """A bound column variable.

    ``name`` is only for display / SQL generation; identity is ``id``.
    """

    id: int
    name: str = field(compare=False)
    sql_type: SqlType = field(compare=False, default=INTEGER)

    def columns_used(self) -> FrozenSet[int]:
        return frozenset((self.id,))

    def substitute(self, mapping):
        return mapping.get(self.id, self)

    def __str__(self) -> str:
        return f"{self.name}#{self.id}"


@dataclass(frozen=True)
class Constant(ScalarExpr):
    """A literal value."""

    value: object
    sql_type: Optional[SqlType] = field(compare=False, default=None)

    def columns_used(self) -> FrozenSet[int]:
        return frozenset()

    def substitute(self, mapping):
        return self

    def __str__(self) -> str:
        return repr(self.value)


def _cached(cls):
    """Class decorator for the immutable composite nodes: the
    dataclass-generated structural hash and ``columns_used()`` are
    computed on first use and kept on the instance.

    The values live in the instance ``__dict__`` beside the fields, out
    of sight of ``==``, ``repr`` and ``dataclasses.replace``.  A cached
    ``str`` hash is only valid inside the process that computed it, so
    these nodes must not be pickled to another process (nothing does).
    """
    structural_hash = cls.__hash__
    compute_columns = cls.columns_used

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = structural_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    def columns_used(self) -> FrozenSet[int]:
        try:
            return self._columns
        except AttributeError:
            value = compute_columns(self)
            object.__setattr__(self, "_columns", value)
            return value

    columns_used.__doc__ = compute_columns.__doc__
    cls.__hash__ = __hash__
    cls.columns_used = columns_used
    return cls


def _union_columns(exprs) -> FrozenSet[int]:
    result: FrozenSet[int] = frozenset()
    for expr in exprs:
        result |= expr.columns_used()
    return result


@_cached
@dataclass(frozen=True)
class Comparison(ScalarExpr):
    """``left <op> right`` with op in =, <>, <, <=, >, >=."""

    op: str
    left: ScalarExpr
    right: ScalarExpr

    FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def columns_used(self):
        return self.left.columns_used() | self.right.columns_used()

    def substitute(self, mapping):
        return Comparison(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def children(self):
        return (self.left, self.right)

    def flipped(self) -> "Comparison":
        """The same predicate with operand sides exchanged."""
        return Comparison(self.FLIPPED[self.op], self.right, self.left)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@_cached
@dataclass(frozen=True)
class Arithmetic(ScalarExpr):
    """``left <op> right`` with op in + - * / % ||."""

    op: str
    left: ScalarExpr
    right: ScalarExpr

    def columns_used(self):
        return self.left.columns_used() | self.right.columns_used()

    def substitute(self, mapping):
        return Arithmetic(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@_cached
@dataclass(frozen=True)
class BoolOp(ScalarExpr):
    """N-ary AND / OR."""

    op: str  # "AND" | "OR"
    args: Tuple[ScalarExpr, ...]

    def columns_used(self):
        return _union_columns(self.args)

    def substitute(self, mapping):
        return BoolOp(self.op, tuple(a.substitute(mapping) for a in self.args))

    def children(self):
        return self.args

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(str(a) for a in self.args) + ")"


@_cached
@dataclass(frozen=True)
class NotExpr(ScalarExpr):
    operand: ScalarExpr

    def columns_used(self):
        return self.operand.columns_used()

    def substitute(self, mapping):
        return NotExpr(self.operand.substitute(mapping))

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@_cached
@dataclass(frozen=True)
class FuncExpr(ScalarExpr):
    """A scalar function call (DATEADD, SUBSTRING, YEAR, ...)."""

    name: str
    args: Tuple[ScalarExpr, ...]

    def columns_used(self):
        return _union_columns(self.args)

    def substitute(self, mapping):
        return FuncExpr(self.name, tuple(a.substitute(mapping) for a in self.args))

    def children(self):
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@_cached
@dataclass(frozen=True)
class CastExpr(ScalarExpr):
    operand: ScalarExpr
    target: SqlType

    def columns_used(self):
        return self.operand.columns_used()

    def substitute(self, mapping):
        return CastExpr(self.operand.substitute(mapping), self.target)

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target})"


@_cached
@dataclass(frozen=True)
class CaseWhen(ScalarExpr):
    """Searched CASE with (condition, result) pairs."""

    whens: Tuple[Tuple[ScalarExpr, ScalarExpr], ...]
    otherwise: Optional[ScalarExpr] = None

    def columns_used(self):
        cols = _union_columns(e for pair in self.whens for e in pair)
        if self.otherwise is not None:
            cols |= self.otherwise.columns_used()
        return cols

    def substitute(self, mapping):
        whens = tuple(
            (c.substitute(mapping), r.substitute(mapping)) for c, r in self.whens
        )
        otherwise = self.otherwise.substitute(mapping) if self.otherwise else None
        return CaseWhen(whens, otherwise)

    def children(self):
        flat = [e for pair in self.whens for e in pair]
        if self.otherwise is not None:
            flat.append(self.otherwise)
        return tuple(flat)

    def __str__(self) -> str:
        parts = [f"WHEN {c} THEN {r}" for c, r in self.whens]
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise}")
        return "CASE " + " ".join(parts) + " END"


@_cached
@dataclass(frozen=True)
class LikeExpr(ScalarExpr):
    operand: ScalarExpr
    pattern: str
    negated: bool = False

    def columns_used(self):
        return self.operand.columns_used()

    def substitute(self, mapping):
        return LikeExpr(self.operand.substitute(mapping), self.pattern, self.negated)

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}LIKE {self.pattern!r})"


@_cached
@dataclass(frozen=True)
class InListExpr(ScalarExpr):
    operand: ScalarExpr
    values: Tuple[object, ...]
    negated: bool = False

    def columns_used(self):
        return self.operand.columns_used()

    def substitute(self, mapping):
        return InListExpr(self.operand.substitute(mapping), self.values, self.negated)

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}IN {self.values})"


@_cached
@dataclass(frozen=True)
class IsNullExpr(ScalarExpr):
    operand: ScalarExpr
    negated: bool = False

    def columns_used(self):
        return self.operand.columns_used()

    def substitute(self, mapping):
        return IsNullExpr(self.operand.substitute(mapping), self.negated)

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} IS {maybe_not}NULL)"


@_cached
@dataclass(frozen=True)
class AggExpr(ScalarExpr):
    """An aggregate call; ``arg`` is ``None`` for COUNT(*).

    Aggregates appear only inside GroupBy operators, never nested in
    ordinary scalar trees (the binder enforces this).
    """

    func: str  # SUM | COUNT | AVG | MIN | MAX
    arg: Optional[ScalarExpr] = None
    distinct: bool = False

    def columns_used(self):
        return self.arg.columns_used() if self.arg is not None else frozenset()

    def substitute(self, mapping):
        arg = self.arg.substitute(mapping) if self.arg is not None else None
        return AggExpr(self.func, arg, self.distinct)

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    @property
    def result_type(self) -> SqlType:
        if self.func == "COUNT":
            return INTEGER
        if self.func == "AVG":
            return DOUBLE
        if self.arg is not None and isinstance(self.arg, ColumnVar):
            return self.arg.sql_type
        return DOUBLE

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


TRUE = Constant(True, BOOLEAN)
FALSE = Constant(False, BOOLEAN)


def conjuncts(expr: Optional[ScalarExpr]) -> Tuple[ScalarExpr, ...]:
    """Flatten an AND tree into its conjuncts (empty for None/TRUE)."""
    if expr is None or expr == TRUE:
        return ()
    if isinstance(expr, BoolOp) and expr.op == "AND":
        flat = []
        for arg in expr.args:
            flat.extend(conjuncts(arg))
        return tuple(flat)
    return (expr,)


def make_conjunction(parts) -> Optional[ScalarExpr]:
    """Combine predicates with AND; None for an empty list."""
    parts = [p for p in parts if p is not None and p != TRUE]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return BoolOp("AND", tuple(parts))


def equi_join_pairs(predicate: Optional[ScalarExpr],
                    left_cols: FrozenSet[int],
                    right_cols: FrozenSet[int]):
    """Extract ``(left_var, right_var)`` pairs from equality conjuncts that
    straddle a join: one plain column from each side.

    These pairs are exactly what the PDW optimizer calls *interesting
    columns* for joins (paper §3.2).
    """
    pairs = []
    for conj in conjuncts(predicate):
        if not isinstance(conj, Comparison) or conj.op != "=":
            continue
        left, right = conj.left, conj.right
        if not (isinstance(left, ColumnVar) and isinstance(right, ColumnVar)):
            continue
        if left.id in left_cols and right.id in right_cols:
            pairs.append((left, right))
        elif left.id in right_cols and right.id in left_cols:
            pairs.append((right, left))
    return pairs


def expression_type(expr: ScalarExpr) -> SqlType:
    """Best-effort static type of a bound expression."""
    if isinstance(expr, ColumnVar):
        return expr.sql_type
    if isinstance(expr, Constant):
        if expr.sql_type is not None:
            return expr.sql_type
        return DOUBLE if isinstance(expr.value, float) else INTEGER
    if isinstance(expr, (Comparison, BoolOp, NotExpr, LikeExpr,
                         InListExpr, IsNullExpr)):
        return BOOLEAN
    if isinstance(expr, CastExpr):
        return expr.target
    if isinstance(expr, AggExpr):
        return expr.result_type
    if isinstance(expr, Arithmetic):
        return DOUBLE
    if isinstance(expr, CaseWhen) and expr.whens:
        return expression_type(expr.whens[0][1])
    if isinstance(expr, FuncExpr):
        return DOUBLE
    return DOUBLE
