"""Evaluation of bound scalar expressions.

One evaluator serves four masters: constant folding in the normalizer,
row-at-a-time evaluation in the reference executor, the numpy kernels'
row fallback (whatever has no array form), and direct evaluation in
tests — it is the spec every kernel is held to.  SQL three-valued logic
is honoured: ``None`` is NULL, comparisons with NULL yield NULL, and
AND/OR follow Kleene semantics.
"""

from __future__ import annotations

import datetime
import re
from typing import Dict, Optional

from repro.algebra import expressions as ex
from repro.common.errors import ExecutionError
from repro.common.types import TypeKind


class UnboundColumn(Exception):
    """Raised when evaluation hits a column missing from the environment
    (used by constant folding to mean "not a constant")."""


def evaluate(expr: ex.ScalarExpr, env: Optional[Dict[int, object]] = None):
    """Evaluate ``expr`` with column values from ``env`` (var id → value)."""
    env = env or {}

    if isinstance(expr, ex.Constant):
        return expr.value

    if isinstance(expr, ex.ColumnVar):
        if expr.id not in env:
            raise UnboundColumn(expr.id)
        return env[expr.id]

    if isinstance(expr, ex.Comparison):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        return _compare(expr.op, left, right)

    if isinstance(expr, ex.Arithmetic):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        return _arithmetic(expr.op, left, right)

    if isinstance(expr, ex.BoolOp):
        return _bool_op(expr, env)

    if isinstance(expr, ex.NotExpr):
        value = evaluate(expr.operand, env)
        return None if value is None else (not value)

    if isinstance(expr, ex.LikeExpr):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        matched = _like_match(str(value), expr.pattern)
        return (not matched) if expr.negated else matched

    if isinstance(expr, ex.InListExpr):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        found = value in expr.values
        if not found and None in expr.values:
            return None  # no member is equal, and NULL might be
        return (not found) if expr.negated else found

    if isinstance(expr, ex.IsNullExpr):
        value = evaluate(expr.operand, env)
        is_null = value is None
        return (not is_null) if expr.negated else is_null

    if isinstance(expr, ex.CastExpr):
        return _cast(evaluate(expr.operand, env), expr.target.kind)

    if isinstance(expr, ex.CaseWhen):
        for condition, result in expr.whens:
            if evaluate(condition, env) is True:
                return evaluate(result, env)
        if expr.otherwise is not None:
            return evaluate(expr.otherwise, env)
        return None

    if isinstance(expr, ex.FuncExpr):
        return _scalar_function(expr, env)

    if isinstance(expr, ex.AggExpr):
        raise ExecutionError("aggregate evaluated outside GroupBy")

    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _compare(op: str, left, right):
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison {op}")


def _arithmetic(op: str, left, right):
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        result = left / right
        return result
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        return left % right
    if op == "||":
        return str(left) + str(right)
    raise ExecutionError(f"unknown arithmetic operator {op}")


def _bool_op(expr: ex.BoolOp, env):
    saw_null = False
    if expr.op == "AND":
        for arg in expr.args:
            value = evaluate(arg, env)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True
    for arg in expr.args:  # OR
        value = evaluate(arg, env)
        if value is True:
            return True
        if value is None:
            saw_null = True
    return None if saw_null else False


_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def _like_regex(pattern: str) -> "re.Pattern[str]":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        compiled = re.compile(f"^{regex}$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _like_match(value: str, pattern: str) -> bool:
    return _like_regex(pattern).match(value) is not None


def _cast(value, kind: TypeKind):
    if value is None:
        return None
    if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
        return int(value)
    if kind in (TypeKind.DECIMAL, TypeKind.DOUBLE):
        return float(value)
    if kind in (TypeKind.VARCHAR, TypeKind.CHAR):
        return str(value)
    if kind is TypeKind.DATE:
        if isinstance(value, datetime.date):
            return value
        return datetime.date.fromisoformat(str(value).split(" ")[0])
    if kind is TypeKind.BOOLEAN:
        return bool(value)
    raise ExecutionError(f"unsupported cast target {kind}")


def _scalar_function(expr: ex.FuncExpr, env):
    args = [evaluate(a, env) for a in expr.args]
    if any(a is None for a in args):
        return None
    return apply_scalar_function(expr.name.upper(), args)


SUBSTRING_LENGTH_ERROR = "invalid length passed to SUBSTRING"


def apply_scalar_function(name: str, args):
    """Dispatch a scalar function over already-evaluated, non-NULL args.

    The spec the numpy kernels' array forms are held to
    (``SUBSTRING``'s ``strings.slice`` in :mod:`repro.vector.np_kernels`
    implements exactly these bounds).
    """
    if name == "DATEADD":
        unit, amount, base = args
        base_date = _cast(base, TypeKind.DATE)
        amount = int(amount)
        unit = str(unit).lower()
        if unit == "day":
            return base_date + datetime.timedelta(days=amount)
        if unit == "month":
            month_index = base_date.month - 1 + amount
            year = base_date.year + month_index // 12
            month = month_index % 12 + 1
            day = min(base_date.day, _days_in_month(year, month))
            return datetime.date(year, month, day)
        if unit == "year":
            try:
                return base_date.replace(year=base_date.year + amount)
            except ValueError:  # Feb 29 → Feb 28
                return base_date.replace(year=base_date.year + amount, day=28)
        raise ExecutionError(f"unsupported DATEADD unit {unit!r}")

    if name == "SUBSTRING":
        # T-SQL: characters start..start+length-1 that exist — a start
        # before 1 still counts toward the length; a negative length is
        # an error.  (Python's negative indices must not leak in.)
        text, start, length = str(args[0]), int(args[1]), int(args[2])
        if length < 0:
            raise ExecutionError(SUBSTRING_LENGTH_ERROR)
        return text[max(start - 1, 0):max(start - 1 + length, 0)]

    if name in ("YEAR", "MONTH", "DAY"):
        date_value = _cast(args[0], TypeKind.DATE)
        return getattr(date_value, name.lower())

    if name == "EXTRACT":
        part, date_value = str(args[0]).lower(), _cast(args[1], TypeKind.DATE)
        return getattr(date_value, part)

    raise ExecutionError(f"unsupported function {name}")


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first = datetime.date(year, month, 1)
    next_first = datetime.date(year + month // 12, month % 12 + 1, 1)
    return (next_first - first).days


def try_fold(expr: ex.ScalarExpr) -> Optional[object]:
    """Evaluate ``expr`` if it is constant; ``None`` means *not constant*
    (NULL constants fold to a Constant(None) upstream, never through here).
    """
    if expr.columns_used():
        return None
    try:
        return evaluate(expr, {})
    except (UnboundColumn, ExecutionError):
        return None
