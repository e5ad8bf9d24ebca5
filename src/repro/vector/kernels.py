"""List kernels: bound scalar expressions compiled for object columns.

This is the production executor's object-column fallback.  Where
:func:`repro.algebra.evaluator.evaluate` walks a ``ScalarExpr`` tree
once per row, this module turns the tree into a *kernel*
``ColumnBatch -> column`` applied once per batch of native Python
values: the interpreter overhead (dispatch, attribute traffic, frame
setup) is paid per column instead of per row, and the inner loops are
list comprehensions over whole columns.  The numpy kernels
(:mod:`repro.vector.np_kernels`) call it wherever an array form would
not be bit-identical — object columns, LIKE, ``||``, scalar functions
and casts over several string columns, and each dictionary's distinct
values.

Semantics are the reference interpreter's semantics, by construction:

* SQL three-valued logic — NULL (``None``) operands propagate through
  comparisons/arithmetic, AND/OR follow Kleene semantics;
* short-circuit parity via **selection-vector narrowing** — AND/OR
  evaluate argument ``k`` only on the rows still undecided after
  argument ``k-1``, and CASE evaluates each WHEN condition (and its
  result) only on rows no earlier arm claimed, so a guarded expression
  like ``x <> 0 AND 10 / x > 1`` never divides on the rows the guard
  excluded — exactly the rows the reference interpreter never evaluates
  it on;
* error behaviour matches — missing columns raise
  :class:`~repro.algebra.evaluator.UnboundColumn`, division by zero
  raises :class:`ExecutionError` at batch-evaluation time, never at
  compile time.  (One documented divergence: when *different operands*
  of one expression would each error on *different rows*, a kernel
  evaluates column-major and may surface the other operand's error
  first.  The error type and message are the same; only which of
  several simultaneous errors wins can differ.  DESIGN §5 discusses
  this.)

LIKE patterns compile to regexes and IN lists to hash sets once per
kernel.  Kernels are memoized per expression *identity*, so a cached
step's bound tree re-run by every later execution compiles each
expression exactly once.
"""

from __future__ import annotations

import operator
import threading
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.algebra import expressions as ex
from repro.algebra.evaluator import (
    UnboundColumn,
    _cast,
    _like_regex,
    apply_scalar_function,
)
from repro.common.errors import ExecutionError
from repro.vector.column_batch import ColumnBatch

#: A kernel: one output value per input row, ``None`` for NULL.
Kernel = Callable[[ColumnBatch], List]

_COMPARISONS: Dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_PLAIN_ARITHMETIC: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

# Identity-keyed memo: value equality would conflate Constant(0) with
# Constant(False), entries pin their key expression so a live id cannot
# be reused, and the cache is bounded (cleared whole at the limit) and
# lock-guarded for concurrent service clients and step-DAG workers.
_CACHE: Dict[int, Tuple[ex.ScalarExpr, Kernel]] = {}
_CACHE_LIMIT = 8192
_CACHE_LOCK = threading.RLock()


def compile_kernel(expr: ex.ScalarExpr) -> Kernel:
    """Compile ``expr`` into a kernel ``batch -> column``.  Thread-safe."""
    key = id(expr)
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is not None and entry[0] is expr:
            return entry[1]
        fn = _compile(expr)
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
        _CACHE[key] = (expr, fn)
        return fn


def clear_kernel_cache() -> None:
    """Drop all memoized kernels (tests / memory pressure)."""
    with _CACHE_LOCK:
        _CACHE.clear()


# -- node compilers --------------------------------------------------------------


def _compile(expr: ex.ScalarExpr) -> Kernel:
    if isinstance(expr, ex.Constant):
        value = expr.value
        return lambda batch: [value] * batch.length

    if isinstance(expr, ex.ColumnVar):
        var_id = expr.id

        def load_column(batch):
            try:
                return batch.columns[var_id]
            except KeyError:
                raise UnboundColumn(var_id) from None

        return load_column

    if isinstance(expr, ex.Comparison):
        return _compile_comparison(expr)

    if isinstance(expr, ex.Arithmetic):
        return _compile_arithmetic(expr)

    if isinstance(expr, ex.BoolOp):
        return _compile_bool_op(expr)

    if isinstance(expr, ex.NotExpr):
        operand = compile_kernel(expr.operand)
        return lambda batch: [
            None if value is None else (not value)
            for value in operand(batch)
        ]

    if isinstance(expr, ex.LikeExpr):
        return _compile_like(expr)

    if isinstance(expr, ex.InListExpr):
        return _compile_in_list(expr)

    if isinstance(expr, ex.IsNullExpr):
        operand = compile_kernel(expr.operand)
        if expr.negated:
            return lambda batch: [value is not None
                                  for value in operand(batch)]
        return lambda batch: [value is None for value in operand(batch)]

    if isinstance(expr, ex.CastExpr):
        operand = compile_kernel(expr.operand)
        kind = expr.target.kind
        return lambda batch: [_cast(value, kind)
                              for value in operand(batch)]

    if isinstance(expr, ex.CaseWhen):
        return _compile_case(expr)

    if isinstance(expr, ex.FuncExpr):
        return _compile_function(expr)

    if isinstance(expr, ex.AggExpr):
        return _raising("aggregate evaluated outside GroupBy")

    return _raising(f"cannot evaluate {type(expr).__name__}")


def _raising(message: str) -> Kernel:
    def fail(batch):
        raise ExecutionError(message)

    return fail


def _compile_comparison(expr: ex.Comparison) -> Kernel:
    compare = _COMPARISONS.get(expr.op)
    if compare is None:
        return _raising(f"unknown comparison {expr.op}")

    left_is_const = isinstance(expr.left, ex.Constant)
    right_is_const = isinstance(expr.right, ex.Constant)

    if (isinstance(expr.left, ex.ColumnVar)
            and isinstance(expr.right, ex.ColumnVar)):
        left_id = expr.left.id
        right_id = expr.right.id

        def compare_columns(batch):
            columns = batch.columns
            try:
                left_col = columns[left_id]
                right_col = columns[right_id]
            except KeyError as exc:
                raise UnboundColumn(exc.args[0]) from None
            return [
                None if lv is None or rv is None else compare(lv, rv)
                for lv, rv in zip(left_col, right_col)
            ]

        return compare_columns

    if right_is_const and not left_is_const:
        constant = expr.right.value
        left = compile_kernel(expr.left)
        if constant is None:
            # The non-constant side still evaluates (UnboundColumn /
            # error parity); the result is uniformly NULL.
            def left_then_null(batch):
                left(batch)
                return [None] * batch.length

            return left_then_null

        return lambda batch: [
            None if value is None else compare(value, constant)
            for value in left(batch)
        ]

    if left_is_const and not right_is_const:
        constant = expr.left.value
        right = compile_kernel(expr.right)
        if constant is None:

            def right_then_null(batch):
                right(batch)
                return [None] * batch.length

            return right_then_null

        return lambda batch: [
            None if value is None else compare(constant, value)
            for value in right(batch)
        ]

    left = compile_kernel(expr.left)
    right = compile_kernel(expr.right)

    def comparison(batch):
        left_col = left(batch)
        right_col = right(batch)
        return [
            None if lv is None or rv is None else compare(lv, rv)
            for lv, rv in zip(left_col, right_col)
        ]

    return comparison


def _compile_arithmetic(expr: ex.Arithmetic) -> Kernel:
    apply = _PLAIN_ARITHMETIC.get(expr.op)
    if apply is not None:
        # Constant-operand fusion for + - * (``1 - l_discount`` et al.).
        if (isinstance(expr.right, ex.Constant)
                and expr.right.value is not None
                and not isinstance(expr.left, ex.Constant)):
            constant = expr.right.value
            left = compile_kernel(expr.left)
            return lambda batch: [
                None if value is None else apply(value, constant)
                for value in left(batch)
            ]

        if (isinstance(expr.left, ex.Constant)
                and expr.left.value is not None
                and not isinstance(expr.right, ex.Constant)):
            constant = expr.left.value
            right = compile_kernel(expr.right)
            return lambda batch: [
                None if value is None else apply(constant, value)
                for value in right(batch)
            ]

    left = compile_kernel(expr.left)
    right = compile_kernel(expr.right)
    if apply is not None:

        def arithmetic(batch):
            left_col = left(batch)
            right_col = right(batch)
            return [
                None if lv is None or rv is None else apply(lv, rv)
                for lv, rv in zip(left_col, right_col)
            ]

        return arithmetic

    if expr.op in ("/", "%"):
        modulo = expr.op == "%"

        def divide(batch):
            left_col = left(batch)
            right_col = right(batch)
            out = []
            append = out.append
            for lv, rv in zip(left_col, right_col):
                if lv is None or rv is None:
                    append(None)
                elif rv == 0:
                    raise ExecutionError("division by zero")
                elif modulo:
                    append(lv % rv)
                else:
                    append(lv / rv)
            return out

        return divide

    if expr.op == "||":

        def concat(batch):
            left_col = left(batch)
            right_col = right(batch)
            return [
                None if lv is None or rv is None else str(lv) + str(rv)
                for lv, rv in zip(left_col, right_col)
            ]

        return concat

    return _raising(f"unknown arithmetic operator {expr.op}")


def _suffix_columns(args: Tuple[ex.ScalarExpr, ...]) -> List[FrozenSet[int]]:
    """``suffix[k]`` = column ids any of ``args[k:]`` reads — what a
    narrowed sub-batch must carry before evaluating argument ``k``."""
    suffixes: List[FrozenSet[int]] = []
    acc: FrozenSet[int] = frozenset()
    for arg in reversed(args):
        acc = acc | arg.columns_used()
        suffixes.append(acc)
    suffixes.reverse()
    return suffixes


def _compile_bool_op(expr: ex.BoolOp) -> Kernel:
    kernels = [compile_kernel(arg) for arg in expr.args]
    suffixes = _suffix_columns(expr.args)
    # AND decides on False, OR on True; a non-decisive non-NULL value
    # leaves the running Kleene state (the complement) unchanged, NULL
    # turns it to NULL.  Rows keep evaluating later arguments until
    # decided — exactly the evaluator's loop, which only early-exits on
    # the decisive value.
    decisive = expr.op != "AND"

    def bool_op(batch):
        first = kernels[0](batch)
        result: List = []
        append = result.append
        active: List[int] = []
        activate = active.append
        for i, value in enumerate(first):
            if value is decisive:
                append(decisive)
            else:
                append(None if value is None else (not decisive))
                activate(i)
        for position in range(1, len(kernels)):
            if not active:
                break
            if len(active) == batch.length:
                sub = batch
            else:
                sub = batch.take(active, suffixes[position])
            values = kernels[position](sub)
            still: List[int] = []
            keep = still.append
            for j, i in enumerate(active):
                value = values[j]
                if value is decisive:
                    result[i] = decisive
                else:
                    if value is None:
                        result[i] = None
                    keep(i)
            active = still
        return result

    return bool_op


def _compile_like(expr: ex.LikeExpr) -> Kernel:
    operand = compile_kernel(expr.operand)
    match = _like_regex(expr.pattern).match
    negated = expr.negated

    def like(batch):
        out = []
        append = out.append
        for value in operand(batch):
            if value is None:
                append(None)
            else:
                matched = match(str(value)) is not None
                append((not matched) if negated else matched)
        return out

    return like


def _compile_in_list(expr: ex.InListExpr) -> Kernel:
    operand = compile_kernel(expr.operand)
    negated = expr.negated
    values = expr.values
    try:
        table = frozenset(values)
    except TypeError:  # unhashable literal — keep the linear scan
        table = None

    if table is not None:

        def in_set(batch):
            out = []
            append = out.append
            for value in operand(batch):
                if value is None:
                    append(None)
                    continue
                try:
                    found = value in table
                except TypeError:  # unhashable probe value
                    found = value in values
                append((not found) if negated else found)
            return out

        return in_set

    def in_tuple(batch):
        out = []
        append = out.append
        for value in operand(batch):
            if value is None:
                append(None)
            else:
                found = value in values
                append((not found) if negated else found)
        return out

    return in_tuple


def _compile_case(expr: ex.CaseWhen) -> Kernel:
    whens = [
        (compile_kernel(condition), condition.columns_used(),
         compile_kernel(result), result.columns_used())
        for condition, result in expr.whens
    ]
    if expr.otherwise is not None:
        otherwise = compile_kernel(expr.otherwise)
        otherwise_cols = expr.otherwise.columns_used()
    else:
        otherwise = None
        otherwise_cols = frozenset()

    def case(batch):
        length = batch.length
        result: List = [None] * length
        active = list(range(length))
        for cond_kernel, cond_cols, res_kernel, res_cols in whens:
            if not active:
                break
            sub = (batch if len(active) == length
                   else batch.take(active, cond_cols))
            cond_values = cond_kernel(sub)
            taken: List[int] = []
            rest: List[int] = []
            for j, i in enumerate(active):
                (taken if cond_values[j] is True else rest).append(i)
            if taken:
                res_sub = (batch if len(taken) == length
                           else batch.take(taken, res_cols))
                res_values = res_kernel(res_sub)
                for j, i in enumerate(taken):
                    result[i] = res_values[j]
            active = rest
        if otherwise is not None and active:
            sub = (batch if len(active) == length
                   else batch.take(active, otherwise_cols))
            values = otherwise(sub)
            for j, i in enumerate(active):
                result[i] = values[j]
        return result

    return case


def _compile_function(expr: ex.FuncExpr) -> Kernel:
    kernels = [compile_kernel(arg) for arg in expr.args]
    name = expr.name.upper()

    if not kernels:
        return lambda batch: [
            apply_scalar_function(name, [])
            for _ in range(batch.length)
        ]

    def call(batch):
        columns = [kernel(batch) for kernel in kernels]
        out = []
        append = out.append
        for values in zip(*columns):
            if any(value is None for value in values):
                append(None)
            else:
                append(apply_scalar_function(name, list(values)))
        return out

    return call
