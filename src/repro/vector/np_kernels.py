"""Numpy compilation of bound scalar expressions into array kernels.

The production executor's one expression compiler: a bound
``ScalarExpr`` tree compiles into a kernel ``ArrayBatch -> NumpyColumn``
whose inner loops are ufunc calls over typed arrays — C loops, one
Python step per operator instead of one per value.  (They release the
GIL too, but at a few thousand rows per node per step each call is
shorter than a thread hand-off: a per-node thread pool ran the same
plans slower than the serial walk — EXPERIMENTS.md "PR 17" — so the
gain is the C loop, not overlap.)

Semantics are the evaluator's (:func:`repro.algebra.evaluator.evaluate`,
the spec), enforced four ways:

* **runtime dtype dispatch** — every operator looks at the column
  kinds it actually received and takes the ufunc fast path only when
  it is provably bit-identical to the Python semantics (e.g. an
  int64/float64 mixed comparison vectorizes only while the int side
  fits in 2^53, because Python compares int-to-float exactly and
  float64 promotion does not — a literal operand is broadcast by the
  ufunc under the same rule, never materialized); otherwise it applies
  the evaluator's own scalar rule (``_compare``, ``_arithmetic``,
  ``_cast``) value by value over the columns' native-value views;
* **strings as arrays** — a dictionary-encoded column's entries are a
  ``StringDType`` array, so comparisons with a literal or another
  string column, ``IN``, LIKE patterns made of ``%`` and literal text
  (``==``, ``startswith``, ``endswith``, a ``find`` chain),
  ``SUBSTRING`` with integer literal arguments (``strings.slice``) and
  ``||`` of two strings (``strings.add``) are ``numpy.strings`` calls —
  per dictionary entry where one column is read, gathered by code.
  UTF-8 byte order is code-point order, which is Python's ``str``
  order.  A string result is re-encoded by ``np.unique``
  (:func:`~repro.vector.np_batch.encode_strings`), so every dictionary
  stays duplicate-free — GROUP BY reads codes as group codes;
* **once per distinct value** — an expression that reads exactly one
  column, over a batch that holds it dictionary-encoded
  (:class:`~repro.vector.np_batch.StringDictionary`), is evaluated by
  its own kernel over a batch of the distinct values *present* and
  gathered by code (:func:`_once_per_distinct`): entries no row has are
  never evaluated, so a CAST or the row fallback never sees a value an
  upstream filter removed;
* **whole-batch or narrowing AND/OR** — when no argument can raise
  (column/literal and column/column comparisons, ``IS NULL``, ``IN``,
  ``LIKE``, ``NOT``/AND/OR of those) and every column read is present
  and of a typed or dictionary-encoded kind its literals compare with
  (:func:`_total_requirements`), every argument runs over the whole
  batch and the Kleene state is folded with mask arithmetic — no
  sub-batch is cut.  Anything else (arithmetic, CAST, functions, CASE,
  a bare column, an object column, a missing column) keeps **masked
  narrowing**: argument ``k`` sees only the rows still undecided after
  ``k-1``, CASE arms only their rows — the evaluator's short circuit,
  so a guarded ``x <> 0 AND 10 / x > 1`` never divides on excluded
  rows.  A narrowed batch gathers only the columns its argument reads
  (:meth:`~repro.vector.np_batch.ArrayBatch.take`).

Three-valued logic travels in the explicit NULL mask
(:class:`~repro.vector.np_batch.NumpyColumn`), so NULL propagation is
one mask OR per binary operator.  Division by zero checks
``(divisor == 0) & ~null`` over the whole column and raises the same
:class:`ExecutionError` before computing anything.  What has no array
form over the columns it got — LIKE with ``_``, scalar functions with
non-literal arguments, ``||`` with a non-string operand, ``IN`` and
LIKE over an object column — runs the evaluator itself, row by row,
over the native values of the columns the expression reads
(:func:`_row_fallback`): parity by construction, row-major like the
oracle.

Kernels are memoized per expression identity: bounded, cleared whole
at the limit, lock-guarded for concurrent service executions — and
keyed by identity because value equality would conflate ``Constant(0)``
with ``Constant(False)``.
"""

from __future__ import annotations

import datetime
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algebra import expressions as ex
from repro.algebra.evaluator import (
    SUBSTRING_LENGTH_ERROR,
    UnboundColumn,
    _arithmetic,
    _cast,
    _compare,
    evaluate,
)
from repro.common.errors import ExecutionError
from repro.common.types import TypeKind
from repro.vector.np_batch import (
    STRINGS,
    ArrayBatch,
    NumpyColumn,
    StringDictionary,
    column_from_list,
    const_column,
    encode_strings,
    string_array,
)

#: A numpy kernel: one typed output column per input batch.
NKernel = Callable[[ArrayBatch], NumpyColumn]

_COMPARE_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}

#: Largest int magnitude exactly representable as float64 — the bound
#: under which int↔float promotion loses nothing.
_EXACT_FLOAT_INT = 2 ** 53

# Identity-keyed memo; entries pin their key expression so a live id
# cannot be reused.
_CACHE: Dict[int, Tuple[ex.ScalarExpr, NKernel]] = {}
_CACHE_LIMIT = 8192
_CACHE_LOCK = threading.RLock()


def compile_np_kernel(expr: ex.ScalarExpr) -> NKernel:
    """Compile ``expr`` into a kernel ``ArrayBatch -> NumpyColumn``.
    Thread-safe."""
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


def compile_np_selection(expr: Optional[ex.ScalarExpr]
                         ) -> Callable[[ArrayBatch], np.ndarray]:
    """Compile a predicate into ``batch -> keep mask``: a boolean array
    that is True exactly where the predicate value ``is True`` (NULL
    counts as False, as in the reference interpreter's filter)."""
    if expr is None:
        return lambda batch: np.ones(batch.length, dtype=np.bool_)
    kernel = compile_np_kernel(expr)
    return lambda batch: kernel(batch).is_true_mask()


def clear_np_kernel_cache() -> None:
    """Drop all memoized numpy kernels (tests / memory pressure)."""
    with _CACHE_LOCK:
        _CACHE.clear()


# -- helpers ---------------------------------------------------------------------


def _merge_masks(left: Optional[np.ndarray],
                 right: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _row_fallback(expr: ex.ScalarExpr) -> NKernel:
    """The evaluator, row by row, over the native values of the
    columns ``expr`` reads — exact parity by construction, short
    circuits and errors included (a column the batch lacks is missing
    from every row's environment, so :class:`UnboundColumn` is raised
    by the first row that reads it)."""
    used = sorted(expr.columns_used())

    def run(batch: ArrayBatch) -> NumpyColumn:
        columns = batch.columns
        ids = [cid for cid in used if cid in columns]
        rows = (zip(*[columns[cid].pylist() for cid in ids]) if ids
                else [()] * batch.length)
        return column_from_list(
            [evaluate(expr, dict(zip(ids, row))) for row in rows])

    return run


def _raising(message: str) -> NKernel:
    def fail(batch):
        raise ExecutionError(message)

    return fail


def _int_exceeds_exact_float(column: NumpyColumn) -> bool:
    values = column.values
    if not len(values):
        return False
    return max(abs(int(values.min())),
               abs(int(values.max()))) > _EXACT_FLOAT_INT


def _int_bounds(column: NumpyColumn) -> Tuple[int, int]:
    values = column.values
    if not len(values):
        return 0, 0
    return int(values.min()), int(values.max())


# -- node compilers --------------------------------------------------------------


def _compile(expr: ex.ScalarExpr) -> NKernel:
    kernel = _compile_node(expr)
    used = expr.columns_used()
    if len(used) != 1 or _reads_entries(expr):
        return kernel
    return _once_per_distinct(next(iter(used)), kernel)


def _reads_entries(expr: ex.ScalarExpr) -> bool:
    """Whether ``expr`` is a bare column, or a test whose own kernel
    reads a bare column's mask or dictionary entries and is total over
    them — ``IS NULL``, a comparison with a string literal, ``IN``, a
    ``%``-pattern LIKE — so running it once per distinct value would
    only add a gather."""
    if isinstance(expr, ex.Comparison):
        for column, literal in ((expr.left, expr.right),
                                (expr.right, expr.left)):
            if (isinstance(column, ex.ColumnVar)
                    and isinstance(literal, ex.Constant)):
                return _text(literal.value) is not None
        return False
    if isinstance(expr, (ex.IsNullExpr, ex.InListExpr, ex.LikeExpr)):
        if not isinstance(expr.operand, ex.ColumnVar):
            return False
        if isinstance(expr, ex.InListExpr):
            return _string_table(expr.values) is not None
        if isinstance(expr, ex.LikeExpr):
            return _like_parts(expr.pattern) is not None
        return True
    return isinstance(expr, ex.ColumnVar)


def _once_per_distinct(var_id: int, kernel: NKernel) -> NKernel:
    """``kernel``'s expression reads exactly one column, so over a batch
    that holds it dictionary-encoded the expression is a function of
    the entry: ``kernel`` runs over a batch of the distinct values
    *present* — one row per entry some row carries, one NULL row if
    some row is NULL — and the results are gathered by code.  A stale
    dictionary entry (one an upstream filter left no row for) is never
    evaluated, so it can neither raise nor be observed; a value some
    row has raises exactly what the per-row loop would.  A column whose
    rows carry every entry once is that batch already."""

    def evaluate_distinct(batch: ArrayBatch) -> NumpyColumn:
        column = batch.columns.get(var_id)
        if column is None or column.kind != "s":
            return kernel(batch)
        codes, mask = column.values, column.mask
        if mask is not None and not mask.any():
            mask = None
        entries = column.dictionary.entries
        valid = codes if mask is None else codes[~mask]
        counts = np.bincount(valid, minlength=len(entries))
        if len(valid) == len(entries) and counts.max() == 1:
            return kernel(batch)
        present = np.flatnonzero(counts)
        distinct = len(present)
        position = np.empty(len(entries), dtype=np.int64)
        position[present] = np.arange(distinct)
        rows = position[codes]
        sub_codes = np.arange(distinct, dtype=np.int64)
        sub_mask = None
        if mask is not None:
            rows[mask] = distinct
            sub_codes = np.append(sub_codes, 0)
            sub_mask = np.arange(distinct + 1) == distinct
        # All rows NULL: the one NULL row still needs an entry to name.
        dictionary = StringDictionary(
            entries[present] if distinct else entries[:1])
        sub = ArrayBatch(
            {var_id: NumpyColumn("s", sub_codes, sub_mask, dictionary)},
            len(sub_codes))
        return kernel(sub).take(rows)

    return evaluate_distinct


def _compile_node(expr: ex.ScalarExpr) -> NKernel:
    if isinstance(expr, ex.Constant):
        value = expr.value
        return lambda batch: const_column(value, batch.length)

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
        return _compile_not(expr)

    if isinstance(expr, ex.InListExpr):
        return _compile_in_list(expr)

    if isinstance(expr, ex.IsNullExpr):
        operand = compile_np_kernel(expr.operand)
        negated = expr.negated

        def is_null(batch):
            nulls = operand(batch).null_mask()
            return NumpyColumn("b", ~nulls if negated else nulls)

        return is_null

    if isinstance(expr, ex.CastExpr):
        return _compile_cast(expr)

    if isinstance(expr, ex.CaseWhen):
        return _compile_case(expr)

    if isinstance(expr, ex.AggExpr):
        return _raising("aggregate evaluated outside GroupBy")

    if isinstance(expr, ex.LikeExpr):
        return _compile_like(expr)

    if isinstance(expr, ex.FuncExpr):
        return _compile_function(expr)

    return _row_fallback(expr)


# -- comparison ------------------------------------------------------------------


def _compile_comparison(expr: ex.Comparison) -> NKernel:
    op = expr.op
    ufunc = _COMPARE_UFUNCS.get(op)
    if ufunc is None:
        return _raising(f"unknown comparison {op}")

    for side, other in ((expr.left, expr.right),
                        (expr.right, expr.left)):
        if (isinstance(side, ex.Constant)
                and not isinstance(other, ex.Constant)):
            if side.value is not None:
                return _compile_literal_comparison(
                    compile_np_kernel(other), side.value, op, ufunc,
                    literal_first=side is expr.left)
            # NULL-constant comparison: the other side still evaluates
            # (UnboundColumn / error parity); the result is all-NULL.
            operand = compile_np_kernel(other)

            def evaluate_then_null(batch, operand=operand):
                operand(batch)
                length = batch.length
                return NumpyColumn(
                    "b", np.zeros(length, dtype=np.bool_),
                    np.ones(length, dtype=np.bool_))

            return evaluate_then_null

    left = compile_np_kernel(expr.left)
    right = compile_np_kernel(expr.right)

    def comparison(batch):
        lc = left(batch)
        rc = right(batch)
        lk, rk = lc.kind, rc.kind
        fast = False
        if lk == rk == "s":
            return NumpyColumn("b", ufunc(lc.strings(), rc.strings()),
                               _merge_masks(lc.mask, rc.mask))
        if lk == rk and lk in "ifbd":
            fast = True
        elif lk in "ifb" and rk in "ifb":
            # Mixed numeric: float64 promotion is exact only while the
            # int side fits 2^53 (Python compares int↔float exactly).
            fast = not (
                (lk == "i" and rk == "f"
                 and _int_exceeds_exact_float(lc))
                or (rk == "i" and lk == "f"
                    and _int_exceeds_exact_float(rc)))
        if fast:
            values = ufunc(lc.values, rc.values)
            return NumpyColumn("b", values,
                               _merge_masks(lc.mask, rc.mask))
        return column_from_list([
            _compare(op, lv, rv)
            for lv, rv in zip(lc.pylist(), rc.pylist())
        ])

    return comparison


def _text(value) -> Optional[str]:
    """``value`` when it is an exact ``str`` the string kernels can
    take (:func:`~repro.vector.np_batch.string_array`), else ``None``."""
    if type(value) is str and string_array([value]) is not None:
        return value
    return None


def _literal_operand(column: NumpyColumn, value):
    """``value`` as the scalar a comparison ufunc can broadcast against
    ``column.values`` with exactly Python's result for every row, or
    ``None`` when there is no such scalar (unrelated types, an int and
    a float that do not both fit 2^53, an int beyond int64)."""
    kind, vtype = column.kind, type(value)
    if kind == "d":
        return value.toordinal() if vtype is datetime.date else None
    if kind not in ("i", "f", "b") or vtype not in (int, float, bool):
        return None
    if vtype is float:
        if kind == "i" and _int_exceeds_exact_float(column):
            return None
        return value
    if kind == "f":
        return float(value) if abs(value) <= _EXACT_FLOAT_INT else None
    return int(value) if -2 ** 63 <= value < 2 ** 63 else None


def _compile_literal_comparison(operand: NKernel, value, op: str,
                                ufunc, literal_first: bool) -> NKernel:
    """Column-vs-literal comparison: the ufunc broadcasts the literal,
    no constant column is built; a string column compares its entries
    and gathers by code."""
    text = _text(value)

    def compare_literal(batch):
        col = operand(batch)
        encoded = col.kind == "s"
        scalar = text if encoded else _literal_operand(col, value)
        if scalar is not None:
            values = col.dictionary.entries if encoded else col.values
            result = (ufunc(scalar, values) if literal_first
                      else ufunc(values, scalar))
            return NumpyColumn("b", result[col.values] if encoded
                               else result, col.mask)
        if literal_first:
            return column_from_list([
                _compare(op, value, v) for v in col.pylist()])
        return column_from_list([
            _compare(op, v, value) for v in col.pylist()])

    return compare_literal


# -- arithmetic ------------------------------------------------------------------


def _int64_addition_safe(lc: NumpyColumn, rc: NumpyColumn) -> bool:
    llo, lhi = _int_bounds(lc)
    rlo, rhi = _int_bounds(rc)
    bound = 2 ** 62
    return (max(abs(llo), abs(lhi)) + max(abs(rlo), abs(rhi))) < bound


def _int64_product_safe(lc: NumpyColumn, rc: NumpyColumn) -> bool:
    llo, lhi = _int_bounds(lc)
    rlo, rhi = _int_bounds(rc)
    return (max(abs(llo), abs(lhi))
            * max(abs(rlo), abs(rhi))) < 2 ** 62


def _as_float_operand(column: NumpyColumn) -> Optional[np.ndarray]:
    """The column as a float64 operand with Python's mixed-arithmetic
    semantics (ints/bools convert to float64, exactly as Python
    promotes them), or ``None`` when no exact conversion exists."""
    if column.kind == "f":
        return column.values
    if column.kind in "ib":
        return column.values.astype(np.float64)
    return None


def _compile_arithmetic(expr: ex.Arithmetic) -> NKernel:
    op = expr.op
    left = compile_np_kernel(expr.left)
    right = compile_np_kernel(expr.right)

    if op in _ARITH_UFUNCS:
        ufunc = _ARITH_UFUNCS[op]
        product = op == "*"

        def arithmetic(batch):
            lc = left(batch)
            rc = right(batch)
            lk, rk = lc.kind, rc.kind
            if lk in "ib" and rk in "ib":
                safe = (_int64_product_safe(lc, rc) if product
                        else _int64_addition_safe(lc, rc))
                if safe:
                    # bool operands promote to int (True + True == 2).
                    lv = (lc.values if lk == "i"
                          else lc.values.astype(np.int64))
                    rv = (rc.values if rk == "i"
                          else rc.values.astype(np.int64))
                    return NumpyColumn("i", ufunc(lv, rv),
                                       _merge_masks(lc.mask, rc.mask))
            elif "f" in (lk, rk):
                lv = _as_float_operand(lc)
                rv = _as_float_operand(rc)
                if lv is not None and rv is not None:
                    return NumpyColumn("f", ufunc(lv, rv),
                                       _merge_masks(lc.mask, rc.mask))
            return column_from_list([
                _arithmetic(op, lv, rv)
                for lv, rv in zip(lc.pylist(), rc.pylist())
            ])

        return arithmetic

    if op in ("/", "%"):
        modulo = op == "%"

        def divide(batch):
            lc = left(batch)
            rc = right(batch)
            nulls = _merge_masks(lc.mask, rc.mask)
            lv = _as_float_operand(lc)
            rv = _as_float_operand(rc)
            int_int = lc.kind in "ib" and rc.kind in "ib"
            fast = lv is not None and rv is not None
            if fast and not int_int and (lc.kind == "i" or rc.kind == "i"):
                # int↔float promotion: exact only within 2^53.
                fast = not any(
                    c.kind == "i" and _int_exceeds_exact_float(c)
                    for c in (lc, rc))
            if fast and int_int and not modulo:
                # int / int still true-divides through float64; both
                # operands must be exactly representable.
                fast = not any(_int_exceeds_exact_float(c)
                               for c in (lc, rc))
            if fast and modulo and "f" in (lc.kind, rc.kind):
                # Non-finite float modulo has fiddly sign rules; let
                # Python decide those rare rows.
                fast = bool(np.isfinite(lv).all()
                            and np.isfinite(rv).all())
            if fast:
                zero = rv == 0
                if nulls is not None:
                    zero = zero & ~nulls
                if zero.any():
                    raise ExecutionError("division by zero")
                if modulo and int_int:
                    divisor = rc.values.astype(np.int64)
                    # NULL rows carry the 0 fill; dodge the spurious
                    # divide warning (the result is masked anyway).
                    divisor = np.where(divisor == 0, 1, divisor)
                    values = np.remainder(lc.values.astype(np.int64),
                                          divisor)
                    return NumpyColumn("i", values, nulls)
                safe_rv = np.where(rv == 0, 1.0, rv)
                values = (np.remainder(lv, safe_rv) if modulo
                          else np.true_divide(lv, safe_rv))
                return NumpyColumn("f", values, nulls)
            return column_from_list([
                _arithmetic(op, lval, rval)
                for lval, rval in zip(lc.pylist(), rc.pylist())])

        return divide

    if op == "||":
        fallback = _row_fallback(expr)

        def concat(batch):
            lc = left(batch)
            rc = right(batch)
            if lc.kind == rc.kind == "s":
                return encode_strings(
                    np.strings.add(lc.strings(), rc.strings()),
                    _merge_masks(lc.mask, rc.mask))
            return fallback(batch)

        return concat

    return _raising(f"unknown arithmetic operator {op}")


# -- boolean logic ---------------------------------------------------------------


def _kleene_state(column: NumpyColumn, decisive: bool
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(decided, null)`` masks for one AND/OR argument column
    (``null`` is ``None`` without NULLs), under the evaluator's
    identity test: only the exact Python bool ``decisive`` decides,
    NULL stays NULL, any other value leaves the running state
    unchanged."""
    if column.kind == "b":
        decided = column.values if decisive else ~column.values
        if column.mask is None:
            return decided, None
        return decided & ~column.mask, column.mask
    if column.kind == "o":
        n = len(column.values)
        decided = np.fromiter((v is decisive for v in column.values),
                              np.bool_, n)
        nulls = np.fromiter((v is None for v in column.values),
                            np.bool_, n)
        return decided, nulls
    return np.zeros(len(column.values), dtype=np.bool_), column.mask


#: Every kind but the object column's, as one class: enough for an
#: operator that never compares values across types.
_ANY_ENCODED = ("ifbds",)
#: The column kinds a literal of each type compares with without
#: raising (a NULL literal never compares at all).
_LITERAL_CLASSES = {int: ("ifb",), float: ("ifb",), bool: ("ifb",),
                    datetime.date: ("d",), str: ("s",),
                    type(None): _ANY_ENCODED}

_Requirement = Tuple[Tuple[int, ...], Tuple[str, ...]]


def _total_requirements(expr: ex.ScalarExpr
                        ) -> Optional[List[_Requirement]]:
    """When ``expr`` is *total* — evaluating it on a row it would never
    have reached cannot raise.  ``None``: not of a total shape
    (arithmetic, CAST, functions, CASE, a bare column or constant).
    Otherwise ``(column ids, kind classes)`` conditions a batch must
    meet: every id present, and the kinds of one condition's columns
    all inside one of its classes (a date column only meets date
    literals, and so on — a comparison across classes can raise
    ``TypeError``, and an object column can hold anything)."""
    if isinstance(expr, ex.Comparison):
        if expr.op not in _COMPARE_UFUNCS:
            return None
        left, right = expr.left, expr.right
        if isinstance(left, ex.ColumnVar) and isinstance(right,
                                                         ex.ColumnVar):
            return [((left.id, right.id), ("ifb", "d", "s"))]
        for column, literal in ((left, right), (right, left)):
            if (isinstance(column, ex.ColumnVar)
                    and isinstance(literal, ex.Constant)):
                classes = _LITERAL_CLASSES.get(type(literal.value))
                if classes is not None:
                    return [((column.id,), classes)]
        return None
    if isinstance(expr, (ex.InListExpr, ex.LikeExpr, ex.IsNullExpr)):
        if isinstance(expr.operand, ex.ColumnVar):
            return [((expr.operand.id,), _ANY_ENCODED)]
        return None
    if isinstance(expr, ex.NotExpr):
        return _total_requirements(expr.operand)
    if isinstance(expr, ex.BoolOp):
        requirements: List[_Requirement] = []
        for arg in expr.args:
            of_arg = _total_requirements(arg)
            if of_arg is None:
                return None
            requirements.extend(of_arg)
        return list(dict.fromkeys(requirements))
    return None


def _meets(batch: ArrayBatch, requirements: List[_Requirement]) -> bool:
    columns = batch.columns
    for ids, classes in requirements:
        kinds = []
        for cid in ids:
            column = columns.get(cid)
            if column is None:
                return False
            kinds.append(column.kind)
        if not any(all(kind in allowed for kind in kinds)
                   for allowed in classes):
            return False
    return True


def _compile_bool_op(expr: ex.BoolOp) -> NKernel:
    kernels = [compile_np_kernel(arg) for arg in expr.args]
    requirements = _total_requirements(expr)
    decisive = expr.op != "AND"

    def whole_batch(batch):
        """Every argument over every row, the Kleene state folded with
        mask arithmetic: decided where any argument decides, else NULL
        where any is NULL.  Argument order cannot matter once no
        argument can raise, and no sub-batch is cut."""
        decided = nulls = None
        for kernel in kernels:
            arg_decided, arg_nulls = _kleene_state(kernel(batch),
                                                   decisive)
            decided = (arg_decided if decided is None
                       else decided | arg_decided)
            if arg_nulls is not None:
                nulls = arg_nulls if nulls is None else nulls | arg_nulls
        if nulls is not None:
            nulls = nulls & ~decided
            if not nulls.any():
                nulls = None
        return NumpyColumn("b", decided if decisive else ~decided, nulls)

    def bool_op(batch):
        if requirements is not None and _meets(batch, requirements):
            return whole_batch(batch)
        # Something here can raise, or reads a column that is missing
        # or of no typed kind: evaluate argument k only on the rows
        # still undecided after argument k-1, as the evaluator does.
        decided, nulls = _kleene_state(kernels[0](batch), decisive)
        values = decided.copy() if decisive else ~decided
        null_out = (np.zeros(batch.length, dtype=np.bool_)
                    if nulls is None else nulls.copy())
        active = ~decided
        for position in range(1, len(kernels)):
            indices = np.flatnonzero(active)
            if not len(indices):
                break
            sub = (batch if len(indices) == batch.length
                   else batch.take(indices))
            decided_sub, nulls_sub = _kleene_state(
                kernels[position](sub), decisive)
            hit = indices[decided_sub]
            values[hit] = decisive
            null_out[hit] = False
            active[hit] = False
            # NULL at an undecided position turns the state NULL but
            # keeps the row active; non-decisive non-NULL leaves the
            # state untouched — exactly the evaluator's loop.
            if nulls_sub is not None:
                null_out[indices[nulls_sub & ~decided_sub]] = True
        return NumpyColumn("b", values,
                           null_out if null_out.any() else None)

    return bool_op


def _compile_not(expr: ex.NotExpr) -> NKernel:
    operand = compile_np_kernel(expr.operand)

    def negate(batch):
        col = operand(batch)
        kind = col.kind
        if kind == "b":
            return NumpyColumn("b", ~col.values, col.mask)
        if kind in "if":
            # Python truthiness: ``not x`` is ``x == 0`` for numbers
            # (NaN compares unequal to 0, and ``not nan`` is False —
            # they agree).
            return NumpyColumn("b", col.values == 0, col.mask)
        if kind == "d":
            return NumpyColumn(
                "b", np.zeros(len(col.values), dtype=np.bool_),
                col.mask)
        return column_from_list([
            None if value is None else (not value)
            for value in col.pylist()
        ])

    return negate


# -- IN lists --------------------------------------------------------------------


def _compile_in_list(expr: ex.InListExpr) -> NKernel:
    operand = compile_np_kernel(expr.operand)
    negated = expr.negated
    values = expr.values
    numeric_table = [v for v in values
                     if type(v) in (int, float, bool)]
    # ``np.isin`` equates through float64; table ints beyond 2^53 (or
    # any probe column that large, checked at runtime) need Python's
    # exact int↔float equality instead.
    numeric_exact = all(
        type(v) is not int or abs(v) <= _EXACT_FLOAT_INT
        for v in numeric_table)
    date_table = [v.toordinal() for v in values
                  if type(v) is datetime.date]
    string_table = _string_table(values)
    # A NULL member makes a row no member equals UNKNOWN, not FALSE.
    has_null = any(v is None for v in values)
    fallback = _row_fallback(expr)

    def result(found: np.ndarray, mask: Optional[np.ndarray]):
        if has_null:
            mask = _merge_masks(mask, ~found)
        return NumpyColumn("b", ~found if negated else found, mask)

    def in_list(batch):
        col = operand(batch)
        kind = col.kind
        if kind in "if" and numeric_exact:
            if kind == "i" and _int_exceeds_exact_float(col) and any(
                    type(v) is float for v in numeric_table):
                return fallback(batch)
            found = (np.isin(col.values, numeric_table)
                     if numeric_table
                     else np.zeros(len(col.values), dtype=np.bool_))
            return result(found, col.mask)
        if kind == "d":
            found = (np.isin(col.values, date_table) if date_table
                     else np.zeros(len(col.values), dtype=np.bool_))
            return result(found, col.mask)
        if kind == "s" and string_table is not None:
            found = np.isin(col.dictionary.entries, string_table)
            return result(found[col.values], col.mask)
        return fallback(batch)

    return in_list


# -- strings ---------------------------------------------------------------------


def _string_table(values) -> Optional[np.ndarray]:
    """The ``str`` members of an IN list as the table ``np.isin`` probes
    dictionary entries with — only a ``str`` can equal a ``str`` — or
    ``None`` when a member leaves no array form (a ``str`` subclass may
    redefine equality; see :func:`~repro.vector.np_batch.string_array`
    for the rest)."""
    texts = [v for v in values if isinstance(v, str)]
    if any(type(v) is not str for v in texts):
        return None
    return string_array(texts)


def _like_parts(pattern: str) -> Optional[List[str]]:
    """The literal runs of a LIKE pattern between its ``%`` wildcards,
    or ``None`` when it has no array form (a ``_``, or a character the
    string kernels cannot take)."""
    if "_" in pattern or _text(pattern) is None:
        return None
    return pattern.split("%")


def _like_matches(strings: np.ndarray, parts: List[str]) -> np.ndarray:
    """Which of ``strings`` match the ``%``-pattern of ``parts``: equal
    to the one part, or starting with the first, ending with the last,
    long enough for both, and holding the middle ones in order — each
    found leftmost after the one before (greedy leftmost placement
    matches whenever any placement does)."""
    if len(parts) == 1:
        return strings == parts[0]
    head, *middle, tail = parts
    lengths = np.strings.str_len(strings)
    matched = (np.strings.startswith(strings, head)
               & np.strings.endswith(strings, tail)
               & (lengths >= len(head) + len(tail)))
    position = len(head)
    end = lengths - len(tail)
    for part in middle:
        if part:
            found = np.strings.find(strings, part, position, end)
            matched &= found >= 0
            position = found + len(part)
    return matched


def _compile_like(expr: ex.LikeExpr) -> NKernel:
    fallback = _row_fallback(expr)
    parts = _like_parts(expr.pattern)
    if parts is None:
        return fallback
    operand = compile_np_kernel(expr.operand)
    negated = expr.negated

    def like(batch):
        col = operand(batch)
        if col.kind != "s":
            return fallback(batch)
        matched = _like_matches(col.dictionary.entries, parts)
        return NumpyColumn("b", (matched != negated)[col.values],
                           col.mask)

    return like


def _compile_function(expr: ex.FuncExpr) -> NKernel:
    """``SUBSTRING(s, start, length)`` with integer literal bounds is
    one ``strings.slice`` over the entries — the evaluator's bounds: a
    start before 1 clips to the first character, and a negative length
    raises once some row is not NULL.  Every other call is the row
    fallback's."""
    fallback = _row_fallback(expr)
    if expr.name.upper() != "SUBSTRING" or len(expr.args) != 3:
        return fallback
    text, start, length = expr.args
    if not all(isinstance(arg, ex.Constant) and type(arg.value) is int
               and abs(arg.value) < 2 ** 62 for arg in (start, length)):
        return fallback
    operand = compile_np_kernel(text)
    first = max(start.value - 1, 0)
    stop = max(start.value - 1 + length.value, 0)
    negative = length.value < 0

    def substring(batch):
        col = operand(batch)
        if col.kind != "s":
            return fallback(batch)
        if negative and not col.null_mask().all():
            raise ExecutionError(SUBSTRING_LENGTH_ERROR)
        sliced = encode_strings(
            np.strings.slice(col.dictionary.entries, first, stop))
        return NumpyColumn("s", sliced.values[col.values], col.mask,
                           sliced.dictionary)

    return substring


# -- casts -----------------------------------------------------------------------


def _compile_cast(expr: ex.CastExpr) -> NKernel:
    operand = compile_np_kernel(expr.operand)
    kind = expr.target.kind

    def cast(batch):
        col = operand(batch)
        ck = col.kind
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            if ck in "ib":
                return NumpyColumn(
                    "i", col.values.astype(np.int64), col.mask)
            if ck == "f":
                values = col.values
                finite = np.isfinite(values)
                if finite.all() and bool(
                        (np.abs(values) < 2.0 ** 62).all()):
                    # Python int(float) truncates toward zero.
                    return NumpyColumn(
                        "i", np.trunc(values).astype(np.int64),
                        col.mask)
        elif kind in (TypeKind.DECIMAL, TypeKind.DOUBLE):
            if ck == "f":
                return col
            if ck in "ib":
                return NumpyColumn(
                    "f", col.values.astype(np.float64), col.mask)
        elif kind is TypeKind.BOOLEAN:
            if ck == "b":
                return col
            if ck in "if":
                # bool(x) for numbers is x != 0 (bool(nan) is True and
                # NaN != 0 agrees).
                return NumpyColumn("b", col.values != 0, col.mask)
            if ck == "d":
                return NumpyColumn(
                    "b", np.ones(len(col.values), dtype=np.bool_),
                    col.mask)
        elif kind in (TypeKind.VARCHAR, TypeKind.CHAR):
            if ck == "s":
                return col  # str() of an exact str is itself
        return column_from_list(
            [_cast(value, kind) for value in col.pylist()])

    return cast


# -- CASE ------------------------------------------------------------------------


def _compile_case(expr: ex.CaseWhen) -> NKernel:
    whens = [(compile_np_kernel(condition), compile_np_kernel(result))
             for condition, result in expr.whens]
    otherwise = (compile_np_kernel(expr.otherwise)
                 if expr.otherwise is not None else None)

    def case(batch):
        length = batch.length
        active = np.ones(length, dtype=np.bool_)
        arms: List[Tuple[np.ndarray, NumpyColumn]] = []
        for cond_kernel, res_kernel in whens:
            undecided = np.flatnonzero(active)
            if not len(undecided):
                break
            sub = (batch if len(undecided) == length
                   else batch.take(undecided))
            taken = undecided[cond_kernel(sub).is_true_mask()]
            if len(taken):
                res_sub = (batch if len(taken) == length
                           else batch.take(taken))
                arms.append((taken, res_kernel(res_sub)))
                active[taken] = False
        if otherwise is not None and active.any():
            rest = np.flatnonzero(active)
            sub = batch if len(rest) == length else batch.take(rest)
            arms.append((rest, otherwise(sub)))
            active[rest] = False
        return _scatter_arms(length, arms, active)

    return case


def _scatter_arms(length: int,
                  arms: List[Tuple[np.ndarray, NumpyColumn]],
                  unset: np.ndarray) -> NumpyColumn:
    """Assemble per-arm result columns back into row order.  Same-kind
    typed arms scatter into one typed array (string arms into one
    ``StringDType`` array, re-encoded); mixed kinds scatter their
    native values into one object array and are sniffed like the
    evaluator's result list."""
    if len(arms) == 1 and not unset.any():
        indices, col = arms[0]
        if len(indices) == length:
            return col
    kinds = {col.kind for _, col in arms}
    kind = kinds.pop() if len(kinds) == 1 else "o"
    if kind in "ifbds":
        values = np.zeros(length, dtype=(
            STRINGS if kind == "s" else np.bool_ if kind == "b" else
            np.float64 if kind == "f" else np.int64))
        if kind == "d":
            values[:] = 1  # date ordinals are >= 1
        mask = unset.copy()  # un-taken rows are NULL
        for indices, col in arms:
            values[indices] = col.strings() if kind == "s" else col.values
            if col.mask is not None:
                mask[indices] = col.mask
        if kind == "s":
            return encode_strings(values, mask)
        return NumpyColumn(kind, values,
                           mask if mask.any() else None)
    out = np.empty(length, dtype=object)  # un-taken rows are NULL
    for indices, col in arms:
        out[indices] = _objects(col)
    return column_from_list(out.tolist())


def _objects(column: NumpyColumn) -> np.ndarray:
    """A column's native values as an object array: numbers and bools
    convert in C (``astype(object)`` makes exact Python ``int`` /
    ``float`` / ``bool``), other kinds through :meth:`NumpyColumn.
    pylist`."""
    if column.kind == "o":
        return column.values
    if column.kind not in "ifb":
        values = np.empty(len(column), dtype=object)
        values[:] = column.pylist()
        return values
    values = column.values.astype(object)
    if column.mask is not None:
        values[column.mask] = None
    return values
