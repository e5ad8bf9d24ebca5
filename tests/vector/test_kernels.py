"""Vector kernel ⇄ evaluator differential tests.

A kernel applied to a column batch must produce, row for row, exactly
what the tree-walking evaluator produces on each row's environment —
values, NULL propagation and error behaviour alike.  The one documented
divergence (kernels evaluate column-major, so when *different operands*
would error on *different rows* the surfaced error may be another row's)
is pinned by asserting the raised error class is one some row would
raise.

The randomized sweep draws NULL-laden expression trees (comparisons,
arithmetic, LIKE, IN, CASE, boolean logic) from a deterministic
generator; environments become batches by fixing the bound-column set
once per batch (a batch either has a column for every row or for none —
exactly the shape the executor feeds kernels).

Every differential case runs the one compiler,
:mod:`repro.vector.np_kernels`, over the batch twice: with its columns
sniffed into typed arrays (``numpy``), and with every input column
forced to the object kind (``object``), so the evaluator's row
fallback runs wherever an operator has no array form — same
expression, same rows, outputs compared value-for-value (``pylist()``
restores native Python values, so identity checks like ``value is
None`` apply unchanged).
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple

import numpy as np
import pytest

from repro.algebra import expressions as ex
from repro.algebra.evaluator import UnboundColumn, evaluate
from repro.common.errors import ExecutionError
from repro.common.types import BOOLEAN, DOUBLE, INTEGER, varchar
from repro.vector import (
    clear_np_kernel_cache,
    compile_np_kernel,
    compile_np_selection,
)
from repro.vector.np_batch import ArrayBatch, NumpyColumn, column_from_list

INT_A = ex.ColumnVar(1, "a", INTEGER)
INT_B = ex.ColumnVar(2, "b", INTEGER)
DBL_C = ex.ColumnVar(3, "c", DOUBLE)
STR_S = ex.ColumnVar(4, "s", varchar(20))
STR_T = ex.ColumnVar(5, "t", varchar(20))


def outcome(fn, *args):
    """(tag, value) summary of a call, folding errors into the tag."""
    try:
        return ("ok", fn(*args))
    except ExecutionError:
        return ("execution-error",)
    except UnboundColumn:
        return ("unbound-column",)


class ExprGen:
    """Deterministic random expression trees, typed to avoid Python
    TypeErrors that SQL would never produce (e.g. ``'x' < 3``)."""

    LIKE_PATTERNS = ["%", "a%", "%z", "_b%", "abc", "%bc_", "a_c"]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def const_int(self):
        return ex.Constant(self.rng.choice([None, -3, 0, 1, 2, 7, 100]))

    def const_str(self):
        return ex.Constant(self.rng.choice(
            [None, "", "a", "abc", "abz", "zebra", "bcb"]))

    def num(self, depth):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.rng.choice([
                self.const_int, lambda: INT_A, lambda: INT_B,
                lambda: DBL_C])()
        pick = self.rng.random()
        if pick < 0.7:
            op = self.rng.choice(["+", "-", "*", "/", "%"])
            return ex.Arithmetic(op, self.num(depth - 1),
                                 self.num(depth - 1))
        return ex.CaseWhen(
            whens=((self.boolean(depth - 1), self.num(depth - 1)),),
            otherwise=(self.num(depth - 1)
                       if self.rng.random() < 0.7 else None))

    def string(self, depth):
        if depth <= 0 or self.rng.random() < 0.5:
            return self.rng.choice(
                [self.const_str, lambda: STR_S, lambda: STR_T])()
        return ex.Arithmetic("||", self.string(depth - 1),
                             self.string(depth - 1))

    def boolean(self, depth):
        if depth <= 0:
            return ex.Constant(self.rng.choice([True, False, None]),
                               BOOLEAN)
        pick = self.rng.random()
        if pick < 0.30:
            op = self.rng.choice(["=", "<>", "<", "<=", ">", ">="])
            if self.rng.random() < 0.7:
                return ex.Comparison(op, self.num(depth - 1),
                                     self.num(depth - 1))
            return ex.Comparison(op, self.string(depth - 1),
                                 self.string(depth - 1))
        if pick < 0.45:
            return ex.BoolOp(
                self.rng.choice(["AND", "OR"]),
                tuple(self.boolean(depth - 1)
                      for _ in range(self.rng.randint(2, 3))))
        if pick < 0.55:
            return ex.NotExpr(self.boolean(depth - 1))
        if pick < 0.70:
            return ex.LikeExpr(self.string(depth - 1),
                               self.rng.choice(self.LIKE_PATTERNS),
                               negated=self.rng.random() < 0.5)
        if pick < 0.85:
            values = tuple(self.rng.sample([-3, 0, 1, 2, 7, 100],
                                           self.rng.randint(1, 4)))
            return ex.InListExpr(self.num(depth - 1), values,
                                 negated=self.rng.random() < 0.5)
        return ex.IsNullExpr(
            self.rng.choice([self.num, self.string])(depth - 1),
            negated=self.rng.random() < 0.5)


class Rows(NamedTuple):
    """A test batch before it meets a kernel: native values per bound
    column id, and the row count (zero-column batches keep theirs)."""

    columns: Dict[int, List]
    length: int


def object_column(values) -> NumpyColumn:
    """``values`` as an object column, whatever their types."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return NumpyColumn("o", array)


def typed(batch: Rows) -> ArrayBatch:
    """Every column sniffed into its typed kind."""
    return ArrayBatch({cid: column_from_list(col)
                       for cid, col in batch.columns.items()},
                      batch.length)


def as_objects(batch: Rows) -> ArrayBatch:
    """Every column forced to the object kind: no array form applies,
    so each operator takes its Python path (the evaluator's row
    fallback, or the evaluator's scalar rule per value)."""
    return ArrayBatch({cid: object_column(col)
                       for cid, col in batch.columns.items()},
                      batch.length)


def object_compiler(expr):
    """The numpy kernel over object columns: ``Rows -> list``."""
    kernel = compile_np_kernel(expr)
    return lambda batch: kernel(as_objects(batch)).pylist()


def np_compiler(expr):
    """The numpy kernel over typed columns, adapted to the same
    signature — the result column comes back as native Python
    values."""
    kernel = compile_np_kernel(expr)
    return lambda batch: kernel(typed(batch)).pylist()


def run_object_kernel(expr, batch):
    return object_compiler(expr)(batch)


def run_np_kernel(expr, batch):
    return np_compiler(expr)(batch)


def run_object_selection(predicate, batch):
    mask = compile_np_selection(predicate)(as_objects(batch))
    return np.flatnonzero(mask).tolist()


def run_np_selection(predicate, batch):
    mask = compile_np_selection(predicate)(typed(batch))
    return np.flatnonzero(mask).tolist()


#: Each runner maps (expr, Rows) to a plain list of native Python
#: values; each compiler maps expr to a ``Rows -> list`` callable (for
#: tests that pin compile-time vs batch-time behaviour).
KERNEL_RUNNERS = [pytest.param(run_object_kernel, id="object"),
                  pytest.param(run_np_kernel, id="numpy")]
KERNEL_COMPILERS = [pytest.param(object_compiler, id="object"),
                    pytest.param(np_compiler, id="numpy")]
SELECTION_RUNNERS = [pytest.param(run_object_selection, id="object"),
                     pytest.param(run_np_selection, id="numpy")]

NULL = ex.Constant(None)
ONE = ex.Constant(1)
TWO = ex.Constant(2)

COLUMN_VALUES = [
    (INT_A, [None, -3, 0, 1, 2, 7]),
    (INT_B, [None, 0, 1, 5, 100]),
    (DBL_C, [None, -1.5, 0.0, 2.25, 9.5]),
    (STR_S, [None, "", "a", "abc", "bcb", "zebra"]),
    (STR_T, [None, "a", "abz", "xyz"]),
]


def batch_of(rows_envs):
    """A batch from per-row environments sharing one key set."""
    if not rows_envs:
        return Rows({}, 0)
    ids = rows_envs[0].keys()
    assert all(env.keys() == ids for env in rows_envs)
    return Rows(
        {cid: [env[cid] for env in rows_envs] for cid in ids},
        len(rows_envs))


def assert_batch_agrees(expr, rows_envs):
    """Every kernel compiler's column must match the evaluator row by
    row; if any row errors, the kernel must raise an error some row
    raises."""
    expected = [outcome(evaluate, expr, env) for env in rows_envs]
    batch = batch_of(rows_envs)
    error_tags = {tag for tag, *_ in expected if tag != "ok"}
    for param in KERNEL_RUNNERS:
        run, which = param.values[0], param.id
        got = outcome(run, expr, batch)
        if error_tags:
            assert got[0] in error_tags, (
                f"{which} kernel outcome {got} not among per-row errors "
                f"{error_tags} for {expr}")
            continue
        assert got[0] == "ok", (
            f"{which} kernel errored ({got}) on error-free {expr}")
        values = got[1]
        assert len(values) == len(rows_envs)
        for value, (_, want) in zip(values, expected):
            assert value == want and (value is None) == (want is None), (
                f"{which} kernel disagrees on {expr}: "
                f"got {value!r} want {want!r}")


# -- targeted three-valued logic --------------------------------------------------


class TestThreeValuedLogic:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_comparison_null_propagation(self, op):
        expr = ex.Comparison(op, INT_A, INT_B)
        envs = [{1: a, 2: b}
                for a in (None, 0, 1, 2)
                for b in (None, 0, 1, 5)]
        assert_batch_agrees(expr, envs)

    @pytest.mark.parametrize("op", ["+", "-", "*", "||"])
    def test_arithmetic_null_propagation(self, op):
        expr = ex.Arithmetic(op, INT_A, INT_B)
        envs = [{1: a, 2: b}
                for a in (None, 1, 3) for b in (None, 2, 5)]
        assert_batch_agrees(expr, envs)

    @pytest.mark.parametrize("run", KERNEL_RUNNERS)
    @pytest.mark.parametrize("args,expected", [
        ((True, True), True), ((True, None), None), ((True, False), False),
        ((None, None), None), ((False, None), False),
    ])
    def test_kleene_and(self, args, expected, run):
        expr = ex.BoolOp("AND", tuple(ex.Constant(a, BOOLEAN) for a in args))
        column = run(expr, Rows({}, 3))
        assert column == [expected] * 3
        assert all(value is expected for value in column)

    @pytest.mark.parametrize("run", KERNEL_RUNNERS)
    @pytest.mark.parametrize("args,expected", [
        ((False, False), False), ((False, None), None),
        ((True, None), True), ((None, None), None),
    ])
    def test_kleene_or(self, args, expected, run):
        expr = ex.BoolOp("OR", tuple(ex.Constant(a, BOOLEAN) for a in args))
        column = run(expr, Rows({}, 2))
        assert column == [expected] * 2
        assert all(value is expected for value in column)

    def test_boolop_over_columns(self):
        expr = ex.BoolOp("AND", (
            ex.Comparison(">", INT_A, ex.Constant(0)),
            ex.Comparison("<", INT_B, ex.Constant(10)),
            ex.IsNullExpr(STR_S, negated=True),
        ))
        envs = [{1: a, 2: b, 4: s}
                for a in (None, -1, 1)
                for b in (None, 5, 50)
                for s in (None, "x")]
        assert_batch_agrees(expr, envs)

    def test_non_bool_operands_normalize(self):
        # evaluate() folds truthy/falsy non-bools through its `is True`
        # checks; kernels must land on the identical True/False/None.
        for op in ("AND", "OR"):
            for value in (0, 1, "", "x"):
                expr = ex.BoolOp(op, (ex.Constant(value),
                                      ex.Constant(False, BOOLEAN)))
                assert_batch_agrees(expr, [{}])

    def test_case_without_match_is_null(self):
        expr = ex.CaseWhen(
            whens=((ex.Comparison("=", INT_A, TWO), ex.Constant("two")),))
        assert_batch_agrees(expr, [{1: v} for v in (1, 2, None)])

    def test_not_like_in_isnull_parity(self):
        exprs = [
            ex.NotExpr(ex.Comparison("=", INT_A, ONE)),
            ex.LikeExpr(STR_S, "a%"),
            ex.LikeExpr(STR_S, "%b_", negated=True),
            ex.InListExpr(INT_A, (1, 2, 3)),
            ex.InListExpr(INT_A, (1, 2), negated=True),
            ex.IsNullExpr(INT_A),
            ex.IsNullExpr(INT_A, negated=True),
        ]
        for expr in exprs:
            envs = [{1: a, 4: s}
                    for a in (None, 1, 7) for s in (None, "abc", "zb")]
            assert_batch_agrees(expr, envs)


# -- short-circuit parity via selection narrowing ---------------------------------


class TestNarrowing:
    def test_and_guard_shields_division(self):
        # Rows excluded by the guard must never reach the division —
        # x = 0 rows would otherwise raise.
        guard = ex.BoolOp("AND", (
            ex.Comparison("<>", INT_A, ex.Constant(0)),
            ex.Comparison(">", ex.Arithmetic("/", ex.Constant(10), INT_A),
                          ONE),
        ))
        envs = [{1: v} for v in (0, 2, None, 5, 0, 20)]
        assert_batch_agrees(guard, envs)

    def test_or_guard_shields_division(self):
        guard = ex.BoolOp("OR", (
            ex.Comparison("=", INT_A, ex.Constant(0)),
            ex.Comparison(">", ex.Arithmetic("/", ex.Constant(10), INT_A),
                          ONE),
        ))
        envs = [{1: v} for v in (0, 2, None, 5, 0)]
        assert_batch_agrees(guard, envs)

    def test_case_arms_shield_division(self):
        expr = ex.CaseWhen(
            whens=((ex.Comparison("<>", INT_A, ex.Constant(0)),
                    ex.Arithmetic("/", ex.Constant(10), INT_A)),),
            otherwise=ex.Constant(-1))
        envs = [{1: v} for v in (0, 2, 0, 5, None)]
        assert_batch_agrees(expr, envs)

    @pytest.mark.parametrize("run", KERNEL_RUNNERS)
    def test_all_rows_decided_skips_later_args(self, run):
        # Second argument would raise unconditionally, but every row is
        # decided by the first — the row backends never evaluate it.
        never = ex.Arithmetic("/", ONE, ex.Constant(0))
        expr = ex.BoolOp("AND", (ex.Constant(False, BOOLEAN), never))
        assert run(expr, Rows({}, 4)) == [False] * 4
        expr = ex.BoolOp("OR", (ex.Constant(True, BOOLEAN), never))
        assert run(expr, Rows({}, 4)) == [True] * 4


# -- error parity -----------------------------------------------------------------


class TestErrorParity:
    @pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
    def test_division_by_zero_raises_at_batch_time(self, compiler):
        for op in ("/", "%"):
            expr = ex.Arithmetic(op, ONE, ex.Constant(0))
            kernel = compiler(expr)  # compiling must not raise
            with pytest.raises(ExecutionError):
                kernel(Rows({}, 2))

    def test_division_error_beats_null_left_operand(self):
        assert_batch_agrees(ex.Arithmetic("/", NULL, ex.Constant(0)), [{}])

    @pytest.mark.parametrize("run", KERNEL_RUNNERS)
    def test_unbound_column_raises(self, run):
        expr = ex.Arithmetic("+", INT_A, ONE)
        with pytest.raises(UnboundColumn):
            run(expr, Rows({}, 1))

    @pytest.mark.parametrize("run", KERNEL_RUNNERS)
    def test_null_constant_comparison_still_binds_other_side(self, run):
        # `a = NULL` is uniformly NULL, but the column side must still
        # be evaluated so a missing column raises exactly as in a row
        # backend.
        expr = ex.Comparison("=", INT_A, NULL)
        with pytest.raises(UnboundColumn):
            run(expr, Rows({}, 1))
        assert_batch_agrees(expr, [{1: v} for v in (None, 1, 2)])

    @pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
    def test_aggregate_raises_at_batch_time_not_compile_time(self,
                                                             compiler):
        kernel = compiler(ex.AggExpr("SUM", INT_A))
        with pytest.raises(ExecutionError):
            kernel(Rows({1: [3]}, 1))

    @pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
    def test_unknown_function_raises_at_batch_time(self, compiler):
        kernel = compiler(ex.FuncExpr("NO_SUCH_FN", (ONE,)))
        with pytest.raises(ExecutionError):
            kernel(Rows({}, 1))


# -- selection vectors ------------------------------------------------------------


class TestSelection:
    @pytest.mark.parametrize("select", SELECTION_RUNNERS)
    def test_none_predicate_selects_all(self, select):
        assert select(None, Rows({}, 4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("select", SELECTION_RUNNERS)
    def test_null_counts_as_false(self, select):
        predicate = ex.Comparison("=", INT_A, ONE)
        batch = Rows({1: [1, 2, None, 1]}, 4)
        assert select(predicate, batch) == [0, 3]

    @pytest.mark.parametrize("select", SELECTION_RUNNERS)
    def test_matches_evaluator_is_true_filter(self, select):
        gen = ExprGen(777)
        for _ in range(60):
            predicate = gen.boolean(3)
            envs = make_envs(gen, 7)
            expected = [outcome(lambda e: evaluate(predicate, e) is True,
                                env) for env in envs]
            got = outcome(select, predicate, batch_of(envs))
            tags = {tag for tag, *_ in expected if tag != "ok"}
            if tags:
                assert got[0] in tags
            else:
                assert got == ("ok", [i for i, (_, keep)
                                      in enumerate(expected) if keep])


# -- memoization ------------------------------------------------------------------


class TestKernelCache:
    def test_memoized_per_expression_object(self):
        # A tree with no array form (LIKE with `_`): its row fallback
        # is memoized like any kernel.
        clear_np_kernel_cache()
        expr = ex.LikeExpr(STR_S, "a_c")
        assert compile_np_kernel(expr) is compile_np_kernel(expr)

    def test_memo_distinguishes_equal_but_typed_constants(self):
        # Constant(0) == Constant(False) under dataclass equality, but
        # the `is True` Kleene checks must tell them apart — here with
        # the second argument on the row fallback.
        clear_np_kernel_cache()
        like = ex.LikeExpr(STR_S, "_")
        zero = ex.BoolOp("AND", (ex.Constant(0), like))
        false = ex.BoolOp("AND", (ex.Constant(False), like))
        batch = Rows({4: ["x"]}, 1)
        assert run_object_kernel(zero, batch) == [True]
        assert run_object_kernel(false, batch) == [False]
        assert run_object_kernel(zero, batch)[0] is evaluate(zero, {4: "x"})

    def test_empty_batch_yields_empty_column(self):
        expr = ex.Arithmetic("+", INT_A, ONE)
        assert run_object_kernel(expr, Rows({1: []}, 0)) == []

    def test_np_kernels_memoized_per_expression_object(self):
        clear_np_kernel_cache()
        expr = ex.Comparison("<", INT_A, TWO)
        assert compile_np_kernel(expr) is compile_np_kernel(expr)

    def test_np_memo_distinguishes_equal_but_typed_constants(self):
        clear_np_kernel_cache()
        zero = ex.BoolOp("AND", (ex.Constant(0),))
        false = ex.BoolOp("AND", (ex.Constant(False),))
        assert run_np_kernel(zero, Rows({}, 1))[0] is evaluate(zero, {})
        assert (run_np_kernel(false, Rows({}, 1))[0]
                is evaluate(false, {}))

    def test_np_empty_batch_yields_empty_column(self):
        expr = ex.Arithmetic("+", INT_A, ONE)
        assert run_np_kernel(expr, Rows({1: []}, 0)) == []


# -- randomized differential sweep ------------------------------------------------


def make_envs(gen: ExprGen, count: int):
    """``count`` single-row environments sharing one bound-column set."""
    bound = [pair for pair in COLUMN_VALUES if gen.rng.random() < 0.9]
    return [
        {var.id: gen.rng.choice(values) for var, values in bound}
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", range(40))
def test_random_expressions_batch_differential(seed):
    gen = ExprGen(seed)
    for _ in range(20):
        expr = gen.rng.choice(
            [gen.boolean, gen.num, gen.string])(gen.rng.randint(1, 4))
        assert_batch_agrees(expr, make_envs(gen, 10))
