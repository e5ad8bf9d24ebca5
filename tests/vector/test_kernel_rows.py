"""Kernel ⇄ evaluator parity, one row at a time.

The column compiler must agree with the tree-walking evaluator on every
expression — over typed columns (``numpy``) and over columns forced to
the object kind, where operators take the evaluator's row fallback
(``object``): values, NULL propagation and error behaviour alike.  Each
case here runs on a one-row batch, so there is no column-major latitude
(``tests/vector/test_kernels.py`` allows a multi-row batch to surface
another row's error): the kernel's outcome, error class included, must
be exactly the evaluator's on that row's environment.

A deterministic random generator produces NULL-laden expression trees
(comparisons, arithmetic, LIKE, IN, CASE, boolean logic) and every tree
is checked on many environments, including ones with missing columns.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.algebra import expressions as ex
from repro.algebra.evaluator import UnboundColumn, evaluate
from repro.common.errors import ExecutionError
from repro.common.types import BOOLEAN, DOUBLE, INTEGER, varchar
from repro.vector import compile_np_selection

from tests.vector.test_kernels import (
    INT_A,
    KERNEL_COMPILERS,
    STR_S,
    ExprGen,
    as_objects,
    batch_of,
    make_envs,
    outcome,
    typed,
)


def run_row(compiler, expr, env):
    """The value ``compiler``'s kernel computes for ``env`` alone."""
    return compiler(expr)(batch_of([env]))[0]


def assert_agree(compiler, expr, env):
    interpreted = outcome(evaluate, expr, env)
    compiled = outcome(run_row, compiler, expr, env)
    assert compiled == interpreted, (
        f"kernel and evaluator disagree on {expr} with env {env}: "
        f"kernel={compiled} evaluator={interpreted}")
    if interpreted[0] == "ok":
        assert (compiled[1] is None) == (interpreted[1] is None)


def accepts_with(convert):
    def accepts(predicate, env):
        """Whether the selection keeps the row: its value ``is
        True``."""
        mask = compile_np_selection(predicate)(convert(batch_of([env])))
        assert mask.shape == (1,) and mask.dtype == np.bool_
        return bool(mask[0])

    return accepts


ACCEPTORS = [pytest.param(accepts_with(as_objects), id="object"),
             pytest.param(accepts_with(typed), id="numpy")]

NULL = ex.Constant(None)
ONE = ex.Constant(1)
TWO = ex.Constant(2)


# -- targeted three-valued-logic cases --------------------------------------------


@pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
class TestThreeValuedLogic:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_comparison_with_null_is_null(self, op, compiler):
        for pair in [(NULL, ONE), (ONE, NULL), (NULL, NULL)]:
            expr = ex.Comparison(op, *pair)
            assert run_row(compiler, expr, {}) is None
            assert_agree(compiler, expr, {})

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%", "||"])
    def test_arithmetic_with_null_is_null(self, op, compiler):
        expr = ex.Arithmetic(op, NULL, TWO)
        assert run_row(compiler, expr, {}) is None
        assert_agree(compiler, expr, {})

    @pytest.mark.parametrize("args,expected", [
        ((True, True), True), ((True, None), None), ((True, False), False),
        ((None, None), None), ((False, None), False),
    ])
    def test_kleene_and(self, args, expected, compiler):
        expr = ex.BoolOp("AND", tuple(ex.Constant(a, BOOLEAN) for a in args))
        assert run_row(compiler, expr, {}) is expected
        assert_agree(compiler, expr, {})

    @pytest.mark.parametrize("args,expected", [
        ((False, False), False), ((False, None), None),
        ((True, None), True), ((None, None), None),
    ])
    def test_kleene_or(self, args, expected, compiler):
        expr = ex.BoolOp("OR", tuple(ex.Constant(a, BOOLEAN) for a in args))
        assert run_row(compiler, expr, {}) is expected
        assert_agree(compiler, expr, {})

    def test_not_null_is_null(self, compiler):
        expr = ex.NotExpr(NULL)
        assert run_row(compiler, expr, {}) is None
        assert_agree(compiler, expr, {})

    def test_like_null_operand(self, compiler):
        expr = ex.LikeExpr(STR_S, "a%")
        assert run_row(compiler, expr, {4: None}) is None
        assert_agree(compiler, expr, {4: None})

    def test_in_list_null_operand(self, compiler):
        expr = ex.InListExpr(INT_A, (1, 2, 3), negated=True)
        assert run_row(compiler, expr, {1: None}) is None
        assert_agree(compiler, expr, {1: None})

    def test_is_null_and_negation(self, compiler):
        for negated in (False, True):
            expr = ex.IsNullExpr(INT_A, negated=negated)
            for value in (None, 7):
                assert_agree(compiler, expr, {1: value})

    def test_case_without_match_is_null(self, compiler):
        expr = ex.CaseWhen(
            whens=((ex.Comparison("=", INT_A, TWO), ex.Constant("two")),))
        assert run_row(compiler, expr, {1: 1}) is None
        assert_agree(compiler, expr, {1: 1})

    def test_case_null_condition_not_taken(self, compiler):
        expr = ex.CaseWhen(
            whens=((ex.Comparison("=", INT_A, TWO), ex.Constant("two")),),
            otherwise=ex.Constant("other"))
        assert run_row(compiler, expr, {1: None}) == "other"
        assert_agree(compiler, expr, {1: None})


@pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
class TestErrorParity:
    def test_division_by_zero_raises(self, compiler):
        for op in ("/", "%"):
            expr = ex.Arithmetic(op, ONE, ex.Constant(0))
            with pytest.raises(ExecutionError):
                run_row(compiler, expr, {})
            assert_agree(compiler, expr, {})

    def test_unbound_column_raises(self, compiler):
        expr = ex.Arithmetic("+", INT_A, ONE)
        with pytest.raises(UnboundColumn):
            run_row(compiler, expr, {})
        assert_agree(compiler, expr, {})

    def test_aggregate_raises_at_row_time_not_compile_time(self, compiler):
        expr = ex.AggExpr("SUM", INT_A)
        kernel = compiler(expr)  # compiling must not raise
        with pytest.raises(ExecutionError):
            kernel(batch_of([{1: 3}]))
        assert_agree(compiler, expr, {1: 3})

    def test_division_error_beats_null_left_operand(self, compiler):
        # evaluate() computes both operands before the NULL check, so a
        # zero divisor raises even when the other side is NULL.
        expr = ex.Arithmetic("/", NULL, ex.Constant(0))
        assert_agree(compiler, expr, {})


@pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
class TestScalarFunctions:
    def test_dateadd_parity(self, compiler):
        base = ex.Constant(datetime.date(2020, 1, 31))
        for unit, amount in (("day", 3), ("month", 1), ("year", 2)):
            expr = ex.FuncExpr(
                "DATEADD", (ex.Constant(unit), ex.Constant(amount), base))
            assert_agree(compiler, expr, {})

    def test_substring_and_year(self, compiler):
        assert_agree(compiler, ex.FuncExpr("SUBSTRING", (
            STR_S, ex.Constant(2), ex.Constant(3))), {4: "abcdef"})
        assert_agree(compiler, ex.FuncExpr("YEAR", (
            ex.Constant(datetime.date(1995, 5, 5)),)), {})

    @pytest.mark.parametrize("start,length,expected", [
        (1, 2, "ab"), (0, 3, "ab"), (-1, 5, "abc"), (-2, 2, ""),
        (5, 10, "ef"), (7, 1, ""), (2, 0, "")])
    def test_substring_bounds_are_t_sql(self, compiler, start, length,
                                        expected):
        # A start before 1 counts toward the length; Python's negative
        # indices must not leak in.
        expr = ex.FuncExpr("SUBSTRING", (
            STR_S, ex.Constant(start), ex.Constant(length)))
        assert evaluate(expr, {4: "abcdef"}) == expected
        assert run_row(compiler, expr, {4: "abcdef"}) == expected

    def test_substring_negative_length_raises(self, compiler):
        expr = ex.FuncExpr("SUBSTRING", (
            STR_S, ex.Constant(1), ex.Constant(-1)))
        with pytest.raises(ExecutionError):
            evaluate(expr, {4: "abc"})
        assert_agree(compiler, expr, {4: "abc"})
        assert_agree(compiler, expr, {4: None})  # never reached: NULL

    def test_null_argument_short_circuits(self, compiler):
        expr = ex.FuncExpr("SUBSTRING", (STR_S, NULL, ex.Constant(3)))
        assert run_row(compiler, expr, {4: "abc"}) is None
        assert_agree(compiler, expr, {4: "abc"})

    def test_unknown_function_raises_at_row_time(self, compiler):
        expr = ex.FuncExpr("NO_SUCH_FN", (ONE,))
        kernel = compiler(expr)
        with pytest.raises(ExecutionError):
            kernel(batch_of([{}]))
        assert_agree(compiler, expr, {})


class TestCastAndSelection:
    @pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
    def test_cast_parity(self, compiler):
        cases = [
            (ex.CastExpr(ex.Constant("12"), INTEGER), {}),
            (ex.CastExpr(ex.Constant(3), DOUBLE), {}),
            (ex.CastExpr(ex.Constant(3.9), varchar(10)), {}),
            (ex.CastExpr(NULL, INTEGER), {}),
            (ex.CastExpr(INT_A, DOUBLE), {1: 4}),
            (ex.CastExpr(INT_A, varchar(10)), {1: None}),
        ]
        for expr, env in cases:
            assert_agree(compiler, expr, env)

    @pytest.mark.parametrize("accepts", ACCEPTORS)
    def test_selection_null_counts_as_false(self, accepts):
        predicate = ex.Comparison("=", INT_A, ONE)
        assert accepts(predicate, {1: 1}) is True
        assert accepts(predicate, {1: 2}) is False
        assert accepts(predicate, {1: None}) is False

    @pytest.mark.parametrize("accepts", ACCEPTORS)
    def test_none_predicate_always_true(self, accepts):
        assert accepts(None, {}) is True

    @pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
    def test_projection_row(self, compiler):
        out_var = ex.ColumnVar(9, "out", INTEGER)
        projection = [(out_var, ex.Arithmetic("+", INT_A, ONE))]
        row = {var.id: run_row(compiler, expr, {1: 41})
               for var, expr in projection}
        assert row == {9: 42}


# -- randomized differential sweep ------------------------------------------------


@pytest.mark.parametrize("compiler", KERNEL_COMPILERS)
@pytest.mark.parametrize("seed", range(40))
def test_random_expressions_differential(seed, compiler):
    gen = ExprGen(seed)
    for _ in range(25):
        expr = gen.rng.choice(
            [gen.boolean, gen.num, gen.string])(gen.rng.randint(1, 4))
        for _ in range(8):
            env, = make_envs(gen, 1)
            assert_agree(compiler, expr, env)


@pytest.mark.parametrize("accepts", ACCEPTORS)
def test_random_predicates_match_row_filtering(accepts):
    """A kernel's keep decision and evaluate-is-True agree row by row."""
    gen = ExprGen(12345)
    for _ in range(200):
        predicate = gen.boolean(3)
        env, = make_envs(gen, 1)
        assert (outcome(accepts, predicate, env)
                == outcome(lambda e: evaluate(predicate, e) is True, env))
