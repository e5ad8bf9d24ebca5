"""The two ways the numpy kernels evaluate AND/OR, and the one they must
pick.

*Whole-batch*: every argument over every row, the Kleene state folded
with mask arithmetic — only when no argument can raise (column/literal
comparisons, ``IS NULL``, ``IN``, ``LIKE``, ``NOT``/AND/OR of those)
and every column read is present and typed or dictionary-encoded.
*Narrowing*: argument ``k`` only on the rows still undecided after
``k-1`` — everything else, so a guard still guards.

Whichever runs, the result is the tree-walking evaluator's, row by row.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as ex
from repro.algebra.evaluator import UnboundColumn, evaluate
from repro.common.errors import ExecutionError
from repro.common.types import DATE, DOUBLE, INTEGER, varchar
from repro.vector import clear_np_kernel_cache, compile_np_kernel
from repro.vector import np_kernels
from repro.vector.np_batch import ArrayBatch, column_from_list

from tests.vector.test_kernels import Rows, as_objects, typed

A = ex.ColumnVar(1, "a", INTEGER)
B = ex.ColumnVar(2, "b", INTEGER)
C = ex.ColumnVar(3, "c", DOUBLE)
D = ex.ColumnVar(4, "d", DATE)
S = ex.ColumnVar(5, "s", varchar(10))
MISSING = ex.ColumnVar(9, "missing", INTEGER)

BIG = 2 ** 53
INT_VALUES = [None, -BIG - 1, -BIG, -3, 0, 1, 2, 7, BIG, BIG + 1]
FLOAT_VALUES = [None, float(-BIG), -1.5, 0.0, 2.0, 7.0, float(BIG),
                float("nan"), float("inf")]
DATE_VALUES = [None, datetime.date(1994, 1, 1), datetime.date(1995, 6, 15),
               datetime.date(1998, 12, 1)]
STR_VALUES = [None, "", "AIR", "MAIL", "SHIP"]

INT_LITERALS = [-BIG - 1, -BIG, 0, 1, 7, BIG, BIG + 1]
FLOAT_LITERALS = [float(-BIG), -1.5, 0.0, 1.0, 7.0, float(BIG), 9.007e15]
OPS = ["=", "<>", "<", "<=", ">", ">="]


def const(value):
    return ex.Constant(value)


@st.composite
def leaves(draw):
    """One total leaf: a column/literal comparison (either side, int
    columns against float literals and back, at ±2^53), a column/column
    comparison, ``IS [NOT] NULL``, ``[NOT] IN``, ``[NOT] LIKE``."""
    shape = draw(st.sampled_from(
        ["num-lit", "num-lit", "date-lit", "str-lit", "col-col", "null",
         "in", "like"]))
    op = draw(st.sampled_from(OPS))
    if shape == "num-lit":
        column = draw(st.sampled_from([A, B, C]))
        literal = const(draw(st.sampled_from(
            INT_LITERALS + FLOAT_LITERALS + [True, None])))
        if draw(st.booleans()):
            return ex.Comparison(op, literal, column)
        return ex.Comparison(op, column, literal)
    if shape == "date-lit":
        return ex.Comparison(op, D, const(draw(
            st.sampled_from(DATE_VALUES[1:]))))
    if shape == "str-lit":
        return ex.Comparison(op, S, const(draw(
            st.sampled_from(["", "AIR", "MAIL", "ZZ"]))))
    if shape == "col-col":
        left, right = draw(st.sampled_from(
            [(A, B), (A, C), (C, B), (D, D), (S, S)]))
        return ex.Comparison(op, left, right)
    negated = draw(st.booleans())
    if shape == "null":
        return ex.IsNullExpr(draw(st.sampled_from([A, C, D, S])), negated)
    if shape == "in":
        column, values = draw(st.sampled_from([
            (A, (0, 7, BIG + 1)), (A, (1, 2.0)), (C, (0, 2.0, 7)),
            (D, tuple(DATE_VALUES[1:3])), (S, ("AIR", "MAIL", "")),
            (S, ())]))
        return ex.InListExpr(column, values, negated)
    return ex.LikeExpr(S, draw(st.sampled_from(["%", "A%", "_AIL", ""])),
                       negated)


def trees(max_depth):
    return st.recursive(
        leaves(),
        lambda inner: st.one_of(
            st.builds(ex.NotExpr, inner),
            st.builds(lambda op, args: ex.BoolOp(op, tuple(args)),
                      st.sampled_from(["AND", "OR"]),
                      st.lists(inner, min_size=2, max_size=4))),
        max_leaves=2 ** max_depth)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 24))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n,
                             max_size=n))

    return Rows({
        A.id: column(INT_VALUES), B.id: column(INT_VALUES[2:-2]),
        C.id: column(FLOAT_VALUES), D.id: column(DATE_VALUES),
        S.id: column(STR_VALUES)}, n)


def rows_of(batch):
    """Each row of ``batch`` as an env dict, for the evaluator."""
    return [{cid: column[i] for cid, column in batch.columns.items()}
            for i in range(batch.length)]


def same(got, want):
    assert len(got) == len(want)
    for out, expected in zip(got, want):
        assert out is expected, (got, want)  # True / False / None


def narrowing_kernel(expr):
    """``expr`` compiled with the whole-batch path switched off."""
    real = np_kernels._total_requirements
    np_kernels._total_requirements = lambda _: None
    clear_np_kernel_cache()
    try:
        return compile_np_kernel(expr)
    finally:
        np_kernels._total_requirements = real
        clear_np_kernel_cache()


@settings(max_examples=400, deadline=None)
@given(expr=st.builds(lambda op, args: ex.BoolOp(op, tuple(args)),
                      st.sampled_from(["AND", "OR"]),
                      st.lists(trees(3), min_size=2, max_size=4)),
       batch=batches())
def test_whole_batch_equals_narrowing_equals_the_evaluator(expr, batch):
    assert np_kernels._total_requirements(expr) is not None
    expected = [evaluate(expr, env) for env in rows_of(batch)]
    arrays = typed(batch)
    clear_np_kernel_cache()
    whole = compile_np_kernel(expr)(arrays)
    assert whole.kind in "bo"
    same(whole.pylist(), expected)
    same(narrowing_kernel(expr)(arrays).pylist(), expected)
    # Over object columns every argument narrows, row by row.
    same(compile_np_kernel(expr)(as_objects(batch)).pylist(), expected)


def test_a_total_predicate_cuts_no_sub_batch(monkeypatch):
    q6 = ex.BoolOp("AND", (
        ex.Comparison(">=", D, const(datetime.date(1994, 1, 1))),
        ex.Comparison("<", D, const(datetime.date(1995, 1, 1))),
        ex.BoolOp("OR", (ex.Comparison("<", C, const(24)),
                         ex.InListExpr(S, ("MAIL", "SHIP"), False))),
        ex.NotExpr(ex.IsNullExpr(A, False))))
    batch = typed(Rows({
        A.id: [1, None, 3, 4], C.id: [1.0, 2.0, 30.0, None],
        D.id: [datetime.date(1994, 5, 1)] * 3 + [datetime.date(1996, 1, 1)],
        S.id: ["MAIL", "AIR", "AIR", "MAIL"]}, 4))
    assert batch.columns[S.id].kind == "s"
    cuts = []
    real = ArrayBatch.take
    monkeypatch.setattr(ArrayBatch, "take", lambda self, indices: (
        cuts.append(len(indices)) or real(self, indices)))
    clear_np_kernel_cache()
    assert compile_np_kernel(q6)(batch).pylist() == [
        True, False, False, False]
    assert cuts == []
    # The same predicate over an object column narrows, same answer.
    mixed = ArrayBatch({**batch.columns,
                        S.id: column_from_list(["MAIL", "AIR", 7, "MAIL"])},
                       4)
    assert compile_np_kernel(q6)(mixed).pylist() == [
        True, False, False, False]
    assert cuts


# -- what must keep narrowing ---------------------------------------------------------

def run_np(expr, columns, length):
    clear_np_kernel_cache()
    return compile_np_kernel(expr)(typed(Rows(columns, length))).pylist()


def run_evaluator(expr, columns, length):
    """The spec, row by row."""
    return [evaluate(expr, {cid: column[i]
                            for cid, column in columns.items()})
            for i in range(length)]


ZERO = const(0)
GUARDED_DIVISION = ex.BoolOp("AND", (
    ex.Comparison("<>", A, ZERO),
    ex.Comparison(">", ex.Arithmetic("/", const(10), A), const(1))))


def test_a_guard_still_guards_division():
    assert np_kernels._total_requirements(GUARDED_DIVISION) is None
    assert run_np(GUARDED_DIVISION, {A.id: [0, 5, None, 20, 0]}, 5) == [
        False, True, None, False, False]
    unguarded = ex.BoolOp("AND", tuple(reversed(GUARDED_DIVISION.args)))
    with pytest.raises(ExecutionError, match="division by zero"):
        run_np(unguarded, {A.id: [0, 5]}, 2)


def test_a_guard_still_guards_a_cast():
    from repro.common.types import INTEGER as INT_TYPE
    guarded = ex.BoolOp("AND", (
        ex.LikeExpr(S, "1%", False),
        ex.Comparison(">", ex.CastExpr(S, INT_TYPE), const(11))))
    assert np_kernels._total_requirements(guarded) is None
    values = ["12", "abc", "1", None, "abc", "12", "15", "1"]
    # Encoded or not, 'abc' is never cast.
    assert column_from_list(values).kind == "s"
    assert run_np(guarded, {S.id: values}, 8) == [
        True, False, False, None, False, True, True, False]
    assert run_np(guarded, {S.id: values[:3]}, 3) == [True, False, False]
    with pytest.raises(ValueError):
        run_np(guarded.args[1], {S.id: values}, 8)


def test_case_arms_still_see_only_their_rows():
    guarded = ex.CaseWhen(
        ((ex.Comparison("<>", A, ZERO),
          ex.Arithmetic("/", const(10), A)),), const(0.0))
    assert run_np(guarded, {A.id: [0, 5, None, 4]}, 4) == [
        0.0, 2.0, 0.0, 2.5]
    labels = ex.CaseWhen(
        ((ex.Comparison("=", S, const("MAIL")), const("post")),
         (ex.InListExpr(S, ("AIR", "REG AIR"), False), const("air"))),
        const("other"))
    values = ["MAIL", "AIR", None, "SHIP", "MAIL", "AIR", "SHIP", "SHIP"]
    got = run_np(labels, {S.id: values}, 8)
    assert got == ["post", "air", "other", "other", "post", "air",
                   "other", "other"]
    assert got == [evaluate(labels, {S.id: v}) for v in values]


# -- Kleene identity: what the whole-batch path may not assume ---------------------------

@pytest.mark.parametrize("op", ["AND", "OR"])
def test_a_non_bool_argument_leaves_the_state_unchanged(op):
    expr = ex.BoolOp(op, (ex.Comparison(">", A, ZERO), B))
    assert np_kernels._total_requirements(expr) is None
    columns = {A.id: [1, -1, None, 1, -1, None],
               B.id: [0, 7, 7, None, None, 1]}
    expected = [evaluate(expr, {A.id: a, B.id: b})
                for a, b in zip(columns[A.id], columns[B.id])]
    same(run_np(expr, columns, 6), expected)
    same(run_evaluator(expr, columns, 6), expected)


@pytest.mark.parametrize("values, raises", [
    ([-1, -2, -3], False),   # every row decided before the bad argument
    ([-1, 5, -3], True),     # one row reaches it
])
def test_a_missing_column_raises_at_reference_time(values, raises):
    expr = ex.BoolOp("AND", (ex.Comparison(">", A, ZERO),
                             ex.Comparison("=", MISSING, const(1))))
    assert np_kernels._total_requirements(expr) is not None  # by shape
    columns = {A.id: values}
    if raises:
        with pytest.raises(UnboundColumn):
            run_np(expr, columns, 3)
        with pytest.raises(UnboundColumn):
            run_evaluator(expr, columns, 3)
    else:
        assert run_np(expr, columns, 3) == [False] * 3
        assert run_evaluator(expr, columns, 3) == [False] * 3


def test_a_comparison_across_kinds_is_not_evaluated_on_decided_rows():
    # date < int raises TypeError in Python; narrowing never reaches it.
    expr = ex.BoolOp("AND", (ex.Comparison("<", A, ZERO),
                             ex.Comparison("<", D, const(5))))
    columns = {A.id: [1, 2], D.id: [datetime.date(1994, 1, 1)] * 2}
    assert run_np(expr, columns, 2) == [False, False]
    assert run_evaluator(expr, columns, 2) == [False, False]
    with pytest.raises(TypeError):
        run_np(expr, {**columns, A.id: [-1, 2]}, 2)


def test_an_object_column_keeps_narrowing():
    # A mixed column can hold anything; only rows the guard passes are
    # compared.
    expr = ex.BoolOp("AND", (ex.Comparison(">", A, ZERO),
                             ex.Comparison("<", B, const(5))))
    columns = {A.id: [1, -1, 1], B.id: [3, "not a number", None]}
    assert run_np(expr, columns, 3) == [True, False, None]


# -- a lazily gathered batch -------------------------------------------------------------

def test_a_taken_batch_gathers_only_what_is_read_and_misses_like_a_dict():
    batch = typed(Rows(
        {A.id: [1, 2, 3, 4], B.id: [5, 6, 7, 8], S.id: list("xyxy")}, 4))
    taken = batch.take(np.array([3, 1]))
    assert len(taken) == 2 and set(taken.columns) == {A.id, B.id, S.id}
    assert A.id in taken.columns and MISSING.id not in taken.columns
    assert taken.columns.get(MISSING.id) is None
    with pytest.raises(KeyError):
        taken.columns[MISSING.id]
    assert taken.columns.ready == {}                  # nothing copied yet
    assert taken.columns[A.id].pylist() == [4, 2]
    assert taken.columns[A.id] is taken.columns[A.id]  # gathered once
    assert set(taken.columns.ready) == {A.id}
    # Rows of rows compose their index vectors: B is gathered once,
    # from the original column.
    again = taken.take(np.array([1, 1, 0]))
    assert again.columns[B.id].pylist() == [6, 6, 8]
    assert again.columns[A.id].pylist() == [2, 2, 4]
    assert set(taken.columns.ready) == {A.id}
    with pytest.raises(UnboundColumn):
        compile_np_kernel(ex.Comparison("=", MISSING, const(1)))(again)
    with pytest.raises(UnboundColumn):
        compile_np_kernel(ex.BoolOp("AND", (
            ex.Comparison(">", A, ZERO),
            ex.Comparison("=", MISSING, const(1)))))(again)
    assert again.gathered().columns == {
        cid: again.columns[cid] for cid in (A.id, B.id, S.id)}
    assert isinstance(again.columns, dict)


def test_zero_column_batches_keep_their_length_through_take():
    batch = ArrayBatch({}, 5)
    assert len(batch.take(np.array([0, 4]))) == 2
    assert batch.compress(np.array([True, False] * 2 + [True])).length == 3
