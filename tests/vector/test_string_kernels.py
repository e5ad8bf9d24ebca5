"""The string array forms ⇄ the evaluator.

Every ``str`` column is dictionary-encoded over ``StringDType`` entries,
and the numpy kernels compare, test membership, match LIKE patterns,
cut SUBSTRINGs and concatenate with ``numpy.strings`` over those
entries.  None of it may be observable: over columns that went through a
filter (the dictionary keeps entries no row has) or were concatenated
from pieces with different dictionaries, every kernel returns exactly
what :func:`~repro.algebra.evaluator.evaluate` returns row by row —
values and their types — or raises an error some row raises.

The values are the awkward ones: ``''``, NUL, non-ASCII, two
normalizations of one letter, astral code points, LIKE's own wildcards
and regex metacharacters.
"""

from __future__ import annotations

import datetime
import random
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PdwEngine
from repro.algebra import expressions as ex
from repro.algebra.evaluator import evaluate
from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import INTEGER, varchar
from repro.vector import clear_np_kernel_cache, compile_np_kernel
from repro.vector.np_batch import (
    ArrayBatch,
    column_from_list,
    concat_columns,
    const_column,
)

from tests.appliance.test_columnar_dms import assert_same_execution

S = ex.ColumnVar(5, "s", varchar(20))
T = ex.ColumnVar(6, "t", varchar(20))

NFC = unicodedata.normalize("NFC", "é")
NFD = unicodedata.normalize("NFD", "é")
WORDS = ["", "a", "aa", "ab", "aba", "abab", "abc", "ba", "b", NFC, NFD,
         "日本語", "𝄞", "a𝄞b",
         "%", "_", "a.c", "[x]*", "a\nb", "MAIL", "x" * 12]
#: Strings with NUL keep a column an object column (``numpy.strings``
#: reads a trailing NUL as padding): drawn rarely, so most columns
#: are encoded.
NUL_WORDS = ["\x00", "a\x00", "\x00b"]
#: What a filter leaves behind in a dictionary.
STALE = ["zz", "stale", "日", "abc", "𝄞𝄞"]
OTHER_LITERALS = [None, 1, 2.5, True, datetime.date(1994, 1, 1)]
OPS = ["=", "<>", "<", "<=", ">", ">="]

cells = st.one_of(st.none(), st.sampled_from(WORDS * 10 + NUL_WORDS))


class Str(str):
    """Equal to its ``str`` value, not of its type."""


@st.composite
def encoded(draw, values):
    """A column holding ``values`` — sniffed, filtered out of a longer
    column (stale entries), or concatenated from pieces with different
    dictionaries."""
    how = draw(st.sampled_from(["sniffed", "filtered", "concatenated"]))
    if how == "filtered":
        removed = draw(st.lists(st.sampled_from(STALE), min_size=1,
                                max_size=5))
        full = column_from_list(removed + values)
        keep = np.array([False] * len(removed) + [True] * len(values))
        return full.compress(keep)
    if how == "concatenated":
        cut = draw(st.integers(0, len(values)))
        pieces = [values[:cut], values[cut:]]
        return concat_columns([(column_from_list(piece), len(piece))
                               for piece in pieces])
    return column_from_list(values)


@st.composite
def string_batches(draw):
    """``(batch, rows)``: columns S and T and each row's environment."""
    n = draw(st.integers(0, 12))
    s_values = draw(st.lists(cells, min_size=n, max_size=n))
    t_values = draw(st.lists(cells, min_size=n, max_size=n))
    batch = ArrayBatch({S.id: draw(encoded(s_values)),
                        T.id: draw(encoded(t_values))}, n)
    rows = [{S.id: s, T.id: t} for s, t in zip(s_values, t_values)]
    return batch, rows


def literals():
    return st.one_of(st.sampled_from(WORDS + NUL_WORDS),
                     st.sampled_from(OTHER_LITERALS))


#: LIKE patterns: wildcards, regex metacharacters, NUL, astral, empty.
patterns = st.one_of(
    st.sampled_from(["", "%", "%%", "_", "a%", "%a", "%a%", "%%a%%",
                     "a%b", "a_c", "%.%", "[x]%", "a%b%a", "%\x00%",
                     "𝄞%", f"%{NFD}", "ab%ba", "a\nb", "a%a", "%a%a%",
                     "a%%a", "%b%a%", "ab%b"]),
    st.text(alphabet=["a", "b", "%", "_", ".", "*", "\x00", NFC, "𝄞"],
            max_size=5))

positions = st.integers(-2, 14)


@st.composite
def string_exprs(draw):
    """A string-valued expression over S (and T)."""
    return draw(st.sampled_from([
        S, T,
        ex.FuncExpr("SUBSTRING", (S, ex.Constant(draw(positions)),
                                  ex.Constant(draw(positions)))),
        ex.Arithmetic("||", S, T),
        ex.Arithmetic("||", S, ex.Constant(draw(st.sampled_from(WORDS)))),
    ]))


@st.composite
def predicates(draw):
    operand = draw(string_exprs())
    shape = draw(st.sampled_from(["literal", "columns", "in", "like"]))
    op = draw(st.sampled_from(OPS))
    if shape == "literal":
        literal = ex.Constant(draw(literals()))
        if draw(st.booleans()):
            return ex.Comparison(op, literal, operand)
        return ex.Comparison(op, operand, literal)
    if shape == "columns":
        return ex.Comparison(op, operand, draw(string_exprs()))
    negated = draw(st.booleans())
    if shape == "in":
        values = draw(st.lists(literals(), max_size=5))
        return ex.InListExpr(operand, tuple(values), negated)
    return ex.LikeExpr(operand, draw(patterns), negated)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as error:  # noqa: BLE001 - the class is the outcome
        return ("error", type(error))


def assert_evaluates_like_the_spec(expr, batch, rows):
    clear_np_kernel_cache()
    expected = [outcome(evaluate, expr, env) for env in rows]
    got = outcome(lambda: compile_np_kernel(expr)(batch).pylist())
    errors = {value for tag, value in expected if tag == "error"}
    if errors:
        assert got[0] == "error" and got[1] in errors, (got, errors)
        return
    assert got[0] == "ok", got
    want = [value for _, value in expected]
    assert len(got[1]) == len(want)
    for value, wanted in zip(got[1], want):
        assert value == wanted and type(value) is type(wanted), (
            expr, got[1], want)


@settings(max_examples=400, deadline=None)
@given(case=string_batches(), expr=predicates())
def test_string_predicates_match_the_evaluator(case, expr):
    batch, rows = case
    assert_evaluates_like_the_spec(expr, batch, rows)


@settings(max_examples=300, deadline=None)
@given(case=string_batches(), expr=string_exprs(),
       literal=literals(), literal_first=st.booleans())
def test_string_values_match_the_evaluator(case, expr, literal,
                                           literal_first):
    """SUBSTRING at every start and length around the strings, ``||``
    of two strings and of a string with a non-string operand."""
    batch, rows = case
    assert_evaluates_like_the_spec(expr, batch, rows)
    operands = (ex.Constant(literal), expr)
    concat = ex.Arithmetic("||", *(operands if literal_first
                                   else operands[::-1]))
    assert_evaluates_like_the_spec(concat, batch, rows)


def test_like_patterns_exhaustively():
    """Every pattern over ``a``, ``b`` and ``%`` up to five characters
    against every string over ``a``, ``b`` up to four: the ``find``
    chain's placement, bounds and length test, case by case."""
    strings = [""]
    for _ in range(4):
        strings += [s + c for s in strings if len(s) == len(strings[-1])
                    for c in "ab"]
    patterns = [""]
    frontier = [""]
    for _ in range(5):
        frontier = [p + c for p in frontier for c in "ab%"]
        patterns += frontier
    batch = ArrayBatch({S.id: column_from_list(strings)}, len(strings))
    for pattern in patterns:
        expr = ex.LikeExpr(S, pattern)
        assert compile_np_kernel(expr)(batch).pylist() == [
            evaluate(expr, {S.id: s}) for s in strings], pattern


@pytest.mark.parametrize("length", [-1, -2])
def test_a_negative_substring_length_raises_once_a_row_is_not_null(
        length):
    expr = ex.FuncExpr("SUBSTRING", (S, ex.Constant(1),
                                     ex.Constant(length)))
    nulls = column_from_list(["x", None]).take(np.array([1, 1]))
    assert compile_np_kernel(expr)(ArrayBatch({S.id: nulls}, 2)
                                   ).pylist() == [None, None]
    batch = ArrayBatch({S.id: column_from_list(["x", None])}, 2)
    assert_evaluates_like_the_spec(expr, batch, [{S.id: "x"},
                                                 {S.id: None}])


@settings(max_examples=100, deadline=None)
@given(kept=st.lists(st.one_of(st.none(), st.sampled_from(
    ["1", "-2", "30", "007"])), max_size=10), data=st.data())
def test_a_cast_never_sees_a_stale_entry(kept, data):
    """The filter removed every value CAST would raise on; the
    dictionary still holds them."""
    removed = data.draw(st.lists(st.sampled_from(["abc", "x1", "", "𝄞"]),
                                 min_size=1, max_size=4))
    column = column_from_list(removed + kept).compress(np.array(
        [False] * len(removed) + [True] * len(kept)))
    batch = ArrayBatch({S.id: column}, len(kept))
    expr = ex.CastExpr(S, INTEGER)
    assert_evaluates_like_the_spec(expr, batch, [{S.id: v} for v in kept])
    assert (compile_np_kernel(expr)(batch).pylist()
            == [None if v is None else int(v) for v in kept])


def test_string_order_is_python_order():
    """``numpy.strings`` compares UTF-8 bytes; Python compares code
    points — the same order, checked on random non-ASCII strings."""
    rng = random.Random(2012)
    alphabet = ([chr(c) for c in range(0x20, 0x80)]
                + [chr(rng.randrange(0x80, 0xD800)) for _ in range(40)]
                + [chr(rng.randrange(0xE000, 0x10FFFF)) for _ in range(40)]
                + [NFD])
    left = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
            for _ in range(2000)]
    right = [value[:rng.randrange(len(value) + 1)] + rng.choice(alphabet)
             if rng.random() < 0.5 else rng.choice(left) for value in left]
    batch = ArrayBatch({S.id: column_from_list(left),
                        T.id: column_from_list(right)}, len(left))
    assert {column.kind for column in batch.columns.values()} == {"s"}
    for op in OPS:
        expr = ex.Comparison(op, S, T)
        got = compile_np_kernel(expr)(batch).pylist()
        assert got == [evaluate(expr, {S.id: a, T.id: b})
                       for a, b in zip(left, right)]


# -- kinds ---------------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.none(), st.text(max_size=4)),
                       min_size=1, max_size=20).filter(
    lambda values: any(v is not None for v in values)
    and not any("\x00" in v for v in values if v is not None)))
def test_every_exact_str_list_is_encoded(values):
    assert column_from_list(values).kind == "s"
    distinct = list(dict.fromkeys(v for v in values if v is not None))
    assert column_from_list(distinct).kind == "s"          # all-distinct
    assert column_from_list(distinct[:1]).kind == "s"      # one row
    assert const_column(distinct[0], 1).kind == "s"


@pytest.mark.parametrize("values", [
    ["a", "\ud800"],                                 # lone surrogate
    ["a", "b\x00"],                       # numpy.strings stops at NUL
    ["a", Str("b")],                                 # str subclass
    ["a", 1],                                        # mixed
    ["a", datetime.date(1994, 1, 1), None],
    [None],
])
def test_what_is_not_an_exact_str_list_stays_an_object_column(values):
    column = column_from_list(values)
    assert column.kind == "o"
    assert [type(v) for v in column.pylist()] == [type(v) for v in values]


# -- GROUP BY SUBSTRING, end to end ------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(values=st.lists(cells, min_size=1, max_size=40),
       start=st.integers(-2, 5), length=st.integers(0, 6),
       node_count=st.sampled_from([1, 3, 8]))
def test_group_by_substring_matches_the_oracle(values, start, length,
                                               node_count):
    appliance = Appliance(node_count)
    appliance.create_table(TableDef(
        "t", [Column("a", INTEGER), Column("s", varchar(20))],
        hash_distributed("a")))
    appliance.load_rows("t", list(enumerate(values)))
    engine = PdwEngine(appliance.compute_shell_database())
    sql = (f"SELECT p, COUNT(*) AS n FROM (SELECT SUBSTRING(s, {start}, "
           f"{length}) AS p FROM t) AS x GROUP BY p")
    result, _ = assert_same_execution(
        appliance, engine.compile(sql).dsql_plan)
    counts = {}
    for value in values:
        key = evaluate(ex.FuncExpr("SUBSTRING", (
            S, ex.Constant(start), ex.Constant(length))), {S.id: value})
        counts[key] = counts.get(key, 0) + 1
    assert sorted(result.rows, key=repr) == sorted(counts.items(), key=repr)
