"""ORDER BY / TOP over typed columns ⇄ ``sorted(key=sort_key)``.

:func:`~repro.vector.np_executor.order_rows` is every ORDER BY of the
numpy executor — each node's inside a step, and the control node's over
the Return step's batch — as one stable ``np.lexsort`` over a numeric
image of each key.  Here it is held, segment by segment and TOP
included, to the definition it replaced: one stable
``sorted(key=sort_key)`` per key, last key first, DESC as
``reverse=True``.  The values are the ones the image has to get right:
NULLs, NaN, ±inf, −0.0, ints past ±2^53 (equal as floats, so ties) and
past int64 (object columns), bools, ``''``, NUL and non-ASCII strings
(a dictionary with stale entries in first-occurrence order), dates.
"""

from __future__ import annotations

import datetime
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vector.np_executor as np_executor
from repro.appliance.runner import DsqlRunner
from repro.appliance.storage import Appliance
from repro.catalog.statistics import sort_key
from repro.pdw.dsql import DsqlPlan
from repro.vector.np_batch import (
    ArrayBatch,
    NumpyColumn,
    column_from_list,
    offsets,
)
from repro.vector.np_executor import order_rows

VALUES = {
    "int": st.one_of(
        st.integers(-3, 3),
        st.sampled_from([2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, -2 ** 53 - 1,
                         -2 ** 53, 2 ** 63 - 1, -2 ** 63]),
        st.integers(-2 ** 63, 2 ** 63 - 1)),
    "wide_int": st.sampled_from([2 ** 70, -2 ** 70, 1, 0]),
    "float": st.one_of(
        st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), 1.5,
                         -1.5, 2.0 ** 53]),
        st.floats(-10, 10)),
    "nan_float": st.sampled_from([float("nan"), 0.0, -0.0, 1.0]),
    "bool": st.booleans(),
    "string": st.sampled_from(["", "a", "B", "b", "ab", "é", "é",
                               "ß", "€", "😀", "Z", "10", "9"]),
    "nul_string": st.sampled_from(["", "a", "a\x00", "\x00", "b"]),
    "date": st.one_of(st.sampled_from([datetime.date.min,
                                       datetime.date.max]),
                      st.dates(datetime.date(1990, 1, 1),
                               datetime.date(1999, 12, 31))),
}


@st.composite
def key_columns(draw, length):
    """One key column of ``length`` rows: one kind, some NULLs (or
    none), sniffed as a load would; a string column keeps stale
    dictionary entries (it is a slice of a longer one), and a NULL slot
    holds another row's value, as after a LEFT JOIN's padding."""
    kind = draw(st.sampled_from(sorted(VALUES)))
    nulls = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    values = [None if draw(st.floats(0, 1)) < nulls
              else draw(VALUES[kind]) for _ in range(length)]
    extra = draw(st.lists(VALUES[kind], max_size=3))
    column = column_from_list(values + extra)
    if column.mask is not None:
        slots = np.roll(column.values, draw(st.integers(1, 3)))
        column = NumpyColumn(
            column.kind, np.where(column.mask, slots, column.values),
            column.mask, column.dictionary)
    return column.slice(0, length), values


@st.composite
def orderings(draw):
    sizes = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 9]),
                          min_size=1, max_size=4))
    length = sum(sizes)
    keys = [(*draw(key_columns(length)), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 4)))]
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    segmented = draw(st.booleans()) or len(sizes) > 1
    return keys, sizes, limit, segmented


def sort_key_order(keys, sizes, limit):
    """The definition: per segment, a stable ``sort_key`` sort per
    key, last key first, then TOP."""
    order, counts, start = [], [], 0
    for size in sizes:
        rows = list(range(start, start + size))
        for _, values, ascending in reversed(keys):
            rows = sorted(rows, key=lambda i: sort_key(values[i]),
                          reverse=not ascending)
        if limit is not None:
            rows = rows[:limit]
        order.extend(rows)
        counts.append(len(rows))
        start += size
    return order, counts


def has_image(column):
    """Whether the column orders on the lexsort path: not an object
    column, and no NaN among its values."""
    if column.kind == "o":
        return False
    return not any(value != value for value in column.pylist())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=orderings())
def test_lexsort_order_is_the_sort_key_order(case):
    keys, sizes, limit, segmented = case
    length = sum(sizes)
    bounds = offsets(sizes) if segmented else None
    calls = []

    def counted(value):
        calls.append(value)
        return sort_key(value)

    with mock.patch.object(np_executor, "sort_key", counted):
        order, new_bounds = order_rows(
            [(column, ascending) for column, _, ascending in keys],
            length, bounds, limit)
    expected, counts = sort_key_order(keys, sizes, limit)
    assert order.tolist() == expected
    if segmented:
        assert new_bounds.tolist() == offsets(counts).tolist()
    else:
        assert new_bounds is None
    if all(has_image(column) for column, _, _ in keys):
        assert not calls  # no per-value Python on typed keys


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=orderings())
def test_control_node_merge_matches_the_tuple_sort(case):
    """``DsqlRunner._finalize`` over a Return step's batch gives the
    rows the ``sort_key`` tuple sort gives."""
    keys, sizes, limit, _ = case
    length = sum(sizes)
    names = [f"c{i}" for i in range(len(keys))] + ["pos"]
    batch = ArrayBatch(
        {**{i: column for i, (column, _, _) in enumerate(keys)},
         len(keys): column_from_list(list(range(length)))},
        length, offsets(sizes))
    plan = DsqlPlan(steps=[], output_names=names, limit=limit,
                    order_by=[(names[i], ascending)
                              for i, (_, _, ascending) in enumerate(keys)])
    runner = DsqlRunner(Appliance(1))
    rows = runner._finalize(plan, names, batch)
    assert [row[-1] for row in rows] == sort_key_order(
        keys, [length], limit)[0]


def test_an_absent_key_and_no_key_keep_the_input_order():
    column = column_from_list([3, 1, 2, 1])
    order, bounds = order_rows([], 4, offsets([3, 1]), 2)
    assert order.tolist() == [0, 1, 3] and bounds.tolist() == [0, 2, 3]
    order, bounds = order_rows([(column, False)], 4)
    assert order.tolist() == [0, 2, 1, 3] and bounds is None


def test_string_ranks_are_built_once_per_dictionary():
    column = column_from_list(["b", "a", "c", "a"])
    order_rows([(column, True)], 4)
    ranks = column.dictionary.derived("rank", None)
    order_rows([(column.take(np.array([3, 0])), False)], 2)
    assert column.dictionary.derived("rank", None) is ranks
    assert ranks.tolist() == [1, 0, 2]
