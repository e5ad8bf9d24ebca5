"""The two bit-exactness contracts of the columnar data plane.

The simulator's byte accounting *is* the paper's cost model and the
distribution hash decides where every row lives, so their column-wise
forms may not differ from the per-value definitions by a single byte or
owner:

* ``batch_row_bytes(batch) == [row_bytes(r) for r in rows]`` — for a
  one-column batch, ``[value_bytes(v) for v in values]``
* ``column_owners(column, n) == [pdw_hash(v) % n for v in values]``

for whatever ``column_from_list`` makes of the values — typed int /
float / bool / date columns with or without NULL masks, and object
columns (strings, ints beyond int64, mixed types).
"""

from __future__ import annotations

import datetime
import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appliance.storage import (
    batch_row_bytes,
    column_owners,
    pdw_hash,
    row_bytes,
    value_bytes,
)
from repro.vector.np_batch import ArrayBatch, column_from_list

NODE_COUNTS = (1, 2, 3, 7, 8)

#: The widths' and the int64 column kind's boundaries, either side.
INT_EDGES = [0, 1, -1,
             2 ** 31 - 1, 2 ** 31, -2 ** 31, -2 ** 31 - 1,
             2 ** 63 - 1, -2 ** 63,
             2 ** 63, -2 ** 63 - 1, 2 ** 80, -2 ** 80]  # > int64: object

ints = st.one_of(st.sampled_from(INT_EDGES),
                 st.integers(-2 ** 70, 2 ** 70),
                 st.integers(-1000, 1000))
floats = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     0.0, -0.0, 1e-320, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True))
strings = st.one_of(st.just(""), st.text(max_size=12),
                    st.sampled_from(["é", "日本語", "a" * 300, "\x00"]))
dates = st.dates()
bools = st.booleans()


def nullable(values):
    return st.lists(st.one_of(st.none(), values), max_size=40)


#: One strategy per column the sniffer can type, plus object columns of
#: one type and of everything at once.
COLUMNS = st.one_of(
    nullable(ints), nullable(floats), nullable(bools), nullable(strings),
    nullable(dates),
    nullable(st.one_of(ints, floats, bools, strings, dates,
                       st.just(decimal.Decimal("1.5")),
                       st.just(datetime.datetime(2000, 1, 1, 12)))),
    st.lists(st.none(), max_size=5),
)


def column_value_bytes(column):
    return batch_row_bytes(ArrayBatch({0: column}, len(column)))


@settings(max_examples=300, deadline=None)
@given(values=COLUMNS)
def test_column_sizes_are_value_bytes(values):
    sizes = column_value_bytes(column_from_list(values))
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [value_bytes(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(values=COLUMNS)
def test_column_owners_are_pdw_hash_modulo(values):
    column = column_from_list(values)
    for node_count in NODE_COUNTS:
        owners = column_owners(column, node_count)
        assert owners.dtype == np.uint8  # a radix-sortable node id
        assert owners.tolist() == [pdw_hash(v) % node_count
                                   for v in values]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), length=st.integers(0, 20),
       width=st.integers(0, 5))
def test_batch_row_sizes_are_row_bytes(data, length, width):
    columns = [data.draw(st.one_of(
        st.lists(st.one_of(st.none(), kind), min_size=length,
                 max_size=length)
        for kind in (ints, floats, bools, strings, dates)))
        for _ in range(width)]
    batch = ArrayBatch(
        {i: column_from_list(col) for i, col in enumerate(columns)},
        length)
    rows = list(zip(*columns)) if columns else [()] * length
    assert batch_row_bytes(batch).tolist() == [row_bytes(r) for r in rows]


@pytest.mark.parametrize("kind,values", [
    ("i", INT_EDGES[:9]),
    ("i", [None, 2 ** 31, None, 5]),
    ("o", INT_EDGES),
    ("f", [float("nan"), -0.0, None, float("inf")]),
    ("b", [True, None, False]),
    ("d", [datetime.date.min, None, datetime.date.max]),
    # A lone surrogate is the one str a StringDType entry cannot hold.
    ("o", ["", "é", None, "日本語", "\ud800"]),
    ("o", [None, None]),
    ("s", ["", "é", None, "日本語"]),
])
def test_each_column_kind_on_its_edges(kind, values):
    column = column_from_list(values)
    assert column.kind == kind
    assert (column_value_bytes(column).tolist()
            == [value_bytes(v) for v in values])
    for node_count in NODE_COUNTS:
        assert (column_owners(column, node_count).tolist()
                == [pdw_hash(v) % node_count for v in values])
