"""Dictionary-encoded string columns (kind ``s``) are a representation,
not a type: whatever ``column_from_list`` makes of a list of values,
everything observable — the native values and their exact types, what
``take`` / ``compress`` / ``slice`` / ``concat_columns`` produce, the
byte widths and the node ownership — is what the object column (kind
``o``) over the same values gives.

The object column is the reference throughout: ``plain()`` builds one
that no rule can encode.
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appliance.storage import (
    batch_row_bytes,
    column_owners,
    pdw_hash,
    row_bytes,
)
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    NumpyColumn,
    column_from_list,
    concat_columns,
    const_column,
)

NODE_COUNTS = (1, 2, 3, 7, 8)

#: A small alphabet so values repeat: empty, ASCII, non-ASCII, the two
#: spellings of one accented letter, an embedded NUL, a long one.
NFC = unicodedata.normalize("NFC", "é")
NFD = unicodedata.normalize("NFD", "é")
WORDS = ["", "a", "b", "MAIL", "日本語", NFC, NFD, "\x00", "x" * 40]

repeating = st.lists(st.one_of(st.none(), st.sampled_from(WORDS)),
                     min_size=0, max_size=60)
any_strings = st.lists(st.one_of(st.none(), st.text(max_size=6)),
                       max_size=40)


class Str(str):
    """A ``str`` subclass: equal to its base value, not the same type."""


def plain(values) -> NumpyColumn:
    """The object column over ``values`` — never encoded."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return NumpyColumn("o", array)


def same_values(got, want):
    assert len(got) == len(want)
    for out, expected in zip(got, want):
        assert out == expected and type(out) is type(expected)


def assert_reads_like(column: NumpyColumn, values):
    same_values(column.pylist(), values)
    assert column.null_mask().tolist() == [v is None for v in values]
    assert not column.is_true_mask().any()


# -- encoding ------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(values=st.one_of(repeating, any_strings))
def test_round_trip_and_every_str_list_is_encoded(values):
    column = column_from_list(values)
    assert_reads_like(column, values)
    present = [v for v in values if v is not None]
    if present and "\x00" not in "".join(present):
        assert column.kind == "s"
        entries = column.dictionary.entries.tolist()
        assert sorted(entries) == sorted(set(present))  # duplicate-free
        assert all(type(entry) is str for entry in entries)
    else:
        assert column.kind == "o"


def test_what_stays_an_object_column():
    assert column_from_list(["a", "b", "c"]).kind == "s"      # distinct
    assert column_from_list(["a", "a", "b", "c"]).kind == "s"
    assert column_from_list(["a", None, None, None]).kind == "s"
    assert column_from_list([None, None]).kind == "o"          # no string
    assert column_from_list(["a", "a", 1, 1]).kind == "o"      # mixed
    mixed = ["a", Str("a"), "a", "a"]
    column = column_from_list(mixed)
    assert column.kind == "o"                                  # subclass
    same_values(column.pylist(), mixed)
    for odd in (["a", "\ud800", None],                         # no UTF-8
                ["a", "b\x00", None]):      # numpy.strings stops at NUL
        column = column_from_list(odd)
        assert column.kind == "o"
        same_values(column.pylist(), odd)


def test_empty_string_is_a_value_not_null():
    column = column_from_list(["", None, "", None])
    assert column.kind == "s"
    assert column.pylist() == ["", None, "", None]
    assert column.null_mask().tolist() == [False, True, False, True]
    # '' is one byte, exactly like NULL — and still not NULL.
    assert batch_row_bytes(ArrayBatch({0: column}, 4)).tolist() == [1] * 4


def test_nfc_and_nfd_spellings_stay_distinct():
    values = [NFC, NFD, NFC, NFD]
    column = column_from_list(values)
    assert column.kind == "s" and len(column.dictionary) == 2
    same_values(column.pylist(), values)
    assert (column_owners(column, 8).tolist()
            == [pdw_hash(v) % 8 for v in values])
    assert pdw_hash(NFC) != pdw_hash(NFD)


def test_a_string_constant_is_encoded():
    for length in (0, 1, 5):
        column = const_column("x", length)
        assert column.kind == "s" and column.pylist() == ["x"] * length
    assert const_column("\ud800", 2).kind == "o"


# -- take / compress / slice / concat ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=repeating, data=st.data())
def test_take_compress_slice_equal_the_object_column(values, data):
    column, reference = column_from_list(values), plain(values)
    n = len(values)
    indices = np.array(data.draw(st.lists(
        st.integers(0, n - 1), max_size=2 * n) if n else st.just([])),
        dtype=np.int64)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=np.bool_)
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    assert_reads_like(column.take(indices),
                      reference.take(indices).pylist())
    assert_reads_like(column.compress(keep),
                      reference.compress(keep).pylist())
    assert_reads_like(column.slice(start, stop),
                      reference.slice(start, stop).pylist())
    padded = np.concatenate((indices, [-1, -1])).astype(np.int64)
    assert_reads_like(column.pad_take(padded),
                      reference.pad_take(padded).pylist())
    # Derived columns share the parent's dictionary, stale entries
    # and all.
    if column.kind == "s":
        assert column.take(indices).dictionary is column.dictionary


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(repeating, min_size=1, max_size=5),
       missing=st.lists(st.integers(0, 4), max_size=2, unique=True),
       as_object=st.lists(st.integers(0, 4), max_size=2, unique=True))
def test_concat_equals_the_object_column(pieces, missing, as_object):
    """Pieces with different dictionaries, one piece a plain object
    column, zero-length pieces, a missing (all-NULL) column."""
    columns, expected = [], []
    for position, values in enumerate(pieces):
        if position in missing:
            columns.append((None, len(values)))
            expected.extend([None] * len(values))
            continue
        column = (plain(values) if position in as_object
                  else column_from_list(values))
        columns.append((column, len(values)))
        expected.extend(values)
    merged = concat_columns(columns)
    assert_reads_like(merged, expected)
    if merged.kind == "s":
        entries = merged.dictionary.entries.tolist()
        assert len(entries) == len(set(entries))  # duplicate-free


@settings(max_examples=100, deadline=None)
@given(values=repeating, cuts=st.lists(st.integers(0, 60), max_size=4))
def test_pieces_of_one_column_keep_its_dictionary(values, cuts):
    column = column_from_list(values)
    bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
    pieces = [(column.slice(a, b), b - a)
              for a, b in zip(bounds, bounds[1:])] or [(column, len(values))]
    merged = concat_columns(pieces)
    assert_reads_like(merged, values)
    if column.kind == "s":
        assert merged.dictionary is column.dictionary


def test_a_filtered_piece_merges_only_what_its_rows_hold():
    wide = column_from_list([f"v{i % 20}" for i in range(60)])
    few = wide.take(np.array([3, 3, 7]))        # 3 rows, 20 entries
    other = column_from_list(["v7", "zz", "v7", "zz"])
    merged = concat_columns([(few, 3), (other, 4)])
    assert merged.kind == "s"
    assert merged.pylist() == ["v3", "v3", "v7", "v7", "zz", "v7", "zz"]
    assert sorted(merged.dictionary.entries.tolist()) == ["v3", "v7", "zz"]


def test_fragment_of_encoded_pieces():
    first = ArrayBatch({0: column_from_list(["a", "b", "a", "b"])}, 4)
    second = ArrayBatch({0: column_from_list(["c", "c", None, "a"])}, 4)
    fragment = ColumnFragment([first, second])
    column = fragment.column(0)
    assert column.kind == "s"
    assert fragment.rows() == [("a",), ("b",), ("a",), ("b",),
                               ("c",), ("c",), (None,), ("a",)]
    assert column.pylist() == [row[0] for row in fragment.rows()]


# -- accounting ------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(values=repeating, data=st.data())
def test_widths_and_owners_are_the_per_value_definitions(values, data):
    column = column_from_list(values)
    n = len(values)
    # Also on a filtered column, whose dictionary holds stale entries.
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=np.bool_)
    for col, vals in ((column, values),
                      (column.compress(keep),
                       [v for v, k in zip(values, keep) if k])):
        sizes = batch_row_bytes(ArrayBatch({0: col}, len(vals)))
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [row_bytes((v,)) for v in vals]
        for node_count in NODE_COUNTS:
            owners = column_owners(col, node_count)
            assert owners.dtype == np.uint8  # a radix-sortable node id
            assert owners.tolist() == [pdw_hash(v) % node_count
                                       for v in vals]


def test_uniform_width_dictionary_contributes_a_scalar():
    flags = column_from_list(["A", "N", "R", "A", "N", "R"])
    other = column_from_list([1, 2, 3, 4, 5, 6])
    sizes = batch_row_bytes(ArrayBatch({0: flags, 1: other}, 6))
    assert sizes.tolist() == [5] * 6
    with_null = column_from_list(["AB", None, "CD", "AB", None, "CD"])
    assert batch_row_bytes(ArrayBatch({0: with_null}, 6)).tolist() == [
        2, 1, 2, 2, 1, 2]


@pytest.mark.parametrize("node_count", NODE_COUNTS)
def test_per_entry_results_are_computed_once(node_count, monkeypatch):
    import repro.appliance.storage as storage
    column = column_from_list(["MAIL", "SHIP", "MAIL", "AIR"] * 5)
    hashed = []
    real = storage.pdw_hash
    monkeypatch.setattr(storage, "pdw_hash",
                        lambda value: hashed.append(value) or real(value))
    first = column_owners(column, node_count)
    again = column_owners(column.take(np.array([0, 1, 5])), node_count)
    assert sorted(hashed) == ["AIR", "MAIL", "SHIP"]  # once per entry
    assert again.tolist() == first[[0, 1, 5]].tolist()
