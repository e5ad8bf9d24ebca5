"""Typed-array column representation: sniffing, NULL masks, round-trips
and the vectorized CRC32 hash's parity with ``pdw_hash``."""

from __future__ import annotations

import datetime
import random

import numpy as np
import pytest

from repro.appliance.storage import column_owners, pdw_hash
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    NumpyColumn,
    column_from_list,
    concat_columns,
    crc32_int64,
)

ROUND_TRIPS = [
    [1, 2, 3],
    [None, 1, None, -7],
    [1.5, -0.0, 2.75],
    [None, 1.25, float("nan")],
    [True, False, None],
    ["a", None, "bc"],
    [datetime.date(1994, 1, 1), None, datetime.date(1998, 12, 31)],
    [1, "mixed", None, 2.5],
    [None, None],
    [],
    [2 ** 80, 1],   # beyond int64 → object column
    [1, 2.5],       # mixed numeric → object column (exact semantics)
]


class TestColumnRoundTrip:
    @pytest.mark.parametrize("values", ROUND_TRIPS,
                             ids=[str(i) for i in range(len(ROUND_TRIPS))])
    def test_pylist_restores_native_values(self, values):
        got = column_from_list(values).pylist()
        assert len(got) == len(values)
        for out, want in zip(got, values):
            if isinstance(want, float) and want != want:  # NaN
                assert out != out
                continue
            assert out == want and type(out) is type(want)

    def test_date_decode_covers_the_whole_date_range(self):
        """Day numbers 1 and 3 652 059 (``date.min`` / ``date.max``)
        decode to the dates ``fromordinal`` gives, and a masked row is
        NULL whatever its slot holds."""
        ordinals = np.array([1, 3652059, 0, 730120, 719163],
                            dtype=np.int64)
        mask = np.array([False, False, True, False, True])
        got = NumpyColumn("d", ordinals, mask).pylist()
        assert got == [datetime.date.min, datetime.date.max, None,
                       datetime.date.fromordinal(730120), None]
        assert all(type(value) is datetime.date
                   for value in got if value is not None)
        assert NumpyColumn("d", ordinals[:2]).pylist() == [
            datetime.date.min, datetime.date.max]

    def test_typed_kinds(self):
        assert column_from_list([1, 2]).kind == "i"
        assert column_from_list([1.0, None]).kind == "f"
        assert column_from_list([True]).kind == "b"
        assert column_from_list([datetime.date(2000, 1, 1)]).kind == "d"
        assert column_from_list(["x"]).kind == "s"
        # A lone surrogate is the one str StringDType cannot hold.
        assert column_from_list(["x", "\ud800"]).kind == "o"
        # datetime.datetime is NOT a date column (ordinal would drop
        # the time part) — it stays object.
        assert column_from_list(
            [datetime.datetime(2000, 1, 1, 12)]).kind == "o"

    def test_bool_not_conflated_with_int(self):
        assert column_from_list([True, 1]).kind == "o"
        got = column_from_list([True, 1]).pylist()
        assert got[0] is True and type(got[1]) is int

    def test_null_mask_positions(self):
        column = column_from_list([None, 5, None, 7])
        assert column.null_mask().tolist() == [True, False, True, False]

    def test_take_and_compress(self):
        column = column_from_list([10, None, 30, 40])
        assert column.take(np.array([2, 0])).pylist() == [30, 10]
        keep = np.array([True, True, False, True])
        assert column.compress(keep).pylist() == [10, None, 40]


class TestBatchConversion:
    def test_sniffed_batch_preserves_shape(self):
        columns = {1: [1, 2], 2: ["a", None]}
        converted = ArrayBatch(
            {cid: column_from_list(col) for cid, col in columns.items()},
            2)
        assert converted.length == 2
        assert {cid: column.pylist()
                for cid, column in converted.columns.items()} == columns

    def test_native_view_is_cached_per_column(self):
        for values in ([1, 2, 3], ["a", "b", "a", None]):
            column = column_from_list(values)
            assert column.pylist() is column.pylist()
            assert column.pylist() == values


class TestVectorizedHash:
    def test_crc_matches_pdw_hash_on_boundaries(self):
        keys = [0, 1, -1, 42, -42, 2 ** 31, -2 ** 31,
                2 ** 63 - 1, -2 ** 63]
        crcs = crc32_int64(np.array(keys, dtype=np.int64))
        assert crcs.tolist() == [pdw_hash(k) for k in keys]

    def test_crc_matches_pdw_hash_randomized(self):
        rng = random.Random(20120520)
        keys = [rng.randint(-2 ** 63, 2 ** 63 - 1) for _ in range(2000)]
        crcs = crc32_int64(np.array(keys, dtype=np.int64))
        assert crcs.tolist() == [pdw_hash(k) for k in keys]

    @pytest.mark.parametrize("node_count", [1, 2, 4, 8, 13])
    def test_owner_vector_matches_modulo(self, node_count):
        keys = list(range(-50, 50)) + [2 ** 62, -2 ** 62]
        owners = column_owners(column_from_list(keys), node_count)
        assert owners.dtype == np.uint8  # a radix-sortable node id
        assert owners.tolist() == [pdw_hash(k) % node_count
                                   for k in keys]

    @pytest.mark.parametrize("node_count,dtype", [
        (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.int64)])
    def test_owners_take_the_narrowest_node_id_type(self, node_count,
                                                    dtype):
        keys = list(range(-300, 300))
        for column in (column_from_list(keys),
                       column_from_list([str(k) for k in keys] * 2),
                       column_from_list([float(k) for k in keys])):
            owners = column_owners(column, node_count)
            assert owners.dtype == dtype
            assert owners.tolist() == [pdw_hash(v) % node_count
                                       for v in column.pylist()]

    @pytest.mark.parametrize("keys", [
        [1, 2, None],
        [1.0, 2.0],
        ["a", "b"],
        [True, False],
        [1, 2 ** 80],
        [],
    ])
    def test_non_pure_int_columns_hash_per_value(self, keys):
        owners = column_owners(column_from_list(keys), 4)
        assert owners.tolist() == [pdw_hash(k) % 4 for k in keys]


def positional(*columns):
    return ArrayBatch(
        {i: column_from_list(col) for i, col in enumerate(columns)},
        len(columns[0]))


class TestPositionalBatches:
    def test_rows_are_native_tuples_built_once(self):
        batch = positional([1, None, 3], ["a", "b", None],
                           [datetime.date(1995, 1, 1)] * 3)
        rows = batch.rows()
        assert rows == [(1, "a", datetime.date(1995, 1, 1)),
                        (None, "b", datetime.date(1995, 1, 1)),
                        (3, None, datetime.date(1995, 1, 1))]
        assert type(rows[0][0]) is int
        assert batch.rows() is rows

    def test_zero_column_batch_keeps_its_length(self):
        batch = ArrayBatch({}, 3)
        assert len(batch) == 3
        assert batch.rows() == [(), (), ()]
        assert batch.slice(1, 3).rows() == [(), ()]

    def test_slice_is_a_view_with_its_mask(self):
        batch = positional([10, None, 30, 40], [1.5, 2.5, None, 4.5])
        piece = batch.slice(1, 3)
        assert len(piece) == 2
        assert piece.rows() == [(None, 2.5), (30, None)]
        assert piece.columns[0].values.base is not None  # no copy
        assert batch.slice(2, 2).rows() == []


class TestColumnFragment:
    def test_single_piece_is_read_as_it_stands(self):
        piece = positional([1, 2], ["x", "y"])
        fragment = ColumnFragment([piece])
        assert len(fragment) == 2
        assert fragment.column(1) is piece.columns[1]
        assert fragment.rows() is piece.rows()

    def test_pieces_concatenate_in_order_once(self):
        fragment = ColumnFragment([
            positional([1, None], ["a", "b"]),
            positional([3], [None]),
            positional([4, 5], ["c", "d"]),
        ])
        assert len(fragment) == 5
        first = fragment.column(0)
        assert first.kind == "i"
        assert first.pylist() == [1, None, 3, 4, 5]
        assert fragment.column(0) is first
        assert fragment.rows() == [(1, "a"), (None, "b"), (3, None),
                                   (4, "c"), (5, "d")]
        assert fragment.rows() is fragment.rows()

    def test_mixed_kind_pieces_retype_like_a_fresh_sniff(self):
        # An all-NULL piece sniffs to the object kind; the concatenated
        # column must come out typed as the concatenated values would.
        pieces = [(column_from_list([None, None]), 2),
                  (column_from_list([7, 8]), 2)]
        merged = concat_columns(pieces)
        assert merged.kind == column_from_list([None, None, 7, 8]).kind
        assert merged.pylist() == [None, None, 7, 8]

    def test_zero_column_pieces(self):
        fragment = ColumnFragment([ArrayBatch({}, 2), ArrayBatch({}, 1)])
        assert len(fragment) == 3
        assert fragment.rows() == [(), (), ()]
