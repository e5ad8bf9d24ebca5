"""Typed-array column representation: sniffing, NULL masks, round-trips,
the shared date table, and the vectorized CRC32 hash's parity with
``pdw_hash`` and with the eight-table version it replaced."""

from __future__ import annotations

import datetime
import random
import sys
import threading
import zlib

import numpy as np
import pytest

import repro.vector.np_batch as np_batch
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


# -- the replaced eight-table CRC32, kept verbatim as the reference -----

_MESSAGE_BYTES = 16


def _crc32_int64_tables():
    zero = zlib.crc32(bytes(_MESSAGE_BYTES))
    tables = np.zeros((8, 256), dtype=np.uint32)
    message = bytearray(_MESSAGE_BYTES)
    for position in range(8):
        for byte in range(256):
            message[position] = byte
            tables[position, byte] = zlib.crc32(message) ^ zero
        message[position] = 0
    negative = zlib.crc32(bytes(8) + b"\xff" * 8)
    return tables, zero, negative


_CRC32_TABLES, _CRC32_NON_NEGATIVE, _CRC32_NEGATIVE = _crc32_int64_tables()


def crc32_int64_eight_tables(values):
    v = np.ascontiguousarray(values, dtype="<i8")
    data = v.view(np.uint8).reshape(-1, 8)
    crc = np.where(v < 0, np.uint32(_CRC32_NEGATIVE),
                   np.uint32(_CRC32_NON_NEGATIVE))
    for position in range(8):
        crc ^= _CRC32_TABLES[position][data[:, position]]
    return crc


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

    def test_date_table_and_its_fallback_decode_alike(self):
        """A column inside the shared table's span gathers its dates; one
        wider than the span decodes on its own; a NULL row is None
        whatever its slot holds, and an all-NULL column is all None."""
        span = np_batch.DAY_TABLE_DAYS
        start = datetime.date(1992, 1, 1).toordinal()
        for ordinals in (
                [start, start + 2500, start + 17, start],
                [1, 3652059, start],  # wider than the span
                [start - span // 2, start + span // 2 - 1],
                [3652059 - 5, 3652059]):
            days = np.array(ordinals, dtype=np.int64)
            mask = np.zeros(len(days), dtype=np.bool_)
            mask[-1] = True
            days_with_garbage = days.copy()
            days_with_garbage[-1] = -12345  # no date at all
            assert NumpyColumn("d", days).pylist() == [
                datetime.date.fromordinal(d) for d in ordinals]
            assert NumpyColumn("d", days_with_garbage, mask).pylist() == [
                *(datetime.date.fromordinal(d) for d in ordinals[:-1]),
                None]
        assert NumpyColumn("d", np.array([5, 6]),
                           np.array([True, True])).pylist() == [None, None]
        assert NumpyColumn("d", np.zeros(0, np.int64)).pylist() == []

    def test_date_table_is_shared_and_bounded_across_threads(self):
        """Threads decoding far-apart spans concurrently all get the
        dates ``fromordinal`` gives; the table never outgrows its bound
        and hands out one object per day."""
        span = np_batch.DAY_TABLE_DAYS
        starts = [1, 700000, 730000, 3652059 - 1000, 730000 + span]
        errors = []

        def decode(start):
            days = np.arange(start, start + 1000, 7, dtype=np.int64)
            want = [datetime.date.fromordinal(d) for d in days.tolist()]
            for _ in range(20):
                if NumpyColumn("d", days).pylist() != want:
                    errors.append(start)

        threads = [threading.Thread(target=decode, args=(start,))
                   for start in starts * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        first, dates = np_batch._DAYS._span
        assert len(dates) <= span
        days = np.array([first, first], dtype=np.int64)
        once, again = NumpyColumn("d", days).pylist()
        assert once is again

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

    def test_crc_matches_zlib_on_the_edges(self):
        keys = [0, -1, 2 ** 31, -2 ** 31, 2 ** 53, -2 ** 53,
                2 ** 63 - 1, -2 ** 63]
        crcs = crc32_int64(np.array(keys, dtype=np.int64))
        assert crcs.dtype == np.uint32
        assert crcs.tolist() == [
            zlib.crc32(k.to_bytes(16, "little", signed=True))
            for k in keys]

    def test_four_word_lookups_are_the_eight_byte_lookups(self):
        rng = np.random.default_rng(20120520)
        keys = np.concatenate([
            rng.integers(-2 ** 63, 2 ** 63 - 1, 5000, dtype=np.int64),
            rng.integers(-70000, 70000, 5000, dtype=np.int64),
            np.array([0, -1, 255, 256, 65535, 65536, -65536],
                     dtype=np.int64)])
        assert np.array_equal(crc32_int64(keys),
                              crc32_int64_eight_tables(keys))
        # A strided view hashes as its contiguous copy does.
        assert np.array_equal(crc32_int64(keys[::3]),
                              crc32_int64_eight_tables(keys[::3]))

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
