"""Statistics tests: histograms, estimation, and the per-node merge of
paper §2.2 — including hypothesis invariants."""

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import (
    Bucket,
    ColumnStats,
    Histogram,
    _value_width,
    merge_column_stats,
    merge_histograms,
    numeric_position,
    sort_key,
)


class TestSortKey:
    def test_null_sorts_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key)[0] is None

    def test_mixed_numerics(self):
        assert sort_key(1) < sort_key(2.5)

    def test_dates_ordered(self):
        early = datetime.date(1994, 1, 1)
        late = datetime.date(1995, 1, 1)
        assert sort_key(early) < sort_key(late)

    def test_strings_lexicographic(self):
        assert sort_key("apple") < sort_key("banana")


class TestNumericPosition:
    def test_numbers_identity(self):
        assert numeric_position(42) == 42.0

    def test_string_order_preserved(self):
        assert numeric_position("aaa") < numeric_position("zzz")

    def test_date_ordinal(self):
        d = datetime.date(1994, 6, 1)
        assert numeric_position(d) == float(d.toordinal())


class TestHistogramBuild:
    def test_empty(self):
        hist = Histogram.build([])
        assert hist.total_count == 0
        assert hist.estimate_le(5) == 0

    def test_total_count_preserved(self):
        hist = Histogram.build(list(range(1000)), num_buckets=16)
        assert hist.total_count == 1000

    def test_min_max(self):
        hist = Histogram.build([5, 1, 9, 3])
        assert hist.min_value == 1
        assert hist.max_value == 9

    def test_equal_values_dont_straddle_buckets(self):
        values = [1] * 50 + [2] * 50
        hist = Histogram.build(values, num_buckets=10)
        uppers = [b.upper for b in hist.buckets]
        assert len(uppers) == len(set(uppers))

    def test_estimate_le_full_range(self):
        hist = Histogram.build(list(range(100)))
        assert hist.estimate_le(99) == pytest.approx(100)

    def test_estimate_le_midpoint(self):
        hist = Histogram.build(list(range(1000)), num_buckets=20)
        assert hist.estimate_le(499) == pytest.approx(500, rel=0.1)

    def test_estimate_eq_uniform(self):
        hist = Histogram.build([i % 10 for i in range(1000)])
        assert hist.estimate_eq(3) == pytest.approx(100, rel=0.2)

    def test_estimate_eq_outside_range(self):
        hist = Histogram.build(list(range(10)))
        assert hist.estimate_eq(-5) == 0
        assert hist.estimate_eq(99) == 0

    def test_estimate_range(self):
        hist = Histogram.build(list(range(1000)), num_buckets=20)
        estimate = hist.estimate_range(100, 199)
        assert estimate == pytest.approx(100, rel=0.25)

    def test_estimate_range_open_ended(self):
        hist = Histogram.build(list(range(100)))
        assert hist.estimate_range(None, None) == pytest.approx(100)


class TestColumnStats:
    def test_build_counts(self):
        stats = ColumnStats.build([1, 2, 2, None, 3])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3

    def test_null_fraction(self):
        stats = ColumnStats.build([None, None, 1, 2])
        assert stats.null_fraction == pytest.approx(0.5)

    def test_avg_width_strings(self):
        stats = ColumnStats.build(["ab", "abcd"])
        assert stats.avg_width == pytest.approx(3.0)

    def test_empty_column(self):
        stats = ColumnStats.build([])
        assert stats.row_count == 0
        assert stats.distinct_count == 0


class TestMerge:
    def _split(self, values, parts=4, seed=0):
        rng = random.Random(seed)
        fragments = [[] for _ in range(parts)]
        for value in values:
            fragments[rng.randrange(parts)].append(value)
        return fragments

    def test_merged_row_count_is_sum(self):
        values = list(range(500))
        parts = [ColumnStats.build(f) for f in self._split(values)]
        merged = merge_column_stats(parts)
        assert merged.row_count == 500

    def test_merged_min_max(self):
        values = list(range(-50, 300))
        parts = [ColumnStats.build(f) for f in self._split(values)]
        merged = merge_column_stats(parts)
        assert merged.min_value == -50
        assert merged.max_value == 299

    def test_merged_distinct_close_to_truth(self):
        values = [i % 64 for i in range(2000)]
        parts = [ColumnStats.build(f) for f in self._split(values)]
        merged = merge_column_stats(parts)
        # Every value appears on every node, so the sum over-counts; the
        # integer-domain cap repairs it.
        assert merged.distinct_count == pytest.approx(64, rel=0.05)

    def test_hash_partitioned_distinct_is_exact(self):
        # Hash placement puts each key on exactly one node: sum is exact.
        values = list(range(256))
        fragments = [[v for v in values if v % 4 == n] for n in range(4)]
        parts = [ColumnStats.build(f) for f in fragments]
        merged = merge_column_stats(parts)
        assert merged.distinct_count == 256

    def test_merged_histogram_estimates(self):
        values = list(range(2000))
        parts = [ColumnStats.build(f) for f in self._split(values)]
        merged = merge_column_stats(parts)
        estimate = merged.histogram.estimate_le(999)
        assert estimate == pytest.approx(1000, rel=0.15)

    def test_merge_empty_parts(self):
        merged = merge_column_stats([])
        assert merged.row_count == 0

    def test_merge_single_part_identity(self):
        stats = ColumnStats.build(list(range(100)))
        merged = merge_column_stats([stats])
        assert merged.row_count == stats.row_count
        assert merged.distinct_count == stats.distinct_count

    def test_merge_histograms_preserves_total(self):
        h1 = Histogram.build(list(range(0, 500)))
        h2 = Histogram.build(list(range(500, 900)))
        merged = merge_histograms([h1, h2])
        assert merged.total_count == 900
        assert merged.min_value == 0
        assert merged.max_value == 899


# -- hypothesis invariants ----------------------------------------------------

values_strategy = st.lists(
    st.integers(min_value=-10_000, max_value=10_000),
    min_size=1, max_size=400,
)


@given(values_strategy)
@settings(max_examples=60, deadline=None)
def test_histogram_total_equals_input(values):
    hist = Histogram.build(values)
    assert hist.total_count == len(values)


@given(values_strategy, st.integers(-10_001, 10_001),
       st.integers(-10_001, 10_001))
@settings(max_examples=60, deadline=None)
def test_estimate_le_monotonic(values, a, b):
    hist = Histogram.build(values)
    low, high = min(a, b), max(a, b)
    assert hist.estimate_le(low) <= hist.estimate_le(high) + 1e-9


@given(values_strategy, st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_merge_invariants(values, parts):
    fragments = [values[i::parts] for i in range(parts)]
    stats = [ColumnStats.build(f) for f in fragments if f]
    merged = merge_column_stats(stats)
    assert merged.row_count == len(values)
    true_distinct = len(set(values))
    assert merged.distinct_count >= max(
        (s.distinct_count for s in stats), default=0)
    # Distinct estimate is bounded by the non-null row count.
    assert merged.distinct_count <= merged.row_count
    # And it never undershoots the per-fragment max, never overshoots
    # the sum.
    assert merged.distinct_count <= sum(s.distinct_count for s in stats)
    assert merged.min_value == min(values)
    assert merged.max_value == max(values)
    del true_distinct


# -- native-order fast path == sort_key path ------------------------------------

def _reference_column_stats(values, num_buckets):
    """``ColumnStats.build`` with ``sort_key`` applied to every value in
    every comparison — the general path, kept here as the reference the
    by-type fast path must reproduce exactly."""
    values = list(values)
    non_null = sorted((v for v in values if v is not None), key=sort_key)
    buckets = []
    target = max(1, len(non_null) // max(1, num_buckets))
    start = 0
    while start < len(non_null):
        end = min(start + target, len(non_null))
        while (end < len(non_null)
               and sort_key(non_null[end]) == sort_key(non_null[end - 1])):
            end += 1
        chunk = non_null[start:end]
        buckets.append(Bucket(chunk[-1], float(len(chunk)),
                              float(len({sort_key(v) for v in chunk}))))
        start = end
    histogram = (Histogram(buckets, non_null[0], non_null[-1])
                 if non_null else Histogram())
    widths = [_value_width(v) for v in non_null]
    return ColumnStats(
        row_count=float(len(values)),
        null_count=float(len(values) - len(non_null)),
        distinct_count=float(len({sort_key(v) for v in non_null})),
        min_value=histogram.min_value,
        max_value=histogram.max_value,
        avg_width=sum(widths) / len(widths) if widths else 4.0,
        histogram=histogram,
    )


_homogeneous = st.one_of(
    st.lists(st.integers(-50, 50)),
    st.lists(st.integers(-2**70, 2**70)),          # past 2^53: general path
    st.lists(st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -2**53, 7])),
    st.lists(st.floats(allow_nan=False)),
    st.lists(st.floats(allow_nan=True)),           # NaN: general path
    # One NaN object repeated: equal to itself inside a sort_key tuple
    # (identity), unequal bare.
    st.lists(st.sampled_from([float("nan"), 1.0, 2.0])),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, float("inf")])),
    st.lists(st.text(max_size=3)),
    st.lists(st.dates(datetime.date(1992, 1, 1), datetime.date(1992, 3, 1))),
    st.lists(st.booleans()),                       # bool: general path
    st.lists(st.datetimes(datetime.datetime(1992, 1, 1),
                          datetime.datetime(1992, 1, 3))),
)
_any_value = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(-5, 5),
    st.text(max_size=2), st.dates(datetime.date(1992, 1, 1),
                                  datetime.date(1992, 1, 9)))


@st.composite
def _columns(draw):
    shape = draw(st.sampled_from(
        ["homogeneous", "mixed", "null_heavy", "all_equal", "empty"]))
    if shape == "empty":
        return []
    if shape == "mixed":
        return draw(st.lists(_any_value, max_size=60))
    if shape == "all_equal":
        return [draw(_any_value)] * draw(st.integers(1, 40))
    values = draw(_homogeneous)
    if shape == "null_heavy":
        values = [v for value in values for v in (None, value, None)]
        values = draw(st.permutations(values))
    return values


@given(_columns(), st.integers(min_value=1, max_value=8))
@settings(max_examples=400, deadline=None)
def test_fast_path_matches_sort_key_path(values, num_buckets):
    # repr, not ==: it tells 0.0 from -0.0 and 1 from 1.0, and NaN
    # bucket bounds still compare.
    assert (repr(ColumnStats.build(values, num_buckets))
            == repr(_reference_column_stats(values, num_buckets)))
    assert (repr(Histogram.build(values, num_buckets))
            == repr(_reference_column_stats(values, num_buckets).histogram))
