"""Column statistics: equi-depth histograms, and the per-node → global merge.

Paper §2.2: *"To compute global statistics, local statistics are first
computed on each node via the standard SQL Server mechanisms, and are then
merged together to derive global statistics."*

We implement that pipeline faithfully:

* each compute node builds :class:`ColumnStats` (row/null/distinct counts,
  min/max, average width, an equi-depth :class:`Histogram`) over its local
  fragment, and
* :func:`merge_column_stats` combines the per-node statistics into the
  global statistics stored in the shell database.

Cardinality estimation (see :mod:`repro.optimizer.cardinality`) consumes
only the merged form, exactly like the PDW optimizer consumes shell-database
statistics.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

DEFAULT_BUCKETS = 32

#: Ints below this magnitude convert to float exactly, so they order and
#: compare among themselves as their :func:`sort_key` does.
_EXACT_FLOAT_INT = 2 ** 53


def sort_key(value) -> Tuple[int, object]:
    """A total order over heterogeneous SQL values (NULLs first)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, datetime.date):
        return (2, value.toordinal())
    return (3, str(value))


def _sorted_with_keys(values: Sequence) -> Tuple[List, List]:
    """The non-NULL ``values`` in :func:`sort_key` order, plus a parallel
    list of keys that order and equate them exactly as ``sort_key`` does.

    When every value has one exact type whose native comparison agrees
    with ``sort_key`` — ``int`` (float-exact), ``float`` (no NaN),
    ``str``, ``datetime.date`` — the values are their own keys and sort
    natively; anything else (mixed types, ``bool``, NaN, huge ints, a
    ``date`` subclass) takes the general path.
    """
    non_null = [v for v in values if v is not None]
    kinds = set(map(type, non_null))
    if len(kinds) == 1:
        kind = kinds.pop()
        if (kind is str or kind is datetime.date
                or (kind is float and not any(map(math.isnan, non_null)))
                or (kind is int
                    and -_EXACT_FLOAT_INT < min(non_null)
                    and max(non_null) < _EXACT_FLOAT_INT)):
            non_null.sort()
            return non_null, non_null
    non_null.sort(key=sort_key)
    return non_null, [sort_key(v) for v in non_null]


def numeric_position(value) -> float:
    """Map a value onto the real line for within-bucket interpolation.

    Numbers map to themselves, dates to their ordinal, booleans to 0/1 and
    strings to a base-256 expansion of their first eight characters — a
    standard trick that preserves lexicographic order well enough for
    histogram interpolation.
    """
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    text = str(value)
    position = 0.0
    scale = 1.0
    for ch in text[:8]:
        scale /= 256.0
        position += min(ord(ch), 255) * scale
    return position


@dataclass(frozen=True)
class Bucket:
    """One equi-depth histogram bucket.

    Covers values in ``(previous upper, upper]``; ``count`` rows and
    ``distinct`` distinct values fall in it.
    """

    upper: object
    count: float
    distinct: float


@dataclass
class Histogram:
    """An equi-depth histogram over non-null values of one column."""

    buckets: List[Bucket] = field(default_factory=list)
    min_value: Optional[object] = None
    max_value: Optional[object] = None

    @property
    def total_count(self) -> float:
        return sum(b.count for b in self.buckets)

    @classmethod
    def build(cls, values: Sequence, num_buckets: int = DEFAULT_BUCKETS) -> "Histogram":
        """Build an equi-depth histogram from raw values (NULLs skipped)."""
        return cls._from_sorted(*_sorted_with_keys(values), num_buckets)

    @classmethod
    def _from_sorted(cls, non_null: List, keys: List,
                     num_buckets: int) -> "Histogram":
        """:meth:`build` over the output of :func:`_sorted_with_keys`."""
        if not non_null:
            return cls()
        target = max(1, len(non_null) // max(1, num_buckets))
        buckets: List[Bucket] = []
        start = 0
        while start < len(non_null):
            end = min(start + target, len(non_null))
            # Extend the bucket so equal values never straddle a boundary.
            while end < len(non_null) and keys[end] == keys[end - 1]:
                end += 1
            distinct = len(set(keys[start:end]))
            buckets.append(Bucket(non_null[end - 1], float(end - start),
                                  float(distinct)))
            start = end
        return cls(buckets, non_null[0], non_null[-1])

    def estimate_le(self, value) -> float:
        """Estimated number of rows with column value ``<= value``."""
        if not self.buckets:
            return 0.0
        total = 0.0
        key = sort_key(value)
        lower = self.min_value
        for bucket in self.buckets:
            if sort_key(bucket.upper) <= key:
                total += bucket.count
                lower = bucket.upper
                continue
            # value falls inside this bucket: interpolate.
            low_pos = numeric_position(lower)
            high_pos = numeric_position(bucket.upper)
            value_pos = numeric_position(value)
            if high_pos > low_pos:
                fraction = (value_pos - low_pos) / (high_pos - low_pos)
                fraction = min(1.0, max(0.0, fraction))
            else:
                fraction = 0.5
            total += bucket.count * fraction
            break
        return total

    def estimate_eq(self, value) -> float:
        """Estimated number of rows with column value ``= value``."""
        if not self.buckets:
            return 0.0
        key = sort_key(value)
        if self.min_value is not None and key < sort_key(self.min_value):
            return 0.0
        if self.max_value is not None and key > sort_key(self.max_value):
            return 0.0
        for bucket in self.buckets:
            if key <= sort_key(bucket.upper):
                return bucket.count / max(1.0, bucket.distinct)
        return 0.0

    def estimate_range(self, low, high, low_inclusive=True, high_inclusive=True) -> float:
        """Estimated number of rows in a (possibly open-ended) range."""
        if not self.buckets:
            return 0.0
        total = self.total_count
        upper = self.estimate_le(high) if high is not None else total
        if high is not None and not high_inclusive:
            upper -= self.estimate_eq(high)
        lower = self.estimate_le(low) if low is not None else 0.0
        if low is not None and low_inclusive:
            lower -= self.estimate_eq(low)
        return max(0.0, min(total, upper - lower))


@dataclass
class ColumnStats:
    """Statistics for one column of one table (local or global)."""

    row_count: float
    null_count: float
    distinct_count: float
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    avg_width: float = 4.0
    histogram: Histogram = field(default_factory=Histogram)

    @property
    def null_fraction(self) -> float:
        if self.row_count <= 0:
            return 0.0
        return self.null_count / self.row_count

    @classmethod
    def build(cls, values: Sequence, num_buckets: int = DEFAULT_BUCKETS) -> "ColumnStats":
        """Compute exact statistics over raw column values."""
        values = list(values)
        non_null, keys = _sorted_with_keys(values)
        histogram = Histogram._from_sorted(non_null, keys, num_buckets)
        if non_null:
            avg_width = (_total_width(non_null, keys is non_null)
                         / len(non_null))
        else:
            avg_width = 4.0
        return cls(
            row_count=float(len(values)),
            null_count=float(len(values) - len(non_null)),
            distinct_count=float(len(set(keys))),
            min_value=histogram.min_value,
            max_value=histogram.max_value,
            avg_width=avg_width,
            histogram=histogram,
        )


def _total_width(non_null: List, one_type: bool) -> float:
    """Sum of :func:`_value_width` over non-NULL values; by type when
    they are sorted and share one (:func:`_sorted_with_keys`'s native
    case)."""
    if one_type:
        kind = type(non_null[0])
        if kind is float:
            return 8.0 * len(non_null)
        if kind is datetime.date or (
                kind is int and -2**31 <= non_null[0]
                and non_null[-1] < 2**31):
            return 4.0 * len(non_null)
        if kind is str:
            return float(sum(map(len, non_null)) + non_null.count(""))
    return sum(_value_width(v) for v in non_null)


def _value_width(value) -> float:
    if isinstance(value, str):
        return float(max(1, len(value)))
    if isinstance(value, bool):
        return 1.0
    if isinstance(value, int):
        return 4.0 if -2**31 <= value < 2**31 else 8.0
    if isinstance(value, float):
        return 8.0
    if isinstance(value, datetime.date):
        return 4.0
    return 8.0


def merge_histograms(histograms: Sequence[Histogram],
                     num_buckets: int = DEFAULT_BUCKETS) -> Histogram:
    """Merge per-node equi-depth histograms into one global histogram.

    All source bucket boundaries are pooled and sorted, then adjacent
    fine-grained buckets are coalesced back down to ``num_buckets`` while
    summing row counts.  Distinct counts are summed and later capped by the
    caller's global distinct estimate.
    """
    source = sorted(
        (b for h in histograms for b in h.buckets),
        key=lambda b: sort_key(b.upper),
    )
    if not source:
        return Histogram()
    total = sum(b.count for b in source)
    target = total / max(1, num_buckets)
    merged: List[Bucket] = []
    acc_count = 0.0
    acc_distinct = 0.0
    acc_upper = None
    for bucket in source:
        acc_count += bucket.count
        acc_distinct += bucket.distinct
        acc_upper = bucket.upper
        if acc_count >= target:
            merged.append(Bucket(acc_upper, acc_count, acc_distinct))
            acc_count = 0.0
            acc_distinct = 0.0
    if acc_count > 0:
        merged.append(Bucket(acc_upper, acc_count, acc_distinct))
    mins = [h.min_value for h in histograms if h.min_value is not None]
    maxs = [h.max_value for h in histograms if h.max_value is not None]
    return Histogram(
        merged,
        min(mins, key=sort_key) if mins else None,
        max(maxs, key=sort_key) if maxs else None,
    )


def _low_cardinality_overlap(parts: Sequence["ColumnStats"]) -> bool:
    """True when every fragment has few distinct values over (nearly) the
    same value range — values are then almost surely shared by all nodes
    rather than partitioned, so summing distinct counts over-counts."""
    if len(parts) < 2:
        return False
    for part in parts:
        non_null = max(1.0, part.row_count - part.null_count)
        if part.distinct_count > max(16.0, 0.05 * non_null):
            return False
    positions_min = []
    positions_max = []
    for part in parts:
        if part.min_value is None or part.max_value is None:
            return False
        positions_min.append(numeric_position(part.min_value))
        positions_max.append(numeric_position(part.max_value))
    total_span = max(positions_max) - min(positions_min)
    common_span = min(positions_max) - max(positions_min)
    if total_span <= 0:
        return True  # all fragments hold one identical value range
    return common_span / total_span > 0.9


def merge_column_stats(parts: Sequence[ColumnStats],
                       num_buckets: int = DEFAULT_BUCKETS) -> ColumnStats:
    """Merge per-node column statistics into global statistics (§2.2).

    The distinct count is estimated as ``min(sum of locals, value-domain
    size)`` and never below the largest local count — summing is exact for
    hash-distributed key columns (each value lives on one node) and an upper
    bound for replicated or skewed columns, which the domain cap repairs for
    dense integer keys.
    """
    parts = [p for p in parts if p.row_count > 0]
    if not parts:
        return ColumnStats(0.0, 0.0, 0.0)
    row_count = sum(p.row_count for p in parts)
    null_count = sum(p.null_count for p in parts)
    distinct_sum = sum(p.distinct_count for p in parts)
    max_local_distinct = max(p.distinct_count for p in parts)
    distinct = min(distinct_sum, row_count - null_count)
    distinct = max(distinct, max_local_distinct)
    mins = [p.min_value for p in parts if p.min_value is not None]
    maxs = [p.max_value for p in parts if p.max_value is not None]
    min_value = min(mins, key=sort_key) if mins else None
    max_value = max(maxs, key=sort_key) if maxs else None
    if (isinstance(min_value, int) and isinstance(max_value, int)
            and not isinstance(min_value, bool)):
        domain = max_value - min_value + 1
        distinct = min(distinct, float(domain))
    elif _low_cardinality_overlap(parts):
        # Every node reports few distinct values over the same range —
        # the classic signature of a low-cardinality column replicated
        # across fragments (flags, statuses).  Summing would over-count
        # N-fold; the per-node maximum is the better global estimate.
        distinct = max_local_distinct
    non_null = row_count - null_count
    avg_width = (
        sum(p.avg_width * (p.row_count - p.null_count) for p in parts) / non_null
        if non_null > 0 else parts[0].avg_width
    )
    histogram = merge_histograms([p.histogram for p in parts], num_buckets)
    return ColumnStats(
        row_count=row_count,
        null_count=null_count,
        distinct_count=distinct,
        min_value=min_value,
        max_value=max_value,
        avg_width=avg_width,
        histogram=histogram,
    )
