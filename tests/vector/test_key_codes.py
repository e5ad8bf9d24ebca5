"""Dense key codes ⇄ the sort-based consumers they replaced.

``np_executor._key_codes`` hands every equality consumer — the join
probe, GROUP BY, DISTINCT aggregates — codes in ``[0, cardinality)``
with ``cardinality`` at most ``CODES_PER_ROW`` per row, and the
consumers index tables by code.  Their outputs must be exactly what
the sort-based versions produced: candidate pairs left-major with each
left row's matches in right-scan order, groups in first-occurrence
order, DISTINCT first rows in row order.  The sort-based versions are
kept here, verbatim, as the references:

* :func:`_sorted_probe` — the stable argsort + two ``searchsorted``
  join probe;
* :func:`_unique_factorize` — GROUP BY's ``np.unique(return_index,
  return_inverse)`` factorize, and :func:`_unique_first_rows`,
  DISTINCT's ``np.sort(np.unique(…, return_index=True)[1])``.

The encoder itself is held to the oracle's two equality rules (GROUP
BY: ``True`` is not ``1``; joins and DISTINCT: ``True == 1 == 1.0``)
over every column kind, NULLs, several columns, segments and join
pairs of two kinds — the rules it decided equality by before codes
were dense — and its dense codes to its mixed-radix codes with the
bound lifted: two rows share a code exactly when they did before.
"""

from __future__ import annotations

import datetime
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vector.np_executor as np_executor
from repro.vector.np_batch import (
    ArrayBatch,
    NumpyColumn,
    column_from_list,
    segment_ids,
)
from repro.vector.np_executor import (
    CODES_PER_ROW,
    NumpyInterpreter,
    _dense_probe,
    _first_occurrences,
    _key_codes,
    _radix_order,
    _ranges,
)

NODE_COUNTS = (1, 2, 3, 7, 8)

_EMPTY_IDX = np.zeros(0, dtype=np.int64)


# -- the references -------------------------------------------------------------


def _sorted_probe(lkeys: np.ndarray, rkeys: np.ndarray):
    """Candidate pairs for one code space's int64 key codes via sort +
    searchsorted.

    A stable argsort of the build (right) codes keeps equal codes in
    right-scan order, so the slice ``lo[i]:hi[i]`` for probe row ``i``
    enumerates its matches exactly as the reference dict bucket would;
    emitting probe rows in order makes the result left-major.
    """
    if not len(lkeys) or not len(rkeys):
        return _EMPTY_IDX, _EMPTY_IDX
    order = np.argsort(rkeys, kind="stable")
    sorted_keys = rkeys[order]
    lo = np.searchsorted(sorted_keys, lkeys, side="left")
    hi = np.searchsorted(sorted_keys, lkeys, side="right")
    counts = hi - lo
    if not counts.any():
        return _EMPTY_IDX, _EMPTY_IDX
    left_idx = np.repeat(np.arange(len(lkeys), dtype=np.int64), counts)
    return left_idx, order[_ranges(lo, counts)]


def _unique_factorize(codes: np.ndarray):
    """``(inverse, first_rows)``: dense group codes in first-occurrence
    order over any int64 codes."""
    uniques, first_index, inverse = np.unique(
        codes, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[order] = np.arange(len(uniques), dtype=np.int64)
    return rank[inverse], first_index[order]


def _unique_first_rows(codes: np.ndarray) -> np.ndarray:
    """The first row of each code, in row order."""
    return np.sort(np.unique(codes, return_index=True)[1])


def assert_same(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want, strict=True)


# -- the dense probe ------------------------------------------------------------


@st.composite
def code_pairs(draw):
    """Two sides' codes in one code space and a cardinality above them:
    one code, few, many; the bound exactly, or the codes' own span."""
    distinct = draw(st.sampled_from([1, 2, 5, 60]))
    side = st.lists(st.integers(0, distinct - 1), max_size=40)
    lkeys = np.array(draw(side), dtype=np.int64)
    if draw(st.booleans()):
        rkeys = np.array(draw(side), dtype=np.int64)
    else:  # an all-duplicate build side
        rkeys = np.full(draw(st.integers(0, 20)),
                        draw(st.integers(0, distinct - 1)), dtype=np.int64)
    at_bound = CODES_PER_ROW * max(len(lkeys) + len(rkeys), 1)
    cardinality = draw(st.sampled_from([distinct, at_bound])
                       if distinct <= at_bound else st.just(distinct))
    return lkeys, rkeys, cardinality


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=code_pairs())
def test_the_dense_probe_is_the_sort_probe(case):
    lkeys, rkeys, cardinality = case
    assert_same(_dense_probe(lkeys, rkeys, cardinality),
                _sorted_probe(lkeys, rkeys))


@pytest.mark.parametrize("lkeys,rkeys,cardinality", [
    ([], [], 1),                       # both sides empty
    ([0, 1], [], 2),                   # empty build side
    ([], [0, 0], 1),                   # empty probe side
    ([0, 0, 0], [0, 0], 1),            # one code
    ([3, 1, 3], [3, 3, 3, 3], 4),      # an all-duplicate build side
    ([2, 0, 1], [1, 2, 0], 3),         # duplicate-free: no sort
    ([5, 9], [9, 5, 9], CODES_PER_ROW * 5),  # exactly at the bound
    ([1, 1], [0, 2], 3),               # nothing matches
    # Codes past one 16-bit radix digit.
    ([70000, 5, 70000], [70000, 5, 1 << 16, 70000, 5], 1 << 17),
])
def test_the_dense_probe_on_edge_cases(lkeys, rkeys, cardinality):
    lkeys = np.array(lkeys, dtype=np.int64)
    rkeys = np.array(rkeys, dtype=np.int64)
    assert_same(_dense_probe(lkeys, rkeys, cardinality),
                _sorted_probe(lkeys, rkeys))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=st.sampled_from([1, 8, 16, 17, 32, 33, 40]),
       data=st.data())
def test_the_build_sides_radix_order_is_the_stable_sort(bits, data):
    cardinality = 1 << bits
    # Repeated codes too: the order among equal codes is the point.
    codes = np.array(data.draw(st.lists(
        st.integers(0, cardinality - 1)
        | st.sampled_from([0, 1, cardinality - 1]), max_size=50)),
        dtype=np.int64)
    np.testing.assert_array_equal(_radix_order(codes, cardinality),
                                  np.argsort(codes, kind="stable"),
                                  strict=True)


@st.composite
def placed_sides(draw):
    """Two placed sides of an int key join over 1/2/3/7/8 nodes, NULL
    keys included."""
    nodes = draw(st.sampled_from(NODE_COUNTS))
    distinct = draw(st.sampled_from([1, 3, 30]))

    def side():
        counts = draw(st.lists(st.integers(0, 6), min_size=nodes,
                               max_size=nodes))
        length = sum(counts)
        values = draw(st.lists(st.integers(0, distinct - 1),
                               min_size=length, max_size=length))
        nulls = draw(st.lists(st.booleans(), min_size=length,
                              max_size=length))
        bounds = np.zeros(nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return (np.array(values, dtype=np.int64),
                np.array(nulls, dtype=np.bool_), bounds)

    return nodes, distinct, side(), side()


def _batch(values, nulls, bounds):
    column = NumpyColumn("i", values, nulls if nulls.any() else None)
    return ArrayBatch({0: column}, len(values), bounds)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=placed_sides())
def test_join_candidates_are_the_sort_probes(case):
    """Through the join's own entry: segments as the leading digit,
    NULL-key rows dropped on both sides, then the probe."""
    nodes, distinct, (lvalues, lnulls, lbounds), (rvalues, rnulls,
                                                  rbounds) = case
    pairs = [(SimpleNamespace(id=0), SimpleNamespace(id=0))]
    actual = NumpyInterpreter._np_hash_candidates(
        _batch(lvalues, lnulls, lbounds), _batch(rvalues, rnulls, rbounds),
        pairs)
    # The parent's codes: segment · span + value, NULL rows dropped.
    lkeys = segment_ids(lbounds) * distinct + lvalues
    rkeys = segment_ids(rbounds) * distinct + rvalues
    lrows, rrows = np.flatnonzero(~lnulls), np.flatnonzero(~rnulls)
    left_idx, right_idx = _sorted_probe(lkeys[lrows], rkeys[rrows])
    assert_same(actual, (lrows[left_idx], rrows[right_idx]))


# -- first occurrences: GROUP BY and DISTINCT -----------------------------------


@st.composite
def dense_codes(draw):
    distinct = draw(st.sampled_from([1, 2, 7, 100]))
    codes = np.array(draw(st.lists(st.integers(0, distinct - 1),
                                   max_size=60)), dtype=np.int64)
    at_bound = CODES_PER_ROW * max(len(codes), 1)
    cardinality = draw(st.sampled_from([distinct, max(distinct, at_bound)]))
    return codes, cardinality


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=dense_codes())
def test_first_occurrences_are_the_unique_factorize(case):
    codes, cardinality = case
    inverse, first_rows = _first_occurrences(codes, cardinality)
    if len(codes):
        assert_same((inverse, first_rows), _unique_factorize(codes))
    assert_same((first_rows,), (_unique_first_rows(codes),))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=placed_sides(), keys=st.integers(1, 2))
def test_group_codes_are_the_unique_factorize(case, keys):
    """``_factorize`` over one or two int key columns with NULLs, the
    node as the leading digit."""
    nodes, _, (values, nulls, bounds), _ = case
    columns = {0: NumpyColumn("i", values, nulls if nulls.any() else None),
               1: NumpyColumn("i", values[::-1].copy())}
    child = ArrayBatch(columns, len(values), bounds)
    key_ids = [0, 1][:keys]
    segments = segment_ids(bounds)
    actual = NumpyInterpreter._factorize(child, key_ids, segments, nodes)
    if not len(values):
        assert_same(actual, (_EMPTY_IDX, _EMPTY_IDX))
        return
    codes, _, _ = _key_codes([(columns[key_id],) for key_id in key_ids],
                             len(values), segments, nodes, bools_apart=True)
    assert_same(actual, _unique_factorize(codes))


# -- the encoder: dense, and the oracle's equality ------------------------------

_DATES = [datetime.date(1995, 1, 1) + datetime.timedelta(days=d)
          for d in (0, 1, 40, 3000)]

#: Values per column kind; ``None`` is added to every kind.
KIND_VALUES = {
    "i": st.sampled_from([-3, 0, 1, 2, 7, 2 ** 62, -2 ** 62, 2 ** 63 - 1]),
    "d": st.sampled_from(_DATES),
    "s": st.sampled_from(["", "a", "b", "ab", "é"]),
    "b": st.booleans(),
    "f": st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")])
    | st.builds(float, st.just("nan")),
    "o": st.sampled_from([True, False, 1, 0, 1.0, "a", 2 ** 70]),
}


@st.composite
def key_columns(draw, length, kind):
    values = draw(st.lists(st.none() | KIND_VALUES[kind], min_size=length,
                           max_size=length))
    return column_from_list(values)


@st.composite
def keys(draw):
    """A key of one to three columns over ``length`` rows, optionally
    segmented; each column one piece, or a join pair of two pieces
    (of the same kind or two)."""
    length = draw(st.integers(1, 40))
    nodes = draw(st.sampled_from(NODE_COUNTS))
    segments = (np.sort(np.array(draw(st.lists(
        st.integers(0, nodes - 1), min_size=length, max_size=length)),
        dtype=np.int64)) if draw(st.booleans()) else None)
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(KIND_VALUES)))
        if length == 1 or draw(st.booleans()):
            columns.append((draw(key_columns(length, kind)),))
        else:
            # A join's two sides: neither is empty (an empty side
            # matches nothing before any key is encoded).
            split = draw(st.integers(1, length - 1))
            other = draw(st.sampled_from([kind, *sorted(KIND_VALUES)]))
            columns.append((draw(key_columns(split, kind)),
                            draw(key_columns(length - split, other))))
    return length, segments, nodes, columns


def _oracle_ids(length, segments, columns, bools_apart):
    """Equal ids exactly for rows equal under the oracle's rule: its
    dict and set (``True == 1 == 1.0``, NaN equal to nothing else), or
    GROUP BY's ``_group_key`` (``True`` apart from ``1``)."""
    values = [[value for piece in pieces for value in piece.pylist()]
              for pieces in columns]
    table = {}
    ids = []
    for row in range(length):
        key = tuple(("b", value)
                    if bools_apart and value.__class__ is bool else value
                    for value in (column[row] for column in values))
        segment = 0 if segments is None else int(segments[row])
        ids.append(table.setdefault((segment, key), len(table)))
    return np.array(ids), values


def assert_same_classes(codes, ids):
    """Rows share a code exactly when they share an id."""
    pairs = np.unique(np.stack((codes, ids)), axis=1)
    assert pairs.shape[1] == len(np.unique(codes)) == len(np.unique(ids))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(key=keys(), bools_apart=st.booleans())
def test_key_codes_are_dense_and_keep_the_oracles_equality(key,
                                                           bools_apart):
    length, segments, nodes, columns = key
    codes, cardinality, nulls = _key_codes(columns, length, segments, nodes,
                                           bools_apart)
    assert codes.dtype == np.int64 and len(codes) == length
    assert 1 <= cardinality <= CODES_PER_ROW * length
    assert codes.min() >= 0 and codes.max() < cardinality
    expected, values = _oracle_ids(length, segments, columns, bools_apart)
    assert_same_classes(codes, expected)
    # The mixed-radix codes before any density re-code: the sparse
    # codes the consumers were handed before the bound.
    with mock.patch.object(np_executor, "CODES_PER_ROW", 2 ** 62):
        sparse, _, _ = _key_codes(columns, length, segments, nodes,
                                  bools_apart)
    assert_same_classes(codes, sparse)
    null_rows = np.array([any(column[row] is None for column in values)
                          for row in range(length)])
    if nulls is None:
        assert not null_rows.any()
    else:
        np.testing.assert_array_equal(nulls, null_rows)


def test_a_key_exactly_at_the_bound_is_not_recoded(monkeypatch):
    recodes = []
    real = np_executor._dense_recode

    def counting(codes):
        recodes.append(len(codes))
        return real(codes)

    monkeypatch.setattr(np_executor, "_dense_recode", counting)
    length = 10
    at_bound = CODES_PER_ROW * length
    values = [0, at_bound - 1] + [5] * (length - 2)
    codes, cardinality, _ = _key_codes([(column_from_list(values),)],
                                       length, None, 1, bools_apart=True)
    assert (cardinality, recodes) == (at_bound, [])
    np.testing.assert_array_equal(codes, values)
    # One code more is sparse: one np.unique re-code.
    values[1] = at_bound
    codes, cardinality, _ = _key_codes([(column_from_list(values),)],
                                       length, None, 1, bools_apart=True)
    assert (cardinality, recodes) == (3, [length])
    np.testing.assert_array_equal(codes, [0, 2] + [1] * (length - 2))
