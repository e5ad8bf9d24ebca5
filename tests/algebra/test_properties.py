"""Distribution property and column equivalence tests."""

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import ColumnVar, Comparison
from repro.algebra.properties import (
    ColumnEquivalence,
    DistKind,
    Distribution,
    ON_CONTROL_DIST,
    REPLICATED_DIST,
    distribution_satisfies,
    distributions_collocated_for_join,
    hashed_on,
)
from repro.common.types import INTEGER


def var(i):
    return ColumnVar(i, f"c{i}", INTEGER)


class TestDistribution:
    def test_hashed_requires_columns(self):
        with pytest.raises(ValueError):
            Distribution(DistKind.HASHED)

    def test_replicated_takes_no_columns(self):
        with pytest.raises(ValueError):
            Distribution(DistKind.REPLICATED, (1,))

    def test_is_partitioned(self):
        assert hashed_on(1).is_partitioned
        assert not REPLICATED_DIST.is_partitioned

    def test_single_node(self):
        assert ON_CONTROL_DIST.is_on_single_node
        assert not hashed_on(1).is_on_single_node

    def test_describe_with_names(self):
        text = hashed_on(7).describe({7: "o_custkey"})
        assert "o_custkey" in text


class TestColumnEquivalence:
    def test_transitivity(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        eq.add_equality(2, 3)
        assert eq.are_equivalent(1, 3)

    def test_unrelated(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        assert not eq.are_equivalent(1, 3)

    def test_from_predicate(self):
        eq = ColumnEquivalence()
        eq.add_from_predicate(Comparison("=", var(1), var(2)))
        assert eq.are_equivalent(1, 2)

    def test_non_equality_ignored(self):
        eq = ColumnEquivalence()
        eq.add_from_predicate(Comparison("<", var(1), var(2)))
        assert not eq.are_equivalent(1, 2)

    def test_equivalence_class(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        eq.add_equality(2, 3)
        assert eq.equivalence_class(1) == {1, 2, 3}

    def test_copy_is_independent(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        clone = eq.copy()
        clone.add_equality(2, 3)
        assert not eq.are_equivalent(1, 3)
        assert clone.are_equivalent(1, 3)

    def test_representative_consistent(self):
        eq = ColumnEquivalence()
        eq.add_equality(5, 9)
        assert eq.representative(5) == eq.representative(9)


class _ReferenceEquivalence:
    """The union-find as it was before representatives were cached:
    every lookup walks ``_find``."""

    def __init__(self):
        self._parent: Dict[int, int] = {}

    def _find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            root = self._find(parent)
            self._parent[x] = root
            return root
        return x

    def add_equality(self, a: int, b: int) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def representative(self, x: int) -> int:
        return self._find(x)

    def equivalence_class(self, x: int):
        root = self._find(x)
        return frozenset(
            member for member in self._parent if self._find(member) == root
        ) or frozenset((x,))


_IDS = st.integers(min_value=0, max_value=11)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _IDS, _IDS),
        st.tuples(st.just("rep"), _IDS, _IDS),
        st.tuples(st.just("same"), _IDS, _IDS),
        st.tuples(st.just("class"), _IDS, _IDS),
        st.tuples(st.just("copy"), _IDS, _IDS),
    ),
    max_size=60)


class TestRepresentativeCache:
    """``representative`` answers from a cache that every union clears;
    interleaved unions and lookups must agree with the uncached walk."""

    @settings(max_examples=300, deadline=None)
    @given(_STEPS)
    def test_interleaved_calls_match_the_uncached_find(self, steps):
        cached = ColumnEquivalence()
        reference = _ReferenceEquivalence()
        for action, a, b in steps:
            if action == "add":
                cached.add_equality(a, b)
                reference.add_equality(a, b)
            elif action == "rep":
                assert cached.representative(a) == reference.representative(a)
            elif action == "same":
                assert cached.are_equivalent(a, b) == (
                    reference.representative(a)
                    == reference.representative(b))
            elif action == "class":
                assert (cached.equivalence_class(a)
                        == reference.equivalence_class(a))
            else:  # a copy starts from the same classes, then diverges
                cached = cached.copy()
        for x in range(12):
            assert cached.representative(x) == reference.representative(x)

    def test_a_union_after_a_lookup_moves_the_representative(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        assert eq.representative(3) == 3
        eq.add_equality(1, 3)
        assert eq.representative(3) == eq.representative(1)
        assert eq.are_equivalent(2, 3)


class TestSatisfies:
    def test_exact_match(self):
        assert distribution_satisfies(hashed_on(1), hashed_on(1))

    def test_hash_through_equivalence(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        assert distribution_satisfies(hashed_on(1), hashed_on(2), eq)

    def test_hash_mismatch_without_equivalence(self):
        assert not distribution_satisfies(hashed_on(1), hashed_on(2))

    def test_replicated_does_not_satisfy_hash(self):
        assert not distribution_satisfies(REPLICATED_DIST, hashed_on(1))

    def test_kind_match(self):
        assert distribution_satisfies(REPLICATED_DIST, REPLICATED_DIST)


class TestCollocation:
    def pairs(self):
        return [(var(1), var(2))]

    def test_replicated_side_collocates(self):
        assert distributions_collocated_for_join(
            REPLICATED_DIST, hashed_on(9), self.pairs())

    def test_aligned_hashes_collocate(self):
        assert distributions_collocated_for_join(
            hashed_on(1), hashed_on(2), self.pairs())

    def test_misaligned_hashes_do_not(self):
        assert not distributions_collocated_for_join(
            hashed_on(7), hashed_on(2), self.pairs())

    def test_equivalence_bridges_alignment(self):
        eq = ColumnEquivalence()
        eq.add_equality(7, 1)
        assert distributions_collocated_for_join(
            hashed_on(7), hashed_on(2), self.pairs(), eq)

    def test_both_on_control(self):
        assert distributions_collocated_for_join(
            ON_CONTROL_DIST, ON_CONTROL_DIST, self.pairs())

    def test_control_and_hashed_do_not(self):
        assert not distributions_collocated_for_join(
            ON_CONTROL_DIST, hashed_on(2), self.pairs())
