"""Interesting-property derivation tests (§3.2, Figure 4 step 04)."""

import pytest

from repro.optimizer.search import SerialOptimizer
from repro.pdw.interesting import (
    CONTROL_KEY,
    GroupFacts,
    REPLICATED_KEY,
    build_equivalence,
    concrete_hash_column,
    derive_interesting_properties,
    hash_key,
    property_key_of,
)
from repro.algebra.properties import (
    ColumnEquivalence,
    ON_CONTROL_DIST,
    REPLICATED_DIST,
    hashed_on,
)


def derive(shell, sql):
    result = SerialOptimizer(shell).optimize_sql(sql)
    equivalence = build_equivalence(result.memo, result.root_group)
    props = derive_interesting_properties(
        result.memo, result.root_group, equivalence,
        GroupFacts(result.memo, equivalence))
    return result, equivalence, props


class TestPropertyKeys:
    def test_hash_key_normalizes_via_equivalence(self):
        eq = ColumnEquivalence()
        eq.add_equality(1, 2)
        assert hash_key(eq, 1) == hash_key(eq, 2)

    def test_property_key_of_distributions(self):
        eq = ColumnEquivalence()
        assert property_key_of(REPLICATED_DIST, eq) == REPLICATED_KEY
        assert property_key_of(ON_CONTROL_DIST, eq) == CONTROL_KEY
        assert property_key_of(hashed_on(3), eq) == ("hash", 3)

    def test_multi_column_hash_key(self):
        eq = ColumnEquivalence()
        key = property_key_of(hashed_on(5, 3), eq)
        assert key[0] == "hash-multi"
        assert key[1] == (3, 5)


class TestDerivation:
    def test_join_columns_interesting_on_both_sides(self, mini_shell):
        result, equivalence, props = derive(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        hash_keys = {
            key for keys in props.values() for key in keys
            if key[0] == "hash"
        }
        # One equivalence class covers both custkeys.
        assert len(hash_keys) == 1

    def test_replicated_interesting_for_join_inputs(self, mini_shell):
        result, _, props = derive(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        groups_with_replicated = [
            gid for gid, keys in props.items() if REPLICATED_KEY in keys
        ]
        assert len(groups_with_replicated) >= 2

    def test_root_wants_control(self, mini_shell):
        result, _, props = derive(mini_shell,
                                  "SELECT c_name FROM customer")
        assert CONTROL_KEY in props[result.memo.find(result.root_group)]

    def test_groupby_keys_interesting_below(self, mini_shell):
        result, equivalence, props = derive(
            mini_shell,
            "SELECT c_nationkey, COUNT(*) FROM customer "
            "GROUP BY c_nationkey")
        hash_keys = {
            key for keys in props.values() for key in keys
            if key[0] == "hash"
        }
        assert hash_keys

    def test_keyless_agg_wants_control_below(self, mini_shell):
        result, _, props = derive(mini_shell,
                                  "SELECT COUNT(*) FROM orders")
        control_groups = [
            gid for gid, keys in props.items() if CONTROL_KEY in keys
        ]
        # Root plus at least one aggregation input.
        assert len(control_groups) >= 2

    def test_inherited_interest_propagates_through_select(self, mini_shell):
        result, equivalence, props = derive(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey AND o_totalprice > 10")
        # The filtered orders pipeline (Select group) inherits the join
        # column interest.
        interesting_hash_groups = [
            gid for gid, keys in props.items()
            if any(k[0] == "hash" for k in keys)
        ]
        assert len(interesting_hash_groups) >= 3


class TestConcreteColumns:
    def test_concrete_hash_column_resolves(self, mini_shell):
        result, equivalence, props = derive(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        for gid, keys in props.items():
            for key in keys:
                if key[0] != "hash":
                    continue
                group = result.memo.group(gid)
                reps = {equivalence.representative(v.id)
                        for v in group.output_vars}
                if key[1] in reps:
                    var = concrete_hash_column(result.memo, gid, key[1],
                                               equivalence)
                    assert equivalence.representative(var.id) == key[1]

    def test_concrete_hash_column_missing_raises(self, mini_shell):
        result, equivalence, _ = derive(mini_shell,
                                        "SELECT c_name FROM customer")
        with pytest.raises(KeyError):
            concrete_hash_column(result.memo, result.root_group, 999999,
                                 equivalence)
