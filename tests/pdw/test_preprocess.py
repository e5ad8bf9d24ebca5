"""PDW preprocessing tests (Figure 4 steps 02-03)."""

import pytest

from repro.algebra.logical import AggPhase, LogicalGroupBy
from repro.optimizer.search import SerialOptimizer
from repro.pdw.preprocess import (
    fix_partial_aggregate_cardinalities,
    pdw_expressions,
    preprocess,
)


def serial(shell, sql):
    return SerialOptimizer(shell).optimize_sql(sql)


def local_groups(memo):
    result = []
    for group in memo.canonical_groups():
        exprs = group.logical_expressions
        if exprs and all(
                isinstance(e.op, LogicalGroupBy)
                and e.op.phase is AggPhase.LOCAL for e in exprs):
            result.append(group)
    return result


class TestPartialAggregateFix:
    def test_local_groups_capped_by_groups_times_n(self, mini_shell):
        result = serial(
            mini_shell,
            "SELECT c_nationkey, COUNT(*) FROM customer "
            "GROUP BY c_nationkey")
        groups = local_groups(result.memo)
        assert groups
        before = groups[0].cardinality
        adjusted = fix_partial_aggregate_cardinalities(result.memo, 8)
        assert adjusted >= 1
        after = groups[0].cardinality
        # The serial estimate assumed one node (one partial row per
        # group); the appliance produces up to one partial per group per
        # node, so the fix *raises* it to min(input, groups x N).
        assert after == pytest.approx(min(15_000, before * 8))
        assert after < 15_000  # still a reduction vs the raw input

    def test_keyless_local_agg_caps_at_n(self, mini_shell):
        result = serial(mini_shell,
                        "SELECT SUM(o_totalprice) FROM orders")
        fix_partial_aggregate_cardinalities(result.memo, 8)
        groups = local_groups(result.memo)
        assert groups
        assert groups[0].cardinality <= 8

    def test_no_aggregates_nothing_adjusted(self, mini_shell):
        result = serial(mini_shell, "SELECT c_name FROM customer")
        assert fix_partial_aggregate_cardinalities(result.memo, 8) == 0

    def test_idempotent(self, mini_shell):
        result = serial(mini_shell,
                        "SELECT SUM(o_totalprice) FROM orders")
        fix_partial_aggregate_cardinalities(result.memo, 8)
        groups = local_groups(result.memo)
        first = groups[0].cardinality
        fix_partial_aggregate_cardinalities(result.memo, 8)
        assert groups[0].cardinality == first


class TestPdwExpressions:
    def test_only_logical_survive(self, mini_shell):
        result = serial(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        per_group = pdw_expressions(result.memo)
        for group_id, exprs in per_group.items():
            for expr in exprs:
                assert expr.is_logical

    def test_counts_match_logical(self, mini_shell):
        result = serial(mini_shell, "SELECT c_name FROM customer")
        per_group = pdw_expressions(result.memo)
        total = sum(len(v) for v in per_group.values())
        assert total == result.memo.expression_count(logical_only=True)

    def test_preprocess_runs_both_steps(self, mini_shell):
        result = serial(mini_shell,
                        "SELECT SUM(o_totalprice) FROM orders")
        per_group = preprocess(result.memo, 8)
        assert per_group
        groups = local_groups(result.memo)
        assert groups[0].cardinality <= 8
