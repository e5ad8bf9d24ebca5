"""PDW enumerator tests: Figure 4's bottom-up algorithm."""

import itertools

import pytest

from repro.algebra import expressions as ex
from repro.algebra.logical import LogicalJoin
from repro.algebra.properties import (
    DistKind,
    Distribution,
    ON_CONTROL_DIST,
    REPLICATED_DIST,
)
from repro.catalog.schema import (
    Catalog,
    Column,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.catalog.shell_db import ShellDatabase
from repro.common.types import INTEGER, varchar
from repro.optimizer.memo import topological_order
from repro.optimizer.search import SerialOptimizer
from repro.pdw.dms import DataMovement, DmsOperation
from repro.pdw.enumerator import PdwConfig, PdwOptimizer, PdwOption
from repro.pdw.interesting import GroupFacts, derive_interesting_properties
from repro.pdw.topdown import _join_output_distribution


def optimize(shell, sql, config=None):
    serial = SerialOptimizer(shell).optimize_sql(sql)
    pdw = PdwOptimizer(serial.memo, serial.root_group,
                       node_count=shell.node_count,
                       equivalence=serial.equivalence, config=config)
    plan = pdw.optimize()
    return pdw, plan


def movements(plan):
    return [node.op for node in plan.root.walk()
            if isinstance(node.op, DataMovement)]


class TestCollocation:
    def test_collocated_join_needs_no_movement(self, mini_shell):
        # orders and lineitem are both hashed on orderkey.
        _, plan = optimize(
            mini_shell,
            "SELECT o_orderdate FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey")
        assert movements(plan) == []
        assert plan.cost == 0.0

    def test_replicated_join_needs_no_movement(self, mini_shell):
        _, plan = optimize(
            mini_shell,
            "SELECT c_name FROM customer, nation "
            "WHERE c_nationkey = n_nationkey")
        assert movements(plan) == []

    def test_incompatible_join_moves_something(self, mini_shell):
        _, plan = optimize(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        assert movements(plan)
        assert plan.cost > 0

    def test_local_aggregation_on_distribution_key(self, mini_shell):
        _, plan = optimize(
            mini_shell,
            "SELECT c_custkey, COUNT(*) FROM customer GROUP BY c_custkey")
        assert movements(plan) == []


class TestEnforcer:
    def test_shuffle_targets_join_column(self, mini_shell):
        _, plan = optimize(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        shuffles = [m for m in movements(plan)
                    if m.operation is DmsOperation.SHUFFLE_MOVE]
        if shuffles:  # smaller side may be broadcast instead
            assert shuffles[0].hash_columns

    def test_small_side_broadcast(self):
        catalog = Catalog([
            TableDef("big", [Column("k", INTEGER), Column("v", INTEGER)],
                     hash_distributed("k"), row_count=1_000_000),
            TableDef("small", [Column("j", INTEGER), Column("w", INTEGER)],
                     hash_distributed("j"), row_count=50),
        ])
        shell = ShellDatabase(catalog, node_count=8)
        _, plan = optimize(shell,
                           "SELECT v FROM big, small WHERE v = w")
        ops = {m.operation for m in movements(plan)}
        assert ops == {DmsOperation.BROADCAST_MOVE}

    def test_large_side_shuffled(self):
        catalog = Catalog([
            TableDef("big", [Column("k", INTEGER), Column("v", INTEGER)],
                     hash_distributed("k"), row_count=1_000_000),
            TableDef("big2", [Column("j", INTEGER), Column("w", INTEGER)],
                     hash_distributed("j"), row_count=1_000_000),
        ])
        shell = ShellDatabase(catalog, node_count=8)
        _, plan = optimize(shell,
                           "SELECT v FROM big, big2 WHERE v = w")
        ops = [m.operation for m in movements(plan)]
        assert ops.count(DmsOperation.SHUFFLE_MOVE) == 2

    def test_scalar_aggregation_gathers(self, mini_shell):
        _, plan = optimize(mini_shell,
                           "SELECT SUM(o_totalprice) FROM orders")
        ops = {m.operation for m in movements(plan)}
        assert DmsOperation.PARTITION_MOVE in ops

    def test_scalar_agg_uses_local_global_split(self, mini_shell):
        from repro.algebra.logical import AggPhase, LogicalGroupBy
        _, plan = optimize(mini_shell,
                           "SELECT SUM(o_totalprice) FROM orders")
        phases = [node.op.phase for node in plan.root.walk()
                  if isinstance(node.op, LogicalGroupBy)]
        assert AggPhase.LOCAL in phases
        assert AggPhase.GLOBAL in phases


class TestPruning:
    def test_option_bound_respected(self, mini_shell):
        """Figure 4 step 06.ii: ≤ #interesting properties + 1 options."""
        serial = SerialOptimizer(mini_shell).optimize_sql(
            "SELECT c_name FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey")
        pdw = PdwOptimizer(serial.memo, serial.root_group, node_count=8,
                           equivalence=serial.equivalence)
        pdw.optimize()
        interesting = pdw.interesting
        for group_id, options in pdw.options.items():
            bound = len(interesting.get(group_id, ())) + 1
            assert len(options) <= bound

    def test_unpruned_mode_keeps_more_options(self, mini_shell):
        sql = ("SELECT c_name FROM customer, orders, lineitem "
               "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey")
        pruned_opt, pruned_plan = optimize(mini_shell, sql)
        config = PdwConfig(prune_per_property=False)
        full_opt, full_plan = optimize(mini_shell, sql, config)
        assert full_opt.options_considered >= pruned_opt.options_considered
        assert pruned_plan.cost == pytest.approx(full_plan.cost)

    def test_costs_are_monotone_in_options(self, mini_shell):
        pdw, plan = optimize(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        for options in pdw.options.values():
            costs = [o.cost for o in options]
            assert costs == sorted(costs)


class TestInterestingProperties:
    def test_join_columns_interesting(self, mini_shell):
        serial = SerialOptimizer(mini_shell).optimize_sql(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        from repro.pdw.interesting import build_equivalence
        eq = build_equivalence(serial.memo, serial.root_group)
        props = derive_interesting_properties(
            serial.memo, serial.root_group, eq, GroupFacts(serial.memo, eq))
        hash_props = {
            key for keys in props.values() for key in keys
            if key[0] == "hash"
        }
        assert hash_props  # the custkey class is interesting somewhere

    def test_groupby_keys_interesting(self, mini_shell):
        serial = SerialOptimizer(mini_shell).optimize_sql(
            "SELECT c_nationkey, COUNT(*) FROM customer "
            "GROUP BY c_nationkey")
        from repro.pdw.interesting import build_equivalence
        eq = build_equivalence(serial.memo, serial.root_group)
        props = derive_interesting_properties(
            serial.memo, serial.root_group, eq, GroupFacts(serial.memo, eq))
        order = topological_order(serial.memo, serial.root_group)
        assert any(
            key[0] == "hash" for gid in order for key in props.get(gid, ())
        )


class TestOutputDistribution:
    def test_replicated_inputs_give_replicated_output(self, mini_shell):
        _, plan = optimize(mini_shell, "SELECT n_name FROM nation")
        assert plan.distribution.kind is DistKind.REPLICATED

    def test_hashed_passthrough(self, mini_shell):
        _, plan = optimize(mini_shell, "SELECT c_name FROM customer")
        assert plan.distribution.kind is DistKind.HASHED

    def test_left_join_right_must_be_replicated_or_aligned(self, mini_shell):
        # customer LEFT JOIN orders on custkey: orders must move (it is
        # hashed on orderkey); a broadcast of orders or shuffle works, but
        # replicating the *left* side would be wrong and must not happen.
        _, plan = optimize(
            mini_shell,
            "SELECT c_name FROM customer LEFT JOIN orders "
            "ON c_custkey = o_custkey")
        from repro.algebra.logical import JoinKind, LogicalJoin
        for node in plan.root.walk():
            if isinstance(node.op, LogicalJoin) \
                    and node.op.kind is JoinKind.LEFT:
                left_child = node.children[0]
                assert not (isinstance(left_child.op, DataMovement)
                            and left_child.op.target.kind
                            is DistKind.REPLICATED)


class TestJoinAlignment:
    """``_join_options`` looks the hash columns' equivalence classes up
    once per option; the top-down cross-check keeps the pairwise rule
    (every combination against every equi-join pair) and is the
    reference here."""

    QUERIES = [
        "SELECT c_name FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
        "SELECT c_name FROM customer, orders, nation "
        "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey "
        "AND o_totalprice > 10",
        "SELECT c_name FROM customer LEFT JOIN orders "
        "ON c_custkey = o_custkey",
        "SELECT c_name FROM customer WHERE c_custkey IN "
        "(SELECT o_custkey FROM orders)",
        "SELECT c_name FROM customer, nation",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_options_match_the_pairwise_rule(self, mini_shell, sql):
        pdw, _ = optimize(mini_shell, sql)
        memo = pdw.memo
        checked = 0
        for group_id in topological_order(memo, pdw.root_group):
            for expr in memo.group(group_id).logical_expressions:
                if not isinstance(expr.op, LogicalJoin):
                    continue
                children = [memo.find(c) for c in expr.children]
                sides = [frozenset(v.id for v in memo.group(c).output_vars)
                         for c in children]
                pairs = ex.equi_join_pairs(expr.op.predicate, *sides)
                expected = []
                for left in pdw.options_for(children[0]):
                    for right in pdw.options_for(children[1]):
                        distribution = _join_output_distribution(
                            expr.op.kind, left.distribution,
                            right.distribution, pairs, pdw.equivalence)
                        if distribution is not None:
                            expected.append((left, right, distribution))
                produced = [
                    (option.children[0], option.children[1],
                     option.distribution)
                    for option in pdw._join_options(group_id, expr,
                                                    children)]
                assert produced == expected
                checked += len(produced)
        assert checked

    def test_compound_and_crosswise_hashing(self, mini_shell):
        """Two-column hashings in every order, mismatched lengths and
        columns outside the join: still the pairwise rule's answers."""
        pdw, _ = optimize(
            mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey AND c_nationkey = o_orderkey")
        memo = pdw.memo
        group_id, expr = next(
            (gid, e) for gid in topological_order(memo, pdw.root_group)
            for e in memo.group(gid).logical_expressions
            if isinstance(e.op, LogicalJoin))
        children = [memo.find(c) for c in expr.children]
        sides = [[v.id for v in memo.group(c).output_vars]
                 for c in children]
        pairs = ex.equi_join_pairs(expr.op.predicate,
                                   frozenset(sides[0]), frozenset(sides[1]))
        assert len(pairs) == 2

        def options(child, ids):
            hashed = [Distribution(DistKind.HASHED, columns)
                      for size in (1, 2)
                      for columns in itertools.permutations(ids, size)]
            return [PdwOption(None, (), child, distribution, 0.0)
                    for distribution in
                    hashed + [REPLICATED_DIST, ON_CONTROL_DIST]]

        # Hash columns drawn from both sides' outputs, so crosswise
        # alignment (left hashed on a right-side column) is exercised.
        mixed = sides[0][:2] + sides[1][:2]
        pdw.options[children[0]] = options(children[0], mixed)
        pdw.options[children[1]] = options(children[1], mixed)
        expected = [
            (left, right, distribution)
            for left in pdw.options[children[0]]
            for right in pdw.options[children[1]]
            for distribution in [_join_output_distribution(
                expr.op.kind, left.distribution, right.distribution,
                pairs, pdw.equivalence)]
            if distribution is not None]
        produced = [
            (option.children[0], option.children[1], option.distribution)
            for option in pdw._join_options(group_id, expr, children)]
        assert produced == expected
        aligned = [d for left, right, d in produced
                   if left.distribution.kind is DistKind.HASHED
                   and right.distribution.kind is DistKind.HASHED]
        assert {len(d.columns) for d in aligned} == {1, 2}
