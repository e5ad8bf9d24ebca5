"""MEMO data structure tests: dedup, group merging, properties."""

import pytest

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    JoinKind,
    detached_join,
    detached_select,
)
from repro.catalog.shell_db import ShellDatabase
from repro.optimizer.binder import bind_query
from repro.optimizer.cardinality import StatsContext
from repro.optimizer.memo import Memo, topological_order
from repro.optimizer.normalize import normalize


@pytest.fixture()
def memo_env(mini_catalog):
    shell = ShellDatabase(mini_catalog, node_count=4)

    def build(sql):
        query = normalize(bind_query(mini_catalog, sql))
        stats = StatsContext(shell)
        stats.register_tree(query.root)
        memo = Memo(stats)
        root = memo.insert_tree(query.root)
        return memo, root, query

    return build


class TestInsertion:
    def test_tree_insertion_creates_groups(self, memo_env):
        memo, root, _ = memo_env(
            "SELECT c_name FROM customer WHERE c_custkey > 5")
        assert len(memo.canonical_groups()) >= 3  # get, select, project

    def test_duplicate_subtrees_share_groups(self, memo_env):
        memo, root, query = memo_env("SELECT c_name FROM customer")
        before = len(memo.canonical_groups())
        memo.insert_tree(query.root)
        assert len(memo.canonical_groups()) == before

    def test_root_is_canonical(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        assert memo.find(root) == root

    def test_group_properties_estimated(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        group = memo.group(root)
        assert group.cardinality == 15_000
        assert group.row_width > 0


class TestDedupAndMerge:
    def test_same_expression_same_group(self, memo_env):
        memo, root, _ = memo_env(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        join_groups = [
            g for g in memo.canonical_groups()
            if any("Join" in e.op.describe() for e in g.expressions)
        ]
        join_group = join_groups[0]
        join_expr = next(e for e in join_group.expressions
                         if "Join" in e.op.describe())
        result = memo.add_expression(join_group.id, join_expr.op,
                                     join_expr.children)
        assert result is join_expr  # no duplicate added

    def test_adding_expr_merges_groups(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        # Create an artificial second group and force equivalence by
        # inserting a shared expression.
        group_a = memo.group(root)
        predicate = ex.Comparison(
            ">", group_a.output_vars[0], ex.Constant(1))
        select = detached_select(predicate)
        first = memo.group_for_expression(select, (root,))
        second_holder = memo._new_group(group_a.output_vars, 1.0, 4.0)
        memo.add_expression(second_holder.id, select, (root,))
        assert memo.find(second_holder.id) == memo.find(first)

    def test_self_reference_rejected(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        select = detached_select(
            ex.Comparison(">", memo.group(root).output_vars[0],
                          ex.Constant(0)))
        group_id = memo.group_for_expression(select, (root,))
        # Adding an expression whose child is its own group is refused.
        result = memo.add_expression(group_id, select, (group_id,))
        assert result is None

    def test_merge_is_idempotent(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        assert memo.merge_equivalent(root, root) == memo.find(root)

    def test_key_is_built_once(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        expr = memo.group(root).expressions[0]
        assert expr.key is expr.key
        assert expr.key == (expr.op.local_key(), expr.children)

    def test_duplicate_is_found_after_its_group_was_absorbed(self, memo_env):
        """``_dedup`` leads straight to the expression; after a merge it
        must lead to the one the surviving group kept."""
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        var = memo.group(root).output_vars[0]
        low = detached_select(ex.Comparison(">", var, ex.Constant(1)))
        high = detached_select(ex.Comparison(">", var, ex.Constant(2)))
        first = memo.group_for_expression(low, (root,))
        second = memo.group_for_expression(high, (root,))
        low_expr = memo.group(first).expressions[0]
        high_expr = memo.group(second).expressions[0]
        survivor = memo.merge_equivalent(first, second)
        assert memo.group(survivor).expressions == [low_expr, high_expr]
        # Same keys again, through fresh but equal operator objects.
        again_low = detached_select(ex.Comparison(">", var, ex.Constant(1)))
        again_high = detached_select(ex.Comparison(">", var, ex.Constant(2)))
        assert memo.add_expression(survivor, again_low, (root,)) is low_expr
        assert memo.add_expression(survivor, again_high, (root,)) is high_expr
        assert memo.group_for_expression(again_high, (root,)) == survivor
        assert len(memo.group(survivor).expressions) == 2


class TestTopologicalOrder:
    def test_children_before_parents(self, memo_env):
        memo, root, _ = memo_env(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey AND o_totalprice > 10")
        order = topological_order(memo, root)
        position = {gid: i for i, gid in enumerate(order)}
        for gid in order:
            for expr in memo.group(gid).expressions:
                for child in expr.children:
                    child = memo.find(child)
                    if child != gid:
                        assert position[child] < position[gid]

    def test_root_is_last(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        order = topological_order(memo, root)
        assert order[-1] == memo.find(root)

    def test_only_reachable_groups(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        memo._new_group([], 0.0, 0.0)  # unreachable garbage group
        order = topological_order(memo, root)
        assert len(order) == len(memo.canonical_groups()) - 1

    def test_kept_order_follows_every_change(self, memo_env):
        """The order is kept on the MEMO between calls; a new expression
        or a merge must show in the next call."""

        def walked(memo, root):
            order, seen = [], set()

            def visit(group_id):
                group_id = memo.find(group_id)
                if group_id not in seen:
                    seen.add(group_id)
                    for expr in memo.group(group_id).expressions:
                        for child in expr.children:
                            visit(child)
                    order.append(group_id)

            visit(root)
            return order

        memo, root, _ = memo_env("SELECT c_name FROM customer")
        first = topological_order(memo, root)
        assert first == walked(memo, root)
        first.append(-1)  # callers get their own list
        assert topological_order(memo, root) == walked(memo, root)

        var = memo.group(root).output_vars[0]
        above = memo.group_for_expression(
            detached_select(ex.Comparison(">", var, ex.Constant(1))), (root,))
        assert topological_order(memo, above) == walked(memo, above)
        # A second parent for the root, in a group the walk has not met.
        other = memo.group_for_expression(
            detached_select(ex.Comparison(">", var, ex.Constant(2))), (root,))
        assert other not in topological_order(memo, above)
        memo.add_expression(
            above, detached_select(ex.Comparison(">", var, ex.Constant(3))),
            (other,))
        assert other in topological_order(memo, above)
        assert topological_order(memo, above) == walked(memo, above)
        survivor = memo.merge_equivalent(above, other)
        assert topological_order(memo, survivor) == walked(memo, survivor)


class TestDump:
    def test_dump_mentions_groups(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        dump = memo.dump(root)
        assert "Group" in dump
        assert "(root)" in dump

    def test_expression_count(self, memo_env):
        memo, root, _ = memo_env("SELECT c_name FROM customer")
        assert memo.expression_count() == memo.expression_count(
            logical_only=True)  # nothing implemented yet
