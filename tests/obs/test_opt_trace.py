"""Optimizer search-space trace tests: an untraced optimization
allocates no record, the enabled recorder's bookkeeping, and the
must-not-change-the-answer guarantee."""

import pytest

from repro.obs import opt_trace as opt_trace_module
from repro.obs.opt_trace import (
    MovementRecord,
    OptimizerTrace,
    format_property_key,
)
from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import PdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES

JOIN_SQL = ("SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")


def optimize(shell, sql, opt_trace=None):
    result = SerialOptimizer(shell).optimize_sql(sql)
    return PdwOptimizer(result.memo, result.root_group,
                        node_count=shell.node_count,
                        equivalence=result.equivalence,
                        opt_trace=opt_trace).optimize()


def make_movement(group=0, chosen=False, context="enforce",
                  move_cost=1.0):
    return MovementRecord(
        group=group, operation="shuffle", movement="ShuffleMove(#1)",
        property_key="hash:1", source="hashed(#2)", target="hashed(#1)",
        rows=100.0, row_width=8.0, reader=0.1, network=0.2, writer=0.3,
        bulk_copy=0.4, move_cost=move_cost, total_cost=move_cost + 1.0,
        chosen=chosen, context=context)


class TestFormatPropertyKey:
    def test_tuple_joined(self):
        assert format_property_key(("hash", 5)) == "hash:5"

    def test_singleton(self):
        assert format_property_key(("replicated",)) == "replicated"

    def test_non_tuple_passthrough(self):
        assert format_property_key("control") == "control"


class TestUntraced:
    def test_disabled_path_allocates_no_records(self, mini_shell,
                                                monkeypatch):
        """Without a trace, optimization must never construct a trace
        record: every record constructor is booby-trapped."""
        def boom(*args, **kwargs):
            raise AssertionError(
                "trace record allocated on the disabled path")

        for name in ("EnumerationRecord", "PruneRecord", "MovementRecord",
                     "HintOverrideRecord", "GroupTrace"):
            monkeypatch.setattr(opt_trace_module, name, boom)
        # enumerator.py imported MovementRecord by name — trap that too.
        from repro.pdw import enumerator as enumerator_module
        monkeypatch.setattr(enumerator_module, "MovementRecord", boom)

        plan = optimize(mini_shell, JOIN_SQL)
        assert plan.cost >= 0.0


class TestEnabledTrace:
    def test_groups_and_options_recorded(self, mini_shell):
        trace = OptimizerTrace()
        plan = optimize(mini_shell, JOIN_SQL, trace)
        summary = trace.summary()
        assert summary.groups > 0
        assert summary.options_considered > 0
        assert summary.options_considered == plan.options_considered
        assert summary.options_retained == plan.options_retained
        assert summary.plan_cost == plan.cost

    def test_every_group_has_enumeration(self, mini_shell):
        trace = OptimizerTrace()
        optimize(mini_shell, JOIN_SQL, trace)
        for group in trace.groups.values():
            assert group.enumerated, f"group {group.group} enumerated nothing"
            assert group.options_considered >= group.options_retained

    def test_prunes_reference_cheaper_survivors(self, mini_shell):
        trace = OptimizerTrace()
        optimize(mini_shell, JOIN_SQL, trace)
        assert trace.prunes
        for prune in trace.prunes:
            # A victim is only ever displaced by a no-worse survivor.
            assert prune.cost_delta >= -1e-12
            assert prune.survivor_cost <= prune.victim_cost + 1e-12

    def test_chosen_enforcers_counted(self, mini_shell):
        trace = OptimizerTrace()
        optimize(mini_shell, JOIN_SQL, trace)
        chosen = [m for m in trace.movements
                  if m.chosen and m.context == "enforce"]
        assert trace.enforcers_added == len(chosen)
        assert trace.enforcers_added > 0

    def test_movement_breakdown_composes_with_max(self, mini_shell):
        """Every recorded movement must satisfy the §3.3 max-composition:
        move_cost == max(max(reader, network), max(writer, bulk))."""
        trace = OptimizerTrace()
        optimize(mini_shell, JOIN_SQL, trace)
        assert trace.movements
        for move in trace.movements:
            expected = max(max(move.reader, move.network),
                           max(move.writer, move.bulk_copy))
            assert move.move_cost == expected

    def test_rejected_movements_sorted_desc(self):
        trace = OptimizerTrace()
        trace.record_movement(make_movement(move_cost=1.0))
        trace.record_movement(make_movement(move_cost=5.0))
        trace.record_movement(make_movement(move_cost=3.0, chosen=True))
        rejected = trace.rejected_movements()
        assert [m.move_cost for m in rejected] == [5.0, 1.0]
        assert trace.rejected_movements(top_k=1)[0].move_cost == 5.0

    def test_prune_effectiveness_stats(self):
        trace = OptimizerTrace()
        trace.record_prune(0, "a", "hash:1", 3.0, "b", 1.0)
        trace.record_prune(1, "c", "hash:1", 5.0, "d", 1.0)
        trace.record_prune(2, "e", "replicated", 2.0, "f", 2.0)
        eff = trace.prune_effectiveness()
        count, mean_delta, max_delta = eff["hash:1"]
        assert count == 2
        assert mean_delta == pytest.approx(3.0)
        assert max_delta == pytest.approx(4.0)
        assert eff["replicated"] == (1, 0.0, 0.0)

    def test_union_context_not_counted_as_enforcer(self):
        trace = OptimizerTrace()
        trace.record_movement(make_movement(chosen=True, context="union"))
        trace.record_movement(make_movement(chosen=True,
                                            context="enforce"))
        assert trace.enforcers_added == 1
        assert trace.summary().movements_considered == 2


class TestTracingChangesNothing:
    def test_traced_plan_identical_mini(self, mini_shell):
        untraced = optimize(mini_shell, JOIN_SQL)
        traced = optimize(mini_shell, JOIN_SQL, OptimizerTrace())
        assert traced.cost == untraced.cost
        assert traced.tree_string() == untraced.tree_string()

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_traced_plan_identical_tpch(self, tpch_engine, name):
        """Bit-identical winning plans across the full TPC-H suite."""
        sql = TPCH_QUERIES[name]
        untraced = tpch_engine.compile(sql)
        trace = OptimizerTrace()
        traced = tpch_engine.compile(sql, opt_trace=trace)
        assert traced.pdw_plan.cost == untraced.pdw_plan.cost
        assert traced.pdw_plan.tree_string() == \
            untraced.pdw_plan.tree_string()
        assert traced.dsql_plan.describe() == \
            untraced.dsql_plan.describe()
        assert trace.summary().options_considered == \
            untraced.pdw_plan.options_considered
