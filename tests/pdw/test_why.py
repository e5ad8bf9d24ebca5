"""Plan-choice explainer tests (§2.5: optimizer vs. parallelized serial
plan)."""

import pytest

from repro.pdw.engine import PdwEngine
from repro.pdw.why import (
    PlanMovement,
    diff_movements,
    explain_plan_choice,
    plan_movements,
    render_plan_choice,
)


@pytest.fixture()
def engine(mini_shell):
    return PdwEngine(mini_shell)


def choice_for(engine, shell, sql, hints=None):
    compiled = engine.compile(sql, hints=hints)
    return explain_plan_choice(compiled, shell)


class TestPlanMovements:
    def test_movements_extracted_with_incremental_costs(self, engine,
                                                        mini_shell):
        compiled = engine.compile(
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        moves = plan_movements(compiled.pdw_plan.root)
        assert moves
        for move in moves:
            assert move.move_cost >= 0.0
            assert move.subtree_cost >= move.move_cost
        # Incremental costs of all movements account for the full DMS
        # cost of the plan (only movements are costed).
        assert sum(m.move_cost for m in moves) == pytest.approx(
            compiled.pdw_plan.cost)

    def test_movement_free_plan(self, engine):
        compiled = engine.compile("SELECT n_name FROM nation")
        assert plan_movements(compiled.pdw_plan.root) == []


class TestDiffMovements:
    def mv(self, movement, cost=1.0):
        return PlanMovement(movement=movement, operation="shuffle",
                            source="a", target="b", rows=1.0,
                            move_cost=cost, subtree_cost=cost)

    def test_multiset_semantics(self):
        plan = [self.mv("x"), self.mv("x"), self.mv("y")]
        baseline = [self.mv("x"), self.mv("z")]
        shared, only_plan, only_baseline = diff_movements(plan, baseline)
        assert [m.movement for m in shared] == ["x"]
        assert sorted(m.movement for m in only_plan) == ["x", "y"]
        assert [m.movement for m in only_baseline] == ["z"]

    def test_identical_plans_fully_shared(self):
        plan = [self.mv("x"), self.mv("y")]
        shared, only_plan, only_baseline = diff_movements(plan, list(plan))
        assert len(shared) == 2
        assert only_plan == [] and only_baseline == []


class TestPlanChoice:
    def test_baseline_never_cheaper(self, engine, mini_shell):
        choice = choice_for(
            engine, mini_shell,
            "SELECT c_name FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey")
        assert choice.delta >= -1e-12
        assert choice.plan_cost == pytest.approx(
            engine.compile(choice.sql).pdw_plan.cost)

    def test_event_is_the_plan_choice_record(self, engine, mini_shell):
        from repro.obs.export import EVENTS, decode_event, to_event

        choice = choice_for(
            engine, mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey")
        event = choice.event()
        assert isinstance(event, EVENTS["plan_choice"])
        assert event.delta == choice.delta
        assert event.movements_plan == len(choice.plan_movements)
        errors = []
        assert decode_event(to_event(event), errors) == event
        assert errors == []

    def test_replicated_only_query_zero_movement_baseline(self, engine,
                                                          mini_shell):
        """A query touching only replicated tables needs no data movement
        at all; the baseline trivially matches the optimal plan and the
        explainer must say so."""
        choice = choice_for(engine, mini_shell,
                            "SELECT n_name FROM nation")
        assert choice.plan_cost == 0.0
        assert choice.baseline_cost == 0.0
        assert choice.plan_movements == ()
        assert choice.baseline_movements == ()
        assert choice.baseline_matches
        assert choice.delta_pct == 0.0
        assert "baseline == optimal" in render_plan_choice(choice)

    def test_render_reports_baseline_loss(self):
        from repro.pdw.why import PlanChoice

        loser = PlanChoice(
            sql="SELECT 1", plan_cost=1.0, baseline_cost=1.5,
            plan_tree="plan", baseline_tree="baseline",
            plan_movements=(), baseline_movements=(),
            shared=(), only_plan=(), only_baseline=())
        text = render_plan_choice(loser)
        assert "baseline == optimal" not in text
        assert "+0.500000 s" in text
        assert "+50.0%" in text

    def test_hinted_compilation_diffs_against_hinted_baseline(
            self, engine, mini_shell):
        """The baseline must replay the same hints as the chosen plan —
        both sides answer the same (constrained) question."""
        choice = choice_for(
            engine, mini_shell,
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey",
            hints={"orders": "replicate"})
        assert choice.delta >= -1e-12


class TestSessionWhy:
    def test_why_renders_both_halves(self, tpch):
        from repro.session import PdwSession

        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        out = session.why("SELECT c_name FROM customer, orders "
                          "WHERE c_custkey = o_custkey")
        assert "Why this plan?" in out
        assert "Search space:" in out
        assert "Per-group enumeration:" in out

    def test_why_folds_metrics(self, tpch):
        from repro.session import PdwSession

        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        session.why("SELECT c_name FROM customer, orders "
                    "WHERE c_custkey = o_custkey")
        prom = session.metrics.render_prometheus()
        assert "pdw_optimizer_options_considered" in prom
        assert "pdw_optimizer_baseline_cost_seconds" in prom

    def test_explain_optimizer_appends_why(self, tpch):
        from repro.session import PdwSession

        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell)
        out = session.explain("SELECT c_name FROM customer, orders "
                              "WHERE c_custkey = o_custkey",
                              optimizer=True)
        assert "DSQL plan" in out
        assert "Why this plan?" in out
        assert "Search space:" in out
