"""DSQL runner tests: step sequencing, control-node merge, temp
lifecycle."""

import re

import pytest

from repro.appliance.runner import DsqlRunner, QueryResult, run_reference
from repro.appliance.dms_runtime import StepExecutionStats
from repro.common.errors import ExecutionError
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind
from repro.vector.np_batch import ArrayBatch, column_from_list
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names

TEMP_NAME = re.compile(r"\bTEMP_ID_\d+\b", re.IGNORECASE)


def batch_of(rows):
    """``rows`` as the Return step's two-column batch."""
    return ArrayBatch({position: column_from_list([row[position]
                                                   for row in rows])
                       for position in range(2)}, len(rows))


class TestFinalize:
    def _runner(self, mini_appliance):
        return DsqlRunner(mini_appliance)

    def _plan(self, order_by=(), limit=None):
        return DsqlPlan(steps=[], output_names=["a", "b"],
                        order_by=list(order_by), limit=limit)

    def test_order_by_single_column(self, mini_appliance):
        runner = self._runner(mini_appliance)
        rows = runner._finalize(
            self._plan(order_by=[("a", False)]), ["a", "b"],
            batch_of([(1, "x"), (3, "y"), (2, "z")]))
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_order_by_two_columns(self, mini_appliance):
        runner = self._runner(mini_appliance)
        rows = runner._finalize(
            self._plan(order_by=[("a", True), ("b", False)]),
            ["a", "b"],
            batch_of([(1, "x"), (1, "z"), (0, "q")]))
        assert rows == [(0, "q"), (1, "z"), (1, "x")]

    def test_limit_applied_after_sort(self, mini_appliance):
        runner = self._runner(mini_appliance)
        rows = runner._finalize(
            self._plan(order_by=[("a", False)], limit=1),
            ["a", "b"], batch_of([(1, "x"), (9, "y")]))
        assert rows == [(9, "y")]

    def test_nulls_sort_first(self, mini_appliance):
        runner = self._runner(mini_appliance)
        rows = runner._finalize(
            self._plan(order_by=[("a", True)]), ["a", "b"],
            batch_of([(2, "x"), (None, "n")]))
        assert rows[0][0] is None

    def test_missing_order_column_raises(self, mini_appliance):
        runner = self._runner(mini_appliance)
        with pytest.raises(ExecutionError):
            runner._finalize(self._plan(order_by=[("zz", True)]),
                             ["a", "b"], batch_of([(1, "x")]))


class TestExecutionLifecycle:
    def _compile(self, mini_appliance, sql):
        from repro.pdw.engine import PdwEngine
        shell = mini_appliance.compute_shell_database()
        return PdwEngine(shell).compile(sql)

    def test_keep_temps_flag(self, mini_appliance):
        # x.b = y.a misaligns with t's hash on a, forcing a movement.
        compiled = self._compile(
            mini_appliance,
            "SELECT x.s FROM t x, t y WHERE x.b = y.a")
        assert compiled.dsql_plan.movement_steps
        runner = DsqlRunner(mini_appliance)
        runner.run(compiled.dsql_plan, keep_temps=True)
        temps = [t for t in mini_appliance.catalog.tables() if t.is_temp]
        assert temps
        mini_appliance.drop_temp_tables()

    def test_temps_dropped_by_default(self, mini_appliance):
        compiled = self._compile(
            mini_appliance,
            "SELECT s FROM t, dim WHERE b = k")
        DsqlRunner(mini_appliance).run(compiled.dsql_plan)
        assert not any(t.is_temp for t in mini_appliance.catalog.tables())

    def test_result_columns_named(self, mini_appliance):
        compiled = self._compile(mini_appliance,
                                 "SELECT a AS alpha, b beta FROM t")
        result = DsqlRunner(mini_appliance).run(compiled.dsql_plan)
        assert result.columns == ["alpha", "beta"]

    def test_reference_matches_direct(self, mini_appliance):
        sql = "SELECT a, s FROM t WHERE b = 2 ORDER BY a"
        compiled = self._compile(mini_appliance, sql)
        result = DsqlRunner(mini_appliance).run(compiled.dsql_plan)
        reference = run_reference(mini_appliance, sql)
        assert result.rows == reference.rows


class StepRecorder:
    """A request handle that records the runner's step hooks in order."""

    enabled = True

    def __init__(self):
        self.events = []

    def begin_plan(self, plan):
        self.events.append(("plan", len(plan.steps)))

    def begin_step(self, index):
        self.events.append(("begin", index))

    def end_step(self, index, stats):
        self.events.append(("end", index))


class TestOneWalk:
    """``run`` walks the plan once, one step at a time in index order
    (§2.4): each step ends before the next begins, and every temp table
    a step reads was written by an earlier step."""

    @pytest.mark.parametrize("name", query_names())
    def test_tpch_steps_run_in_index_order(self, name, tpch_appliance,
                                           tpch_engine):
        plan = tpch_engine.compile(TPCH_QUERIES[name]).dsql_plan
        written = set()
        for step in plan.steps:
            assert {temp.upper() for temp in TEMP_NAME.findall(step.sql)} \
                <= written, f"step {step.index} reads a later temp"
            if step.destination_table is not None:
                written.add(step.destination_table.name.upper())
        assert plan.steps[-1].kind is StepKind.RETURN
        recorder = StepRecorder()
        DsqlRunner(tpch_appliance).run(plan, request=recorder)
        expected = [("plan", len(plan.steps))]
        for step in plan.steps:
            expected += [("begin", step.index), ("end", step.index)]
        assert recorder.events == expected
        assert [step.index for step in plan.steps] == \
            list(range(len(plan.steps)))

    def test_failing_step_stops_the_walk(self, tpch_appliance, tpch_engine,
                                         monkeypatch):
        plan = tpch_engine.compile(TPCH_QUERIES["Q5"]).dsql_plan
        assert len(plan.movement_steps) >= 2
        runner = DsqlRunner(tpch_appliance)
        execute_movement = runner.runtime.execute_movement

        def fail_second(step, profile=False):
            if step.index == 1:
                raise ExecutionError("node 1 exploded")
            return execute_movement(step, profile)

        monkeypatch.setattr(runner.runtime, "execute_movement", fail_second)
        recorder = StepRecorder()
        with pytest.raises(ExecutionError, match="node 1 exploded"):
            runner.run(plan, request=recorder)
        assert recorder.events == [("plan", len(plan.steps)),
                                   ("begin", 0), ("end", 0), ("begin", 1)]
        assert not any(table.is_temp
                       for table in tpch_appliance.catalog.tables())

    def test_empty_plan_runs_to_an_empty_result(self, mini_appliance):
        recorder = StepRecorder()
        result = DsqlRunner(mini_appliance).run(
            DsqlPlan(steps=[], output_names=["a"]), request=recorder)
        assert result.columns == ["a"]
        assert result.rows == [] and result.step_stats == []
        assert result.elapsed_seconds == 0
        assert recorder.events == [("plan", 0)]


class InterleavingRecorder(StepRecorder):
    """A request handle that starts another, unprofiled run on the same
    runner when step 1 of its own run begins — a second service
    execution or a re-entrant call would interleave the same way."""

    def __init__(self, runner, plan):
        super().__init__()
        self.runner = runner
        self.plan = plan
        self.inner = None

    def begin_step(self, index):
        super().begin_step(index)
        if index == 1:
            # keep_temps: the outer run still reads the temps it wrote.
            self.inner = self.runner.run(self.plan, keep_temps=True)


class TestProfilePerRun:
    """``profile`` belongs to one run: another run on the same runner
    neither switches it off nor inherits it."""

    @pytest.mark.parametrize("executor", ["numpy", "reference"])
    def test_interleaved_run_keeps_the_profile(self, executor,
                                               tpch_appliance, tpch_engine):
        plan = tpch_engine.compile(TPCH_QUERIES["Q5"]).dsql_plan
        other = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM nation").dsql_plan
        runner = DsqlRunner(tpch_appliance, executor=executor)
        recorder = InterleavingRecorder(runner, other)
        result = runner.run(plan, profile=True, request=recorder)
        assert len(result.step_stats) >= 3
        for stats in result.step_stats:
            assert stats.node_operators, stats.step_index
            assert stats.transfers, stats.step_index
        assert recorder.inner is not None
        for stats in recorder.inner.step_stats:
            assert stats.node_operators == {} and stats.transfers == {}
        assert not any(table.is_temp
                       for table in tpch_appliance.catalog.tables())


class TestQueryResult:
    def test_dms_seconds_excludes_relational(self):
        dms = StepExecutionStats(0, None)
        dms.operation = object()  # truthy marker
        dms.movement_seconds = 1.0
        dms.relational_seconds = 5.0
        dms.elapsed_seconds = 6.0
        result = QueryResult(["a"], [], 6.0, [dms])
        assert result.dms_seconds == 1.0
        assert result.relational_seconds == 5.0

    def test_sorted_rows_canonical(self):
        result = QueryResult(["a"], [(3,), (1,), (None,)], 0.0)
        assert result.sorted_rows() == [(None,), (1,), (3,)]
