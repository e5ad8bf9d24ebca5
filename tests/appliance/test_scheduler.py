"""Parallel runtime scheduling layer: StepDag, run_dag on a WorkerPool,
the parallel/serial knob, and copy-on-write adoption of shared
deliveries."""

from __future__ import annotations

import threading

import pytest

from repro.algebra.properties import DistKind, Distribution
from repro.appliance.scheduler import (
    PARALLEL_ENV_VAR,
    StepDag,
    WorkerPool,
    resolve_parallel,
    run_dag,
)
from repro.appliance.storage import NodeStorage
from repro.catalog.schema import Column, ON_CONTROL, TableDef
from repro.common.errors import ExecutionError
from repro.common.types import INTEGER
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind


def _temp(name: str) -> TableDef:
    return TableDef(name, [Column("a", INTEGER)], ON_CONTROL, is_temp=True)


def _dms_step(index: int, sql: str, dest: str) -> DsqlStep:
    return DsqlStep(
        index=index, kind=StepKind.DMS, sql=sql,
        source_location=Distribution(DistKind.ON_CONTROL),
        destination_table=_temp(dest),
    )


def _return_step(index: int, sql: str) -> DsqlStep:
    return DsqlStep(
        index=index, kind=StepKind.RETURN, sql=sql,
        source_location=Distribution(DistKind.ON_CONTROL),
    )


def bushy_plan() -> DsqlPlan:
    """A hand-built TPC-H-Q5-style bushy shape: two independent leaf
    moves feeding a join move feeding the Return."""
    return DsqlPlan(
        steps=[
            _dms_step(0, "SELECT c_custkey FROM customer", "TEMP_ID_1"),
            _dms_step(1, "SELECT o_custkey FROM orders", "TEMP_ID_2"),
            _dms_step(2, "SELECT * FROM TEMP_ID_1, TEMP_ID_2 "
                         "WHERE c_custkey = o_custkey", "TEMP_ID_3"),
            _return_step(3, "SELECT * FROM TEMP_ID_3"),
        ],
        output_names=["c_custkey", "o_custkey"],
    )


class TestStepDag:
    def test_bushy_dependencies_and_waves(self):
        dag = StepDag(bushy_plan())
        assert dag.dependencies == {0: (), 1: (), 2: (0, 1), 3: (2,)}
        assert dag.dependents == {0: (2,), 1: (2,), 2: (3,), 3: ()}
        assert dag.waves() == [[0, 1], [2], [3]]
        assert dag.max_width == 2

    def test_linear_plan_is_a_chain(self):
        plan = DsqlPlan(
            steps=[
                _dms_step(0, "SELECT a FROM t", "TEMP_ID_1"),
                _dms_step(1, "SELECT a FROM TEMP_ID_1", "TEMP_ID_2"),
                _return_step(2, "SELECT a FROM TEMP_ID_2"),
            ],
            output_names=["a"],
        )
        dag = StepDag(plan)
        assert dag.waves() == [[0], [1], [2]]
        assert dag.max_width == 1

    def test_temp_name_prefix_is_not_a_match(self):
        # TEMP_ID_1 must not match inside TEMP_ID_10: build a plan whose
        # 10th temp is read by the Return while TEMP_ID_1 feeds only an
        # intermediate join.
        steps = [
            _dms_step(i, f"SELECT a FROM base_{i}", f"TEMP_ID_{i + 1}")
            for i in range(10)
        ]
        steps.append(_return_step(10, "SELECT a FROM TEMP_ID_10"))
        dag = StepDag(DsqlPlan(steps=steps, output_names=["a"]))
        # Return (index 10) reads TEMP_ID_10 = step 9's output, and
        # nothing else — in particular not TEMP_ID_1 (step 0).
        assert dag.dependencies[10] == (9,)

    def test_case_insensitive_temp_reference(self):
        plan = DsqlPlan(
            steps=[
                _dms_step(0, "SELECT a FROM t", "TEMP_ID_1"),
                _return_step(1, "select a from temp_id_1"),
            ],
            output_names=["a"],
        )
        assert StepDag(plan).dependencies[1] == (0,)

    def test_empty_plan(self):
        dag = StepDag(DsqlPlan(steps=[], output_names=[]))
        assert dag.waves() == []
        assert dag.max_width == 0


class TestRunDag:
    def test_executes_every_step_respecting_dependencies(self):
        dag = StepDag(bushy_plan())
        order: list = []
        lock = threading.Lock()

        def execute(index: int) -> int:
            with lock:
                order.append(index)
            return index * 10

        pool = WorkerPool(4, "test-dag")
        try:
            results = run_dag(dag, execute, pool)
        finally:
            pool.close()
        assert results == {0: 0, 1: 10, 2: 20, 3: 30}
        position = {index: i for i, index in enumerate(order)}
        for index, deps in dag.dependencies.items():
            for dep in deps:
                assert position[dep] < position[index], (
                    f"step {index} ran before its dependency {dep}: "
                    f"{order}")

    def test_failure_propagates_after_draining(self):
        dag = StepDag(bushy_plan())

        def execute(index: int) -> int:
            if index == 1:
                raise ExecutionError("node 1 exploded")
            return index

        pool = WorkerPool(4, "test-dag-fail")
        try:
            with pytest.raises(ExecutionError, match="node 1 exploded"):
                run_dag(dag, execute, pool)
        finally:
            pool.close()

    def test_empty_dag(self):
        pool = WorkerPool(2, "test-dag-empty")
        try:
            assert run_dag(StepDag(DsqlPlan(steps=[], output_names=[])),
                           lambda i: i, pool) == {}
        finally:
            pool.close()


class TestWorkerPool:
    def test_no_thread_until_first_submit(self):
        pool = WorkerPool(4, "test-pool-lazy")
        try:
            assert pool._executor is None
            assert pool.submit(lambda x: x * x, 7).result() == 49
            assert pool._executor is not None
        finally:
            pool.close()

    def test_submit_runs_on_a_named_pool_thread(self):
        pool = WorkerPool(2, "test-pool-named")
        try:
            name = pool.submit(
                lambda: threading.current_thread().name).result()
        finally:
            pool.close()
        assert name.startswith("test-pool-named")
        assert name != threading.current_thread().name

    def test_close_is_idempotent_and_pool_reopens(self):
        pool = WorkerPool(2, "test-pool-reopen")
        pool.close()  # never opened: a no-op
        try:
            assert pool.submit(lambda: 1).result() == 1
            pool.close()
            assert pool._executor is None
            pool.close()
            assert pool.submit(lambda: 2).result() == 2
        finally:
            pool.close()

    def test_worker_count_is_at_least_one(self):
        assert WorkerPool(0).max_workers == 1
        assert WorkerPool(3).max_workers == 3


class TestResolveParallel:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV_VAR, "1")
        assert resolve_parallel(False, default=True) is False
        monkeypatch.setenv(PARALLEL_ENV_VAR, "0")
        assert resolve_parallel(True, default=False) is True

    def test_env_overrides_default(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv(PARALLEL_ENV_VAR, value)
            assert resolve_parallel(None, default=False) is True
        for value in ("0", "false", "No", "off", ""):
            monkeypatch.setenv(PARALLEL_ENV_VAR, value)
            assert resolve_parallel(None, default=True) is False

    def test_default_applies_without_env(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV_VAR, raising=False)
        assert resolve_parallel(None, default=True) is True
        assert resolve_parallel(None, default=False) is False

    def test_garbage_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV_VAR, "maybe")
        with pytest.raises(ExecutionError, match="maybe"):
            resolve_parallel(None, default=False)


class TestAdoptCopyOnWrite:
    def test_adopt_aliases_then_insert_copies(self):
        node = NodeStorage(0)
        node.create("TEMP_ID_1")
        shared = [(1,), (2,)]
        node.adopt("TEMP_ID_1", shared)
        assert node.rows("TEMP_ID_1") is shared
        node.insert("TEMP_ID_1", [(3,)])
        # mutation materialized a private copy; the shared list is intact
        assert shared == [(1,), (2,)]
        assert node.rows("TEMP_ID_1") == [(1,), (2,), (3,)]
        assert node.rows("TEMP_ID_1") is not shared

    def test_adopt_into_nonempty_fragment_copies(self):
        node = NodeStorage(0)
        node.create("TEMP_ID_1")
        node.insert("TEMP_ID_1", [(0,)])
        shared = [(1,)]
        node.adopt("TEMP_ID_1", shared)
        assert node.rows("TEMP_ID_1") == [(0,), (1,)]
        assert shared == [(1,)]  # untouched

    def test_drop_clears_adoption(self):
        node = NodeStorage(0)
        node.create("TEMP_ID_1")
        shared = [(1,)]
        node.adopt("TEMP_ID_1", shared)
        node.drop("TEMP_ID_1")
        node.create("TEMP_ID_1")
        node.insert("TEMP_ID_1", [(2,)])
        assert shared == [(1,)]
        assert node.rows("TEMP_ID_1") == [(2,)]
