"""Concurrent hammers for the caches that concurrent service clients
and step-DAG workers share: plan preparation, the appliance's
single-system image, the kernel compilers' identity memos, and the
telemetry/metrics counters."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algebra import expressions as ex
from repro.algebra.properties import hashed_on
from repro.appliance.dms_runtime import DmsRuntime
from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import INTEGER
from repro.obs.metrics import MetricsRegistry
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind
from repro.telemetry import Tracer
from repro.vector import kernels, np_kernels
from repro.vector.column_batch import ColumnBatch
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    column_from_list,
)

THREADS = 8
ROUNDS = 25


def _hammer(work, threads: int = THREADS) -> None:
    """Run ``work(thread_index)`` on every thread, released together so
    the racy window actually overlaps."""
    barrier = threading.Barrier(threads)
    errors: list = []

    def runner(index: int) -> None:
        barrier.wait()
        try:
            work(index)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    with ThreadPoolExecutor(max_workers=threads) as executor:
        list(executor.map(runner, range(threads)))
    if errors:
        raise errors[0]


def _return_plan(sql: str) -> DsqlPlan:
    """A one-step plan returning ``sql`` over the hash-distributed
    table."""
    return DsqlPlan(steps=[DsqlStep(index=0, kind=StepKind.RETURN, sql=sql,
                                    source_location=hashed_on(1))],
                    output_names=[])


class TestPreparationThreadSafety:
    def test_concurrent_preparation_like_serial(self, mini_appliance):
        tracer = Tracer()
        runtime = DmsRuntime(mini_appliance, tracer=tracer)
        plans = [_return_plan(sql) for sql in (
            "SELECT a FROM t WHERE a < 10",
            "SELECT b FROM t WHERE b = 3",
            "SELECT k, label FROM dim",
            "SELECT a, s FROM t WHERE a > 50",
        )]
        expected = [DmsRuntime(mini_appliance).prepared(plan).steps[0]
                    .query.output_names for plan in plans]
        for plan in plans:
            plan.prepared = None

        def work(index: int) -> None:
            for _ in range(ROUNDS):
                for plan, names in zip(plans, expected):
                    prepared = runtime.prepared(plan)
                    assert prepared.steps[0].query.output_names == names

        _hammer(work)
        # The lock is held across the first preparation, so exactly one
        # miss per plan — identical accounting to a single caller.
        total = THREADS * ROUNDS * len(plans)
        assert tracer.counter("exec.compile_cache_miss") == len(plans)
        assert tracer.counter("exec.compile_cache_hit") == total - len(plans)

    def test_concurrent_bind_across_temp_schemas(self, mini_appliance):
        """Steps outside any plan over per-execution temps of two
        schemas: every call binds its own text afresh, so every thread
        reads its own temp at its own schema's column position, and no
        prepared plan is built or counted."""
        tracer = Tracer()
        runtime = DmsRuntime(mini_appliance, tracer=tracer)
        node = mini_appliance.compute[0]
        for index in range(THREADS):
            columns = [Column("a", INTEGER), Column("pad", INTEGER)]
            if index % 2:
                columns.reverse()
            mini_appliance.create_temp_table(TableDef(
                f"TEMP_ID_1_E{index}", columns, hash_distributed("a"),
                is_temp=True))
            node.store(f"TEMP_ID_1_E{index}", ColumnFragment.from_rows(
                [(index, -1) if columns[0].name == "a"
                 else (-1, index)]))

        def work(index: int) -> None:
            for _ in range(ROUNDS):
                rows, names = runtime.run_sql_on_node(
                    f"SELECT a FROM TEMP_ID_1_E{index}", node)
                assert (rows, names) == ([(index,)], ["a"])

        _hammer(work)
        assert tracer.counter("exec.compile_cache_miss") == 0


class TestApplianceImageThreadSafety:
    @staticmethod
    def _make_appliance() -> Appliance:
        appliance = Appliance(4)
        appliance.create_table(TableDef(
            "t", [Column("a", INTEGER)], hash_distributed("a")))
        appliance.load_rows("t", [(i,) for i in range(100)])
        return appliance

    def test_concurrent_image_reads_agree(self):
        appliance = self._make_appliance()
        images: list = []
        lock = threading.Lock()

        def work(index: int) -> None:
            for _ in range(ROUNDS):
                image = appliance.single_system_image()
                with lock:
                    images.append(image)

        _hammer(work)
        reference = images[0]
        assert all(image == reference for image in images)
        assert sorted(reference["t"]) == [(i,) for i in range(100)]

    def test_image_rebuilds_after_concurrent_loads(self):
        appliance = self._make_appliance()

        def work(index: int) -> None:
            for round_no in range(ROUNDS):
                if index == 0:
                    appliance.load_rows(
                        "t", [(1000 + round_no,)])
                else:
                    image = appliance.single_system_image()
                    assert len(image["t"]) >= 100
        _hammer(work)
        final = appliance.single_system_image()
        assert len(final["t"]) == 100 + ROUNDS

    def test_concurrent_temp_ddl(self):
        appliance = self._make_appliance()

        def work(index: int) -> None:
            name = f"TEMP_ID_{index + 1}"
            table = TableDef(name, [Column("a", INTEGER)],
                             hash_distributed("a"), is_temp=True)
            for _ in range(ROUNDS):
                appliance.create_temp_table(table)
                appliance.drop_table(name)

        _hammer(work)
        assert not [table for table in appliance.catalog.tables()
                    if table.is_temp]


def _run_np(kernel, values):
    batch = ArrayBatch({1: column_from_list(values)}, len(values))
    return kernel(batch).pylist()


def _run_list(kernel, values):
    return kernel(ColumnBatch({1: list(values)}, len(values)))


#: (compiler, its module — for the memo and its limit, batch runner).
MEMOS = [
    pytest.param(np_kernels.compile_np_kernel, np_kernels, _run_np,
                 id="numpy"),
    pytest.param(kernels.compile_kernel, kernels, _run_list, id="list"),
]

COLUMN = ex.ColumnVar(1, "a", INTEGER)


class TestKernelMemoThreadSafety:
    @pytest.mark.parametrize("compile_tree, module, run", MEMOS)
    def test_concurrent_identity_memo(self, compile_tree, module, run):
        module._CACHE.clear()
        shared = ex.Arithmetic("+", COLUMN, ex.Constant(1, INTEGER))
        compiled: list = []
        lock = threading.Lock()

        def work(index: int) -> None:
            # mix of one shared tree (memo hits) and private trees
            # (memo inserts) racing on the same dict
            private = ex.Arithmetic(
                "*", COLUMN, ex.Constant(index + 1, INTEGER))
            for _ in range(ROUNDS):
                kernel = compile_tree(shared)
                assert run(kernel, [41, None]) == [42, None]
                assert run(compile_tree(private), [41]) == [
                    41 * (index + 1)]
                with lock:
                    compiled.append(kernel)

        _hammer(work)
        # identity memo: every caller got one kernel object
        assert len(set(map(id, compiled))) == 1
        module._CACHE.clear()

    @pytest.mark.parametrize("compile_tree, module, run", MEMOS)
    def test_clear_at_limit_under_contention(self, compile_tree, module,
                                             run, monkeypatch):
        """Far more distinct trees than the memo holds: every thread
        keeps getting correct kernels while the memo is cleared under
        it, and the memo never exceeds its limit."""
        limit = 16
        monkeypatch.setattr(module, "_CACHE_LIMIT", limit)
        module._CACHE.clear()

        def work(index: int) -> None:
            for round_no in range(ROUNDS):
                addend = index * ROUNDS + round_no
                expr = ex.Arithmetic("+", COLUMN,
                                     ex.Constant(addend, INTEGER))
                assert run(compile_tree(expr), [1, 2]) == [
                    1 + addend, 2 + addend]
                assert len(module._CACHE) <= limit

        _hammer(work)
        assert THREADS * ROUNDS > limit
        assert len(module._CACHE) <= limit
        # Still a memo after all those clears.
        expr = ex.Arithmetic("-", COLUMN, ex.Constant(1, INTEGER))
        assert compile_tree(expr) is compile_tree(expr)
        module._CACHE.clear()


class TestTelemetryThreadSafety:
    def test_tracer_counter_increments_are_atomic(self):
        tracer = Tracer()

        def work(index: int) -> None:
            for _ in range(500):
                tracer.count("hammer.total")
                tracer.count("hammer.bytes", 3)

        _hammer(work)
        assert tracer.counter("hammer.total") == THREADS * 500
        assert tracer.counter("hammer.bytes") == THREADS * 500 * 3

    def test_metrics_counters_and_histograms_are_atomic(self):
        registry = MetricsRegistry()

        def work(index: int) -> None:
            counter = registry.counter(
                "hammer_rows_total", "rows", labelnames=("node",))
            histogram = registry.histogram("hammer_seconds", "time")
            gauge = registry.gauge("hammer_level", "level")
            for _ in range(200):
                counter.labels(node=str(index % 2)).inc()
                histogram.observe(0.25)
                gauge.inc()

        _hammer(work)
        counter = registry.get("hammer_rows_total")
        total = sum(child.value for _, child in counter.series())
        assert total == THREADS * 200
        histogram = registry.get("hammer_seconds").labels()
        assert histogram.count == THREADS * 200
        assert histogram.total == THREADS * 200 * 0.25
        assert registry.get("hammer_level").labels().value == THREADS * 200

    def test_concurrent_registration_returns_one_family(self):
        registry = MetricsRegistry()
        seen: list = []
        lock = threading.Lock()

        def work(index: int) -> None:
            for _ in range(ROUNDS):
                metric = registry.counter(
                    "hammer_shared_total", "shared",
                    labelnames=("node",))
                with lock:
                    seen.append(metric)

        _hammer(work)
        assert len(set(map(id, seen))) == 1
