"""PdwService end to end: caching, concurrency, accounting, correctness.

The hammer tests are the PR's acceptance gate: many threads, same and
distinct shapes, exactly one compilation per normalized key, and results
identical to an uncached serial session across the TPC-H suite.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from tests.conftest import canonical, stats_view
from repro import ExecutionOptions, PdwSession
from repro.service import PdwService, run_traffic
from repro.workloads.tpch_queries import TPCH_QUERIES

#: The suite subset whose plans materialize temp tables and stress every
#: movement kind; the full-suite equivalence test below covers the rest.
HAMMER_TEMPLATES = [
    "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < {}",
    "SELECT n_name FROM nation WHERE n_nationkey < {} ORDER BY n_name",
    "SELECT c_custkey, o_orderdate FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_totalprice > {}",
]


@pytest.fixture(scope="module")
def baseline_session(tpch):
    appliance, shell = tpch
    return PdwSession(appliance=appliance, shell=shell,
                      options=ExecutionOptions(trace=False))


def run_uncached(session, sql):
    """The oracle: a fresh compilation whose raw plan runs on the
    session's default runner — no plan cache, parameter binding or
    admission, so it shares none of the served path it checks."""
    return session.runner.run(session.compile(sql).dsql_plan)


class TestQueryResultSurface:
    def test_fields_on_miss_and_hit(self, service):
        sql = "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey < 100"
        miss = service.execute(sql)
        assert miss.cache_hit is False
        assert miss.plan is not None and miss.plan.dsql_plan.steps
        assert miss.timing is not None
        assert miss.timing.compile_seconds > 0
        hit = service.execute(sql)
        assert hit.cache_hit is True
        assert hit.timing.compile_seconds == 0.0
        assert hit.rows == miss.rows
        assert list(hit) == hit.rows and len(hit) == len(hit.rows)

    def test_columns_preserved(self, service, baseline_session):
        sql = "SELECT n_name, n_nationkey FROM nation ORDER BY n_name"
        result = service.execute(sql)
        expected = run_uncached(baseline_session, sql)
        assert result.columns == expected.columns
        assert result.rows == expected.rows

    def test_plan_cache_opt_out(self, service):
        sql = ("SELECT COUNT(*) AS n FROM supplier "
               "WHERE s_suppkey < 5")
        first = service.execute(
            sql, options=ExecutionOptions(use_plan_cache=False))
        second = service.execute(
            sql, options=ExecutionOptions(use_plan_cache=False))
        assert first.cache_hit is False and second.cache_hit is False
        assert first.rows == second.rows


class TestMetricsAccounting:
    def test_cache_and_tenant_series(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell)
        try:
            sql = "SELECT COUNT(*) AS n FROM region WHERE r_regionkey < {}"
            service.execute(sql.format(3), tenant="acme")
            service.execute(sql.format(4), tenant="acme")
            text = service.metrics_text()
            assert "pdw_service_plan_cache_hits 1" in text
            assert "pdw_service_plan_cache_misses 1" in text
            assert ('pdw_service_queries_total{outcome="ok",'
                    'priority="normal",tenant="acme"} 2') in text
            assert 'pdw_service_tenant_seconds_total{tenant="acme"}' \
                in text
            assert "pdw_service_latency_seconds_bucket" in text
        finally:
            service.close()

    def test_series_resolved_once_and_equal_to_stats(self, tpch):
        """The plan cache and admission resolve their series when the
        service is built: serving queries registers no family, and
        every pdw_service_plan_cache_* count, inserts included, equals
        the cache's own stats."""
        from repro.obs.metrics import MetricsRegistry

        class CountingRegistry(MetricsRegistry):
            registrations = 0

            def _register(self, *args, **kwargs):
                self.registrations += 1
                return super()._register(*args, **kwargs)

        appliance, shell = tpch
        registry = CountingRegistry()
        service = PdwService(appliance=appliance, shell=shell,
                             metrics=registry)
        try:
            built = registry.registrations
            sql = "SELECT COUNT(*) AS n FROM region WHERE r_regionkey < {}"
            for bound in (2, 3, 4):
                service.execute(sql.format(bound))
            service.execute("SELECT COUNT(*) AS n FROM nation")
            assert registry.registrations == built
            snapshot = registry.snapshot()
            stats = service.plan_cache.stats()
            assert stats["inserts"] == 2
            for name in ("hits", "misses", "evictions", "invalidations",
                         "shape_parses", "inserts"):
                series = snapshot[f"pdw_service_plan_cache_{name}"]
                assert sum(series.values()) == stats[name], name
            admitted = snapshot["pdw_service_admitted_total"]
            assert sum(admitted.values()) \
                == service.admission.admitted_total == 4
        finally:
            service.close()

    def test_failed_queries_accounted(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell)
        try:
            with pytest.raises(Exception):
                service.execute("SELECT nope FROM nowhere")
            assert 'outcome="failed"' in service.metrics_text()
            assert service.admission.in_flight == 0, \
                "a failed query must release its slot"
        finally:
            service.close()


class TestConcurrencyHammer:
    def test_single_compilation_per_shape(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell,
                             max_in_flight=4, max_queue=256)
        compile_calls = []
        inner_compile = service.engine.compile

        def counting_compile(sql, **kwargs):
            compile_calls.append(sql)
            return inner_compile(sql, **kwargs)

        service.engine.compile = counting_compile
        try:
            # Distinct integer literals per arrival — every execution
            # after the first per template is a bind-and-substitute hit.
            expected = {}
            arrivals = []
            rng = random.Random(7)
            for i in range(24):
                template = HAMMER_TEMPLATES[i % len(HAMMER_TEMPLATES)]
                sql = template.format(10 + i + rng.randint(0, 3) * 100)
                arrivals.append(sql)
            baseline = PdwSession(appliance=appliance, shell=shell,
                                  options=ExecutionOptions(trace=False))
            for sql in set(arrivals):
                expected[sql] = canonical(
                    run_uncached(baseline, sql).rows)

            failures = []

            def client(worker_id):
                for index, sql in enumerate(arrivals):
                    if index % 4 != worker_id % 4:
                        continue
                    result = service.execute(sql)
                    if canonical(result.rows) != expected[sql]:
                        failures.append((sql, result.rows))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            assert not failures, failures[:2]
            # One compile per distinct shape, no duplicate single-flight
            # losers, no ambiguity recompiles for these literal choices.
            assert len(compile_calls) == len(HAMMER_TEMPLATES)
            for entry in service.plan_cache.entries():
                assert entry.compile_count == 1
            # A racer that misses lookup but loses the single-flight
            # race still counts a miss, so misses may exceed the
            # template count — but every arrival is accounted.
            stats = service.plan_cache.stats()
            assert stats["hits"] + stats["misses"] == 24
            assert stats["misses"] >= len(HAMMER_TEMPLATES)
            assert stats["hits"] >= 24 - 2 * len(HAMMER_TEMPLATES)
        finally:
            service.close()

    def test_distinct_shapes_leave_no_per_shape_state(self, tpch):
        """A compiled shape leaves nothing on the service but its
        plan-cache entry, which the cache bounds: never-seen shapes
        grow none of the service's own containers."""
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell,
                             plan_cache_size=4)

        def sizes():
            return {name: len(value)
                    for name, value in vars(service).items()
                    if isinstance(value, (dict, list, set))}

        shape = "SELECT n_name AS c{} FROM nation WHERE n_nationkey < 5"
        try:
            service.execute(shape.format(0))
            before = sizes()
            for i in range(1, 21):
                assert not service.execute(shape.format(i)).cache_hit
            assert sizes() == before
            assert len(service.plan_cache) == 4
        finally:
            service.close()

    def test_no_temp_tables_leak(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell,
                             max_in_flight=4)
        try:
            sql = TPCH_QUERIES["Q3"]  # multi-step plan with temps

            def client():
                service.execute(sql)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            leftovers = [t.name for t in appliance.catalog.tables()
                         if t.is_temp]
            assert leftovers == [], \
                f"executions must drop exactly their own temps: {leftovers}"
        finally:
            service.close()

    def test_submit_and_execute_many(self, service):
        statements = [
            "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < 5",
            "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < 9",
            "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < 21",
        ]
        results = service.execute_many(statements)
        assert [r.rows[0][0] for r in results] == [5, 9, 21]

    def test_traffic_run_is_clean(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell,
                             max_in_flight=4, max_queue=128)
        try:
            report = run_traffic(service, clients=3,
                                 queries_per_client=4, seed=99)
        finally:
            service.close()
        assert report.errors == 0
        assert report.completed + report.rejected == 12
        assert report.completed > 0
        assert report.p99 >= report.p95 >= report.p50 > 0
        assert report.queries_per_second > 0


class TestDefaultConcurrency:
    """The default service runs one execution at a time — what one GIL
    can run — and queues the rest by priority instead of refusing or
    interleaving them."""

    def test_default_service_queues_concurrent_requests(self, tpch):
        import time

        from repro.service.admission import DEFAULT_MAX_IN_FLIGHT
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell)
        assert service.admission.max_in_flight == DEFAULT_MAX_IN_FLIGHT == 1
        sql = "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < {}"
        # The first request blocks inside its execution, holding the
        # slot, until the others have queued up behind it.
        gate, running = threading.Event(), threading.Event()
        real_run = service.runner.run

        def gated_run(plan, **kwargs):
            if not running.is_set():
                running.set()
                assert gate.wait(timeout=10.0)
            return real_run(plan, **kwargs)

        service.runner.run = gated_run
        finished, results = [], {}

        def client(tag, bound, priority):
            results[tag] = service.execute(sql.format(bound),
                                           priority=priority)
            finished.append(tag)

        def queued(depth):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.admission.queue_depth == depth:
                    return True
                time.sleep(0.002)
            return False

        threads = [threading.Thread(target=client,
                                    args=("first", 3, "normal"))]
        try:
            threads[0].start()
            assert running.wait(timeout=10.0)
            for depth, (tag, bound, priority) in enumerate([
                    ("batch", 5, "batch"), ("normal", 7, "normal"),
                    ("interactive", 9, "interactive")], start=1):
                threads.append(threading.Thread(
                    target=client, args=(tag, bound, priority)))
                threads[-1].start()
                assert queued(depth)
            assert service.admission.in_flight == 1
            gate.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            stats = service.admission.stats()
        finally:
            gate.set()
            service.close()
        # One at a time, best priority first.
        assert finished == ["first", "interactive", "normal", "batch"]
        assert [results[tag].rows for tag in finished] == [
            [(3,)], [(9,)], [(7,)], [(5,)]]
        assert results["first"].timing.queue_seconds == 0.0
        for tag in ("interactive", "normal", "batch"):
            assert results[tag].timing.queue_seconds > 0.0
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0
        assert stats["admitted_total"] == 4
        assert not any(stats["rejected_total"].values())


class TestTpchSuiteEquivalence:
    """Cached execution is identical — rows and per-step accounting —
    to an uncached session across the whole TPC-H suite (miss path AND
    pure-hit path)."""

    def test_suite_cached_equals_uncached(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell)
        baseline = PdwSession(appliance=appliance, shell=shell,
                              options=ExecutionOptions(trace=False))
        try:
            for name, sql in TPCH_QUERIES.items():
                uncached = run_uncached(baseline, sql)
                expected = canonical(uncached.rows)
                miss = service.execute(sql)
                hit = service.execute(sql)
                assert hit.cache_hit is True, name
                for cached in (miss, hit):
                    assert canonical(cached.rows) == expected, name
                    assert (stats_view(cached.step_stats)
                            == stats_view(uncached.step_stats)), name
        finally:
            service.close()
        stats = service.plan_cache.stats()
        assert stats["misses"] == len(TPCH_QUERIES)
        assert stats["hits"] == len(TPCH_QUERIES)


class TestPerCallOptions:
    """Per-call ``executor`` and ``profile`` pick the runner and what it
    collects, whatever the service defaults are."""

    SQL = ("SELECT c_mktsegment, COUNT(*) AS n FROM customer, orders "
           "WHERE c_custkey = o_custkey GROUP BY c_mktsegment")

    def test_per_call_executor(self, service, return_executors):
        assert service.options.executor == "numpy"
        result = service.execute(
            self.SQL, options=ExecutionOptions(executor="reference"))
        assert return_executors == ["reference"]
        assert canonical(result.rows) == canonical(
            service.execute(self.SQL).rows)
        assert return_executors == ["reference", "numpy"]

    def test_one_runner_per_executor_under_racing_clients(self, tpch):
        appliance, shell = tpch
        service = PdwService(appliance=appliance, shell=shell)
        variants = [ExecutionOptions(executor=executor)
                    for executor in ("numpy", "reference")]
        seen = [[] for _ in range(8)]
        barrier = threading.Barrier(len(seen))

        def client(out):
            barrier.wait()
            for _ in range(50):
                for opts in variants:
                    out.append(service._runner_for(opts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(out,))
                       for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert len({id(runner) for out in seen for runner in out}) == 2
        assert len(service._runners) == 2

    def test_profile_fills_every_step(self, service):
        result = service.execute(
            self.SQL, options=ExecutionOptions(profile=True))
        assert len(result.step_stats) == 3
        for stats in result.step_stats:
            assert stats.node_operators and stats.transfers
        plain = service.execute(self.SQL)
        assert not any(stats.node_operators or stats.transfers
                       for stats in plain.step_stats)


class TestSlowThreshold:
    """The slow-query threshold is the request registry's: a default
    registry keeps the module default, a registry passed in keeps its
    own, and pdw_service_slow_total counts against it."""

    def test_resolution_order(self, tpch):
        from repro.obs.requests import (DEFAULT_SLOW_SECONDS,
                                        RequestRegistry)
        appliance, shell = tpch
        default = PdwService(appliance=appliance, shell=shell)
        shared = RequestRegistry(slow_threshold_seconds=9.0)
        via_registry = PdwService(appliance=appliance, shell=shell,
                                  requests=shared)
        try:
            assert default.requests.slow_threshold_seconds \
                == DEFAULT_SLOW_SECONDS
            assert via_registry.requests.slow_threshold_seconds == 9.0
        finally:
            for svc in (default, via_registry):
                svc.close()

    def test_slow_request_counted(self, tpch):
        from repro.obs.requests import RequestRegistry
        appliance, shell = tpch
        service = PdwService(
            appliance=appliance, shell=shell,
            requests=RequestRegistry(slow_threshold_seconds=0.0))
        try:
            service.execute("SELECT COUNT(*) AS n FROM nation")
            # Threshold zero: every completed request is slow.
            assert service.requests.stats()["slow"] >= 1
            slow = service.metrics.snapshot()["pdw_service_slow_total"]
            assert sum(slow.values()) >= 1
        finally:
            service.close()
