"""The Query Store: shape keys and plan digests, aggregation math,
regression detection, JSONL persistence round-trips, LRU bounds and the
NULL-store zero-overhead contract (booby-trapped constructors prove the
disabled path allocates nothing)."""

import json
import threading

import pytest

import repro.obs.query_store as qs
from repro import PdwSession
from repro.common.errors import ReproError
from repro.obs.export import query_store_to_metrics, write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.service import ExecutionOptions
from repro.obs.query_store import (
    NULL_QUERY_STORE,
    NullQueryStore,
    QueryStore,
    normalized_shape_key,
    plan_shape_digest,
)
from repro.workloads.tpch_datagen import build_tpch_appliance

SCALE = 0.001
NODES = 2

JOIN_SQL = ("SELECT c_custkey, o_orderdate FROM orders, customer "
            "WHERE o_custkey = c_custkey AND o_totalprice > 1000")
JOIN_SQL_OTHER_LITERAL = (
    "SELECT c_custkey, o_orderdate FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_totalprice > 50000")


@pytest.fixture(scope="module")
def store_env():
    """Private appliance — query-store stamping and system-view
    registration must not touch the suite-wide shared fixture."""
    return build_tpch_appliance(scale=SCALE, node_count=NODES)


def _record(store, shape="q", plan="p1", **overrides):
    kwargs = dict(example_sql="SELECT 1", schema_version=0,
                  cache_hit=False, rows=10, bytes_moved=100,
                  elapsed_seconds=1.0, wall_seconds=0.5,
                  queue_seconds=0.1, compile_seconds=0.2,
                  execute_seconds=0.2, steps=(), now=1000.0)
    kwargs.update(overrides)
    store.record_execution(shape, plan, **kwargs)


class TestMetricsExport:
    def test_export_is_idempotent(self):
        store = QueryStore()
        _record(store)
        _record(store, rows=5)
        _record(store, shape="q2", plan="p9")
        registry = MetricsRegistry()
        query_store_to_metrics(store, registry)
        first = registry.snapshot()
        assert first["pdw_query_store_executions"][()] == 3
        assert first["pdw_query_store_rows"][()] == 25
        assert first["pdw_query_store_bytes_moved"][()] == 300
        assert first["pdw_query_store_seconds"][
            (("phase", "queue"),)] == pytest.approx(0.3)
        query_store_to_metrics(store, registry)
        assert registry.snapshot() == first


class TestShapeKeys:
    def test_literals_share_a_shape(self):
        assert normalized_shape_key(JOIN_SQL) \
            == normalized_shape_key(JOIN_SQL_OTHER_LITERAL)

    def test_whitespace_insensitive(self):
        assert normalized_shape_key("SELECT  1 ") \
            == normalized_shape_key("SELECT 1")

    def test_distinct_templates_distinct_shapes(self):
        assert normalized_shape_key("SELECT COUNT(*) AS n FROM nation") \
            != normalized_shape_key(JOIN_SQL)

    def test_plan_digest_literal_insensitive(self, store_env):
        appliance, shell = store_env
        session = PdwSession(appliance=appliance, shell=shell)
        a = session.compile(JOIN_SQL).dsql_plan
        b = session.compile(JOIN_SQL_OTHER_LITERAL).dsql_plan
        c = session.compile("SELECT COUNT(*) AS n FROM nation").dsql_plan
        assert plan_shape_digest(a) == plan_shape_digest(b)
        assert plan_shape_digest(a) != plan_shape_digest(c)
        assert len(plan_shape_digest(a)) == 12


class TestAggregation:
    def test_scalar_folding(self):
        store = QueryStore()
        _record(store, elapsed_seconds=1.0, wall_seconds=0.4, rows=10,
                bytes_moved=100, now=1000.0)
        _record(store, elapsed_seconds=3.0, wall_seconds=0.2, rows=20,
                bytes_moved=50, cache_hit=True, now=1001.0)
        shape = store.find("q")
        assert shape is not None
        plan = shape.plan("p1")
        assert plan.execution_count == 2
        assert plan.cache_hits == 1
        assert plan.rows_returned_total == 30
        assert plan.bytes_moved_total == 150
        assert plan.elapsed_seconds_total == pytest.approx(4.0)
        assert plan.elapsed_seconds_min == pytest.approx(1.0)
        assert plan.elapsed_seconds_max == pytest.approx(3.0)
        assert plan.elapsed_seconds_last == pytest.approx(3.0)
        assert plan.mean_elapsed_seconds == pytest.approx(2.0)
        assert plan.wall_seconds_min == pytest.approx(0.2)
        assert plan.wall_seconds_max == pytest.approx(0.4)
        assert shape.first_seen == 1000.0
        assert shape.last_seen == 1001.0
        assert store.stats()["executions"] == 2

    def test_step_cardinalities_and_q_error(self):
        store = QueryStore()
        _record(store, steps=[(0, "DMS", "ShuffleMove", 100.0, 10)])
        _record(store, steps=[(0, "DMS", "ShuffleMove", 100.0, 400)])
        shape = store.find("q")
        plan = shape.plan("p1")
        card = plan.steps[0]
        assert card.executions == 2
        assert card.actual_rows_total == 410
        assert card.actual_rows_last == 400
        assert card.mean_actual_rows == pytest.approx(205.0)
        # q-error is max(est/act, act/est): 100/10 = 10x dominates.
        assert card.max_q_error == pytest.approx(10.0)
        assert plan.max_q_error == pytest.approx(10.0)
        assert store.observed_cardinalities("q") \
            == {0: pytest.approx(205.0)}

    def test_current_plan_is_latest_observed(self):
        store = QueryStore()
        _record(store, plan="p1")
        _record(store, plan="p2")
        _record(store, plan="p1")
        shape = store.find("q")
        assert shape.current_plan().plan_hash == "p1"
        assert len(shape.plans) == 2
        assert shape.execution_count == 3

    def test_lru_eviction(self):
        store = QueryStore(max_shapes=2)
        _record(store, shape="a")
        _record(store, shape="b")
        _record(store, shape="a")  # refresh a; b is now oldest
        _record(store, shape="c")
        assert store.find("b") is None
        assert store.find("a") is not None
        assert store.find("c") is not None
        assert store.stats()["evicted_shapes"] == 1


class TestRegressions:
    def _two_plan_store(self, current_mean, baseline_mean=1.0,
                        **current_overrides):
        store = QueryStore()
        for _ in range(2):
            _record(store, plan="fast", elapsed_seconds=baseline_mean)
        for _ in range(2):
            _record(store, plan="slow", elapsed_seconds=current_mean,
                    **current_overrides)
        return store

    def test_flags_slow_current_plan(self):
        store = self._two_plan_store(current_mean=2.0)
        flagged = store.regressions()
        assert len(flagged) == 1
        reg = flagged[0]
        assert reg.plan_hash == "slow"
        assert reg.baseline_hash == "fast"
        assert reg.slowdown == pytest.approx(2.0)

    def test_factor_gate(self):
        store = self._two_plan_store(current_mean=1.4)
        assert store.regressions(factor=1.5) == []
        assert len(store.regressions(factor=1.2)) == 1

    def test_faster_current_plan_is_not_a_regression(self):
        store = self._two_plan_store(current_mean=0.5)
        assert store.regressions() == []

    def test_min_executions_gate(self):
        store = QueryStore()
        for _ in range(2):
            _record(store, plan="fast", elapsed_seconds=1.0)
        _record(store, plan="slow", elapsed_seconds=10.0)
        assert store.regressions() == []  # current has 1 execution
        assert len(store.regressions(min_executions=1)) == 1

    def test_schema_version_mismatch_excludes_baseline(self):
        store = QueryStore()
        for _ in range(2):
            _record(store, plan="fast", elapsed_seconds=1.0,
                    schema_version=1)
        for _ in range(2):
            _record(store, plan="slow", elapsed_seconds=10.0,
                    schema_version=2)
        # The fast plan predates the DDL: not a trustworthy baseline.
        assert store.regressions() == []
        # Re-observing it under the current version restores it.
        for _ in range(2):
            _record(store, plan="fast", elapsed_seconds=1.0,
                    schema_version=2)
        _record(store, plan="slow", elapsed_seconds=10.0,
                schema_version=2)
        assert len(store.regressions()) == 1


class TestPersistence:
    def test_save_load_round_trips_bit_identically(self, tmp_path):
        store = QueryStore()
        _record(store, shape="a", plan="p1", elapsed_seconds=1.0 / 3.0,
                steps=[(0, "DMS", "BroadcastMove", 7.0, 3)])
        _record(store, shape="a", plan="p2", elapsed_seconds=0.1)
        _record(store, shape="b", plan="p3", rows=5, cache_hit=True)
        path = tmp_path / "store.jsonl"
        assert len(store.to_events()) == 2
        write_jsonl(store.to_events(), str(path))
        reloaded = QueryStore()
        assert reloaded.load(str(path)) == 2
        assert reloaded.to_events() == store.to_events()
        # ...and the persisted bytes are stable across a round trip
        # (float repr exactness), including the 1/3 mean.
        path2 = tmp_path / "store2.jsonl"
        write_jsonl(reloaded.to_events(), str(path2))
        assert path2.read_bytes() == path.read_bytes()

    def test_saved_events_are_schema_checkable(self, tmp_path):
        from repro.obs.export import validate_events
        store = QueryStore()
        _record(store, steps=[(0, "Return", "Return", 2.0, 2)])
        path = tmp_path / "store.jsonl"
        write_jsonl(store.to_events(), str(path))
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert len(events) == 1
        assert events[0]["event"] == "query_store_flush"
        assert validate_events(events) == []

    def test_load_under_new_schema_version_rekeys_baselines(
            self, tmp_path):
        store = QueryStore()
        for _ in range(2):
            _record(store, plan="fast", elapsed_seconds=1.0,
                    schema_version=3)
        for _ in range(2):
            _record(store, plan="slow", elapsed_seconds=10.0,
                    schema_version=3)
        assert len(store.regressions()) == 1
        path = tmp_path / "store.jsonl"
        write_jsonl(store.to_events(), str(path))

        survivor = QueryStore()
        survivor.load(str(path), schema_version=4)
        shape = survivor.find("q")
        # History intact...
        assert shape.execution_count == 4
        assert shape.plan("fast").elapsed_seconds_total \
            == pytest.approx(2.0)
        # ...but stale-version plans lost baseline eligibility, so no
        # comparison against pre-DDL timings.
        assert not shape.plan("fast").baseline_eligible
        assert survivor.regressions() == []
        # Live re-observation under the new version re-keys both plans.
        for _ in range(2):
            _record(survivor, plan="fast", elapsed_seconds=1.0,
                    schema_version=4)
        _record(survivor, plan="slow", elapsed_seconds=10.0,
                schema_version=4)
        assert len(survivor.regressions()) == 1

    def test_load_verbatim_keeps_eligibility_and_ids(self, tmp_path):
        store = QueryStore()
        _record(store, shape="a")
        _record(store, shape="b")
        path = tmp_path / "store.jsonl"
        write_jsonl(store.to_events(), str(path))
        reloaded = QueryStore()
        reloaded.load(str(path))
        # New shapes keep allocating past the loaded ids.
        _record(reloaded, shape="c")
        ids = [s.query_id for s in reloaded.shapes()]
        assert len(ids) == len(set(ids)) == 3


    def test_load_gives_a_taken_query_id_the_next_free_one(self, tmp_path):
        saved = QueryStore()
        _record(saved, shape="shape_b")
        path = tmp_path / "store.jsonl"
        write_jsonl(saved.to_events(), str(path))
        target = QueryStore()
        _record(target, shape="shape_a")
        assert target.load(str(path)) == 1
        assert [(s.query_id, s.shape_key) for s in target.shapes()] == [
            (1, "shape_a"), (2, "shape_b")]
        _record(target, shape="shape_c")
        assert target.find("shape_c").query_id == 3

    def test_load_into_a_held_shape_keeps_its_live_plans(self, tmp_path):
        saved = QueryStore()
        _record(saved, plan="h9", rows=99)
        _record(saved, plan="h2")
        path = tmp_path / "store.jsonl"
        write_jsonl(saved.to_events(), str(path))
        target = QueryStore()
        _record(target, plan="h9")
        _record(target, plan="h9")
        target.load(str(path))
        shape = target.find("q")
        # The live h9 history stays; the file's h2, which the store
        # lacked, joins it as an older plan.
        assert [plan.plan_hash for plan in shape.plans] == ["h9", "h2"]
        assert shape.plan("h9").execution_count == 2
        assert shape.plan("h9").rows_returned_total == 20
        assert shape.current_plan().plan_hash == "h9"
        assert shape.execution_count == 3
        assert target.stats()["executions"] == 3
        assert [s.query_id for s in target.shapes()] == [1]


class TestLoadIsAllOrNothing:
    """A file with one bad line merges none of its lines: every line is
    parsed and schema-checked first, and the typed error names the
    line."""

    def _saved_lines(self, tmp_path):
        store = QueryStore()
        _record(store, shape="a", plan="p1")
        _record(store, shape="b", plan="p2")
        path = tmp_path / "store.jsonl"
        write_jsonl(store.to_events(), str(path))
        return path, [json.loads(line)
                      for line in path.read_text().splitlines()]

    def _write(self, path, events):
        path.write_text("".join(json.dumps(event) + "\n"
                                for event in events))

    def test_plan_without_hash_merges_nothing(self, tmp_path):
        path, events = self._saved_lines(tmp_path)
        del events[1]["plans"][0]["plan_hash"]
        self._write(path, events)
        target = QueryStore()
        _record(target, shape="kept", plan="p0")
        before = target.to_events()
        with pytest.raises(ReproError, match="line 2") as raised:
            target.load(str(path))
        assert "plan_hash" in str(raised.value)
        assert target.to_events() == before
        assert target.find("a") is None

    def test_invalid_json_line_merges_nothing(self, tmp_path):
        path, events = self._saved_lines(tmp_path)
        path.write_text(json.dumps(events[0]) + "\n\n{not json\n")
        target = QueryStore()
        with pytest.raises(ReproError, match="line 3"):
            target.load(str(path))
        assert target.shapes() == []

    def test_step_that_does_not_rebuild_merges_nothing(self, tmp_path):
        # The flush schema checks that a plan's steps are a list; a step
        # entry missing its fields fails when the shape is rebuilt.
        path, events = self._saved_lines(tmp_path)
        events[0]["plans"][0]["steps"] = [{"index": 0}]
        self._write(path, events)
        target = QueryStore()
        with pytest.raises(ReproError, match="line 1"):
            target.load(str(path))
        assert target.shapes() == []
        assert target.stats()["evicted_shapes"] == 0

    def test_other_valid_events_are_skipped(self, tmp_path):
        path, events = self._saved_lines(tmp_path)
        query = {"event": "optimizer_hint", "group": 1, "table": "t",
                 "strategy": "shuffle", "displaced": [],
                 "displaced_costs": [], "kept": 1}
        from repro.obs.export import validate_event
        assert validate_event(query) == []
        self._write(path, [query] + events)
        target = QueryStore()
        assert target.load(str(path)) == 2
        assert target.find("a") is not None and target.find("b") is not None


class TestNullStore:
    def test_shared_singleton_and_disabled(self):
        assert isinstance(NULL_QUERY_STORE, NullQueryStore)
        assert NULL_QUERY_STORE.enabled is False
        assert QueryStore().enabled is True

    def test_all_paths_are_no_ops(self):
        _record(NULL_QUERY_STORE)
        assert NULL_QUERY_STORE.shapes() == []
        assert NULL_QUERY_STORE.find("q") is None
        assert NULL_QUERY_STORE.regressions() == []
        assert NULL_QUERY_STORE.observed_cardinalities("q") == {}
        assert NULL_QUERY_STORE.to_events() == []
        assert NULL_QUERY_STORE.stats()["shapes"] == 0

    def test_disabled_path_allocates_nothing(self, store_env,
                                             monkeypatch):
        """Booby-trap the record dataclasses: with the store off, a
        query must complete — with identical rows — without ever
        constructing store state."""
        appliance, shell = store_env
        enabled = PdwSession(appliance=appliance, shell=shell,
                             query_store=QueryStore())
        expected = enabled.run(JOIN_SQL).rows
        assert enabled.query_store.stats()["shapes"] == 1

        def boom(*args, **kwargs):
            raise AssertionError(
                "query-store state constructed while disabled")

        monkeypatch.setattr(qs, "ShapeStats", boom)
        monkeypatch.setattr(qs, "PlanStats", boom)
        monkeypatch.setattr(qs, "StepCardinality", boom)
        disabled = PdwSession(appliance=appliance, shell=shell,
                              options=ExecutionOptions(trace=False))
        assert disabled.query_store is NULL_QUERY_STORE
        assert disabled.run(JOIN_SQL).rows == expected


class TestConcurrency:
    def test_concurrent_recorders_and_readers(self):
        store = QueryStore()
        errors = []

        def writer(plan):
            try:
                for i in range(50):
                    _record(store, plan=plan, elapsed_seconds=0.01 * i,
                            steps=[(0, "DMS", "ShuffleMove",
                                    10.0, i)])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                for _ in range(50):
                    store.regressions()
                    store.stats()
                    store.to_events()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=("p1",)),
                   threading.Thread(target=writer, args=("p2",)),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.stats()["executions"] == 100
