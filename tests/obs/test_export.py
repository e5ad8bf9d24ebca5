"""Unit tests for repro.obs.export: events, schema validation, sinks."""

import json

from repro.obs.export import (
    events_to_jsonl,
    profile_to_events,
    profile_to_metrics,
    validate_event,
    validate_events,
    validate_jsonl,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.profiler import (
    OperatorProfile,
    QueryProfile,
    StepProfile,
    Transfer,
    skew_stats,
)


def make_profile() -> QueryProfile:
    skew = skew_stats([30, 50])
    operator = OperatorProfile(
        step=0, kind="Get", label="Get(a)",
        node_rows={0: 30, 1: 50}, actual_rows=80,
        estimated_rows=40.0, q_error=2.0,
        skew_cov=skew.cov, skew_imbalance=skew.imbalance,
    )
    unjoined = OperatorProfile(
        step=0, kind="Join", label="J",
        node_rows={0: 1, 1: 1}, actual_rows=2,
        estimated_rows=None, q_error=None,
        skew_cov=0.0, skew_imbalance=1.0,
    )
    step = StepProfile(
        step=0, kind="DMS", operation="ShuffleMove(c)",
        estimated_rows=40.0, actual_rows=80,
        estimated_bytes=400.0, actual_bytes=800,
        estimated_seconds=0.1, actual_seconds=0.2,
        q_error=2.0,
        source_rows={0: 30, 1: 50}, source_skew_cov=skew.cov,
        source_skew_imbalance=skew.imbalance,
        received_bytes={0: 500, 1: 300},
        receive_skew_cov=skew_stats([500, 300]).cov,
        transfers=(Transfer(0, 1, 30, 300), Transfer(1, 0, 50, 500)),
    )
    return QueryProfile(sql="SELECT 1", node_count=2, steps=[step],
                        operators=[operator, unjoined],
                        elapsed_seconds=0.3, dms_seconds=0.2)


class TestEventLog:
    def test_events_validate_cleanly(self):
        events = profile_to_events(make_profile())
        assert [e["event"] for e in events] == \
            ["query", "step", "operator", "operator"]
        assert validate_events(events) == []

    def test_query_event_carries_summary(self):
        query = profile_to_events(make_profile())[0]
        assert query["node_count"] == 2
        assert query["steps"] == 1
        # one joined operator + one step; the unjoined operator has no
        # q_error and is excluded
        assert query["q_error_count"] == 2

    def test_jsonl_round_trip(self):
        events = profile_to_events(make_profile())
        text = events_to_jsonl(events)
        assert validate_jsonl(text) == []
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == json.loads(json.dumps(events))

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(profile_to_events(make_profile()), str(path))
        assert validate_jsonl(path.read_text()) == []


class TestValidation:
    def test_unknown_event_type(self):
        assert validate_event({"event": "nope"}) == \
            ["unknown event type 'nope'"]

    def test_non_object_event(self):
        assert validate_event([1, 2]) != []

    def test_missing_field_reported(self):
        events = profile_to_events(make_profile())
        step = dict(events[1])
        del step["q_error"]
        assert any("missing field 'q_error'" in e
                   for e in validate_event(step))

    def test_unexpected_field_reported(self):
        events = profile_to_events(make_profile())
        query = dict(events[0])
        query["surprise"] = 1
        assert any("unexpected field" in e for e in validate_event(query))

    def test_wrong_type_reported(self):
        events = profile_to_events(make_profile())
        query = dict(events[0])
        query["node_count"] = "two"
        assert any("node_count" in e for e in validate_event(query))

    def test_bool_is_not_a_number(self):
        events = profile_to_events(make_profile())
        query = dict(events[0])
        query["elapsed_seconds"] = True
        assert any("elapsed_seconds" in e for e in validate_event(query))

    def test_node_map_keys_must_be_node_ids(self):
        events = profile_to_events(make_profile())
        step = dict(events[1])
        step["source_rows"] = {"node-zero": 1}
        assert any("non-node key" in e for e in validate_event(step))

    def test_transfer_entries_checked(self):
        events = profile_to_events(make_profile())
        step = dict(events[1])
        step["transfers"] = [{"src": 0, "dst": 1, "rows": "x", "bytes": 0}]
        assert any("transfers" in e for e in validate_event(step))

    def test_validate_jsonl_flags_bad_json(self):
        errors = validate_jsonl('{"event": "query"\nnot json\n')
        assert any("invalid JSON" in e for e in errors)

    def test_jsonl_errors_carry_the_file_line(self):
        errors = validate_jsonl('not json\n\n{"event": "nope"}\n')
        assert len(errors) == 2
        assert errors[0].startswith("line 1: invalid JSON")
        assert errors[1] == "line 3: unknown event type 'nope'"

    def test_schema_check_prints_the_file_line(self, tmp_path, capsys):
        from repro.obs.schema_check import main

        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n\n{"event": "nope"}\n')
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "  line 1: invalid JSON" in out
        assert "  line 3: unknown event type 'nope'" in out

    def test_errors_carry_event_index(self):
        errors = validate_events([{"event": "nope"}, {"event": "what"}])
        assert errors[0].startswith("event 0:")
        assert errors[1].startswith("event 1:")


class TestMetricsSink:
    def test_families_populated(self):
        registry = MetricsRegistry()
        profile_to_metrics(make_profile(), registry)
        snapshot = registry.snapshot()
        # A step's source rows are the service's to write, not the
        # profile's.
        assert "pdw_step_rows_total" not in snapshot
        assert snapshot["pdw_step_received_bytes_total"][
            (("node", "1"), ("step", "0"))] == 300
        assert snapshot["pdw_operator_rows_total"][
            (("node", "1"), ("op", "Get"), ("step", "0"))] == 50
        # histogram counts observations: step q_error + joined operator
        assert snapshot["pdw_q_error"][()] == 2
        text = registry.render_prometheus()
        assert "pdw_step_skew_cov" in text
        assert "pdw_q_error_bucket" in text

    def test_null_registry_is_a_no_op(self):
        profile_to_metrics(make_profile(), NULL_METRICS)
        assert NULL_METRICS.snapshot() == {}


def make_trace():
    from repro.obs.opt_trace import MovementRecord, OptimizerTrace

    trace = OptimizerTrace()
    trace.begin_group(0, ("hash:1", "replicated"))
    trace.record_enumeration(0, "Join[INNER]", 4)
    trace.record_prune(0, "Join @ hashed(#2)", "hash:1", 2.0,
                       "Join @ hashed(#1)", 1.0)
    trace.record_movement(MovementRecord(
        group=0, operation="shuffle", movement="ShuffleMove(#1)",
        property_key="hash:1", source="hashed(#2)", target="hashed(#1)",
        rows=100.0, row_width=8.0, reader=0.1, network=0.2, writer=0.15,
        bulk_copy=0.18, move_cost=0.2, total_cost=1.2, chosen=True))
    trace.record_movement(MovementRecord(
        group=0, operation="broadcast", movement="BroadcastMove",
        property_key="replicated", source="hashed(#2)",
        target="replicated", rows=100.0, row_width=8.0, reader=0.1,
        network=0.8, writer=0.6, bulk_copy=0.7, move_cost=0.8,
        total_cost=1.8, chosen=False))
    trace.record_hint_override(0, "orders", "replicate",
                               ("Join @ hashed(#1)",), (1.0,), 1)
    trace.end_group(0, considered=4,
                    retained=(("Join @ hashed(#1)", "hash:1", 1.0),))
    trace.finish(plan_cost=1.2, plan_distribution="hashed(#1)",
                 optimize_seconds=0.01)
    return trace


class FakePlanChoice:
    """Duck-typed stand-in for repro.pdw.why.PlanChoice (export must not
    import the pdw layer)."""

    baseline_cost = 1.5
    delta = 0.3

    def event(self):
        from repro.obs.opt_trace import PlanChoiceEvent

        return PlanChoiceEvent(
            sql="SELECT 1", plan_cost=1.2, baseline_cost=1.5,
            delta=0.3, delta_pct=25.0, baseline_matches=False,
            movements_plan=1, movements_baseline=2, movements_shared=1)


class TestOptimizerTraceEvents:
    def test_events_validate_cleanly(self):
        from repro.obs.export import optimizer_trace_to_events

        events = optimizer_trace_to_events(make_trace(),
                                           plan_choice=FakePlanChoice())
        assert [e["event"] for e in events] == [
            "optimizer_summary", "optimizer_group", "optimizer_prune",
            "optimizer_enforce", "optimizer_enforce", "optimizer_hint",
            "plan_choice"]
        assert validate_events(events) == []

    def test_summary_event_counts(self):
        from repro.obs.export import optimizer_trace_to_events

        summary = optimizer_trace_to_events(make_trace())[0]
        assert summary["groups"] == 1
        assert summary["options_considered"] == 4
        assert summary["options_retained"] == 1
        assert summary["options_pruned"] == 1
        assert summary["enforcers_added"] == 1
        assert summary["movements_rejected"] == 1
        assert summary["hint_overrides"] == 1
        assert summary["plan_distribution"] == "hashed(#1)"

    def test_jsonl_round_trip(self):
        from repro.obs.export import optimizer_trace_to_events

        events = optimizer_trace_to_events(make_trace(),
                                           plan_choice=FakePlanChoice())
        assert validate_jsonl(events_to_jsonl(events)) == []

    def test_validation_catches_bad_enforce(self):
        from repro.obs.export import optimizer_trace_to_events

        events = optimizer_trace_to_events(make_trace())
        enforce = next(e for e in events
                       if e["event"] == "optimizer_enforce")
        enforce["chosen"] = "yes"
        errors = validate_event(enforce)
        assert errors and "chosen" in errors[0]

    def test_validation_catches_bad_retained(self):
        event = {
            "event": "optimizer_group", "group": 0, "interesting": [],
            "expressions": 1, "options_considered": 1,
            "options_retained": 1,
            "retained": [{"option": "x", "property_key": "hash:1"}],
        }
        errors = validate_event(event)
        assert errors and "retained" in errors[0]


class TestOptimizerTraceMetrics:
    def test_families_populated(self):
        from repro.obs.export import optimizer_trace_to_metrics

        registry = MetricsRegistry()
        optimizer_trace_to_metrics(make_trace(), registry,
                                   plan_choice=FakePlanChoice())
        snapshot = registry.snapshot()
        assert snapshot["pdw_optimizer_options_considered"][()] == 4
        assert snapshot["pdw_optimizer_options_pruned"][()] == 1
        assert snapshot["pdw_optimizer_pruned_by_property_total"][
            (("key", "hash:1"),)] == 1
        assert snapshot["pdw_optimizer_enforcers_added_total"][
            (("op", "shuffle"),)] == 1
        assert snapshot["pdw_optimizer_movements_rejected_total"][()] == 1
        assert snapshot["pdw_optimizer_plan_cost_seconds"][()] == 1.2
        assert snapshot["pdw_optimizer_baseline_delta_seconds"][()] == 0.3

    def test_without_plan_choice_no_baseline_gauges(self):
        from repro.obs.export import optimizer_trace_to_metrics

        registry = MetricsRegistry()
        optimizer_trace_to_metrics(make_trace(), registry)
        snapshot = registry.snapshot()
        assert "pdw_optimizer_baseline_cost_seconds" not in snapshot
        assert "pdw_optimizer_plan_cost_seconds" in snapshot

    def test_null_registry_is_a_no_op(self):
        from repro.obs.export import optimizer_trace_to_metrics

        optimizer_trace_to_metrics(make_trace(), NULL_METRICS,
                                   plan_choice=FakePlanChoice())
        assert NULL_METRICS.snapshot() == {}
