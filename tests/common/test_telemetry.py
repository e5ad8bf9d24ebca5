"""Unit tests for repro.telemetry: spans and the no-op tracer."""

import pytest

from repro.telemetry import NULL_TRACER, NullTracer, Span, Tracer


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("serial"):
                with tracer.span("parse"):
                    pass
                with tracer.span("bind"):
                    pass
            with tracer.span("pdw"):
                pass
        assert len(tracer.roots) == 1
        compile_span = tracer.roots[0]
        assert compile_span.name == "compile"
        assert [c.name for c in compile_span.children] == ["serial", "pdw"]
        serial = compile_span.children[0]
        assert [c.name for c in serial.children] == ["parse", "bind"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        with tracer.span("execute"):
            pass
        assert [s.name for s in tracer.roots] == ["compile", "execute"]

    def test_durations_are_positive_and_nested_leq_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.duration_seconds > 0.0
        assert outer.duration_seconds >= inner.duration_seconds

    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("explore") as span:
            span.set("groups", 12)
        assert tracer.roots[0].attributes == {"groups": 12}

    def test_span_finishes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        assert tracer.current_span is None
        assert tracer.roots[0].duration_seconds > 0.0

    def test_find_depth_first(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("serial"):
                with tracer.span("parse"):
                    pass
        assert tracer.find("parse") is not None
        assert tracer.find("parse").name == "parse"
        assert tracer.find("missing") is None

    def test_walk_and_tree_string(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b") as span:
                span.set("rows", 3)
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["a", "b"]
        rendered = tracer.render_spans()
        assert "a" in rendered and "b" in rendered
        assert "rows=3" in rendered
        assert "ms" in rendered


class TestReset:
    def test_reset(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.roots == []


class TestNullTracer:
    """The disabled path must record nothing and allocate ~nothing."""

    def test_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_span_records_nothing(self):
        with NULL_TRACER.span("compile") as span:
            span.set("ignored", 1)
            with NULL_TRACER.span("inner"):
                pass
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.current_span is None

    def test_span_scope_is_shared_singleton(self):
        # The no-op path must not allocate per call.
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b")
        assert a is b

    def test_fresh_null_tracer_behaves_the_same(self):
        tracer = NullTracer()
        with tracer.span("s"):
            pass
        assert tracer.roots == []


class TestSpanDirect:
    def test_span_records_wall_clock_start(self):
        span = Span("s")
        assert span.started_at > 0
        span.finish()
        assert span.duration_seconds >= 0.0


class TestStructuredExport:
    def test_span_to_dict_round_trips_tree(self):
        tracer = Tracer()
        with tracer.span("compile") as span:
            span.set("steps", 2)
            with tracer.span("serial"):
                pass
        data = tracer.roots[0].to_dict()
        assert data["name"] == "compile"
        assert data["attributes"] == {"steps": 2}
        assert [c["name"] for c in data["children"]] == ["serial"]
        assert data["duration_seconds"] > 0.0
        assert data["started_at"] > 0.0

    def test_tracer_to_dict_holds_spans_only(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert [s["name"] for s in tracer.to_dict()["spans"]] == ["s"]
        assert list(tracer.to_dict()) == ["spans"]

    def test_to_json_parses(self):
        import json

        tracer = Tracer()
        with tracer.span("s") as span:
            span.set("obj", object())  # non-serializable → default=str
        parsed = json.loads(tracer.to_json())
        assert parsed["spans"][0]["name"] == "s"
        assert isinstance(parsed["spans"][0]["attributes"]["obj"], str)
