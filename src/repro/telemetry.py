"""Pipeline telemetry: span trees and a no-op default.

Every stage of the compilation and execution pipeline accepts a
:class:`Tracer` and reports into it **spans** — named, nested timing
scopes (``with tracer.span("explore")``) recording wall-clock start and
monotonic duration, with arbitrary key/value attributes attached as the
stage learns them.

The tracer times; it does not count.  Every count has one owner and is
read from it: a compilation's from
:meth:`~repro.pdw.engine.CompiledQuery.compile_counters`, a step's from
its :class:`~repro.appliance.dms_runtime.StepExecutionStats`, a
session's totals from the metrics registry's series.

The default everywhere is :data:`NULL_TRACER`, whose ``span`` returns a
shared no-op context manager — the hot path pays a single attribute
lookup and method call when telemetry is off.  Stages that would loop
to *compute* a span attribute guard on ``tracer.enabled`` so the
disabled path does no extra work at all.

The module is intentionally dependency-free (``time`` only) so it can be
imported from every layer without cycles.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One named timing scope in the trace tree."""

    __slots__ = ("name", "attributes", "children", "started_at",
                 "duration_seconds", "_t0")

    def __init__(self, name: str):
        self.name = name
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.started_at = time.time()         # wall clock, for logs
        self.duration_seconds = 0.0
        self._t0 = time.perf_counter()        # monotonic, for duration

    def set(self, name: str, value: Any) -> None:
        """Attach an attribute to the span."""
        self.attributes[name] = value

    def finish(self) -> None:
        self.duration_seconds = time.perf_counter() - self._t0

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        """The span subtree as plain data (JSON-serializable as long as
        attribute values are)."""
        return {
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def tree_string(self, indent: int = 0) -> str:
        attrs = ""
        if self.attributes:
            attrs = "  [" + ", ".join(
                f"{k}={_fmt_value(v)}"
                for k, v in sorted(self.attributes.items())) + "]"
        line = (f"{'  ' * indent}{self.name:<{max(1, 40 - 2 * indent)}} "
                f"{self.duration_seconds * 1e3:9.3f} ms{attrs}")
        return "\n".join([line] + [
            child.tree_string(indent + 1) for child in self.children
        ])


class _SpanScope:
    """Context manager pushing/popping one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._tracer._stack.pop()
        span.finish()
        del exc_type, exc, tb


class Tracer:
    """Collects a forest of spans.  Single-threaded by contract: only
    the coordinating thread opens spans."""

    enabled = True

    def __init__(self):
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str) -> _SpanScope:
        """Open a nested timing scope: ``with tracer.span("bind"): ...``."""
        span = Span(name)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return _SpanScope(self, span)

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def find(self, name: str) -> Optional[Span]:
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def reset(self) -> None:
        self.roots = []
        self._stack = []

    def render_spans(self) -> str:
        if not self.roots:
            return "(no spans recorded)"
        return "\n".join(root.tree_string() for root in self.roots)

    def to_dict(self) -> Dict[str, Any]:
        """The span forest as plain data."""
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The whole trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)


class _NullSpan:
    """Shared do-nothing stand-in for both the scope and the span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        del exc_type, exc, tb

    def set(self, name: str, value: Any) -> None:
        del name, value


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The default tracer: records nothing, costs ~nothing."""

    enabled = False

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        del name
        return _NULL_SPAN


NULL_TRACER = NullTracer()


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)
