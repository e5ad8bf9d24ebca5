"""MetricsRegistry: labeled counters, gauges and histograms.

The registry holds the appliance's accumulating numbers (the tracer
only times).  A registry metric carries **labels** (``node=``,
``op=``, ``step=``) so per-node and per-operator facts keep their
identity all the way to the export sinks::

    registry = MetricsRegistry()
    rows = registry.counter("pdw_step_rows_total",
                            "Rows produced per node per DSQL step",
                            labelnames=("step", "op", "node"))
    rows.labels(step="1", op="shuffle", node="3").inc(4821)
    print(registry.render_prometheus())

The default everywhere is :data:`NULL_METRICS`, which preserves the
``NULL_TRACER`` zero-overhead contract: every method returns a shared
no-op object, nothing is allocated per call, and instrumented code guards
any loop that would *compute* a metric value on ``registry.enabled``.

Like :mod:`repro.telemetry`, this module is dependency-free so it can be
imported from every layer without cycles.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsError",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "VALUE_LOCK",
]


class MetricsError(ValueError):
    """Metric misuse: kind/label mismatches, unknown labels."""


# Geometric default buckets; wide enough for q-errors, skew coefficients
# and simulated seconds alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0,
    10.0, 50.0, 100.0, 1000.0,
)


# Value mutations (`self.value += amount`) are read-modify-writes, and
# concurrent requests write the same series: each client thread's
# `PdwService._finish` records its finished request.  One shared lock
# keeps every series consistent; the critical sections are a few
# arithmetic ops, far cheaper than the label lookup that precedes them.
# A writer of many series takes it once and writes each with `add` /
# `record`, which assume it is held.
VALUE_LOCK = threading.Lock()


class CounterValue:
    """One labeled time series of a counter metric.  Thread-safe."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with VALUE_LOCK:
            self.add(amount)

    def add(self, amount: float) -> None:
        """:meth:`inc` by a caller holding :data:`VALUE_LOCK`."""
        if amount < 0:
            raise MetricsError("counters can only increase")
        self.value += amount


class GaugeValue:
    """One labeled time series of a gauge metric.  Thread-safe."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with VALUE_LOCK:
            self.value += amount


class HistogramValue:
    """One labeled time series of a histogram metric.  Thread-safe."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with VALUE_LOCK:
            self.record(value)

    def record(self, value: float) -> None:
        """:meth:`observe` by a caller holding :data:`VALUE_LOCK`."""
        value = float(value)
        self.total += value
        self.count += 1
        # per-bucket counts; cumulative() folds them for exposition
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, excluding +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        return out


_KIND_VALUES = {
    "counter": CounterValue,
    "gauge": GaugeValue,
    "histogram": HistogramValue,
}


class Metric:
    """A named metric family: one value object per distinct label set."""

    __slots__ = ("name", "help", "kind", "labelnames", "buckets",
                 "_children", "_lock")

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        """The child time series for one concrete label assignment.
        Thread-safe: concurrent first touches create one child."""
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = HistogramValue(self.buckets)
                    else:
                        child = _KIND_VALUES[self.kind]()
                    self._children[key] = child
        return child

    # Label-free conveniences --------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """(labels dict, value object) for every child, sorted by labels.
        Snapshots under the lock so concurrent first-touch inserts never
        break a render mid-iteration."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in items
        ]


class MetricsRegistry:
    """Owns all metric families; the render/snapshot surface."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------------

    def _register(self, name: str, help: str, kind: str,
                  labelnames: Sequence[str],
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        with self._lock:
            return self._register_locked(name, help, kind, labelnames,
                                         buckets)

    def _register_locked(self, name: str, help: str, kind: str,
                         labelnames: Sequence[str],
                         buckets: Sequence[float]) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}")
            if existing.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, not {tuple(labelnames)}")
            return existing
        metric = Metric(name, help, kind, labelnames, buckets)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Metric:
        return self._register(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Metric:
        return self._register(name, help, "gauge", labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        return self._register(name, help, "histogram", labelnames,
                              buckets)

    # -- introspection --------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        with self._lock:  # registrations race with renders
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
        """Scalar view: name → {label items → value}.  Histograms report
        their observation count."""
        out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
        for metric in self.metrics():
            family = {}
            for labels, child in metric.series():
                key = tuple(sorted(labels.items()))
                if isinstance(child, HistogramValue):
                    family[key] = float(child.count)
                else:
                    family[key] = float(child.value)
            out[metric.name] = family
        return out

    def reset(self) -> None:
        self._metrics = {}

    # -- export ---------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, child in metric.series():
                if isinstance(child, HistogramValue):
                    for bound, cum in child.cumulative():
                        lines.append(_series_line(
                            f"{metric.name}_bucket",
                            {**labels, "le": _fmt_float(bound)}, cum))
                    lines.append(_series_line(
                        f"{metric.name}_bucket",
                        {**labels, "le": "+Inf"}, child.count))
                    lines.append(_series_line(f"{metric.name}_sum",
                                              labels, child.total))
                    lines.append(_series_line(f"{metric.name}_count",
                                              labels, child.count))
                else:
                    lines.append(_series_line(metric.name, labels,
                                              child.value))
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_float(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(value: str) -> str:
    """HELP text escaping per the exposition format: backslash and
    newline only (quotes are *not* escaped outside label values)."""
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _series_line(name: str, labels: Dict[str, str], value) -> str:
    rendered = _fmt_float(float(value))
    if not labels:
        return f"{name} {rendered}"
    inner = ",".join(
        f'{key}="{_escape_label(str(val))}"'
        for key, val in sorted(labels.items()))
    return f"{name}{{{inner}}} {rendered}"


# -- the no-op default ---------------------------------------------------------


class _NullValue:
    """Shared do-nothing child: counter, gauge and histogram alike."""

    __slots__ = ()
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        del amount

    def set(self, value: float) -> None:
        del value

    def observe(self, value: float) -> None:
        del value


_NULL_VALUE = _NullValue()


class _NullMetric:
    """Shared do-nothing metric family."""

    __slots__ = ()

    def labels(self, **labels: object) -> _NullValue:
        del labels
        return _NULL_VALUE

    def inc(self, amount: float = 1.0) -> None:
        del amount

    def set(self, value: float) -> None:
        del value

    def observe(self, value: float) -> None:
        del value

    def series(self) -> List:
        return []


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """The default registry: records nothing, allocates nothing."""

    enabled = False

    def _register(self, name: str, help: str, kind: str,
                  labelnames: Sequence[str],
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        del name, help, kind, labelnames, buckets
        return _NULL_METRIC  # type: ignore[return-value]


NULL_METRICS = NullMetricsRegistry()
