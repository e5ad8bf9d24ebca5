"""Per-node / per-operator query profiling: skew and Q-error.

The paper's §2.5 premise is that distributed plan quality hinges on
*where rows actually land*: DMS cost dominates, and every enumeration
decision is driven by the shell database's global statistics.  This
module turns one executed query into a structured profile that makes
both failure modes visible:

* **skew** — per-node row/byte distributions per DSQL step and per
  operator (max/mean imbalance and coefficient of variation), fed by the
  N×N transfer matrix the DMS runtime records per movement;
* **Q-error** — the multiplicative estimation error
  ``max(est/act, act/est)`` joining the winning plan's per-operator
  cardinality estimates (annotated on each DSQL step at generation time)
  against the per-operator actuals the interpreter observes.

The module is deliberately free of ``repro`` imports: operators are
classified by class name and the builder duck-types DSQL steps and
execution stats, so every layer (DSQL generation, the interpreter, the
DMS runtime, the session) can import it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "operator_kind",
    "OperatorEstimate",
    "fragment_operator_estimates",
    "OperatorObserver",
    "SkewStats",
    "skew_stats",
    "q_error",
    "QErrorSummary",
    "summarize_q_errors",
    "OperatorProfile",
    "StepProfile",
    "QueryProfile",
    "QueryEvent",
    "Transfer",
    "build_query_profile",
    "step_profile",
]

CONTROL_NODE = -1

# Logical operator classes worth profiling, by class name (avoids an
# algebra import).  Projects are deliberately absent: QRel SQL generation
# wraps every derived table in a rename-projection, so they exist on the
# executed tree in numbers unrelated to the winning plan and never change
# cardinality.
_OPERATOR_KINDS = {
    "LogicalGet": "Get",
    "LogicalSelect": "Select",
    "LogicalJoin": "Join",
    "LogicalGroupBy": "GroupBy",
    "LogicalUnionAll": "UnionAll",
}


def operator_kind(op: object) -> Optional[str]:
    """Profileable kind of a logical operator, else ``None``."""
    return _OPERATOR_KINDS.get(type(op).__name__)


@dataclass(frozen=True)
class OperatorEstimate:
    """One operator of a winning-plan fragment: the optimizer's view.

    ``per_node`` marks operators whose entire input is replicated: every
    executing node computes the same full result, so the estimate
    describes *each node's* output rather than the per-node sum.
    """

    kind: str
    label: str
    rows: float
    per_node: bool = False


def _reads_replicated_table(op) -> bool:
    """Duck-typed: does this Get scan a replicated (or control-node)
    table?  Such scans yield their full cardinality on every node."""
    table = getattr(op, "table", None)
    dist = getattr(table, "distribution", None)
    kind = getattr(dist, "kind", None)
    return getattr(kind, "name", "") in ("REPLICATED", "ON_CONTROL",
                                         "SINGLE_NODE")


def fragment_operator_estimates(root) -> List[OperatorEstimate]:
    """Postorder per-operator cardinality estimates of a plan fragment.

    ``root`` is a :class:`repro.algebra.physical.PlanNode` whose ``op``
    objects are logical operators (the shape DSQL generation cuts the
    winning plan into).  The postorder matches the order in which the
    interpreter's :class:`OperatorObserver` records actuals, which is
    what lets the profiler join the two without operator identity
    surviving the SQL round-trip.
    """
    out: List[OperatorEstimate] = []

    def visit(node) -> bool:
        """Returns whether the subtree's result is fully replicated."""
        replicated = all([visit(child) for child in node.children])
        kind = operator_kind(node.op)
        if kind == "Get":
            replicated = _reads_replicated_table(node.op)
        if kind is not None:
            out.append(OperatorEstimate(kind, node.op.describe(),
                                        float(node.cardinality),
                                        per_node=replicated))
        return replicated

    visit(root)
    return out


class OperatorObserver:
    """Collects per-operator output row counts during interpretation.

    The interpreter calls :meth:`record` once per operator as each
    completes (postorder).  Cost when attached: one list append per
    operator — never per row; when not attached the interpreter pays a
    single ``is None`` test per operator.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: List[Tuple[str, str, int]] = []

    def record(self, op: object, rows_out: int) -> None:
        kind = operator_kind(op)
        if kind is not None:
            self.records.append((kind, op.describe(), rows_out))


# -- skew ----------------------------------------------------------------------


@dataclass(frozen=True)
class SkewStats:
    """Distribution of one quantity across nodes."""

    count: int
    max_value: float
    mean: float
    cov: float  # coefficient of variation: population stdev / mean

    @property
    def imbalance(self) -> float:
        """max/mean — 1.0 is perfectly balanced."""
        if self.mean <= 0.0:
            return 1.0
        return self.max_value / self.mean


#: The skew of no values at all.
NO_SKEW = SkewStats(count=0, max_value=0.0, mean=0.0, cov=0.0)


def skew_stats(values: Iterable[float]) -> SkewStats:
    """Max/mean/CoV of per-node values (zeros count: an idle node *is*
    skew)."""
    data = [float(v) for v in values]
    if not data:
        return NO_SKEW
    mean = sum(data) / len(data)
    if mean == 0.0:
        return SkewStats(count=len(data), max_value=max(data), mean=0.0,
                         cov=0.0)
    variance = sum((v - mean) ** 2 for v in data) / len(data)
    return SkewStats(count=len(data), max_value=max(data), mean=mean,
                     cov=math.sqrt(variance) / mean)


# -- Q-error -------------------------------------------------------------------


def q_error(estimated: float, actual: float) -> float:
    """Multiplicative estimation error ``max(est/act, act/est)`` ≥ 1.

    Both sides are floored at one row so empty results stay finite: an
    estimate of 0 against 5 actual rows scores 5.0, and 0 vs 0 scores a
    perfect 1.0.
    """
    e = max(float(estimated), 1.0)
    a = max(float(actual), 1.0)
    return e / a if e >= a else a / e


@dataclass(frozen=True)
class QErrorSummary:
    """Workload-level aggregation of Q-errors."""

    count: int
    median: float
    p95: float
    max: float


def summarize_q_errors(values: Iterable[float]) -> QErrorSummary:
    data = sorted(float(v) for v in values)
    if not data:
        return QErrorSummary(count=0, median=1.0, p95=1.0, max=1.0)
    n = len(data)
    mid = n // 2
    median = data[mid] if n % 2 else (data[mid - 1] + data[mid]) / 2.0
    p95 = data[min(n - 1, math.ceil(0.95 * n) - 1)]
    return QErrorSummary(count=n, median=median, p95=p95, max=data[-1])


# -- profile documents ---------------------------------------------------------
# Each row of a profile is its own JSONL event (repro.obs.export.EVENTS):
# a ``step`` per DSQL step and an ``operator`` per joined operator, with
# one ``query`` event (:class:`QueryEvent`) summing the profile up.


@dataclass
class OperatorProfile:
    """One executed operator: per-node actuals joined with its estimate
    — the ``operator`` event."""

    step: int
    kind: str
    label: str
    node_rows: Dict[int, int]
    actual_rows: int
    estimated_rows: Optional[float]
    q_error: Optional[float]
    skew_cov: float
    skew_imbalance: float


@dataclass(frozen=True)
class Transfer:
    """One cell of a step's transfer matrix."""

    src: int
    dst: int
    rows: int
    bytes: int


@dataclass
class StepProfile:
    """One DSQL step: movement accounting, skew, transfer matrix — the
    ``step`` event.

    The one place a step's estimates meet its actuals: EXPLAIN ANALYZE
    and ``repro profile`` read their step rows off :func:`step_profile`,
    which :func:`build_query_profile` extends with the per-node columns
    (left empty by :func:`step_profile`).  The Query Store folds the
    same columns per call from each template step's estimates, kept on
    the template, and the step's stats."""

    step: int
    kind: str           # "DMS" or "Return"
    operation: str
    estimated_rows: float
    actual_rows: int
    estimated_bytes: float
    actual_bytes: int
    estimated_seconds: float
    actual_seconds: float
    q_error: float
    source_rows: Dict[int, int] = field(default_factory=dict)
    source_skew_cov: float = NO_SKEW.cov
    source_skew_imbalance: float = NO_SKEW.imbalance
    received_bytes: Dict[int, int] = field(default_factory=dict)
    receive_skew_cov: float = NO_SKEW.cov
    #: The transfer matrix's cells, ordered by (src, dst).
    transfers: Tuple[Transfer, ...] = ()


@dataclass
class QueryProfile:
    """The complete profile of one executed query."""

    sql: str
    node_count: int
    steps: List[StepProfile]
    operators: List[OperatorProfile]
    elapsed_seconds: float
    dms_seconds: float

    def step_q_errors(self) -> List[float]:
        return [step.q_error for step in self.steps]

    def operator_q_errors(self) -> List[float]:
        return [op.q_error for op in self.operators
                if op.q_error is not None]

    def q_error_summary(self) -> QErrorSummary:
        """Aggregated over every joined operator plus every step."""
        return summarize_q_errors(self.operator_q_errors()
                                  + self.step_q_errors())

    def event(self) -> "QueryEvent":
        summary = self.q_error_summary()
        return QueryEvent(
            sql=self.sql,
            node_count=self.node_count,
            steps=len(self.steps),
            elapsed_seconds=self.elapsed_seconds,
            dms_seconds=self.dms_seconds,
            q_error_count=summary.count,
            q_error_median=summary.median,
            q_error_p95=summary.p95,
            q_error_max=summary.max,
        )


@dataclass(frozen=True)
class QueryEvent:
    """The ``query`` event: the profile's counts, not its lists."""

    sql: str
    node_count: int
    steps: int
    elapsed_seconds: float
    dms_seconds: float
    q_error_count: int
    q_error_median: float
    q_error_p95: float
    q_error_max: float


# -- builder -------------------------------------------------------------------


def build_query_profile(steps: Sequence, step_stats: Sequence, *,
                        node_count: int, sql: str = "",
                        elapsed_seconds: float = 0.0,
                        dms_seconds: float = 0.0) -> QueryProfile:
    """Join DSQL steps (estimates) with execution stats (actuals).

    ``steps`` are :class:`repro.pdw.dsql.DsqlStep` and ``step_stats``
    :class:`repro.appliance.dms_runtime.StepExecutionStats` — duck-typed
    here to keep this module import-free.  The stats must come from a
    profiled run (``DsqlRunner.run(plan, profile=True)``) for operator
    actuals and transfer matrices to be present; otherwise only the
    step-level columns are populated.  ``node_count`` only zero-fills
    the received bytes of idle compute nodes.
    """
    profiles: List[StepProfile] = []
    operators: List[OperatorProfile] = []
    for step, stats in zip(steps, step_stats):
        transfers = getattr(stats, "transfers", {}) or {}
        received = _received_bytes(transfers, node_count)
        source_skew = skew_stats(stats.node_rows.values())
        profiles.append(replace(
            step_profile(step, stats),
            source_rows=dict(stats.node_rows),
            source_skew_cov=source_skew.cov,
            source_skew_imbalance=source_skew.imbalance,
            received_bytes=received,
            receive_skew_cov=skew_stats(received.values()).cov,
            transfers=tuple(Transfer(src, dst, rows, nbytes)
                            for (src, dst), (rows, nbytes) in
                            sorted(transfers.items()))))
        operators += _join_operators(step, stats)
    return QueryProfile(
        sql=sql,
        node_count=node_count,
        steps=profiles,
        operators=operators,
        elapsed_seconds=elapsed_seconds,
        dms_seconds=dms_seconds,
    )


def step_profile(step, stats) -> StepProfile:
    """Join one DSQL step's estimates with its execution stats: the
    step-level columns only, without the per-node ones
    :func:`build_query_profile` adds."""
    return StepProfile(
        step=step.index,
        kind=step.kind_label,
        operation=step.label,
        estimated_rows=step.estimated_rows,
        actual_rows=stats.rows_moved,
        estimated_bytes=step.estimated_bytes,
        actual_bytes=stats.moved_bytes(),
        estimated_seconds=step.estimated_cost,
        actual_seconds=stats.elapsed_seconds,
        q_error=q_error(step.estimated_rows, stats.rows_moved),
    )


def _received_bytes(transfers: Dict[Tuple[int, int], List[int]],
                    node_count: int) -> Dict[int, int]:
    """Per-destination byte totals, zero-filling idle compute nodes.

    A node that received *nothing* from a shuffle or broadcast is the
    extreme of skew, so when any compute node received data every compute
    node appears; a pure control-node gather stays a single entry.
    """
    received: Dict[int, int] = {}
    for (_src, dst), (_rows, nbytes) in transfers.items():
        received[dst] = received.get(dst, 0) + nbytes
    if any(dst != CONTROL_NODE for dst in received):
        for node in range(node_count):
            received.setdefault(node, 0)
    return received


def _join_operators(step, stats) -> List[OperatorProfile]:
    """Fold per-node observer records into per-operator profiles and
    attach winning-plan estimates.

    Every node executed the same bound tree, so record sequences align
    positionally.  Estimates join per operator *kind* in postorder — and
    only when the executed tree has exactly as many operators of that
    kind as the plan fragment, since the SQL round-trip can in principle
    merge or synthesize operators; an unmatched kind degrades to actuals
    without Q-error rather than misattributing estimates.
    """
    node_records: Dict[int, List[Tuple[str, str, int]]] = dict(
        getattr(stats, "node_operators", {}) or {})
    if not node_records:
        return []
    lengths = {len(records) for records in node_records.values()}
    depth = min(lengths)

    profiles: List[OperatorProfile] = []
    actual_by_kind: Dict[str, List[OperatorProfile]] = {}
    for position in range(depth):
        kind = label = None
        node_rows: Dict[int, int] = {}
        total = 0
        for node, records in sorted(node_records.items()):
            rec_kind, rec_label, rows = records[position]
            if kind is None:
                kind, label = rec_kind, rec_label
            node_rows[node] = rows
            total += rows
        skew = skew_stats(node_rows.values())
        profile = OperatorProfile(
            step=step.index,
            kind=kind,
            label=label,
            node_rows=node_rows,
            actual_rows=total,
            estimated_rows=None,
            q_error=None,
            skew_cov=skew.cov,
            skew_imbalance=skew.imbalance,
        )
        profiles.append(profile)
        actual_by_kind.setdefault(kind, []).append(profile)

    estimates = list(getattr(step, "operator_estimates", ()) or ())
    estimate_by_kind: Dict[str, List[OperatorEstimate]] = {}
    for estimate in estimates:
        estimate_by_kind.setdefault(estimate.kind, []).append(estimate)
    for kind, kind_estimates in estimate_by_kind.items():
        kind_actuals = actual_by_kind.get(kind, [])
        if len(kind_actuals) != len(kind_estimates):
            continue
        for profile, estimate in zip(kind_actuals, kind_estimates):
            profile.estimated_rows = estimate.rows
            profile.label = estimate.label
            # Replicated subtrees compute the same full result on every
            # node; the estimate describes one node's output, so compare
            # against the per-node mean rather than the sum.
            actual = profile.actual_rows
            if estimate.per_node and len(profile.node_rows) > 1:
                actual = profile.actual_rows / len(profile.node_rows)
            profile.q_error = q_error(estimate.rows, actual)
    return profiles
