"""Unit tests for repro.obs.profiler: skew math, Q-error, the join."""

import math

from repro.appliance.dms_runtime import StepExecutionStats
from repro.obs.profiler import (
    CONTROL_NODE,
    OperatorEstimate,
    OperatorObserver,
    Transfer,
    build_query_profile,
    fragment_operator_estimates,
    operator_kind,
    q_error,
    skew_stats,
    step_profile,
    summarize_q_errors,
)
from repro.pdw.dsql import DsqlStep


class TestSkewStats:
    def test_balanced_distribution(self):
        stats = skew_stats([10, 10, 10, 10])
        assert stats.cov == 0.0
        assert stats.imbalance == 1.0
        assert stats.max_value == 10
        assert stats.mean == 10

    def test_skewed_distribution(self):
        stats = skew_stats([100, 0, 0, 0])
        assert stats.imbalance == 4.0  # max/mean = 100/25
        assert stats.cov == math.sqrt(3)  # population stdev 43.3 / mean 25

    def test_zeros_count_as_skew(self):
        # An idle node is the extreme of skew, not missing data.
        with_idle = skew_stats([10, 10, 0])
        without = skew_stats([10, 10])
        assert with_idle.cov > without.cov

    def test_empty_and_all_zero(self):
        assert skew_stats([]).count == 0
        assert skew_stats([]).imbalance == 1.0
        zero = skew_stats([0, 0])
        assert zero.cov == 0.0
        assert zero.imbalance == 1.0


class TestQError:
    def test_symmetric(self):
        assert q_error(10, 100) == 10.0
        assert q_error(100, 10) == 10.0

    def test_perfect(self):
        assert q_error(42, 42) == 1.0

    def test_floors_at_one_row(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0, 5) == 5.0
        assert q_error(5, 0) == 5.0
        assert q_error(0.25, 1) == 1.0

    def test_summary_quantiles(self):
        values = [1.0, 1.0, 2.0, 4.0, 100.0]
        summary = summarize_q_errors(values)
        assert summary.count == 5
        assert summary.median == 2.0
        assert summary.p95 == 100.0
        assert summary.max == 100.0

    def test_summary_even_count_median(self):
        summary = summarize_q_errors([1.0, 3.0])
        assert summary.median == 2.0

    def test_summary_empty(self):
        summary = summarize_q_errors([])
        assert (summary.count, summary.median, summary.p95, summary.max) \
            == (0, 1.0, 1.0, 1.0)


# -- fakes mirroring the duck-typed surfaces ----------------------------------


class FakeOp:
    def __init__(self, describe="op"):
        self._describe = describe

    def describe(self):
        return self._describe


class LogicalGet(FakeOp):
    """Name chosen so operator_kind classifies it as a Get."""

    def __init__(self, describe="Get(t)", table=None):
        super().__init__(describe)
        self.table = table


class LogicalJoin(FakeOp):
    pass


class LogicalGroupBy(FakeOp):
    pass


class LogicalProject(FakeOp):
    pass


class FakeKind:
    def __init__(self, name):
        self.name = name


class FakeDistribution:
    def __init__(self, name):
        self.kind = FakeKind(name)


class FakeTable:
    def __init__(self, dist_name):
        self.distribution = FakeDistribution(dist_name)


class FakeNode:
    def __init__(self, op, children=(), cardinality=0.0):
        self.op = op
        self.children = list(children)
        self.cardinality = cardinality


class TestOperatorClassification:
    def test_profileable_kinds(self):
        assert operator_kind(LogicalGet()) == "Get"
        assert operator_kind(LogicalJoin()) == "Join"
        assert operator_kind(LogicalGroupBy()) == "GroupBy"

    def test_projects_excluded(self):
        assert operator_kind(LogicalProject()) is None
        assert operator_kind(FakeOp()) is None

    def test_observer_skips_unprofileable(self):
        observer = OperatorObserver()
        observer.record(LogicalGet("Get(a)"), 5)
        observer.record(LogicalProject(), 5)
        observer.record(LogicalJoin("Join"), 3)
        assert observer.records == [("Get", "Get(a)", 5),
                                    ("Join", "Join", 3)]


class TestFragmentEstimates:
    def test_postorder_with_projects_skipped(self):
        #      GroupBy(2)
        #        Project          <- skipped
        #          Join(10)
        #           /    \
        #   Get a(100)  Get b(4, replicated)
        tree = FakeNode(
            LogicalGroupBy("GB"),
            [FakeNode(
                LogicalProject(),
                [FakeNode(
                    LogicalJoin("J"),
                    [FakeNode(LogicalGet("Get(a)",
                                         table=FakeTable("HASHED")),
                              cardinality=100),
                     FakeNode(LogicalGet("Get(b)",
                                         table=FakeTable("REPLICATED")),
                              cardinality=4)],
                    cardinality=10)],
                cardinality=10)],
            cardinality=2)
        estimates = fragment_operator_estimates(tree)
        assert [(e.kind, e.rows, e.per_node) for e in estimates] == [
            ("Get", 100.0, False),
            ("Get", 4.0, True),
            ("Join", 10.0, False),
            ("GroupBy", 2.0, False),
        ]

    def test_fully_replicated_subtree_marks_per_node(self):
        # Join of two replicated scans runs identically on every node.
        tree = FakeNode(
            LogicalJoin("J"),
            [FakeNode(LogicalGet("Get(a)", table=FakeTable("REPLICATED")),
                      cardinality=5),
             FakeNode(LogicalGet("Get(b)", table=FakeTable("ON_CONTROL")),
                      cardinality=3)],
            cardinality=15)
        estimates = fragment_operator_estimates(tree)
        assert all(e.per_node for e in estimates)


class FakeMovement:
    def __init__(self, label="ShuffleMove(c)"):
        self._label = label

    def describe(self):
        return self._label


class FakeStep:
    def __init__(self, index, movement=None, estimated_rows=0.0,
                 estimated_bytes=0.0, estimated_cost=0.0,
                 operator_estimates=()):
        self.index = index
        self.movement = movement
        self.estimated_rows = estimated_rows
        self.estimated_bytes = estimated_bytes
        self.estimated_cost = estimated_cost
        self.operator_estimates = list(operator_estimates)

    label = DsqlStep.label
    kind_label = DsqlStep.kind_label


def FakeStats(operation=None, rows_moved=0, elapsed_seconds=0.0,
              reader_bytes=None, network_bytes=None, node_rows=None,
              transfers=None, node_operators=None):
    """A step's stats; ``operation`` is set for a DMS step's."""
    return StepExecutionStats(
        step_index=0, operation=operation, rows_moved=rows_moved,
        elapsed_seconds=elapsed_seconds,
        reader_bytes=reader_bytes or {},
        network_bytes=network_bytes or {}, node_rows=node_rows or {},
        transfers=transfers or {}, node_operators=node_operators or {})


class TestBuildQueryProfile:
    def test_step_level_join(self):
        step = FakeStep(0, movement=FakeMovement(), estimated_rows=50,
                        estimated_bytes=500, estimated_cost=0.25)
        stats = FakeStats(
            "shuffle", rows_moved=100, elapsed_seconds=0.5,
            reader_bytes={0: 600, 1: 400},
            node_rows={0: 60, 1: 40},
            transfers={(0, 1): [60, 600], (1, 0): [40, 400]},
        )
        profile = build_query_profile([step], [stats], node_count=2,
                                      sql="SELECT 1", elapsed_seconds=0.5,
                                      dms_seconds=0.4)
        assert profile.node_count == 2
        sp = profile.steps[0]
        assert sp.step == 0
        assert sp.kind == "DMS"
        assert sp.operation == "ShuffleMove(c)"
        assert sp.estimated_rows == 50
        assert sp.actual_rows == 100
        assert sp.estimated_bytes == 500
        assert sp.actual_bytes == 1000
        assert sp.estimated_seconds == 0.25
        assert sp.actual_seconds == 0.5
        assert sp.q_error == 2.0
        assert sp.source_rows == {0: 60, 1: 40}
        assert sp.received_bytes == {0: 400, 1: 600}
        assert sp.transfers == (Transfer(0, 1, 60, 600),
                                Transfer(1, 0, 40, 400))

    def test_step_profile_is_the_step_level_join(self):
        """The Query Store's row: the step-level columns of the full
        profile, without the per-node ones."""
        step = FakeStep(0, movement=FakeMovement(), estimated_rows=50,
                        estimated_bytes=500, estimated_cost=0.25)
        stats = FakeStats(
            "shuffle", rows_moved=100, elapsed_seconds=0.5,
            reader_bytes={0: 600, 1: 400}, node_rows={0: 60, 1: 40},
            transfers={(0, 1): [60, 600], (1, 0): [40, 400]})
        full = build_query_profile([step], [stats], node_count=2).steps[0]
        light = step_profile(step, stats)
        for name in ("step", "kind", "operation", "estimated_rows",
                     "actual_rows", "estimated_bytes", "actual_bytes",
                     "estimated_seconds", "actual_seconds", "q_error"):
            assert getattr(light, name) == getattr(full, name)
        assert light.source_rows == light.received_bytes == {}
        assert light.transfers == ()
        no_skew = skew_stats([])
        assert light.source_skew_cov == light.receive_skew_cov \
            == no_skew.cov
        assert light.source_skew_imbalance == no_skew.imbalance

    def test_return_step_uses_network_bytes(self):
        step = FakeStep(1, estimated_rows=3)
        stats = FakeStats(rows_moved=3, network_bytes={0: 30, 1: 12},
                          node_rows={0: 2, 1: 1})
        profile = build_query_profile([step], [stats], node_count=2)
        sp = profile.steps[0]
        assert sp.kind == "Return"
        assert sp.actual_bytes == 42

    def test_received_bytes_zero_fills_idle_compute_nodes(self):
        step = FakeStep(0, movement=FakeMovement())
        stats = FakeStats(transfers={(0, 1): [10, 100]})
        profile = build_query_profile([step], [stats], node_count=4)
        assert profile.steps[0].received_bytes == {0: 0, 1: 100, 2: 0, 3: 0}

    def test_control_gather_stays_single_entry(self):
        step = FakeStep(0)
        stats = FakeStats(
            transfers={(0, CONTROL_NODE): [5, 50],
                       (1, CONTROL_NODE): [5, 50]})
        profile = build_query_profile([step], [stats], node_count=4)
        assert profile.steps[0].received_bytes == {CONTROL_NODE: 100}

    def test_operator_join_attaches_estimates(self):
        estimates = [OperatorEstimate("Get", "Get(a)", 80.0),
                     OperatorEstimate("GroupBy", "GB", 4.0)]
        step = FakeStep(0, movement=FakeMovement(),
                        operator_estimates=estimates)
        stats = FakeStats(node_operators={
            0: [("Get", "Get(a)", 50), ("GroupBy", "GB", 2)],
            1: [("Get", "Get(a)", 30), ("GroupBy", "GB", 2)],
        })
        profile = build_query_profile([step], [stats], node_count=2)
        ops = profile.operators
        assert [(o.kind, o.actual_rows, o.estimated_rows) for o in ops] \
            == [("Get", 80, 80.0), ("GroupBy", 4, 4.0)]
        assert all(o.q_error == 1.0 for o in ops)
        assert ops[0].node_rows == {0: 50, 1: 30}

    def test_operator_join_count_mismatch_degrades(self):
        # Two Get estimates but one executed Get: actuals survive,
        # no Q-error is misattributed.
        estimates = [OperatorEstimate("Get", "Get(a)", 80.0),
                     OperatorEstimate("Get", "Get(b)", 9.0)]
        step = FakeStep(0, operator_estimates=estimates)
        stats = FakeStats(node_operators={0: [("Get", "Get(a)", 80)]})
        profile = build_query_profile([step], [stats], node_count=1)
        ops = profile.operators
        assert len(ops) == 1
        assert ops[0].estimated_rows is None
        assert ops[0].q_error is None

    def test_replicated_estimate_compares_per_node_mean(self):
        # A replicated scan yields its full cardinality on *every* node;
        # summing across 4 nodes must not score a 4x Q-error.
        estimates = [OperatorEstimate("Get", "Get(r)", 10.0, per_node=True)]
        step = FakeStep(0, operator_estimates=estimates)
        stats = FakeStats(node_operators={
            n: [("Get", "Get(r)", 10)] for n in range(4)})
        profile = build_query_profile([step], [stats], node_count=4)
        op = profile.operators[0]
        assert op.actual_rows == 40
        assert op.q_error == 1.0

    def test_unprofiled_stats_yield_step_level_only(self):
        # Stats from a plain (profile=False) run: no observers, no
        # transfer matrix — the profile degrades to step-level columns.
        step = FakeStep(0, movement=FakeMovement(), estimated_rows=10)
        stats = FakeStats(rows_moved=10)
        profile = build_query_profile([step], [stats], node_count=2)
        sp = profile.steps[0]
        assert profile.operators == []
        assert sp.transfers == ()
        assert sp.q_error == 1.0

    def test_q_error_summary_spans_steps_and_operators(self):
        estimates = [OperatorEstimate("Get", "Get(a)", 100.0)]
        step = FakeStep(0, movement=FakeMovement(), estimated_rows=20,
                        operator_estimates=estimates)
        stats = FakeStats(rows_moved=10,
                          node_operators={0: [("Get", "Get(a)", 50)]})
        profile = build_query_profile([step], [stats], node_count=1)
        summary = profile.q_error_summary()
        assert summary.count == 2  # one operator + one step
        assert summary.max == 2.0
