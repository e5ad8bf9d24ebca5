"""DMS runtime: executes data-movement steps with byte/time accounting.

This is the simulator counterpart of Figure 5's DMS operator.  Each
source node runs the step's SQL against its local DBMS (the interpreter),
packs the result rows, and routes them per the operation's tuple-routing
policy; each destination node unpacks and bulk-inserts into the step's
temp table.

Every component's processed bytes are counted per node, and a simulated
elapsed time is derived with the ground-truth λ constants and the paper's
max-composition: ``max(max(reader, network), max(writer, bulkcopy))`` over
nodes — so the calibration harness (§3.3.3) can fit λ from "targeted
performance tests" exactly as the paper describes.

Under the default ``"numpy"`` executor a step runs **once** for its
whole source group (DESIGN §5c): every node runs the same SQL over its
own fragment, so the interpreter runs it once over the fragments
stacked, the node as a leading segment, and the output — typed columns
plus the bounds that place its rows on the source nodes — is sized once
and routed once (:func:`route_group`).  Per-node rows, bytes and
ownership are read off the bounds and one source × target matrix, not
off ``n`` runs; a hash-distributed temp is stored once, in target
order, and every node holds a view of its own rows.  The data plane is
columnar end to end — only the Return step builds row tuples — and
every number in :class:`StepExecutionStats` is the oracle's, bit for
bit.

The oracle (``executor="reference"``) keeps the paper's literal shape:
each source node, in node-id order, runs the SQL on the tree-walking
interpreter and routes its own rows through the reference router's
per-row ``dict.setdefault`` accounting
(:meth:`DmsRuntime._route_batch_reference`), and the deliveries are
merged in node-id order into one row fragment per target
(:meth:`~repro.vector.np_batch.ColumnFragment.from_rows`).
Broadcast-style moves deliver one shared row list (or column fragment)
to every target under both executors — stored fragments are never
mutated — instead of materializing N copies of every row.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algebra.logical import Query, collect_gets
from repro.algebra.properties import DistKind
from repro.appliance.interpreter import InterpreterStats, PlanInterpreter
from repro.appliance.prepared import PreparedPlan, PreparedStep
from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    NodeStorage,
    batch_row_bytes,
    column_owners,
    node_for_row,
    place_rows,
    row_bytes,
)
from repro.catalog.schema import Catalog
from repro.common.errors import DmsError
from repro.common.executors import resolve_executor
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.profiler import OperatorObserver
from repro.obs.requests import NULL_REQUEST
from repro.optimizer.binder import Binder
from repro.pdw.dms import DmsOperation
from repro.pdw.dsql import DsqlPlan, DsqlStep
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    offsets,
    segment_ids,
)
from repro.vector.np_executor import NumpyInterpreter


@dataclass(frozen=True)
class GroundTruthConstants:
    """The simulator's *actual* per-byte costs, in seconds.

    The optimizer's :class:`repro.pdw.cost_model.CostConstants` are the
    *calibrated estimates* of these; by default they agree (a freshly
    calibrated appliance), and benchmarks perturb them to study model
    error.
    """

    reader_direct: float = 1.0e-8
    reader_hash: float = 1.6e-8
    network: float = 2.5e-8
    writer: float = 1.2e-8
    bulk_copy: float = 3.0e-8
    # Local SQL execution cost per row touched.  Chosen so that scanning
    # a row is cheap relative to materializing it through DMS (the
    # paper's premise: "data movement processing times tend to dominate
    # queries overall execution times in PDW due to materializing data to
    # temp tables", 3.3).
    relational_per_row: float = 2.0e-8


@dataclass
class StepExecutionStats:
    """Per-step accounting: bytes per component per node + elapsed time.

    ``node_rows`` (rows each executing node's local SQL produced) is
    always recorded — one dict store per node per step.  The remaining
    profiling fields are populated only under a profiled run
    (``DsqlRunner.run(plan, profile=True)``): ``transfers`` is the
    per-movement N×N matrix ``(source, destination) → [rows, bytes]``
    and ``node_operators`` maps each node to the postorder
    ``(kind, label, rows_out)`` records its interpreter observed.

    ``node_wall_seconds`` / ``wall_seconds`` are *measured* wall-clock
    actuals (per node and per step), unlike the simulated ``*_seconds``
    fields; they differ from run to run and are excluded from
    equivalence comparisons.
    """

    step_index: int
    operation: Optional[DmsOperation]
    reader_bytes: Dict[int, int] = field(default_factory=dict)
    network_bytes: Dict[int, int] = field(default_factory=dict)
    writer_bytes: Dict[int, int] = field(default_factory=dict)
    bulk_bytes: Dict[int, int] = field(default_factory=dict)
    rows_moved: int = 0
    relational_rows: int = 0
    movement_seconds: float = 0.0    # max-composed DMS component time
    relational_seconds: float = 0.0  # local SQL extraction time
    elapsed_seconds: float = 0.0     # movement + relational
    node_rows: Dict[int, int] = field(default_factory=dict)
    transfers: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict)
    node_operators: Dict[int, List[Tuple[str, str, int]]] = field(
        default_factory=dict)
    node_wall_seconds: Dict[int, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def component_times(self, truth: GroundTruthConstants,
                        uses_hashing: bool) -> Tuple[float, float, float, float]:
        reader_lambda = (truth.reader_hash if uses_hashing
                         else truth.reader_direct)
        reader = max(self.reader_bytes.values(), default=0) * reader_lambda
        network = max(self.network_bytes.values(), default=0) * truth.network
        writer = max(self.writer_bytes.values(), default=0) * truth.writer
        bulk = max(self.bulk_bytes.values(), default=0) * truth.bulk_copy
        return reader, network, writer, bulk

    def total_bytes(self) -> int:
        return sum(self.reader_bytes.values())


#: One routed delivery of the oracle: (target node id, rows, bytes).
#: The row list may be *shared* between targets (broadcast); it is
#: stored as it stands and never mutated.
Delivery = Tuple[int, List[Tuple], int]


def segment_sums(sizes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-node byte totals of a group output: one running sum over
    its per-row ``sizes``, read at the ``bounds``."""
    return np.diff(offsets(sizes)[bounds])


@dataclass
class GroupRouting:
    """Where one DMS step's group output went: per source (in group
    order) the bytes it read and the bytes it put on the network; per
    target that received rows, what it stores and the bytes it wrote;
    with ``transfers`` asked for, the ``(source, target) → [rows,
    bytes]`` cells that are not empty."""

    read: List[int]
    sent: List[int]
    stored: Dict[int, ColumnFragment] = field(default_factory=dict)
    received: Dict[int, int] = field(default_factory=dict)
    transfers: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict)


def route_group(operation: DmsOperation, batch: ArrayBatch,
                source_ids: List[int], sizes: np.ndarray,
                hash_index: Optional[int], node_count: int,
                transfers: bool = False) -> GroupRouting:
    """Column routing for the numpy executor, once per step: no row is
    ever assembled and no source is routed on its own.

    ``batch`` is the step's output over its whole source group, keyed
    by column position, ``batch.bounds`` placing source
    ``source_ids[k]``'s rows at ``bounds[k]:bounds[k + 1]``; ``sizes``
    its per-row byte widths (:func:`~repro.appliance.storage.
    batch_row_bytes`).  Owners come straight from the key column
    (:func:`~repro.appliance.storage.column_owners`).  A shuffle's
    rows are stored by :func:`~repro.appliance.storage.place_rows`,
    which a load's are too: gathered once into owner order by a
    *stable* sort, and the rows are source-major already, so each
    target's rows come out in source order and, within a source, in
    that source's output order — exactly the concatenation of
    per-source buckets the reference router appends.  A trim places
    the rows whose owner is their own source.  Either way the rows are
    stored once, with the targets as bounds, and every compute node
    gets its view
    (:meth:`~repro.vector.np_batch.ColumnFragment.of_node`).  The
    source × target matrix of rows and bytes is one ``bincount`` over
    ``source · n + owner`` (float64 weights sum integers below 2^53
    exactly); network bytes are its off-diagonal row sums, written
    bytes its column sums.  The moves that route a source's rows as a
    unit hand every target one shared fragment of the whole output.
    Every count is the reference router's, bit for bit; the routing
    tests pin this against :meth:`DmsRuntime._route_batch_reference`.
    """
    sources = len(source_ids)
    bounds = batch.bounds
    read = segment_sums(sizes, bounds)
    routing = GroupRouting(read=read.tolist(), sent=[0] * sources)
    if not batch.length:
        return routing
    ids = np.array(source_ids, dtype=np.int64)
    local = (ids >= 0) & (ids < node_count)  # a target among the sources

    if operation in (DmsOperation.SHUFFLE_MOVE, DmsOperation.TRIM_MOVE):
        if hash_index is None:
            raise DmsError(f"{operation.value} move without a hash column")
        owners = column_owners(batch.columns[hash_index], node_count)
        segments = segment_ids(bounds)
        cells = segments * node_count + owners
        if operation is DmsOperation.TRIM_MOVE:
            keep = owners == ids[segments]
            batch, owners = batch.compress(keep), owners[keep]
            cells, sizes = cells[keep], sizes[keep]
        shape = (sources, node_count)
        rows = np.bincount(
            cells, minlength=sources * node_count).reshape(shape)
        nbytes = np.bincount(
            cells, weights=sizes, minlength=sources * node_count
        ).astype(np.int64).reshape(shape)
        arrived = rows.sum(axis=0)
        kept_local = np.where(
            local, nbytes[np.arange(sources), np.where(local, ids, 0)], 0)
        routing.sent = (nbytes.sum(axis=1) - kept_local).tolist()
        written = nbytes.sum(axis=0).tolist()
        routing.received = {target: written[target]
                            for target in np.flatnonzero(arrived).tolist()}
        routing.stored = dict(enumerate(
            place_rows(batch, owners, node_count)))
        if transfers:
            for source, target in zip(*(axis.tolist()
                                        for axis in np.nonzero(rows))):
                routing.transfers[(source_ids[source], target)] = [
                    int(rows[source, target]), int(nbytes[source, target])]
        return routing

    if operation in (DmsOperation.BROADCAST_MOVE,
                     DmsOperation.CONTROL_NODE_MOVE,
                     DmsOperation.REPLICATED_BROADCAST):
        targets = list(range(node_count))
        routing.sent = (read * (node_count - local)).tolist()
    elif operation in (DmsOperation.PARTITION_MOVE,
                       DmsOperation.REMOTE_COPY):
        targets = [CONTROL_NODE]
        routing.sent = np.where(ids == CONTROL_NODE, 0, read).tolist()
    else:
        raise DmsError(f"unknown DMS operation {operation}")
    # One shared piece — the sources' outputs in source order, which is
    # what every target would have concatenated — no per-target copies.
    shared = ColumnFragment([ArrayBatch(batch.columns, batch.length)])
    total = int(read.sum())
    for target in targets:
        routing.stored[target] = shared
        routing.received[target] = total
    if transfers:
        for source, count, nbytes in zip(
                source_ids, batch.node_rows(sources), routing.read):
            if count:
                for target in targets:
                    routing.transfers[(source, target)] = [count, nbytes]
    return routing


def _hash_index(step: DsqlStep) -> Optional[int]:
    """Position of a move's hash column in its destination temp."""
    if step.hash_column is None:
        return None
    return step.destination_table.column_index(step.hash_column)


def _node_tables(node: NodeStorage, tables, temps, columnar: bool
                 ) -> Dict[str, object]:
    """The fragments of ``node`` one step reads: each of ``tables`` as
    stored (a table the node does not hold is left out, for the
    interpreter to report), and each ``(name read, name stored)`` temp
    of ``temps`` — as stored for the columnar executor, as rows for the
    oracle.  Each read is one atomic dict lookup: a system-view refresh
    on another thread may swap ``dm_pdw_*`` fragments meanwhile."""
    stored = node.tables
    view = {}
    for name in tables:
        fragment = stored.get(name)
        if fragment is not None:
            view[name] = fragment if columnar else node.rows(name)
    read = node.fragment if columnar else node.rows
    for name, actual in temps:
        view[name] = read(actual)
    return view


@dataclass
class _SourceRun:
    """One node's extract+route output under the oracle, merged in
    node order."""

    node_id: int
    output: List[Tuple]
    names: List[str]
    read_bytes: int
    relational_rows: int
    deliveries: List[Delivery]
    sent: int
    observer: Optional[OperatorObserver]
    wall_seconds: float


class DmsRuntime:
    """Executes DSQL steps against an :class:`Appliance`.

    ``executor`` names the node-local backend: ``"numpy"`` (the
    default, :class:`repro.vector.np_executor.NumpyInterpreter`) runs
    a step once over its whole source group and hands one column batch
    to one router (:func:`route_group`); ``"reference"`` (the oracle,
    :class:`repro.appliance.interpreter.PlanInterpreter`) runs it node
    by node, in node-id order, and routes row tuples through
    :meth:`_route_batch_reference`.

    Under the default executor a plan's steps are parsed and bound
    **once**, at the plan's first execution (:meth:`prepared`), and
    every later execution runs the prepared steps — the node DBMS of
    §2.4 keeps the compiled statement of a re-issued step.  A step of
    an execution copy (:meth:`repro.pdw.dsql.DsqlPlan.bind`, or a cached
    template stamped out by :func:`repro.service.plan_cache.
    instantiate_plan`) names its template and this execution's literal
    values and temp names; the runtime runs the template's bound tree —
    a path copy when the literals reach its slots — over exactly the
    fragments it reads, this execution's temps under the template's
    names.  A prepared plan is counted as ``exec.compile_cache_miss``
    per step when built and ``exec.compile_cache_hit`` per step when
    re-used.  The oracle parses and binds the step's rendered SQL on
    every node.
    """

    def __init__(self, appliance: Appliance,
                 truth: Optional[GroundTruthConstants] = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 executor: Optional[str] = None):
        self.appliance = appliance
        self.truth = truth or GroundTruthConstants()
        self.tracer = tracer
        self.executor = resolve_executor(executor)
        self.metrics = metrics
        # Profiled runs (DsqlRunner.run(plan, profile=True)) flip this on to
        # collect transfer matrices and per-operator actuals.
        self.profiling = False
        # The five metric families a step reports into, resolved once
        # (registration is by name under the registry lock).
        self._metric_families = None if not metrics.enabled else (
            metrics.counter(
                "pdw_step_rows_total",
                "Rows produced per source node per DSQL step",
                labelnames=("step", "op", "node")),
            metrics.counter(
                "pdw_step_reader_bytes_total",
                "Bytes read per source node per DSQL step",
                labelnames=("step", "op", "node")),
            metrics.counter(
                "pdw_dms_rows_moved_total",
                "Rows moved per DMS operation kind",
                labelnames=("op",)),
            metrics.histogram(
                "pdw_step_seconds",
                "Simulated elapsed seconds per DSQL step",
                labelnames=("op",)),
            metrics.gauge(
                "pdw_step_node_wall_seconds",
                "Measured wall-clock seconds per node task per DSQL step",
                labelnames=("step", "op", "node")),
        )
        self._prepare_lock = threading.Lock()

    def _record_movement(self, stats: StepExecutionStats,
                         operation: Optional[DmsOperation],
                         prepared: Optional[PreparedStep] = None) -> None:
        """Aggregate per-operation-kind byte/row/time counters — through
        ``prepared``'s resolved metric children when there is one."""
        tracer = self.tracer
        kind = operation.value if operation is not None else "return"
        if tracer.enabled:
            # DMS steps read every moved row on the source side; the
            # Return step only ships network bytes up to the control node.
            moved = (stats.total_bytes() if operation is not None
                     else sum(stats.network_bytes.values()))
            tracer.count("dms.rows_moved", stats.rows_moved)
            tracer.count("dms.bytes_moved", moved)
            tracer.count("dms.seconds", stats.movement_seconds)
            tracer.count(f"dms.rows.{kind}", stats.rows_moved)
            tracer.count(f"dms.bytes.{kind}", moved)
            tracer.count(f"dms.seconds.{kind}", stats.movement_seconds)
        families = self._metric_families
        if families is None:
            return
        children: Dict[Tuple[int, int], object] = {}
        if prepared is not None:
            resolved = prepared.metric_children
            if resolved is None or resolved[0] is not families:
                resolved = prepared.metric_children = (families, children)
            children = resolved[1]
        step = str(stats.step_index)

        def child(family: int, node: int):
            # A child is resolved (and so created) only when first
            # reported into: the series rendered are the ones reported.
            found = children.get((family, node))
            if found is None:
                labels = {"op": kind}
                if node is not None:
                    labels.update(step=step, node=str(node))
                found = children[(family, node)] = \
                    families[family].labels(**labels)
            return found

        for node, rows in stats.node_rows.items():
            child(0, node).inc(rows)
        for node, nbytes in stats.reader_bytes.items():
            child(1, node).inc(nbytes)
        child(2, None).inc(stats.rows_moved)
        child(3, None).observe(stats.elapsed_seconds)
        # Measured (not simulated) per-node wall clock of the
        # extract+route task — the skew a real scheduler would see
        # (under the numpy executor, the group's wall ÷ n).
        for node, wall in stats.node_wall_seconds.items():
            child(4, node).set(wall)

    # -- preparation ---------------------------------------------------------------

    def prepared(self, plan: DsqlPlan) -> PreparedPlan:
        """``plan``'s steps parsed and bound once, kept on the plan:
        built on the first call (counted a compile-cache miss per step),
        re-used after (a hit per step).  Racing first calls build
        once."""
        prepared = plan.prepared
        if prepared is None:
            with self._prepare_lock:
                prepared = plan.prepared
                if prepared is None:
                    prepared = plan.prepared = self._prepare(plan)
                    self.tracer.count("exec.compile_cache_miss",
                                      len(plan.steps))
                    return prepared
        self.tracer.count("exec.compile_cache_hit", len(plan.steps))
        return prepared

    def _prepare(self, plan: DsqlPlan) -> PreparedPlan:
        """Parse and bind every step against the appliance's tables and
        the plan's own temp tables, under the names the plan gives
        them."""
        temps = [step.destination_table for step in plan.steps
                 if step.destination_table is not None]
        catalog = Catalog(
            [table for table in self.appliance.catalog.tables()
             if not table.is_temp] + temps)
        positions = {table.name.lower(): position
                     for position, table in enumerate(temps)}
        return PreparedPlan([self._prepare_step(step, catalog, positions)
                             for step in plan.steps])

    def _prepare_step(self, step: DsqlStep, catalog: Catalog,
                      temps: Dict[str, int]) -> PreparedStep:
        query = Binder(catalog).bind(parse_query(step.sql))
        names = dict.fromkeys(get.table.name.lower()
                              for get in collect_gets(query.root))
        return PreparedStep(
            step.index, query,
            tables=tuple(name for name in names if name not in temps),
            temps=tuple((name, temps[name]) for name in names
                        if name in temps),
            sources=tuple(node.node_id for node in self._source_nodes(step)),
            hash_index=_hash_index(step))

    def _group(self, step: DsqlStep
               ) -> Tuple[PreparedStep, Query, List[NodeStorage],
                          List[Dict[str, object]]]:
        """What the numpy executor runs for one execution of ``step``:
        its prepared step, the tree with this execution's literals, the
        source nodes and, per source node, the fragments the tree reads
        — this execution's temps under the names the tree reads them
        by.  A step outside any plan execution (no binding) is bound as
        its SQL stands, temps under their own names."""
        binding = step.binding
        if binding is None:
            prepared = self._prepare_step(step, self.appliance.catalog, {})
            query, temps = prepared.query, ()
        else:
            template = binding.template
            prepared = (template.prepared
                        or self.prepared(template)).steps[step.index]
            query = prepared.bound_query(binding.literals)
            temps = [(name, binding.temps[position])
                     for name, position in prepared.temps]
        sources = [self.appliance.node_storage(node_id)
                   for node_id in prepared.sources]
        return prepared, query, sources, [
            _node_tables(node, prepared.tables, temps, columnar=True)
            for node in sources]

    # -- node-local SQL ------------------------------------------------------------

    def run_sql_on_node(self, sql: str, node: NodeStorage,
                        stats: Optional[InterpreterStats] = None,
                        observer: Optional[OperatorObserver] = None
                        ) -> Tuple[List[Tuple], List[str]]:
        """Parse, bind and execute a step's SQL on one node."""
        interpreter, query = self._interpreter(sql, node, stats, observer)
        return interpreter.run_query(query), query.output_names

    def _interpreter(self, sql: str, node: NodeStorage,
                     stats: Optional[InterpreterStats], observer):
        """This executor's interpreter over the fragments of ``node``
        that ``sql`` reads (the numpy one as a group of one), and the
        step's tree bound afresh for it to run."""
        query = Binder(self.appliance.catalog).bind(parse_query(sql))
        names = dict.fromkeys(get.table.name.lower()
                              for get in collect_gets(query.root))
        columnar = self.executor == "numpy"
        tables = _node_tables(node, names, (), columnar)
        if columnar:
            return NumpyInterpreter([tables], stats, observer), query
        return PlanInterpreter(tables, stats, observer), query

    def _source_nodes(self, step: DsqlStep) -> List[NodeStorage]:
        location = step.source_location
        operation = step.movement.operation if step.movement else None
        if location.kind is DistKind.ON_CONTROL:
            return [self.appliance.control]
        if location.kind is DistKind.REPLICATED:
            if operation is DmsOperation.TRIM_MOVE:
                return list(self.appliance.compute)
            return [self.appliance.compute[0]]
        if location.kind is DistKind.SINGLE_NODE:
            return [self.appliance.compute[0]]
        return list(self.appliance.compute)

    # -- movement execution -----------------------------------------------------------

    def _run_sources(self, step: DsqlStep,
                     hash_index: Optional[int],
                     request=NULL_REQUEST) -> List[_SourceRun]:
        """Run extract+route for every source node of a step, one node
        at a time in source-node order — the oracle.  ``request``
        receives one ``node_done`` progress report per source node as
        it finishes — the live feed behind ``sys.dm_pdw_dms_workers``."""
        node_count = self.appliance.node_count
        operation = step.movement.operation if step.movement else None
        profiling = self.profiling

        def run_one(source: NodeStorage) -> _SourceRun:
            started = time.perf_counter()
            sql_stats = InterpreterStats()
            observer = OperatorObserver() if profiling else None
            interpreter, query = self._interpreter(
                step.sql, source, sql_stats, observer)
            source_id = source.node_id
            output = interpreter.run_query(query)
            if operation is None and source_id == CONTROL_NODE:
                sizes_total = 0  # already at the control node
            else:
                sizes = [row_bytes(r) for r in output]
                sizes_total = sum(sizes)
            if operation is None:
                # Return step: no routing, only network accounting.
                deliveries: List[Delivery] = []
                sent = sizes_total
            else:
                # The one sizing pass above serves reader, network and
                # writer accounting alike.
                deliveries, sent = self._route_batch_reference(
                    operation, output, sizes, hash_index,
                    node_count, source_id)
            run = _SourceRun(
                node_id=source_id,
                output=output,
                names=query.output_names,
                read_bytes=sizes_total,
                relational_rows=(sql_stats.rows_scanned
                                 + sql_stats.rows_processed),
                deliveries=deliveries,
                sent=sent,
                observer=observer,
                wall_seconds=time.perf_counter() - started,
            )
            if request.enabled:
                request.node_done(step.index, source_id, len(output),
                                  sizes_total, run.wall_seconds)
            return run

        return [run_one(source) for source in self._source_nodes(step)]

    def _run_group(self, step: DsqlStep, stats: StepExecutionStats
                   ) -> Tuple[ArrayBatch, List[str], PreparedStep]:
        """Run a step's prepared tree once over its whole source group —
        the numpy executor.  Returns the output as positional columns
        with one segment per source (a node-invariant output spelled out
        per source: each of them holds it), the output names and the
        prepared step; records on ``stats`` what the interpreter
        counted, ``node_rows`` keyed by source node id in source
        order."""
        prepared, query, sources, tables = self._group(step)
        source_ids = [source.node_id for source in sources]
        sql_stats = InterpreterStats()
        observers = ([OperatorObserver() for _ in sources]
                     if self.profiling else None)
        interpreter = NumpyInterpreter(tables, sql_stats, observers)
        output = interpreter.run_columns(query).segmented(len(sources))
        stats.relational_rows = (sql_stats.rows_scanned
                                 + sql_stats.rows_processed)
        stats.rows_moved = output.length
        stats.node_rows = dict(zip(source_ids,
                                   output.node_rows(len(sources))))
        if observers is not None:
            stats.node_operators = {
                source_id: observer.records
                for source_id, observer in zip(source_ids, observers)}
        return output, query.output_names, prepared

    def _report_nodes(self, stats: StepExecutionStats, read: List[int],
                      started: float, request) -> None:
        """Per-node wall clock and progress of a group step: the nodes
        ran as one, so each is reported the group's wall time ÷ n."""
        share = (time.perf_counter() - started) / len(read)
        for (source_id, rows), nbytes in zip(stats.node_rows.items(),
                                             read):
            stats.node_wall_seconds[source_id] = share
            if request.enabled:
                request.node_done(stats.step_index, source_id, rows,
                                  nbytes, share)

    def execute_movement(self, step: DsqlStep,
                         request=NULL_REQUEST) -> StepExecutionStats:
        if step.movement is None or step.destination_table is None:
            raise DmsError(f"step {step.index} is not a DMS step")
        started = time.perf_counter()
        movement = step.movement
        self.appliance.create_temp_table(step.destination_table)

        stats = StepExecutionStats(step.index, movement.operation)
        prepared = None
        if self.executor == "numpy":
            prepared = self._move_group(step, stats, started, request)
        else:
            self._move_rows(step, stats, _hash_index(step), request)

        reader, network, writer, bulk = stats.component_times(
            self.truth, movement.operation.uses_hashing)
        stats.movement_seconds = max(max(reader, network),
                                     max(writer, bulk))
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.wall_seconds = time.perf_counter() - started
        self._record_movement(stats, movement.operation, prepared)
        return stats

    def _move_group(self, step: DsqlStep, stats: StepExecutionStats,
                    started: float, request) -> PreparedStep:
        """The numpy executor's move: one run, one sizing pass, one
        router for the whole source group; the accounting is read off
        the router's source × target sums."""
        output, _, prepared = self._run_group(step, stats)
        source_ids = list(stats.node_rows)
        routing = route_group(
            step.movement.operation, output, source_ids,
            batch_row_bytes(output), prepared.hash_index,
            self.appliance.node_count, transfers=self.profiling)
        stats.reader_bytes = dict(zip(source_ids, routing.read))
        stats.network_bytes = {
            source_id: sent
            for source_id, sent in zip(source_ids, routing.sent) if sent}
        stats.writer_bytes = dict(routing.received)
        stats.bulk_bytes = dict(routing.received)
        stats.transfers = routing.transfers
        name = step.destination_table.name
        for target_id, fragment in routing.stored.items():
            self.appliance.node_storage(target_id).store(name, fragment)
        self._report_nodes(stats, routing.read, started, request)
        return prepared

    def _move_rows(self, step: DsqlStep, stats: StepExecutionStats,
                   hash_index: Optional[int], request) -> None:
        """The oracle's move: every source routed on its own, the
        deliveries merged in source-node order."""
        destination = step.destination_table
        received: Dict[int, List[List[Tuple]]] = {}
        received_bytes: Dict[int, int] = {}
        profiling = self.profiling

        for run in self._run_sources(step, hash_index, request):
            source_id = run.node_id
            stats.relational_rows += run.relational_rows
            stats.reader_bytes[source_id] = (
                stats.reader_bytes.get(source_id, 0) + run.read_bytes)
            stats.node_rows[source_id] = (
                stats.node_rows.get(source_id, 0) + len(run.output))
            stats.rows_moved += len(run.output)
            stats.node_wall_seconds[source_id] = (
                stats.node_wall_seconds.get(source_id, 0.0)
                + run.wall_seconds)
            if run.observer is not None:
                stats.node_operators[source_id] = run.observer.records
            for target_id, batch, batch_bytes in run.deliveries:
                received.setdefault(target_id, []).append(batch)
                received_bytes[target_id] = (
                    received_bytes.get(target_id, 0) + batch_bytes)
                if profiling:
                    entry = stats.transfers.get((source_id, target_id))
                    if entry is None:
                        stats.transfers[(source_id, target_id)] = [
                            len(batch), batch_bytes]
                    else:
                        entry[0] += len(batch)
                        entry[1] += batch_bytes
            if run.sent:
                stats.network_bytes[source_id] = (
                    stats.network_bytes.get(source_id, 0) + run.sent)

        for target_id, batches in received.items():
            incoming = received_bytes[target_id]
            stats.writer_bytes[target_id] = incoming
            stats.bulk_bytes[target_id] = incoming
            # A single batch (a broadcast's shared list, a lone shuffle
            # bucket) is stored as it stands, never copied.
            rows = (batches[0] if len(batches) == 1
                    else [row for batch in batches for row in batch])
            self.appliance.node_storage(target_id).store(
                destination.name, ColumnFragment.from_rows(rows))

    def _route_batch_reference(self, operation: DmsOperation,
                               rows: List[Tuple], sizes: List[int],
                               hash_index: Optional[int],
                               node_count: int, source_id: int
                               ) -> Tuple[List[Delivery], int]:
        """Reference tuple routing: per-row dict accounting, one source
        at a time.  :func:`route_group` is held to it, bit for bit, by
        the routing tests and on the full TPC-H workload."""
        if not rows:
            return [], 0

        if operation is DmsOperation.SHUFFLE_MOVE:
            if hash_index is None:
                raise DmsError("shuffle move without a hash column")
            hash_indexes = [hash_index]
            buckets: Dict[int, List[Tuple]] = {}
            bucket_bytes: Dict[int, int] = {}
            for row, size in zip(rows, sizes):
                owner = node_for_row(row, hash_indexes, node_count)
                buckets.setdefault(owner, []).append(row)
                bucket_bytes[owner] = bucket_bytes.get(owner, 0) + size
            sent = 0
            deliveries: List[Delivery] = []
            for owner, batch in buckets.items():
                deliveries.append((owner, batch, bucket_bytes[owner]))
                if owner != source_id:
                    sent += bucket_bytes[owner]
            return deliveries, sent

        if operation is DmsOperation.TRIM_MOVE:
            if hash_index is None:
                raise DmsError("trim move without a hash column")
            hash_indexes = [hash_index]
            kept: List[Tuple] = []
            kept_bytes = 0
            for row, size in zip(rows, sizes):
                if node_for_row(row, hash_indexes,
                                node_count) == source_id:
                    kept.append(row)
                    kept_bytes += size
            if kept:
                return [(source_id, kept, kept_bytes)], 0
            return [], 0  # trimmed rows never leave their node

        if operation in (DmsOperation.BROADCAST_MOVE,
                         DmsOperation.CONTROL_NODE_MOVE,
                         DmsOperation.REPLICATED_BROADCAST):
            total = sum(sizes)
            deliveries = [(target_id, rows, total)
                          for target_id in range(node_count)]
            remote_targets = node_count - (
                1 if 0 <= source_id < node_count else 0)
            return deliveries, total * remote_targets

        if operation in (DmsOperation.PARTITION_MOVE,
                         DmsOperation.REMOTE_COPY):
            total = sum(sizes)
            return ([(CONTROL_NODE, rows, total)],
                    0 if source_id == CONTROL_NODE else total)

        raise DmsError(f"unknown DMS operation {operation}")

    # -- return step --------------------------------------------------------------------

    def execute_return(self, step: DsqlStep,
                       request=NULL_REQUEST) -> Tuple[List[Tuple], List[str],
                                                      StepExecutionStats]:
        """Run the final Return SQL and gather rows at the control node."""
        started = time.perf_counter()
        stats = StepExecutionStats(step.index, None)
        profiling = self.profiling
        prepared = None
        if self.executor == "numpy":
            output, names, prepared = self._run_group(step, stats)
            source_ids = list(stats.node_rows)
            if source_ids == [CONTROL_NODE]:
                read = [0]  # already at the control node
            else:
                read = segment_sums(batch_row_bytes(output),
                                    output.bounds).tolist()
                stats.network_bytes = dict(zip(source_ids, read))
            if profiling:
                for (source_id, count), nbytes in zip(
                        stats.node_rows.items(), read):
                    stats.transfers[(source_id, CONTROL_NODE)] = [
                        count, nbytes]
            # The one place a column batch becomes tuples: the sources'
            # rows in source order.
            rows = output.rows()
            self._report_nodes(stats, read, started, request)
        else:
            rows = []
            names: List[str] = []
            for run in self._run_sources(step, None, request):
                source_id = run.node_id
                stats.relational_rows += run.relational_rows
                if source_id != CONTROL_NODE:
                    stats.network_bytes[source_id] = run.read_bytes
                stats.node_rows[source_id] = len(run.output)
                stats.node_wall_seconds[source_id] = (
                    stats.node_wall_seconds.get(source_id, 0.0)
                    + run.wall_seconds)
                if run.observer is not None:
                    stats.node_operators[source_id] = run.observer.records
                if profiling:
                    stats.transfers[(source_id, CONTROL_NODE)] = [
                        len(run.output),
                        stats.network_bytes.get(source_id, 0),
                    ]
                rows.extend(run.output)
                names = run.names
            stats.rows_moved = len(rows)
        stats.movement_seconds = max(
            stats.network_bytes.values(), default=0) * self.truth.network
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.wall_seconds = time.perf_counter() - started
        self._record_movement(stats, None, prepared)
        return rows, names, stats
