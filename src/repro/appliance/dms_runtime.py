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

Node parallelism (§2.1, §2.4): with ``parallel=True`` the per-node
extract+route work of a step runs on a thread pool (one worker per
node), and routing uses the fast path — a single fused pass per source
batch that sizes each row, hashes it once and appends it into a
preallocated per-target bucket table.  Results are merged in node-id
order, so rows, stats and profiles are identical to the serial backend;
the serial path keeps the original per-row ``dict.setdefault``
accounting as the reference implementation.  Broadcast-style moves
deliver one shared row list to every target in **both** modes (the
destination node copies only if it later mutates), instead of
materializing N copies of every row.

Under the default ``"numpy"`` executor the data plane is columnar end
to end: a step's output leaves the kernels as typed columns, is sized,
hashed and split a column at a time (:func:`route_batch_columns`), and
lands in the destination node as the column pieces the next step's
scan reads.  Only the Return step builds row tuples.  Every number in
:class:`StepExecutionStats` is the row path's, bit for bit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.algebra.logical import Query
from repro.algebra.properties import DistKind
from repro.appliance.interpreter import InterpreterStats, PlanInterpreter
from repro.appliance.scheduler import WorkerPool, resolve_parallel
from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    NodeStorage,
    batch_row_bytes,
    column_owners,
    node_for_row,
    pdw_hash,
    row_bytes,
)
from repro.common.errors import DmsError
from repro.common.executors import resolve_executor
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.profiler import OperatorObserver
from repro.obs.requests import NULL_REQUEST
from repro.optimizer.binder import Binder
from repro.pdw.dms import DmsOperation
from repro.pdw.dsql import DsqlStep, canonical_step_sql
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer
from repro.vector.executor import VectorInterpreter
from repro.vector.np_batch import ArrayBatch, ColumnFragment
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
    actuals (per node-task and per step), unlike the simulated
    ``*_seconds`` fields; they differ between the serial and parallel
    backends and are excluded from equivalence comparisons.
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


@dataclass
class _CachedStep:
    """A step's SQL parsed + bound once, reusable on every node and by
    every later execution of the same plan."""

    query: Query
    #: Lower-cased temp-table names the tree was bound to, in
    #: :func:`canonical_step_sql` order; a later execution reads its
    #: own temps under these names.
    temps: Tuple[str, ...]


# Bounded so a long-lived session executing many distinct queries cannot
# grow the cache without limit (steps are tiny; the bound trees are not).
_STEP_CACHE_LIMIT = 256


#: One routed delivery: (target node id, batch, batch bytes).  The batch
#: is a row list, or under the numpy executor a positional
#: :class:`ArrayBatch`; either may be *shared* between targets
#: (broadcast) — consumers must treat it as immutable and go through
#: ``NodeStorage.adopt`` / ``insert`` which copy on mutation.
Batch = Union[List[Tuple], ArrayBatch]
Delivery = Tuple[int, Batch, int]


def _deliver_whole_batch(operation: DmsOperation, batch: Batch,
                         total: int, node_count: int, source_id: int
                         ) -> Tuple[List[Delivery], int]:
    """The moves that route a source's batch as a unit (``total`` is
    its byte size): one shared batch to every compute node, or the
    batch to the control node."""
    if operation in (DmsOperation.BROADCAST_MOVE,
                     DmsOperation.CONTROL_NODE_MOVE,
                     DmsOperation.REPLICATED_BROADCAST):
        # One shared batch for every target — no per-target copies.
        deliveries = [(target_id, batch, total)
                      for target_id in range(node_count)]
        remote_targets = node_count - (
            1 if 0 <= source_id < node_count else 0)
        return deliveries, total * remote_targets

    if operation in (DmsOperation.PARTITION_MOVE,
                     DmsOperation.REMOTE_COPY):
        return ([(CONTROL_NODE, batch, total)],
                0 if source_id == CONTROL_NODE else total)

    raise DmsError(f"unknown DMS operation {operation}")


def route_batch_fast(operation: DmsOperation, rows: List[Tuple],
                     sizes: List[int], hash_index: Optional[int],
                     node_count: int, source_id: int
                     ) -> Tuple[List[Delivery], int]:
    """Shuffle routing fast path: pure per-source tuple routing.

    One pass over the batch appends each row into a preallocated
    per-target bucket table (no per-row ``dict.setdefault`` / ``get``),
    with byte totals summed per bucket; broadcast-style moves deliver a
    single shared row list to every target.  Returns the per-target
    deliveries plus the bytes this source puts on the network (rows
    routed to a node other than itself).  Byte/row accounting is
    bit-identical to :meth:`DmsRuntime._route_batch_reference`.
    """
    if not rows:
        return [], 0

    if operation is DmsOperation.SHUFFLE_MOVE:
        if hash_index is None:
            raise DmsError("shuffle move without a hash column")
        buckets: List[List[Tuple]] = [[] for _ in range(node_count)]
        bucket_bytes = [0] * node_count
        for row, size in zip(rows, sizes):
            owner = pdw_hash(row[hash_index]) % node_count
            buckets[owner].append(row)
            bucket_bytes[owner] += size
        deliveries = [
            (owner, buckets[owner], bucket_bytes[owner])
            for owner in range(node_count) if buckets[owner]
        ]
        sent = sum(
            bucket_bytes[owner] for owner in range(node_count)
            if buckets[owner] and owner != source_id
        )
        return deliveries, sent

    if operation is DmsOperation.TRIM_MOVE:
        if hash_index is None:
            raise DmsError("trim move without a hash column")
        kept: List[Tuple] = []
        kept_bytes = 0
        for row, size in zip(rows, sizes):
            if pdw_hash(row[hash_index]) % node_count == source_id:
                kept.append(row)
                kept_bytes += size
        if kept:
            return [(source_id, kept, kept_bytes)], 0
        return [], 0  # trimmed rows never leave their node

    return _deliver_whole_batch(operation, rows, sum(sizes),
                                node_count, source_id)


def route_batch_columns(operation: DmsOperation, batch: ArrayBatch,
                        sizes: np.ndarray, hash_index: Optional[int],
                        node_count: int, source_id: int
                        ) -> Tuple[List[Delivery], int]:
    """Column routing for the numpy backend: no row is ever assembled.

    ``batch`` is a step's output keyed by column position and ``sizes``
    its per-row byte widths (:func:`~repro.appliance.storage.
    batch_row_bytes`).  Owners come straight from the key column
    (:func:`~repro.appliance.storage.column_owners`); a shuffle gathers
    every column once into owner order — a *stable* sort, so each
    target's rows keep their source order exactly as the row routers'
    bucket appends do — and delivers contiguous slices of the gathered
    arrays, with bucket byte totals read off one running sum; a trim
    compresses by the owner mask.  Deliveries, their order and every
    byte count are bit-identical to the row routers; the routing tests
    pin this one against :meth:`DmsRuntime._route_batch_reference`.
    """
    if not batch.length:
        return [], 0

    if operation in (DmsOperation.SHUFFLE_MOVE, DmsOperation.TRIM_MOVE):
        if hash_index is None:
            raise DmsError(f"{operation.value} move without a hash column")
        owners = column_owners(batch.columns[hash_index], node_count)

        if operation is DmsOperation.TRIM_MOVE:
            keep = owners == source_id
            if not keep.any():
                return [], 0  # trimmed rows never leave their node
            return [(source_id, batch.compress(keep).gathered(),
                     int(sizes[keep].sum()))], 0

        order = np.argsort(owners, kind="stable")
        gathered = batch.take(order)
        running = np.concatenate(([0], np.cumsum(sizes[order]))).tolist()
        stops = np.cumsum(np.bincount(owners, minlength=node_count))
        deliveries: List[Delivery] = []
        sent = start = 0
        for owner, stop in enumerate(stops.tolist()):
            if stop > start:
                nbytes = running[stop] - running[start]
                deliveries.append(
                    (owner, gathered.slice(start, stop), nbytes))
                if owner != source_id:
                    sent += nbytes
                start = stop
        return deliveries, sent

    return _deliver_whole_batch(operation, batch, int(sizes.sum()),
                                node_count, source_id)


@dataclass
class _SourceRun:
    """One node's extract+route output, merged in node order."""

    node_id: int
    #: What the node's SQL produced: row tuples — or, for a DMS step
    #: under the numpy executor, the column batch (the merge reads only
    #: its length; its rows never exist).
    output: Batch
    names: List[str]
    read_bytes: int
    relational_rows: int
    deliveries: List[Delivery]
    sent: int
    observer: Optional[OperatorObserver]
    wall_seconds: float


class DmsRuntime:
    """Executes DSQL steps against an :class:`Appliance`.

    Each DSQL step's SQL text is parsed and bound **once** and the
    bound plan is re-run against every node's local tables — the node
    DBMS of §2.4 keeps the compiled statement of a re-issued step.  The
    bound tree is keyed on the step text with per-execution temp names
    canonicalised (:func:`repro.pdw.dsql.canonical_step_sql`) plus the
    column signature of every temp table the step reads, and a later
    execution reads its own temps through aliases in the per-node table
    snapshot; so a re-executed plan re-uses the tree and, through the
    expression-identity memos, its compiled kernels, while the same
    text over a different temp schema binds afresh.  Only the reference
    backend (``executor="reference"`` / ``compiled=False``) re-parses
    per node.  Cache effectiveness is observable through the
    ``exec.compile_cache_hit`` / ``exec.compile_cache_miss`` telemetry
    counters.

    ``parallel`` selects the runtime backend (default serial; the
    ``REPRO_PARALLEL_RUNTIME`` environment variable overrides the
    default): with it on, every source node's extract+route work runs
    on a thread pool sized to the appliance's node count and routing
    takes the fast path (:func:`route_batch_fast`).  The bind cache is
    lock-guarded, so worker threads share it safely.

    ``executor`` names the node-local backend outright ("reference",
    "compiled", "vectorized", "numpy"); when not given, the legacy
    ``compiled`` boolean picks the reference interpreter or the
    default, ``"numpy"``: the typed-ndarray interpreter
    (:class:`repro.vector.np_executor.NumpyInterpreter`), whose DMS
    steps move typed columns from its kernels to the next step's scan
    (:func:`route_batch_columns`) in both runtime modes.  The other
    three backends move row tuples: ``"vectorized"``
    (:class:`repro.vector.VectorInterpreter`) always through
    :func:`route_batch_fast`, the two row-at-a-time backends through it
    under the parallel runtime and through the reference router on the
    serial walk.
    """

    def __init__(self, appliance: Appliance,
                 truth: Optional[GroundTruthConstants] = None,
                 tracer: Tracer = NULL_TRACER,
                 compiled: bool = True,
                 metrics: MetricsRegistry = NULL_METRICS,
                 parallel: Optional[bool] = None,
                 executor: Optional[str] = None):
        self.appliance = appliance
        self.truth = truth or GroundTruthConstants()
        self.tracer = tracer
        # ``executor`` is canonical; the legacy boolean is re-derived
        # from it so the step bind cache keeps its contract (only the
        # reference backend re-parses per node).
        self.executor = resolve_executor(executor, compiled)
        self.compiled = self.executor != "reference"
        self.metrics = metrics
        self.parallel = resolve_parallel(parallel, default=False)
        # Profiled runs (DsqlRunner.run(profile=True)) flip this on to
        # collect transfer matrices and per-operator actuals.
        self.profiling = False
        self._node_pool = WorkerPool(appliance.node_count, "repro-node")
        self._cache_lock = threading.RLock()
        self._step_cache: "OrderedDict[tuple, _CachedStep]" = OrderedDict()

    def _record_movement(self, stats: StepExecutionStats,
                         operation: Optional[DmsOperation]) -> None:
        """Aggregate per-operation-kind byte/row/time counters."""
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
        metrics = self.metrics
        if metrics.enabled:
            step = str(stats.step_index)
            rows_counter = metrics.counter(
                "pdw_step_rows_total",
                "Rows produced per source node per DSQL step",
                labelnames=("step", "op", "node"))
            bytes_counter = metrics.counter(
                "pdw_step_reader_bytes_total",
                "Bytes read per source node per DSQL step",
                labelnames=("step", "op", "node"))
            for node, rows in stats.node_rows.items():
                rows_counter.labels(step=step, op=kind,
                                    node=str(node)).inc(rows)
            for node, nbytes in stats.reader_bytes.items():
                bytes_counter.labels(step=step, op=kind,
                                     node=str(node)).inc(nbytes)
            metrics.counter(
                "pdw_dms_rows_moved_total",
                "Rows moved per DMS operation kind",
                labelnames=("op",)).labels(op=kind).inc(stats.rows_moved)
            metrics.histogram(
                "pdw_step_seconds",
                "Simulated elapsed seconds per DSQL step",
                labelnames=("op",)).labels(op=kind).observe(
                    stats.elapsed_seconds)
            # Measured (not simulated) per-node wall clock of the
            # extract+route task — the skew a real scheduler would see.
            wall_gauge = metrics.gauge(
                "pdw_step_node_wall_seconds",
                "Measured wall-clock seconds per node task per DSQL step",
                labelnames=("step", "op", "node"))
            for node, wall in stats.node_wall_seconds.items():
                wall_gauge.labels(step=step, op=kind,
                                  node=str(node)).set(wall)

    # -- node-local SQL ------------------------------------------------------------

    def run_sql_on_node(self, sql: str, node: NodeStorage,
                        stats: Optional[InterpreterStats] = None,
                        observer: Optional[OperatorObserver] = None
                        ) -> Tuple[List[Tuple], List[str]]:
        """Bind (cached) and execute a step's SQL on one node."""
        interpreter, query = self._node_interpreter(sql, node, stats,
                                                    observer)
        return interpreter.run_query(query), query.output_names

    def _node_interpreter(self, sql: str, node: NodeStorage,
                          stats: Optional[InterpreterStats],
                          observer: Optional[OperatorObserver]):
        """This backend's interpreter over ``node``'s tables, and the
        step's bound tree for it to run."""
        query, temps = self._bind_step(sql)
        # Snapshot the node's table map before handing it over: a system-
        # view refresh on another thread swaps dm_pdw_* fragments in and
        # out of the live dict, and the interpreter constructors iterate
        # their input.  dict.copy() is a single atomic op; the values are
        # shared fragment references, so this costs one small dict per
        # step.
        tables = node.tables.copy()
        # The numpy backend scans a temp as stored — a column fragment
        # as it stands; the row backends read its rows.
        view = node.fragment if self.executor == "numpy" else node.rows
        for bound, actual in temps:
            tables[bound] = view(actual)
        if self.executor == "numpy":
            interpreter = NumpyInterpreter(tables, stats,
                                           observer=observer)
        elif self.executor == "vectorized":
            interpreter = VectorInterpreter(tables, stats,
                                            observer=observer)
        else:
            interpreter = PlanInterpreter(tables, stats,
                                          compiled=self.compiled,
                                          observer=observer)
        return interpreter, query

    def _bind_step(self, sql: str
                   ) -> Tuple[Query, Tuple[Tuple[str, str], ...]]:
        """The bound tree for ``sql`` plus a (name the tree reads it
        under, this execution's name) pair for every temp table the
        step reads.  Parses + binds once per canonical step text and
        temp schema; re-runs hit the cache.

        Lock-guarded: under the parallel runtime every node worker calls
        this concurrently, and the first caller must finish binding
        before the others read the entry (same hit/miss counts as the
        serial backend)."""
        catalog = self.appliance.catalog
        canonical, temps = canonical_step_sql(sql)
        if not self.compiled:
            # Reference path: re-parse per node, exactly the old cost.
            return (Binder(catalog).bind(parse_query(sql)),
                    tuple(zip(temps, temps)))
        # Two plans can emit one step text over different temp schemas.
        key = (canonical, tuple(tuple(catalog.table(name).columns)
                                for name in temps))
        with self._cache_lock:
            cached = self._step_cache.get(key)
            if cached is not None:
                self._step_cache.move_to_end(key)
                self.tracer.count("exec.compile_cache_hit")
            else:
                self.tracer.count("exec.compile_cache_miss")
                cached = _CachedStep(
                    Binder(catalog).bind(parse_query(sql)), temps)
                self._step_cache[key] = cached
                if len(self._step_cache) > _STEP_CACHE_LIMIT:
                    self._step_cache.popitem(last=False)
        return cached.query, tuple(zip(cached.temps, temps))

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
        """Run extract+route for every source node of a step.

        Under the parallel runtime the per-node tasks run concurrently
        on the node pool; results always come back in source-node order,
        so the caller's merge is deterministic either way.  ``request``
        receives one ``node_done`` progress report per source node as
        its task finishes — the live feed behind
        ``sys.dm_pdw_dms_workers``."""
        node_count = self.appliance.node_count
        operation = step.movement.operation if step.movement else None
        profiling = self.profiling
        parallel = self.parallel
        # The numpy backend moves columns, in both runtime modes.  The
        # others move rows: the fused fast path for the vectorized
        # backend and under the parallel runtime, the reference router
        # on the row-at-a-time backends' serial walk.
        columnar = self.executor == "numpy"
        if columnar:
            route = route_batch_columns
        elif self.executor == "vectorized" or parallel:
            route = route_batch_fast
        else:
            route = self._route_batch_reference

        def run_one(source: NodeStorage) -> _SourceRun:
            started = time.perf_counter()
            sql_stats = InterpreterStats()
            observer = OperatorObserver() if profiling else None
            interpreter, query = self._node_interpreter(
                step.sql, source, sql_stats, observer)
            source_id = source.node_id
            output = (interpreter.run_columns(query) if columnar
                      else interpreter.run_query(query))
            if operation is None and source_id == CONTROL_NODE:
                sizes_total = 0  # already at the control node
            elif columnar:
                sizes = batch_row_bytes(output)
                sizes_total = int(sizes.sum())
            else:
                sizes = [row_bytes(r) for r in output]
                sizes_total = sum(sizes)
            if operation is None:
                # Return step: no routing, only network accounting —
                # and the one place a column batch becomes tuples.
                if columnar:
                    output = output.rows()
                deliveries: List[Delivery] = []
                sent = sizes_total
            else:
                # The one sizing pass above serves reader, network and
                # writer accounting alike.
                deliveries, sent = route(
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

        sources = self._source_nodes(step)
        if parallel and len(sources) > 1:
            return self._node_pool.map_ordered(run_one, sources)
        return [run_one(source) for source in sources]

    def execute_movement(self, step: DsqlStep,
                         request=NULL_REQUEST) -> StepExecutionStats:
        if step.movement is None or step.destination_table is None:
            raise DmsError(f"step {step.index} is not a DMS step")
        started = time.perf_counter()
        movement = step.movement
        destination = step.destination_table
        self.appliance.create_temp_table(destination)

        stats = StepExecutionStats(step.index, movement.operation)
        hash_index = (
            destination.column_index(step.hash_column)
            if step.hash_column is not None else None
        )

        received: Dict[int, List[Batch]] = {}
        received_bytes: Dict[int, int] = {}
        profiling = self.profiling

        # Merge in source-node order — identical accounting and row
        # order whether the sources ran serially or on the pool.
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
            node = self.appliance.node_storage(target_id)
            incoming = received_bytes[target_id]
            stats.writer_bytes[target_id] = incoming
            stats.bulk_bytes[target_id] = incoming
            if self.executor == "numpy":
                # Column pieces, in source-node order; a broadcast's
                # one piece stays shared between the targets.
                node.adopt(destination.name, ColumnFragment(batches))
            elif len(batches) == 1:
                # Single batch (broadcast share, or a lone shuffle
                # bucket): alias it into storage; the node copies only
                # if it later mutates.
                node.adopt(destination.name, batches[0])
            else:
                for batch in batches:
                    node.insert(destination.name, batch)

        reader, network, writer, bulk = stats.component_times(
            self.truth, movement.operation.uses_hashing)
        stats.movement_seconds = max(max(reader, network),
                                     max(writer, bulk))
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.wall_seconds = time.perf_counter() - started
        self._record_movement(stats, movement.operation)
        return stats

    def _route_batch_reference(self, operation: DmsOperation,
                               rows: List[Tuple], sizes: List[int],
                               hash_index: Optional[int],
                               node_count: int, source_id: int
                               ) -> Tuple[List[Delivery], int]:
        """Reference tuple routing: per-row dict accounting (the serial
        backend's original code path).  Semantically identical to
        :func:`route_batch_fast`; the equivalence tests pin the two
        against each other on the full TPC-H workload."""
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
        rows: List[Tuple] = []
        names: List[str] = []
        profiling = self.profiling
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
        stats.movement_seconds = max(
            stats.network_bytes.values(), default=0) * self.truth.network
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.rows_moved = len(rows)
        stats.wall_seconds = time.perf_counter() - started
        self._record_movement(stats, None)
        return rows, names, stats
