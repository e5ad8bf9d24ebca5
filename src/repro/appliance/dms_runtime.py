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
"""

from __future__ import annotations

import operator
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.logical import Query
from repro.algebra.properties import DistKind
from repro.appliance.interpreter import InterpreterStats, PlanInterpreter
from repro.appliance.scheduler import WorkerPool, resolve_parallel
from repro.appliance.storage import (
    Appliance,
    CONTROL_NODE,
    NodeStorage,
    node_for_row,
    pdw_hash,
    row_bytes,
)
from repro.common.errors import DmsError
from repro.common.executors import effective_executor, resolve_executor
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.profiler import OperatorObserver
from repro.obs.requests import NULL_REQUEST
from repro.optimizer.binder import Binder
from repro.pdw.dms import DmsOperation
from repro.pdw.dsql import DsqlStep, canonical_step_sql
from repro.sql.parser import parse_query
from repro.telemetry import NULL_TRACER, Tracer
from repro.vector.executor import VectorInterpreter


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


#: One routed delivery: (target node id, row batch, batch bytes).  The
#: batch list may be *shared* between targets (broadcast) — consumers
#: must treat it as immutable and go through ``NodeStorage.adopt`` /
#: ``insert`` which copy on mutation.
Delivery = Tuple[int, List[Tuple], int]


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

    if operation in (DmsOperation.BROADCAST_MOVE,
                     DmsOperation.CONTROL_NODE_MOVE,
                     DmsOperation.REPLICATED_BROADCAST):
        total = sum(sizes)
        # One shared list for every target — no per-target copies.
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


def route_batch_columnar(operation: DmsOperation, rows: List[Tuple],
                         sizes: List[int], hash_index: Optional[int],
                         node_count: int, source_id: int
                         ) -> Tuple[List[Delivery], int]:
    """Column-at-a-time routing for the vectorized backend.

    The distribution key is lifted out of the row batch as one column,
    ``pdw_hash`` runs over the whole key column in a single pass, and
    the resulting owner vector drives a bucket-wise scatter of rows and
    sizes — the hash/modulo work never interleaves with per-row tuple
    handling.  Broadcast-style moves are already batch-level and share
    :func:`route_batch_fast`'s single-shared-list path.  Byte/row
    accounting is bit-identical to both row routers; the equivalence
    tests pin all three against each other.
    """
    if not rows:
        return [], 0

    if operation is DmsOperation.SHUFFLE_MOVE:
        if hash_index is None:
            raise DmsError("shuffle move without a hash column")
        pick = operator.itemgetter(hash_index)
        owners = [pdw_hash(key) % node_count for key in map(pick, rows)]
        buckets: List[List[Tuple]] = [[] for _ in range(node_count)]
        bucket_bytes = [0] * node_count
        for owner, row, size in zip(owners, rows, sizes):
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
        pick = operator.itemgetter(hash_index)
        owners = [pdw_hash(key) % node_count for key in map(pick, rows)]
        kept = [row for owner, row in zip(owners, rows)
                if owner == source_id]
        if not kept:
            return [], 0  # trimmed rows never leave their node
        kept_bytes = sum(size for owner, size in zip(owners, sizes)
                         if owner == source_id)
        return [(source_id, kept, kept_bytes)], 0

    return route_batch_fast(operation, rows, sizes, hash_index,
                            node_count, source_id)


def route_batch_numpy(operation: DmsOperation, rows: List[Tuple],
                      sizes: List[int], hash_index: Optional[int],
                      node_count: int, source_id: int
                      ) -> Tuple[List[Delivery], int]:
    """Vectorized-hash routing for the numpy backend.

    When the distribution key column is all plain ``int`` (the common
    case — TPC-H distribution keys are integer surrogates), the whole
    column is hashed in one vectorized CRC32 pass
    (:func:`repro.vector.np_batch.int_key_owners`) that releases the
    GIL for the table lookups, and bucket byte totals come from one
    ``np.add.at`` scatter over the exact int64 sizes.  Keys of any
    other type (or ints outside int64 range) fall back to
    :func:`route_batch_columnar`, whose per-key ``pdw_hash`` loop the
    vectorized pass matches bit-for-bit.  Accounting is identical to
    all three other routers; the equivalence tests pin all four
    against each other.
    """
    if not rows:
        return [], 0

    if operation in (DmsOperation.SHUFFLE_MOVE, DmsOperation.TRIM_MOVE):
        if hash_index is None:
            raise DmsError(f"{operation.value} without a hash column")
        from repro.vector.np_batch import int_key_owners
        pick = operator.itemgetter(hash_index)
        owners = int_key_owners(list(map(pick, rows)), node_count)
        if owners is None:
            return route_batch_columnar(operation, rows, sizes,
                                        hash_index, node_count, source_id)
        import numpy as np

        if operation is DmsOperation.TRIM_MOVE:
            keep = owners == source_id
            if not keep.any():
                return [], 0  # trimmed rows never leave their node
            kept = [row for flag, row in zip(keep.tolist(), rows) if flag]
            kept_bytes = int(
                (np.asarray(sizes, dtype=np.int64)[keep]).sum())
            return [(source_id, kept, kept_bytes)], 0

        bucket_bytes = np.zeros(node_count, dtype=np.int64)
        np.add.at(bucket_bytes, owners, np.asarray(sizes, dtype=np.int64))
        buckets: List[List[Tuple]] = [[] for _ in range(node_count)]
        for owner, row in zip(owners.tolist(), rows):
            buckets[owner].append(row)
        totals = bucket_bytes.tolist()
        deliveries = [
            (owner, buckets[owner], totals[owner])
            for owner in range(node_count) if buckets[owner]
        ]
        sent = sum(
            totals[owner] for owner in range(node_count)
            if buckets[owner] and owner != source_id
        )
        return deliveries, sent

    return route_batch_fast(operation, rows, sizes, hash_index,
                            node_count, source_id)


@dataclass
class _SourceRun:
    """One node's extract+route output, merged in node order."""

    node_id: int
    rows: List[Tuple]
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
    (:class:`repro.vector.np_executor.NumpyInterpreter`), which hashes
    integer distribution keys with a vectorized CRC32 pass
    (:func:`route_batch_numpy`) and degrades to ``"vectorized"`` (with
    a single warning) when numpy is not importable.  ``"vectorized"``
    runs step SQL through :class:`repro.vector.VectorInterpreter` and
    routes DMS batches column-wise (:func:`route_batch_columnar`) in
    both runtime modes.
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
        # reference backend re-parses per node).  ``"numpy"`` degrades
        # to ``"vectorized"`` here when numpy is absent (front doors
        # that resolve options have already downgraded, so the warning
        # fires once either way).
        self.executor = effective_executor(
            resolve_executor(executor, compiled))
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
        query, aliases = self._bind_step(sql)
        # Snapshot the node's table map before handing it over: a system-
        # view refresh on another thread swaps dm_pdw_* fragments in and
        # out of the live dict, and the interpreter constructors iterate
        # their input.  dict.copy() is a single atomic op; the values are
        # shared list references, so this costs one small dict per step.
        tables = node.tables.copy()
        for bound, actual in aliases:
            tables[bound] = node.rows(actual)
        if self.executor == "numpy":
            # Imported lazily: the constructor has already verified
            # numpy is importable (effective_executor), and numpy-less
            # environments must never pay — or fail on — this import.
            from repro.vector.np_executor import NumpyInterpreter
            interpreter = NumpyInterpreter(tables, stats,
                                           observer=observer)
        elif self.executor == "vectorized":
            interpreter = VectorInterpreter(tables, stats,
                                            observer=observer)
        else:
            interpreter = PlanInterpreter(tables, stats,
                                          compiled=self.compiled,
                                          observer=observer)
        rows = interpreter.run_query(query)
        return rows, query.output_names

    def _bind_step(self, sql: str
                   ) -> Tuple[Query, Tuple[Tuple[str, str], ...]]:
        """The bound tree for ``sql`` plus the (bound name, this
        execution's name) pair of every temp table it must read under
        another name.  Parses + binds once per canonical step text and
        temp schema; re-runs hit the cache.

        Lock-guarded: under the parallel runtime every node worker calls
        this concurrently, and the first caller must finish binding
        before the others read the entry (same hit/miss counts as the
        serial backend)."""
        catalog = self.appliance.catalog
        if not self.compiled:
            # Reference path: re-parse per node, exactly the old cost.
            return Binder(catalog).bind(parse_query(sql)), ()
        canonical, temps = canonical_step_sql(sql)
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
        aliases = tuple((bound, actual)
                        for bound, actual in zip(cached.temps, temps)
                        if bound != actual)
        return cached.query, aliases

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
        # The columnar backends route column-wise in both runtime
        # modes (the numpy backend additionally hashes the whole key
        # column in one vectorized pass); otherwise the parallel
        # runtime takes the fused fast path and the serial walk keeps
        # the reference router.
        if self.executor == "numpy":
            route = route_batch_numpy
        elif self.executor == "vectorized":
            route = route_batch_columnar
        elif parallel:
            route = route_batch_fast
        else:
            route = self._route_batch_reference

        def run_one(source: NodeStorage) -> _SourceRun:
            started = time.perf_counter()
            sql_stats = InterpreterStats()
            observer = OperatorObserver() if profiling else None
            rows, names = self.run_sql_on_node(step.sql, source,
                                               sql_stats, observer)
            source_id = source.node_id
            if operation is None:
                # Return step: no routing, only network accounting.
                sizes_total = (sum(row_bytes(r) for r in rows)
                               if source_id != CONTROL_NODE else 0)
                deliveries: List[Delivery] = []
                sent = sizes_total
            else:
                # One row_bytes pass per batch serves reader, network
                # and writer accounting alike.
                sizes = [row_bytes(r) for r in rows]
                sizes_total = sum(sizes)
                deliveries, sent = route(
                    operation, rows, sizes, hash_index,
                    node_count, source_id)
            run = _SourceRun(
                node_id=source_id,
                rows=rows,
                names=names,
                read_bytes=sizes_total,
                relational_rows=(sql_stats.rows_scanned
                                 + sql_stats.rows_processed),
                deliveries=deliveries,
                sent=sent,
                observer=observer,
                wall_seconds=time.perf_counter() - started,
            )
            if request.enabled:
                request.node_done(step.index, source_id, len(rows),
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

        received: Dict[int, List[List[Tuple]]] = {}
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
                stats.node_rows.get(source_id, 0) + len(run.rows))
            stats.rows_moved += len(run.rows)
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
            if len(batches) == 1:
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
            stats.node_rows[source_id] = len(run.rows)
            stats.node_wall_seconds[source_id] = (
                stats.node_wall_seconds.get(source_id, 0.0)
                + run.wall_seconds)
            if run.observer is not None:
                stats.node_operators[source_id] = run.observer.records
            if profiling:
                stats.transfers[(source_id, CONTROL_NODE)] = [
                    len(run.rows),
                    stats.network_bytes.get(source_id, 0),
                ]
            rows.extend(run.rows)
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
