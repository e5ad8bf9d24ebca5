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

Every step has one shape after its node SQL, whatever engine ran it
(§2.1, §2.4): the step's output over its whole source group is one
:class:`~repro.vector.np_batch.ArrayBatch` — typed columns plus the
bounds that place its rows on the source nodes — sized once and routed
once (:func:`route_group`).  Per-node rows, bytes and ownership are
read off the bounds and one source × target matrix; a hash-distributed
temp is stored once, in target order, and every node holds a view of
its own rows; a broadcast-style move hands every target one shared
fragment (stored fragments are never mutated).  The data plane is
columnar end to end — the Return step hands its columns to the control
node, which builds the client's row tuples.

What differs between the executors is only how that batch is made.
Under the default ``"numpy"`` executor a step runs **once** for its
whole source group (DESIGN §5c): every node runs the same SQL over its
own fragment, so the interpreter runs it once over the fragments
stacked, the node as a leading segment.  The oracle
(``executor="reference"``) keeps the paper's literal shape: each source
node, in node-id order, runs the SQL on the tree-walking interpreter,
and the rows are stacked once, one segment per node.  The per-row
router that ``route_group`` is held to lives with the tests
(``tests/row_router.py``).

A step reports what happened only through the
:class:`StepExecutionStats` it returns: the runtime holds no tracer, no
metrics registry and no request handle.  The control node writes every
fact about a step from those stats — the runner's ``end_step`` fills
the request's per-step and per-node rows, and the service's completion
writes the step and DMS metric series.
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
    place_rows,
)
from repro.catalog.schema import Catalog
from repro.common.errors import DmsError
from repro.common.executors import resolve_executor
from repro.obs.profiler import OperatorObserver
from repro.optimizer.binder import Binder
from repro.pdw.dms import DmsOperation
from repro.pdw.dsql import DsqlPlan, DsqlStep
from repro.sql.parser import parse_query
from repro.vector.np_batch import (
    ArrayBatch,
    ColumnFragment,
    column_from_list,
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
    (``profile=True`` on ``DsqlRunner.run`` or on the runtime's
    ``execute_movement`` / ``execute_return``, per call): ``transfers`` is the
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

    def moved_node_bytes(self) -> Dict[int, int]:
        """Bytes each node moved: read at a DMS step's sources, sent up
        to the control node by the Return step."""
        return (self.reader_bytes if self.operation is not None
                else self.network_bytes)

    def moved_bytes(self) -> int:
        """The bytes the step moved (:meth:`moved_node_bytes` summed)."""
        return sum(self.moved_node_bytes().values())


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
    """Column routing, once per step and for either executor: no row
    is ever assembled and no source is routed on its own.

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
    per-source buckets a per-row router appends.  A trim places
    the rows whose owner is their own source.  Either way the rows are
    stored once, with the targets as bounds, and every compute node
    gets its view
    (:meth:`~repro.vector.np_batch.ColumnFragment.of_node`).  The
    source × target matrix of rows and bytes is one ``bincount`` over
    ``source · n + owner`` (float64 weights sum integers below 2^53
    exactly); network bytes are its off-diagonal row sums, written
    bytes its column sums.  The moves that route a source's rows as a
    unit hand every target one shared fragment of the whole output.
    Every count is a per-row router's, bit for bit; the routing tests
    pin this against one that shares no code with it
    (``tests/row_router.py``).
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


class DmsRuntime:
    """Executes DSQL steps against an :class:`Appliance`.

    ``executor`` names the node-local backend, picked once, here:
    ``"numpy"`` (the default, :class:`repro.vector.np_executor.
    NumpyInterpreter`) runs a step once over its whole source group
    (:meth:`_run_group`); ``"reference"`` (the oracle,
    :class:`repro.appliance.interpreter.PlanInterpreter`) runs it node
    by node, in node-id order (:meth:`_run_nodes`).  Either hands the
    same thing on — one batch, one segment per source — and every step
    is routed, sized and accounted by the one path after it.

    Under the default executor a plan's steps are parsed and bound
    **once**, at the plan's first execution (:meth:`prepared`), and
    every later execution runs the prepared steps — the node DBMS of
    §2.4 keeps the compiled statement of a re-issued step.  A step of
    an execution copy (a cached template stamped out by
    :func:`repro.service.plan_cache.instantiate_plan`, or a plan run as
    its own template, :meth:`repro.pdw.dsql.DsqlPlan.bind`) names its
    template and this execution's literal values and temp names; the runtime runs the template's bound tree —
    a path copy when the literals reach its slots — over exactly the
    fragments it reads, this execution's temps under the template's
    names.  The plan's ``prepared`` is the record of that: ``None``
    until its first execution, then one object for its life.  The
    oracle parses and binds the step's rendered SQL on every node.
    """

    def __init__(self, appliance: Appliance,
                 truth: Optional[GroundTruthConstants] = None,
                 executor: Optional[str] = None):
        self.appliance = appliance
        self.truth = truth or GroundTruthConstants()
        self.executor = resolve_executor(executor)
        self._run = (self._run_group if self.executor == "numpy"
                     else self._run_nodes)
        self._prepare_lock = threading.Lock()

    # -- preparation ---------------------------------------------------------------

    def prepared(self, plan: DsqlPlan) -> PreparedPlan:
        """``plan``'s steps parsed and bound once, kept on the plan:
        built on the first call, re-used after.  Racing first calls
        build once."""
        prepared = plan.prepared
        if prepared is None:
            with self._prepare_lock:
                prepared = plan.prepared
                if prepared is None:
                    prepared = plan.prepared = self._prepare(plan)
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

    # -- the step's run --------------------------------------------------------------

    def _run_group(self, step: DsqlStep, stats: StepExecutionStats,
                   profile: bool
                   ) -> Tuple[ArrayBatch, List[str], Optional[int]]:
        """Run a step's prepared tree once over its whole source group —
        the numpy executor.  Returns the output as positional columns
        with one segment per source (a node-invariant output spelled out
        per source: each of them holds it), the output names and the
        move's hash column; records on ``stats`` what the interpreter
        counted, ``node_rows`` keyed by source node id in source
        order."""
        prepared, query, sources, tables = self._group(step)
        source_ids = [source.node_id for source in sources]
        sql_stats = InterpreterStats()
        observers = ([OperatorObserver() for _ in sources]
                     if profile else None)
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
        return output, query.output_names, prepared.hash_index

    def _run_nodes(self, step: DsqlStep, stats: StepExecutionStats,
                   profile: bool
                   ) -> Tuple[ArrayBatch, List[str], Optional[int]]:
        """Run a step node by node — the reference executor: each source
        node, in node-id order, parses, binds and runs the step's SQL on
        the tree-walking interpreter over its own fragments, timed on
        its own.  The rows are stacked once, one segment per source
        (:func:`column_from_list` keeps every value's type), and
        returned as :meth:`_run_group` returns its output."""
        sql_stats = InterpreterStats()
        rows: List[Tuple] = []
        names: List[str] = []
        for source in self._source_nodes(step):
            started = time.perf_counter()
            observer = OperatorObserver() if profile else None
            output, names = self.run_sql_on_node(step.sql, source,
                                                 sql_stats, observer)
            rows.extend(output)
            source_id = source.node_id
            stats.node_rows[source_id] = len(output)
            stats.node_wall_seconds[source_id] = (time.perf_counter()
                                                  - started)
            if observer is not None:
                stats.node_operators[source_id] = observer.records
        stats.relational_rows = (sql_stats.rows_scanned
                                 + sql_stats.rows_processed)
        stats.rows_moved = len(rows)
        batch = ArrayBatch(
            {position: column_from_list([row[position] for row in rows])
             for position in range(len(names))},
            len(rows), offsets(list(stats.node_rows.values())))
        return batch, names, _hash_index(step)

    @staticmethod
    def _share_wall(stats: StepExecutionStats, started: float) -> None:
        """Per-node wall clock of a group step: the nodes ran as one, so
        each is given the group's wall time ÷ n.  A node-by-node run
        timed its nodes already."""
        if stats.node_wall_seconds:
            return
        share = (time.perf_counter() - started) / len(stats.node_rows)
        stats.node_wall_seconds = dict.fromkeys(stats.node_rows, share)

    # -- movement execution -----------------------------------------------------------

    def execute_movement(self, step: DsqlStep,
                         profile: bool = False) -> StepExecutionStats:
        """Run a DMS step's SQL on its source nodes and route the output
        once (:func:`route_group`); the accounting is read off the
        router's source × target sums."""
        if step.movement is None or step.destination_table is None:
            raise DmsError(f"step {step.index} is not a DMS step")
        started = time.perf_counter()
        operation = step.movement.operation
        self.appliance.create_temp_table(step.destination_table)

        stats = StepExecutionStats(step.index, operation)
        output, _, hash_index = self._run(step, stats, profile)
        source_ids = list(stats.node_rows)
        routing = route_group(
            operation, output, source_ids, batch_row_bytes(output),
            hash_index, self.appliance.node_count, transfers=profile)
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
        self._share_wall(stats, started)

        reader, network, writer, bulk = stats.component_times(
            self.truth, operation.uses_hashing)
        stats.movement_seconds = max(max(reader, network),
                                     max(writer, bulk))
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.wall_seconds = time.perf_counter() - started
        return stats

    # -- return step --------------------------------------------------------------------

    def execute_return(self, step: DsqlStep, profile: bool = False
                       ) -> Tuple[ArrayBatch, List[str], StepExecutionStats]:
        """Run the final Return SQL and gather its output at the control
        node, the sources' rows in source order, as the output batch:
        the control node builds its tuples once it has ordered and cut
        them (:meth:`~repro.appliance.runner.DsqlRunner.run`)."""
        started = time.perf_counter()
        stats = StepExecutionStats(step.index, None)
        output, names, _ = self._run(step, stats, profile)
        source_ids = list(stats.node_rows)
        if source_ids == [CONTROL_NODE]:
            read = [0]  # already at the control node
        else:
            read = segment_sums(batch_row_bytes(output),
                                output.bounds).tolist()
            stats.network_bytes = dict(zip(source_ids, read))
        if profile:
            for (source_id, count), nbytes in zip(
                    stats.node_rows.items(), read):
                stats.transfers[(source_id, CONTROL_NODE)] = [
                    count, nbytes]
        self._share_wall(stats, started)
        stats.movement_seconds = max(
            stats.network_bytes.values(), default=0) * self.truth.network
        stats.relational_seconds = (
            stats.relational_rows * self.truth.relational_per_row)
        stats.elapsed_seconds = (stats.movement_seconds
                                 + stats.relational_seconds)
        stats.wall_seconds = time.perf_counter() - started
        return output, names, stats
