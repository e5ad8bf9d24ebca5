"""The traced pass: per-layer metrics from the benchmark's own spans.

Nothing here reads ``repro.telemetry`` or ``repro.obs``: the pipeline is
walked by hand through each module's public functions -- exactly the calls
``PdwEngine.compile``, ``PdwService.execute`` and the serial branch of
``DsqlRunner.run`` make -- with a span around each.  Spans of one query
share its op id; counts are attached at the same boundaries; everything
stays in memory until the pass ends.

A value of 0 means the workload bypasses that layer (or, for the
serve_mix-only scaling figures, that it is not measured there).  Times
are as measured; ``bench.host_speed_ratio`` says how far the host was from
reference speed while they were taken (see ``measure.py``).  Throughputs
and their ratios are at reference speed, as in the timed pass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import NULL_METRICS, NULL_REQUESTS, DsqlRunner, PdwService
from repro.appliance.storage import Appliance
from repro.common.errors import AdmissionError
from repro.obs.query_store import NULL_QUERY_STORE
from repro.optimizer.binder import Binder
from repro.optimizer.memo_xml import memo_from_xml, memo_to_xml
from repro.pdw.dsql import DsqlGenerator, StepKind
from repro.pdw.engine import CompiledQuery, PdwEngine
from repro.pdw.enumerator import PdwOptimizer
from repro.service.plan_cache import bind_params, instantiate_plan, parameterize
from repro.sql.parser import parse_query
from repro.workloads.tpch_datagen import TpchGenerator
from repro.workloads.tpch_schema import tpch_tables

from measure import (
    REFERENCE_UNIT_S,
    HostSpeed,
    Record,
    completed,
    percentile,
    run_clients,
    throughput,
)
from workloads import (
    NODES,
    Op,
    Workload,
    client_stream,
    executor_for,
    leaked_temp_tables,
    resolved_defaults,
    set_up,
    verify,
    warm_up,
)

COMPILE_PHASES = ("sql.parse", "optimizer.bind", "optimizer.search",
                  "memo_xml.serialize", "memo_xml.parse", "pdw.optimize",
                  "pdw.dsql")


class Recorder:
    """In-memory spans: name, start, end, parent, and the op they serve."""

    def __init__(self):
        self.spans: List[dict] = []
        self.op: object = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the block; the yielded dict takes the boundary's counts."""
        record = {"name": name, "op": self.op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def per_op(self, name: str) -> List[float]:
        """Seconds spent under ``name`` in each op that has such a span."""
        totals: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            if span["name"] == name:
                totals[span["op"]] += span["end"] - span["start"]
        return list(totals.values())

    def ms(self, name: str) -> float:
        """Per-op median milliseconds under ``name`` (0 when never hit)."""
        values = self.per_op(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def count(self, key: str) -> float:
        """Per-op mean of a count attached at some span boundary."""
        totals: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            if key in span["counts"]:
                totals[span["op"]] += span["counts"][key]
        return statistics.fmean(totals.values()) if totals else 0.0

    def dump(self, path: str) -> None:
        """Spans plus each one's self time (duration - children)."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        with open(path, "w") as handle:
            json.dump([{**span, "self": span["end"] - span["start"]
                        - children[index]}
                       for index, span in enumerate(self.spans)], handle)


# -- set-up, split ---------------------------------------------------------------

def traced_build(rec: Recorder, workload: Workload, seed: int):
    """``build_tpch_appliance`` call for call, with its three layers timed."""
    rec.op = "setup"
    generator = TpchGenerator(workload.scale, seed)
    appliance = Appliance(NODES)
    with rec.span("appliance.storage.load"):
        for table in tpch_tables():
            appliance.create_table(table)
    with rec.span("workloads.datagen"):
        rows = {name: getattr(generator, f"{name}_rows")()
                for name in ("region", "nation", "supplier", "customer",
                             "part", "partsupp", "orders")}
        rows["lineitem"] = generator.lineitem_rows(rows["orders"])
    with rec.span("appliance.storage.load"):
        for name, table_rows in rows.items():
            appliance.load_rows(name, table_rows)
    with rec.span("catalog.stats"):
        shell = appliance.compute_shell_database()
    return appliance, shell


# -- compile, phase by phase -----------------------------------------------------

def traced_compile(rec: Recorder, engine: PdwEngine, sql: str):
    """The body of ``PdwEngine.compile``, one span per phase."""
    shell = engine.shell
    with rec.span("pdw.engine.compile") as counts:
        with rec.span("sql.parse"):
            statement = parse_query(sql)
        with rec.span("optimizer.bind"):
            bound = Binder(shell.catalog).bind(statement)
        with rec.span("optimizer.search"):
            serial = engine.serial_optimizer.optimize_query(bound)
        with rec.span("memo_xml.serialize"):
            xml_text = memo_to_xml(serial.memo, serial.root_group,
                                   serial.stats)
        with rec.span("memo_xml.parse"):
            parsed = memo_from_xml(xml_text, shell)
        with rec.span("pdw.optimize"):
            plan = PdwOptimizer(parsed.memo, parsed.root_group,
                                node_count=shell.node_count,
                                config=engine.pdw_config).optimize()
        with rec.span("pdw.dsql"):
            query = serial.query
            dsql = DsqlGenerator().generate(
                plan.root, output_names=query.output_names,
                output_vars=query.output_columns(),
                order_by=query.order_by or None, limit=query.limit,
                final_distribution=plan.distribution, total_cost=plan.cost)
        counts.update({
            "memo_groups": len(parsed.memo.canonical_groups()),
            "memo_exprs": parsed.memo.expression_count(),
            "xml_bytes": len(xml_text.encode("utf-8")),
            "options_considered": plan.options_considered,
            "options_retained": plan.options_retained,
            "dsql_steps": len(dsql.steps),
        })
    return CompiledQuery(sql=sql, serial=serial, memo_xml=xml_text,
                         pdw_memo=parsed.memo,
                         pdw_root_group=parsed.root_group, pdw_plan=plan,
                         dsql_plan=dsql)


def trace_compile_op(rec: Recorder, session, sql: str
                     ) -> Tuple[float, float]:
    """One op of the compile-only workload: the real call, untraced, then
    the same SQL phase by phase.  Returns the real call's ms and what of
    it the phases do not account for."""
    started = time.perf_counter()
    session.compile(sql)
    real = time.perf_counter() - started
    first = len(rec.spans)
    traced_compile(rec, session.engine, sql)
    phases = sum(span["end"] - span["start"] for span in rec.spans[first:]
                 if span["name"] in COMPILE_PHASES)
    return real * 1e3, (real - phases) * 1e3


# -- execute, layer by layer -------------------------------------------------------

def trace_execute_op(rec: Recorder, service: PdwService,
                     serial: DsqlRunner, ids: Iterator[int], sql: str) -> None:
    """One query walked three ways: as ``PdwService.execute`` does it (the
    service's own runner), as the serial ``DsqlRunner.run`` does, and that
    serial walk step by step with the node-local SQL replayed afterwards.

    The real step call is timed first and the replay second: replaying
    first would warm the scan caches and falsify the step's wall time.
    """
    appliance = service.appliance

    def drop(temps: Sequence[str]) -> None:
        for name in temps:
            appliance.drop_table(name)

    with rec.span("service.execute"):
        with rec.span("service.parameterize"):
            shape = parameterize(sql)
        with rec.span("service.plan_cache.lookup_bind"):
            entry = service.plan_cache.lookup(shape, appliance.schema_version)
            mapping = None if entry is None else bind_params(
                entry.shape.params, shape.params, entry.shape.structural)
        if mapping is None:
            # Never-seen shape: compile it, phase by phase (not cached,
            # so the next pass meets it as new again).
            compiled = traced_compile(rec, service.engine, sql)
        else:
            compiled = entry.compiled
        with rec.span("service.plan_cache.instantiate"):
            plan, temps = instantiate_plan(compiled, mapping or None,
                                           next(ids))
        with rec.span("appliance.runner.run"):
            service.runner.run(plan, keep_temps=True)
        with rec.span("appliance.storage.drop_temps"):
            drop(temps)

    plan, temps = instantiate_plan(compiled, mapping or None, next(ids))
    with rec.span("appliance.runner.run_serial"):
        serial.run(plan, keep_temps=True)
    drop(temps)

    plan, temps = instantiate_plan(compiled, mapping or None, next(ids))
    runtime = serial.runtime
    step_stats = []
    with rec.span("appliance.runner.serial_walk") as counts:
        for step in plan.steps:
            if step.kind is StepKind.DMS:
                with rec.span("appliance.dms_runtime.movement"):
                    stats = runtime.execute_movement(step)
                counts["rows_moved"] = (counts.get("rows_moved", 0)
                                        + stats.rows_moved)
            else:
                with rec.span("appliance.dms_runtime.return"):
                    stats = runtime.execute_return(step)[2]
            step_stats.append(stats)
        counts["steps"] = len(plan.steps)
        counts["relational_rows"] = sum(s.relational_rows for s in step_stats)
    for step, stats in zip(plan.steps, step_stats):
        kind = "movement" if step.kind is StepKind.DMS else "return"
        with rec.span(f"appliance.node_sql.{kind}"):
            for node_id in stats.node_rows:
                runtime.run_sql_on_node(step.sql,
                                        appliance.node_storage(node_id))
    drop(temps)


# -- the pass ------------------------------------------------------------------------

def _rounds(stream: Iterator[Op], size: int, seconds: float) -> Iterator[Op]:
    """Whole rounds from ``stream`` (at least one) until ``seconds`` have
    passed."""
    deadline = time.perf_counter() + seconds
    while True:
        yield from itertools.islice(stream, size)
        if time.perf_counter() >= deadline:
            return


def _real_pass(workload: Workload, service: PdwService, seed: int,
               seconds: float, clients: int, tag: str,
               host: HostSpeed) -> List[List[Record]]:
    """The workload's own closed loop, untraced, on ``clients`` threads
    (one thread sends every client's sequence, interleaved)."""
    streams = [client_stream(workload, seed, c, tag)
               for c in range(workload.clients)]
    if clients == 1 and len(streams) > 1:
        streams = [itertools.chain.from_iterable(zip(*streams))]
    return run_clients(executor_for(workload, service), streams, seconds,
                       0, host)[0]


def _trace_service(rec: Recorder, workload: Workload, service: PdwService,
                   seed: int, seconds: float, host: HostSpeed):
    """Traced pass of a service workload.  Returns the untraced records
    the ``service.*`` figures come from, each traced op's untraced twin in
    ms, and (1-client qps, 2-thread scaling, lenses-off ratio)."""
    share = seconds / 4 if workload.mixed else seconds
    serial = DsqlRunner(service.appliance, parallel=False,
                        executor=service.options.executor)
    ids = itertools.count(10 ** 6)   # clear of the service's own ids
    execute = executor_for(workload, service)
    stream = client_stream(workload, seed, 0, "traced")
    twins: List[Record] = []
    for number, op in enumerate(_rounds(stream, workload.round_size, share)):
        rec.op = number
        trace_execute_op(rec, service, serial, ids, op.sql)
        started = time.perf_counter()
        sample = execute(op)
        took = time.perf_counter() - started
        twins.append(Record(took, took * REFERENCE_UNIT_S / host.unit(),
                            op, sample))
    real_ms = [r.seconds * 1e3 for r in twins]
    if not workload.mixed:
        return [twins], real_ms, (throughput([twins]), 0.0, 0.0)
    # Concurrency and lens cost: the same sequences on 2 client threads,
    # on 1, and on 1 with every lens off.
    records = _real_pass(workload, service, seed, share, workload.clients,
                         "threads", host)
    single = throughput(_real_pass(workload, service, seed, share, 1,
                                   "single", host))
    bare = PdwService(appliance=service.appliance, shell=service.shell,
                      requests=NULL_REQUESTS, metrics=NULL_METRICS,
                      query_store=NULL_QUERY_STORE)
    warm_up(workload, bare)
    lenses_off = throughput(_real_pass(workload, bare, seed, share, 1,
                                       "single", host))
    bare.close()
    return records, real_ms, (single, throughput(records) / single,
                              lenses_off / single)


def trace_layers(workload: Workload, seed: int, seconds: float,
                 spans_path: Optional[str] = None) -> Dict[str, object]:
    rec = Recorder()
    host = HostSpeed()
    front = set_up(workload, seed, traced_build(rec, workload, seed))
    first_run = warm_up(workload, front)
    units = [host.unit() for _ in range(5)]
    residual_ms: List[float] = []
    records: List[List[Record]] = []
    qps_1client = scaling = lenses = 0.0
    if workload.service:
        records, real_ms, (qps_1client, scaling, lenses) = _trace_service(
            rec, workload, front, seed, seconds, host)
        traced_ms = [s * 1e3 for s in rec.per_op("service.execute")]
    else:
        real_ms = []
        stream = client_stream(workload, seed, 0)
        for number, op in enumerate(_rounds(stream, workload.round_size,
                                            seconds)):
            rec.op = number
            real, residual = trace_compile_op(rec, front, op.sql)
            real_ms.append(real)
            residual_ms.append(residual)
        traced_ms = [s * 1e3 for s in rec.per_op("pdw.engine.compile")]
    units += [host.unit() for _ in range(5)]

    checked, wrong = verify(workload, front, seed)
    leaked = leaked_temp_tables(front.appliance)
    slots_leaked = 0
    if workload.service:
        slots_leaked = front.admission.stats()["in_flight"]
        front.close()
    if spans_path:
        rec.dump(spans_path)

    sent = [r for mine in records for r in mine]
    done = [r.outcome for r in completed(records)]

    def timing_ms(q: int, *fields: str) -> float:
        """Percentile of a ``QueryResult.timing`` phase (first field minus
        the rest) over the untraced ops."""
        values = [(getattr(s, fields[0])
                   - sum(getattr(s, f) for f in fields[1:])) * 1e3
                  for s in done]
        return percentile(values, q) if len(values) > 1 else 0.0

    def mean_ms(name: str) -> float:
        return statistics.fmean(rec.per_op(name) or [0.0]) * 1e3

    movement = mean_ms("appliance.dms_runtime.movement")
    returns = mean_ms("appliance.dms_runtime.return")
    node_move = mean_ms("appliance.node_sql.movement")
    run_serial = rec.per_op("appliance.runner.run_serial")
    run_default = rec.per_op("appliance.runner.run")
    walked = rec.per_op("appliance.runner.serial_walk")
    ms, count = rec.ms, rec.count
    metrics = {
        "sql.parse_ms": ms("sql.parse"),
        "optimizer.bind_ms": ms("optimizer.bind"),
        "optimizer.search_ms": ms("optimizer.search"),
        "optimizer.memo_groups": count("memo_groups"),
        "optimizer.memo_exprs": count("memo_exprs"),
        "memo_xml.serialize_ms": ms("memo_xml.serialize"),
        "memo_xml.parse_ms": ms("memo_xml.parse"),
        "memo_xml.bytes": count("xml_bytes"),
        "pdw.optimize_ms": ms("pdw.optimize"),
        "pdw.options_considered": count("options_considered"),
        "pdw.options_retained": count("options_retained"),
        "pdw.dsql_ms": ms("pdw.dsql"),
        "pdw.dsql_steps": count("dsql_steps"),
        "pdw.engine_residual_ms": (statistics.median(residual_ms)
                                   if residual_ms else 0.0),
        "service.parameterize_ms": ms("service.parameterize"),
        "service.plan_cache.lookup_bind_ms":
            ms("service.plan_cache.lookup_bind"),
        "service.plan_cache.instantiate_ms":
            ms("service.plan_cache.instantiate"),
        "service.plan_cache.hit_ratio":
            (sum(s.cache_hit for s in done) / len(done)) if done else 0.0,
        "service.queue_ms_p90": timing_ms(90, "queue"),
        "service.compile_ms_p90": timing_ms(90, "compile"),
        "service.execute_ms_p50": timing_ms(50, "execute"),
        "service.overhead_ms_p50": timing_ms(50, "total", "queue",
                                             "compile", "execute"),
        "service.admission.rejected": sum(
            isinstance(r.outcome, AdmissionError) for r in sent),
        "service.admission.slots_leaked": slots_leaked,
        "service.qps_1client": qps_1client,
        "service.scaling_2c": scaling,
        "obs.lenses_overhead_ratio": lenses,
        "appliance.runner.run_ms": ms("appliance.runner.run"),
        "appliance.dms_runtime.movement_ms": movement,
        "appliance.dms_runtime.return_ms": returns,
        "appliance.node_sql_ms":
            node_move + mean_ms("appliance.node_sql.return"),
        "appliance.dms_runtime.move_overhead_ms": movement - node_move,
        "appliance.dms_runtime.move_share": (
            (movement - node_move) / (movement + returns)
            if movement + returns else 0.0),
        "appliance.runner.residual_ms": (
            statistics.median(r - w for r, w in zip(run_serial, walked))
            * 1e3 if walked else 0.0),
        "appliance.scheduler.parallel_speedup": (
            sum(run_serial) / sum(run_default) if run_default else 0.0),
        "appliance.first_run_ms": statistics.median(first_run) * 1e3,
        "appliance.dms_runtime.rows_moved": count("rows_moved"),
        "appliance.dms_runtime.steps": count("steps"),
        "appliance.relational_rows": count("relational_rows"),
        "appliance.storage.temp_tables_leaked": leaked,
        "workloads.datagen_s": sum(rec.per_op("workloads.datagen")),
        "appliance.storage.load_s": sum(rec.per_op("appliance.storage.load")),
        "catalog.stats_s": sum(rec.per_op("catalog.stats")),
        "bench.trace_overhead_ratio":
            statistics.median(traced_ms) / statistics.median(real_ms),
        "bench.host_speed_ratio": REFERENCE_UNIT_S / statistics.median(units),
    }
    failed = len(wrong) + len(sent) - len(done)
    return {
        "correct": failed == 0 and leaked == 0 and slots_leaked == 0,
        "attempted": (len(sent) or len(real_ms)) + len(checked),
        "failed": failed,
        "metrics": metrics,
        "info": {
            "scale": workload.scale, "clients": workload.clients,
            "traced_ops": len(traced_ms), "spans": len(rec.spans),
            "mismatched": wrong, **resolved_defaults(front),
        },
    }
