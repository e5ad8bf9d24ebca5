"""The PDW Engine: the full compilation pipeline of Figure 2.

``PdwEngine.compile`` walks the paper's numbered components:

1. **PDW parser** — parse and validate the query text.
2. **SQL Server compilation** — bind against the shell database, simplify,
   explore, implement (:class:`repro.optimizer.search.SerialOptimizer`).
3. **XML generator** — export the MEMO as XML.
4. **PDW query optimizer** — parse the XML back into a memo, run the
   bottom-up enumeration with the DMS cost model, extract the optimal
   distributed plan, and generate the DSQL plan.

The XML round-trip is performed for real on every compilation — the PDW
optimizer only ever sees the search space through the same serialized
interface the paper describes.

Every phase reports spans into the engine's
:class:`repro.telemetry.Tracer` (default: the free no-op tracer).  A
compilation's counts are read off what it produced:
:meth:`CompiledQuery.compile_counters` derives the memo, XML,
alternative and step counts from the artifacts, and the per-group,
enforcer and prune counts from the optimizer trace when the compile
recorded one — so ``explain(verbose=True)`` can show the memo/pruning
breakdown without the caller holding the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.algebra.physical import PlanNode
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import HintError
from repro.optimizer.memo import Memo
from repro.optimizer.memo_xml import memo_from_xml, memo_to_xml
from repro.obs.opt_trace import OptimizerTrace
from repro.optimizer.search import (
    OptimizationResult,
    OptimizerConfig,
    SerialOptimizer,
)
from repro.pdw.dsql import DsqlGenerator, DsqlPlan
from repro.pdw.enumerator import PdwConfig, PdwOptimizer, PdwPlan
from repro.telemetry import NULL_TRACER, Tracer


@dataclass
class CompiledQuery:
    """Everything the engine produced for one query."""

    sql: str
    serial: OptimizationResult
    memo_xml: str
    pdw_memo: Memo
    pdw_root_group: int
    pdw_plan: PdwPlan
    dsql_plan: DsqlPlan
    #: The UTF-8 size of the MEMO document the PDW side parsed
    #: (:attr:`repro.optimizer.memo_xml.ParsedMemo.parsed_bytes`).
    xml_parsed_bytes: int = 0
    # The effective PDW config of this compilation (hints merged in) and
    # the search-space trace, when one was requested via
    # ``compile(opt_trace=...)``.
    pdw_config: Optional[PdwConfig] = None
    opt_trace: Optional[OptimizerTrace] = None
    # The DSQL steps' SQL pre-split around literals and temp-table
    # names, for rendering an execution's step text; built on first use
    # by ``repro.service.plan_cache.instantiate_plan``.
    step_text: Optional[list] = field(default=None, repr=False,
                                      compare=False)

    @property
    def prepared(self):
        """The template's steps parsed and bound once
        (:class:`repro.appliance.prepared.PreparedPlan`), kept on its
        DSQL plan; ``None`` until the plan's first execution."""
        return self.dsql_plan.prepared

    @property
    def plan_cost(self) -> float:
        return self.pdw_plan.cost

    @property
    def serial_plan(self) -> PlanNode:
        return self.serial.best_serial_plan

    def explain(self, verbose: bool = False) -> str:
        """Human-readable compilation summary.

        With ``verbose=True`` the summary is extended with the search-space
        and pruning counters of this compilation (memo sizes, alternatives
        generated vs. retained, XML interface bytes).
        """
        lines = [
            f"Query: {self.sql.strip()}",
            "",
            "Distributed plan "
            f"(DMS cost {self.pdw_plan.cost:.6f}s, "
            f"result {self.pdw_plan.distribution}):",
            self.pdw_plan.tree_string(),
            "",
            "DSQL plan:",
            self.dsql_plan.describe(),
        ]
        if verbose:
            lines += ["", "Compilation counters:"]
            for name, value in sorted(self.compile_counters().items()):
                lines.append(f"  {name:<36} {value:.0f}")
        return "\n".join(lines)

    def compile_counters(self) -> Dict[str, float]:
        """Search-space / pruning counters for this compilation, each
        a whole number.

        Structural counts are derived from the compiled artifacts, so they
        are available whatever the engine's tracer; the per-group,
        enforcer and per-property prune counts are read from
        :attr:`opt_trace` when the compile recorded one.
        """
        memo = self.pdw_memo
        derived = {
            "serial.memo.groups": float(len(memo.canonical_groups())),
            "serial.memo.expressions.logical": float(
                memo.expression_count(logical_only=True)),
            "serial.memo.expressions.physical": float(
                memo.expression_count()
                - memo.expression_count(logical_only=True)),
            "xml.serialized_bytes": float(
                len(self.memo_xml.encode("utf-8"))),
            "pdw.alternatives.generated": float(
                self.pdw_plan.options_considered),
            "pdw.alternatives.retained": float(
                self.pdw_plan.options_retained),
            "pdw.alternatives.pruned": float(
                self.pdw_plan.options_considered
                - self.pdw_plan.options_retained),
            "dsql.steps_emitted": float(len(self.dsql_plan.steps)),
            "dsql.dms_steps": float(len(self.dsql_plan.movement_steps)),
            "xml.parsed_bytes": float(self.xml_parsed_bytes),
        }
        trace = self.opt_trace
        if trace is not None:
            derived["pdw.groups_enumerated"] = float(len(trace.groups))
            derived["pdw.enforcers.added"] = float(trace.enforcers_added)
            for prune in trace.prunes:
                kind = "pdw.pruned." + prune.property_key.split(":")[0]
                derived[kind] = derived.get(kind, 0.0) + 1
        return derived


class PdwEngine:
    """Compiles SQL text into DSQL plans against a shell database."""

    def __init__(self, shell: ShellDatabase,
                 serial_config: Optional[OptimizerConfig] = None,
                 pdw_config: Optional[PdwConfig] = None,
                 tracer: Tracer = NULL_TRACER):
        self.shell = shell
        self.tracer = tracer
        self.serial_optimizer = SerialOptimizer(shell, serial_config,
                                                tracer=tracer)
        self.pdw_config = pdw_config or PdwConfig()

    def _validate_hints(self, hints: dict) -> Dict[str, str]:
        """§3.1 hints must name known tables; the lowercased names map
        to their strategies, which :class:`PdwConfig` checks."""
        for name in hints:
            if not self.shell.catalog.has_table(name.lower()):
                raise HintError(
                    f"hint names unknown table {name!r} "
                    "(not in the shell database)")
        return {name.lower(): strategy for name, strategy in hints.items()}

    def compile(self, sql: str,
                hints: Optional[dict] = None,
                opt_trace: Optional[OptimizerTrace] = None
                ) -> CompiledQuery:
        """Compile ``sql`` into a DSQL plan.

        ``hints`` maps base-table names to a forced movement strategy
        ('replicate' or 'shuffle') for this query only — the paper's
        §3.1 distributed-execution query hints.  Hints naming unknown
        tables or strategies raise :class:`repro.common.errors.HintError`.

        ``opt_trace`` (default: none) captures the PDW
        optimizer's search space — per-group enumeration, prune and
        enforce decisions, hint overrides — without changing the winning
        plan; the trace is attached to the returned
        :class:`CompiledQuery`.
        """
        tracer = self.tracer
        config = self.pdw_config
        if hints:
            config = replace(config, hints=self._validate_hints(hints))

        with tracer.span("compile") as compile_span:
            # Components 1-2: parse, bind, serial optimization on the
            # shell DB.
            with tracer.span("serial"):
                serial = self.serial_optimizer.optimize_sql(sql)

            # Component 3: export the search space as XML ...
            xml_text = memo_to_xml(serial.memo, serial.root_group,
                                   serial.stats, tracer=tracer)
            # ... and parse it back on the PDW side (component 4's memo
            # parser).
            parsed = memo_from_xml(xml_text, self.shell, tracer=tracer)

            # Component 4: bottom-up PDW optimization.
            with tracer.span("pdw.optimize"):
                pdw_optimizer = PdwOptimizer(
                    parsed.memo, parsed.root_group,
                    node_count=self.shell.node_count,
                    config=config,
                    tracer=tracer,
                    opt_trace=opt_trace,
                )
                pdw_plan = pdw_optimizer.optimize()

            # DSQL generation.
            query = serial.query
            dsql_plan = DsqlGenerator().generate(
                pdw_plan.root,
                output_names=query.output_names,
                output_vars=query.output_columns(),
                order_by=query.order_by or None,
                limit=query.limit,
                final_distribution=pdw_plan.distribution,
                total_cost=pdw_plan.cost,
                tracer=tracer,
            )
            if tracer.enabled:
                compile_span.set("dms_cost_seconds", pdw_plan.cost)

        return CompiledQuery(
            sql=sql,
            serial=serial,
            memo_xml=xml_text,
            pdw_memo=parsed.memo,
            pdw_root_group=parsed.root_group,
            pdw_plan=pdw_plan,
            dsql_plan=dsql_plan,
            xml_parsed_bytes=parsed.parsed_bytes,
            pdw_config=config,
            opt_trace=opt_trace,
        )
