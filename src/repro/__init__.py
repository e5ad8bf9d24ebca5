"""repro — reproduction of "Query Optimization in Microsoft SQL Server
PDW" (SIGMOD 2012).

The package implements the full PDW compilation and execution pipeline on
a simulated appliance:

* :mod:`repro.sql` — SQL frontend (lexer, AST, parser);
* :mod:`repro.catalog` — schema, distribution metadata, statistics and the
  shell database (§2.2);
* :mod:`repro.algebra` — bound scalar expressions, logical/physical
  operators, distribution properties;
* :mod:`repro.optimizer` — the "SQL Server" side: binder, normalization,
  MEMO, exploration, implementation, cardinality/cost estimation and the
  MEMO⇄XML interface (§2.5, §3.1);
* :mod:`repro.pdw` — the paper's contribution: the bottom-up PDW optimizer
  with interesting distribution properties, DMS enforcement and the
  DMS-only cost model (§3.2, §3.3), plus DSQL generation (§3.4);
* :mod:`repro.appliance` — the simulated appliance: distributed storage,
  node-local SQL execution, the DMS runtime with byte accounting, the
  DSQL runner that walks a plan's steps in order (§2.4), and the λ
  calibration harness (§3.3.3);
* :mod:`repro.workloads` — TPC-H schema/generator/queries with the
  paper's placement design.

Quickstart — the recommended front door is :class:`repro.session.PdwSession`,
which owns the appliance, shell database, engine and telemetry tracer::

    from repro import PdwSession

    session = PdwSession(scale=0.01, node_count=8)
    print(session.explain("SELECT COUNT(*) AS n FROM lineitem",
                          analyze=True))   # EXPLAIN ANALYZE table
    result = session.run("SELECT n_name FROM nation ORDER BY n_name")
    print(result.rows, result.dms_seconds)
    print(session.trace_report())          # nested span tree

**Which API do I want?**  Use :class:`PdwSession` when you want the whole
pipeline with sane defaults and telemetry, and :class:`PdwService` to
serve many client threads; the session is a subclass of the service,
so both run every query through one control-node core (plan cache,
admission, request and Query Store hooks).  Drop to the low-level pieces —
:class:`PdwEngine` (compile SQL against a shell database you built
yourself) and :class:`DsqlRunner` (execute a DSQL plan on an appliance) —
when you need custom schemas, configs, or to hold the intermediate
artifacts::

    from repro import PdwEngine, DsqlRunner, build_tpch_appliance

    appliance, shell = build_tpch_appliance(scale=0.01, node_count=8)
    engine = PdwEngine(shell)
    compiled = engine.compile("SELECT COUNT(*) AS n FROM lineitem")
    print(compiled.explain())
    result = DsqlRunner(appliance).run(compiled.dsql_plan)
    print(result.rows)
"""

from repro.appliance.calibration import CalibrationResult, Calibrator
from repro.appliance.dms_runtime import DmsRuntime, GroundTruthConstants
from repro.appliance.runner import (
    DsqlRunner,
    ExecutionTiming,
    QueryResult,
    run_reference,
)
from repro.appliance.storage import Appliance
from repro.catalog.schema import (
    Catalog,
    Column,
    ON_CONTROL,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.catalog.shell_db import ShellDatabase
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.opt_trace import OptimizerTrace, OptimizerTraceSummary
from repro.obs.profiler import (
    QErrorSummary,
    QueryProfile,
    SkewStats,
    build_query_profile,
    q_error,
    skew_stats,
)
from repro.obs.requests import (
    NULL_REQUESTS,
    RequestRecord,
    RequestRegistry,
)
from repro.obs.system_views import (
    SYSTEM_VIEW_NAMES,
    refresh_system_views,
    register_system_views,
)
from repro.optimizer.search import (
    OptimizationResult,
    OptimizerConfig,
    SerialOptimizer,
)
from repro.pdw.advisor import (
    AdvisorResult,
    PartitioningAdvisor,
    WorkloadQuery,
)
from repro.pdw.baseline import parallelize_serial_plan
from repro.pdw.cost_model import CostConstants, DmsCostModel
from repro.pdw.engine import CompiledQuery, PdwEngine
from repro.pdw.enumerator import PdwConfig, PdwOptimizer, PdwPlan
from repro.pdw.why import PlanChoice, explain_plan_choice, render_plan_choice
from repro.service import (
    AdmissionController,
    ExecutionOptions,
    PdwService,
    PlanCache,
    parameterize,
)
from repro.session import PdwSession
from repro.telemetry import NULL_TRACER, Span, Tracer
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdvisorResult",
    "PartitioningAdvisor",
    "WorkloadQuery",
    "Appliance",
    "CalibrationResult",
    "Calibrator",
    "Catalog",
    "Column",
    "CompiledQuery",
    "CostConstants",
    "DmsCostModel",
    "DmsRuntime",
    "DsqlRunner",
    "ExecutionOptions",
    "ExecutionTiming",
    "GroundTruthConstants",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_REQUESTS",
    "NULL_TRACER",
    "RequestRecord",
    "RequestRegistry",
    "SYSTEM_VIEW_NAMES",
    "refresh_system_views",
    "register_system_views",
    "OptimizerTrace",
    "OptimizerTraceSummary",
    "PlanChoice",
    "explain_plan_choice",
    "render_plan_choice",
    "ON_CONTROL",
    "QErrorSummary",
    "QueryProfile",
    "SkewStats",
    "build_query_profile",
    "q_error",
    "skew_stats",
    "OptimizationResult",
    "OptimizerConfig",
    "PdwConfig",
    "PdwEngine",
    "PdwOptimizer",
    "PdwPlan",
    "PdwService",
    "PdwSession",
    "PlanCache",
    "parameterize",
    "QueryResult",
    "REPLICATED",
    "SerialOptimizer",
    "ShellDatabase",
    "Span",
    "TableDef",
    "Tracer",
    "TPCH_QUERIES",
    "build_tpch_appliance",
    "hash_distributed",
    "parallelize_serial_plan",
    "run_reference",
]
