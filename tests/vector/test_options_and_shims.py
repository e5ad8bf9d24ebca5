"""The ``executor`` option surface: normalization, overrides, session
shims, runner caching, bind-cache participation and service wiring."""

from __future__ import annotations

import warnings

import pytest

from repro import ExecutionOptions, PdwService, PdwSession
from repro.common.errors import ReproError
from repro.common.executors import EXECUTORS, resolve_executor
from repro.appliance.runner import DsqlRunner
from repro.telemetry import Tracer

SQL = ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
       "GROUP BY l_returnflag ORDER BY l_returnflag")


class TestResolveExecutor:
    def test_none_derives_from_compiled(self):
        assert resolve_executor(None, True) == "numpy"
        assert resolve_executor(None, False) == "reference"

    def test_explicit_name_wins(self):
        for name in EXECUTORS:
            assert resolve_executor(name, True) == name
            assert resolve_executor(name, False) == name

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            resolve_executor("jit", True)


class TestExecutionOptions:
    def test_default_is_compiled(self):
        opts = ExecutionOptions()
        assert opts.executor == "numpy"
        assert opts.compiled is True

    def test_executor_rederives_compiled(self):
        assert ExecutionOptions(executor="reference").compiled is False
        assert ExecutionOptions(executor="vectorized").compiled is True

    def test_legacy_compiled_false_means_reference(self):
        opts = ExecutionOptions(compiled=False)
        assert opts.executor == "reference"

    def test_unknown_executor_raises(self):
        with pytest.raises(ReproError):
            ExecutionOptions(executor="gpu")

    def test_override_compiled_translates_to_executor(self):
        opts = ExecutionOptions(executor="vectorized")
        flipped = opts.override(compiled=False)
        assert flipped.executor == "reference"
        assert flipped.compiled is False
        back = flipped.override(compiled=True)
        assert back.executor == "compiled"

    def test_override_executor_rederives_compiled(self):
        opts = ExecutionOptions().override(executor="reference")
        assert opts.compiled is False


class TestSessionWiring:
    @pytest.fixture(scope="class")
    def session(self):
        return PdwSession(
            scale=0.001, node_count=4,
            options=ExecutionOptions(executor="vectorized"))

    def test_session_exposes_executor(self, session):
        assert session.executor == "vectorized"
        assert session.compiled is True
        assert session.runner.executor == "vectorized"

    def test_runner_cache_keyed_by_executor(self, session):
        base = session.run(SQL)
        other = session.run(
            SQL, options=session.options.override(executor="compiled"))
        assert list(base.rows) == list(other.rows)
        keys = set(session._runners)
        assert ("vectorized", session.parallel) in keys
        assert ("compiled", session.parallel) in keys

    def test_run_compiled_shim_single_warning(self, session):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = session.run(SQL, compiled=False)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "executor='reference'" in str(deprecations[0].message)
        assert "via options= instead" in str(deprecations[0].message)
        assert list(result.rows) == list(session.run(SQL).rows)
        assert ("reference", session.parallel) in session._runners

    def test_constructor_compiled_shim_single_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = PdwSession(scale=0.001, node_count=4,
                                 compiled=False)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert session.executor == "reference"

    def test_options_path_emits_no_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = PdwSession(
                scale=0.001, node_count=4,
                options=ExecutionOptions(executor="vectorized"))
            session.run(SQL)
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]


def test_front_doors_default_to_numpy_on_the_serial_runtime(monkeypatch):
    """What a user gets without picking a knob — and the thread pool
    still one switch away."""
    from repro import build_tpch_appliance
    appliance, shell = build_tpch_appliance(scale=0.001, node_count=2)

    def front_doors(options=None):
        service = PdwService(appliance=appliance, shell=shell,
                             options=options)
        service.close()
        session = PdwSession(appliance=appliance, shell=shell,
                             options=options)
        resolved = (options or ExecutionOptions()).resolved()
        return [(session.options, session.runner.runtime),
                (service.options, service.runner.runtime),
                (resolved, None)]

    monkeypatch.delenv("REPRO_PARALLEL_RUNTIME", raising=False)
    for opts, runtime in front_doors():
        assert (opts.executor, opts.parallel) == ("numpy", False)
        if runtime is not None:
            assert (runtime.executor, runtime.parallel) == ("numpy", False)
    for opts, runtime in front_doors(ExecutionOptions(parallel=True)):
        assert opts.parallel is True
        assert runtime is None or runtime.parallel is True
    monkeypatch.setenv("REPRO_PARALLEL_RUNTIME", "1")
    for opts, runtime in front_doors():
        assert opts.parallel is True
        assert runtime is None or runtime.parallel is True


class TestBindCache:
    def test_vectorized_backend_uses_step_bind_cache(self, tpch,
                                                     tpch_engine):
        """Only the reference backend bypasses the per-step plan cache;
        vectorized shares the parse-and-bind-once contract."""
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM lineitem").dsql_plan
        tracer = Tracer()
        DsqlRunner(appliance, tracer=tracer,
                   executor="vectorized").run(plan)
        assert tracer.counter("exec.compile_cache_miss") == len(plan.steps)
        assert tracer.counter("exec.compile_cache_hit") > 0

    def test_reference_backend_still_bypasses_cache(self, tpch,
                                                    tpch_engine):
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM lineitem").dsql_plan
        tracer = Tracer()
        DsqlRunner(appliance, tracer=tracer,
                   executor="reference").run(plan)
        assert tracer.counter("exec.compile_cache_miss") == 0


class TestServiceWiring:
    def test_cached_plans_rebind_into_vectorized_backend(self):
        """A plan-cache hit executes on whichever backend the service
        was configured with — plans are backend-agnostic."""
        from repro.service import PdwService

        sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 30"
        rows = {}
        for executor in ("compiled", "vectorized"):
            service = PdwService(
                scale=0.001, node_count=4,
                options=ExecutionOptions(executor=executor))
            try:
                assert service.runner.executor == executor
                first = service.execute(sql)
                second = service.execute(sql)
                assert second.cache_hit
                assert list(first.rows) == list(second.rows)
                rows[executor] = list(second.rows)
            finally:
                service.close()
        assert rows["vectorized"] == rows["compiled"]
