"""The ``executor`` option surface: normalization, overrides, runner
caching, bind-cache participation and service wiring."""

from __future__ import annotations

import pytest

from repro import ExecutionOptions, PdwService, PdwSession, run_reference
from repro.appliance.runner import DsqlRunner
from repro.common.errors import ReproError
from repro.common.executors import EXECUTORS, resolve_executor

SQL = ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
       "GROUP BY l_returnflag ORDER BY l_returnflag")

#: The executor names the two deleted backends had.
RETIRED = ("compiled", "vectorized")


class TestResolveExecutor:
    def test_none_is_the_default(self):
        assert resolve_executor(None) == "numpy"

    def test_explicit_name_wins(self):
        assert EXECUTORS == ("reference", "numpy")
        for name in EXECUTORS:
            assert resolve_executor(name) == name

    @pytest.mark.parametrize("name", ("jit",) + RETIRED)
    def test_unknown_name_raises(self, name):
        with pytest.raises(ReproError, match="unknown executor"):
            resolve_executor(name)


class TestExecutionOptions:
    def test_default_is_numpy(self):
        assert ExecutionOptions().executor == "numpy"

    def test_reference_is_kept(self):
        assert ExecutionOptions(executor="reference").executor == \
            "reference"

    @pytest.mark.parametrize("name", ("gpu",) + RETIRED)
    def test_unknown_executor_raises(self, name):
        with pytest.raises(ReproError):
            ExecutionOptions(executor=name)

    def test_override_executor(self):
        opts = ExecutionOptions().override(executor="reference")
        assert opts.executor == "reference"
        assert opts.override(executor=None).executor == "numpy"

    def test_no_legacy_boolean(self):
        with pytest.raises(TypeError):
            ExecutionOptions(compiled=False)


@pytest.mark.parametrize("executor", RETIRED)
def test_runners_refuse_retired_executors(executor, mini_appliance):
    with pytest.raises(ReproError):
        DsqlRunner(mini_appliance, executor=executor)
    with pytest.raises(ReproError):
        run_reference(mini_appliance, "SELECT a FROM t",
                      executor=executor)


class TestSessionWiring:
    @pytest.fixture(scope="class")
    def session(self):
        return PdwSession(
            scale=0.001, node_count=4,
            options=ExecutionOptions(executor="reference"))

    def test_session_exposes_executor(self, session):
        assert session.options.executor == "reference"
        assert session.runner.executor == "reference"

    def test_runner_cache_keyed_by_executor(self, session):
        base = session.run(SQL)
        other = session.run(
            SQL, options=session.options.override(executor="numpy"))
        assert list(base.rows) == list(other.rows)
        assert {"reference", "numpy"} <= set(session._runners)

    def test_removed_kwargs_are_type_errors(self, session):
        with pytest.raises(TypeError):
            session.run(SQL, compiled=False)
        with pytest.raises(TypeError):
            session.compile(SQL, hints={"lineitem": "replicate"})
        with pytest.raises(TypeError):
            PdwSession(appliance=session.appliance, shell=session.shell,
                       trace=False)


def test_front_doors_default_to_numpy():
    """What a user gets without picking a knob."""
    from repro import build_tpch_appliance
    appliance, shell = build_tpch_appliance(scale=0.001, node_count=2)
    service = PdwService(appliance=appliance, shell=shell)
    service.close()
    session = PdwSession(appliance=appliance, shell=shell)
    for front in (session, service):
        assert front.options.executor == "numpy"
        assert front.runner.executor == "numpy"
        assert front.runner.runtime.executor == "numpy"


class TestBindCache:
    def test_numpy_executor_uses_step_bind_cache(self, tpch, tpch_engine,
                                                 bind_calls):
        """Only the reference executor bypasses the per-step plan cache;
        the production executor parses and binds each step once."""
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM lineitem").dsql_plan
        runner = DsqlRunner(appliance)
        del bind_calls[:]
        runner.run(plan)
        prepared = plan.prepared
        runner.run(plan)
        assert len(bind_calls) == len(plan.steps)
        assert prepared is not None and plan.prepared is prepared

    def test_reference_backend_still_bypasses_cache(self, tpch,
                                                    tpch_engine):
        appliance, _ = tpch
        plan = tpch_engine.compile(
            "SELECT COUNT(*) AS n FROM lineitem").dsql_plan
        DsqlRunner(appliance, executor="reference").run(plan)
        assert plan.prepared is None


class TestServiceWiring:
    def test_cached_plans_rebind_into_either_executor(self):
        """A plan-cache hit executes on whichever executor the service
        was configured with — plans are executor-agnostic."""
        sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 30"
        rows = {}
        for executor in EXECUTORS:
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
        assert rows["numpy"] == rows["reference"]
