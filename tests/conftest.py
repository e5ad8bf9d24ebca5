"""Shared fixtures: a tiny TPC-H appliance and small custom schemas."""

from __future__ import annotations

import pytest

from repro import PdwEngine
from repro.appliance.dms_runtime import DmsRuntime
from repro.appliance.storage import Appliance
from repro.catalog.schema import (
    Catalog,
    Column,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.catalog.shell_db import ShellDatabase
from repro.common.types import DATE, INTEGER, decimal, varchar
from repro.optimizer.binder import Binder
from repro.workloads.tpch_datagen import build_tpch_appliance

TPCH_SCALE = 0.002
TPCH_NODES = 4


@pytest.fixture(scope="session")
def tpch():
    """(appliance, shell) for a tiny but complete TPC-H instance.

    Session-scoped: tests must not mutate base tables (temp tables are
    dropped by the runner after every query).
    """
    return build_tpch_appliance(scale=TPCH_SCALE, node_count=TPCH_NODES)


@pytest.fixture(scope="session")
def tpch_appliance(tpch):
    return tpch[0]


@pytest.fixture(scope="session")
def tpch_shell(tpch):
    return tpch[1]


@pytest.fixture(scope="session")
def tpch_engine(tpch_shell):
    return PdwEngine(tpch_shell)


@pytest.fixture()
def return_executors(monkeypatch):
    """The executor of every ``DmsRuntime`` that ran a Return step while
    the fixture is live, in call order."""
    seen = []
    execute_return = DmsRuntime.execute_return

    def spy(self, *args, **kwargs):
        seen.append(self.executor)
        return execute_return(self, *args, **kwargs)

    monkeypatch.setattr(DmsRuntime, "execute_return", spy)
    return seen


@pytest.fixture()
def bind_calls(monkeypatch):
    """One entry per ``Binder.bind`` call while the fixture is live,
    from any thread (``list.append`` is atomic)."""
    calls = []
    bind = Binder.bind

    def counting_bind(self, statement):
        calls.append(statement)
        return bind(self, statement)

    monkeypatch.setattr(Binder, "bind", counting_bind)
    return calls


def make_mini_catalog() -> Catalog:
    """The paper's running example schema: customer/orders (+ nation)."""
    return Catalog([
        TableDef(
            "customer",
            [
                Column("c_custkey", INTEGER),
                Column("c_name", varchar(25)),
                Column("c_nationkey", INTEGER),
            ],
            hash_distributed("c_custkey"),
            row_count=15_000,
            primary_key=("c_custkey",),
        ),
        TableDef(
            "orders",
            [
                Column("o_orderkey", INTEGER),
                Column("o_custkey", INTEGER),
                Column("o_totalprice", decimal()),
                Column("o_orderdate", DATE),
            ],
            hash_distributed("o_orderkey"),
            row_count=150_000,
            primary_key=("o_orderkey",),
        ),
        TableDef(
            "lineitem",
            [
                Column("l_orderkey", INTEGER),
                Column("l_partkey", INTEGER),
                Column("l_quantity", decimal()),
            ],
            hash_distributed("l_orderkey"),
            row_count=600_000,
        ),
        TableDef(
            "nation",
            [
                Column("n_nationkey", INTEGER),
                Column("n_name", varchar(25)),
            ],
            REPLICATED,
            row_count=25,
            primary_key=("n_nationkey",),
        ),
    ])


@pytest.fixture()
def mini_catalog() -> Catalog:
    return make_mini_catalog()


@pytest.fixture()
def mini_shell(mini_catalog) -> ShellDatabase:
    return ShellDatabase(mini_catalog, node_count=8)


@pytest.fixture()
def mini_appliance() -> Appliance:
    """A loaded 3-node appliance over a two-table schema."""
    appliance = Appliance(3)
    appliance.create_table(TableDef(
        "t",
        [Column("a", INTEGER), Column("b", INTEGER),
         Column("s", varchar(10))],
        hash_distributed("a"),
    ))
    appliance.create_table(TableDef(
        "dim",
        [Column("k", INTEGER), Column("label", varchar(10))],
        REPLICATED,
    ))
    appliance.load_rows(
        "t", [(i, i % 7, f"s{i % 3}") for i in range(100)])
    appliance.load_rows("dim", [(k, f"label{k}") for k in range(7)])
    return appliance


def canonical(rows):
    """Rows as a sorted list with floats rounded (comparison helper)."""
    from repro.catalog.statistics import sort_key

    def canon_row(row):
        return tuple(
            round(v, 6) if isinstance(v, float) else v for v in row)

    return sorted((canon_row(r) for r in rows),
                  key=lambda row: tuple(sort_key(v) for v in row))


#: The simulated/accounting fields of StepExecutionStats — everything
#: except the measured wall clocks (``node_wall_seconds`` /
#: ``wall_seconds``), which legitimately differ from run to run.
COMPARED_FIELDS = (
    "step_index", "operation",
    "reader_bytes", "network_bytes", "writer_bytes", "bulk_bytes",
    "rows_moved", "relational_rows",
    "movement_seconds", "relational_seconds", "elapsed_seconds",
    "node_rows", "transfers", "node_operators",
)


def stats_view(stats):
    """Per-step accounting without the wall clocks (comparison helper)."""
    return [
        {name: getattr(step, name) for name in COMPARED_FIELDS}
        for step in stats
    ]
