"""IN lists with a NULL member, against SQLite on the same rows.

``x IN (k, NULL)`` is TRUE where ``x = k`` and UNKNOWN everywhere else
(NULL might be equal); ``x NOT IN (k, NULL)`` is therefore never TRUE.
Each query runs through ``PdwService.execute`` on a 3-node appliance
with both executors, and Python's stdlib ``sqlite3`` runs it on the same
rows: an oracle that shares none of this system's parser, binder or
evaluator.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import INTEGER, varchar
from repro.service import ExecutionOptions, PdwService

from tests.conftest import canonical

ROWS = [
    (1, 1, "a"), (2, 2, "b"), (3, None, "a"), (4, 3, None),
    (5, 1, None), (6, None, None), (7, 4, "c"), (8, 2, "a"),
    (9, 5, "b"), (10, 1, "d"),
]

QUERIES = [
    "SELECT k FROM t WHERE v IN (1, NULL)",
    "SELECT k FROM t WHERE v NOT IN (1, NULL)",
    "SELECT k FROM t WHERE v NOT IN (1, 2)",
    "SELECT k FROM t WHERE NOT (v IN (1, NULL))",
    "SELECT k FROM t WHERE v IN (NULL)",
    "SELECT k FROM t WHERE s IN ('a', NULL)",
    "SELECT k FROM t WHERE s NOT IN ('a', NULL)",
    "SELECT k FROM t WHERE s NOT IN ('a', 'b')",
    "SELECT k, CASE WHEN v IN (1, NULL) THEN 'in' "
    "WHEN v NOT IN (1, NULL) THEN 'out' ELSE 'unknown' END AS c FROM t",
    "SELECT x.c, COUNT(*) AS n FROM (SELECT CASE "
    "WHEN s IN ('a', NULL) THEN 'in' WHEN s NOT IN ('a', NULL) THEN 'out' "
    "ELSE 'unknown' END AS c FROM t) x GROUP BY x.c",
    "SELECT a.k, b.k AS j FROM t a, t b "
    "WHERE a.v = b.k AND b.v NOT IN (5, NULL)",
    "SELECT a.k, b.k AS j FROM t a, t b WHERE a.v = b.k AND b.v IN (5, NULL)",
]


@pytest.fixture(scope="module")
def service():
    appliance = Appliance(3)
    appliance.create_table(TableDef(
        "t", [Column("k", INTEGER), Column("v", INTEGER),
              Column("s", varchar(4))],
        hash_distributed("k")))
    appliance.load_rows("t", ROWS)
    return PdwService(appliance=appliance,
                      shell=appliance.compute_shell_database())


@pytest.fixture(scope="module")
def sqlite():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (k INTEGER, v INTEGER, s TEXT)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    yield connection
    connection.close()


@pytest.mark.parametrize("executor", ["numpy", "reference"])
@pytest.mark.parametrize("sql", QUERIES)
def test_rows_equal_sqlite(service, sqlite, sql, executor):
    result = service.execute(sql, options=ExecutionOptions(
        executor=executor))
    assert canonical(result.rows) == canonical(sqlite.execute(sql))


def test_not_in_with_a_null_member_is_never_true(service):
    assert service.execute(
        "SELECT k FROM t WHERE v NOT IN (1, NULL)").rows == []


@pytest.fixture(scope="module")
def nation_service():
    return PdwService(scale=0.002, node_count=3)


def _estimate(service, predicate):
    """(estimated rows, actual rows) of the nation scan under
    ``predicate``."""
    result = service.execute(f"SELECT n_name FROM nation WHERE {predicate}")
    return result.plan.dsql_plan.steps[-1].estimated_rows, len(result.rows)


def test_in_list_estimates_count_only_the_non_null_members(nation_service):
    assert _estimate(nation_service, "n_regionkey IN (1, NULL)") \
        == _estimate(nation_service, "n_regionkey IN (1)") == (5.0, 5)
    assert _estimate(nation_service, "n_regionkey NOT IN (1)") \
        == (20.0, 20)


def test_not_in_with_a_null_member_estimates_no_rows(nation_service):
    estimated, actual = _estimate(nation_service,
                                  "n_regionkey NOT IN (1, NULL)")
    assert actual == 0 and round(estimated) == 0
    # The same floor every never-TRUE predicate gets.
    assert estimated == _estimate(nation_service,
                                  "n_regionkey IN (NULL)")[0]


def test_not_over_an_in_list_estimates_as_the_negated_list(nation_service):
    """``NOT (x IN (…))`` is estimated as ``x NOT IN (…)``: with a NULL
    member, never TRUE (it was 1 − sel(IN), 20 rows for 0 actual)."""
    for members in ("1, NULL", "1", "NULL"):
        assert _estimate(nation_service,
                         f"NOT (n_regionkey IN ({members}))") \
            == _estimate(nation_service, f"n_regionkey NOT IN ({members})")
    estimated, actual = _estimate(nation_service,
                                  "NOT (n_regionkey IN (1, NULL))")
    assert actual == 0 and round(estimated) == 0
    assert _estimate(nation_service, "NOT (n_regionkey NOT IN (1, NULL))") \
        == _estimate(nation_service, "n_regionkey IN (1, NULL)") == (5.0, 5)
