"""One row count per GROUP BY, against the reference interpreter.

The numpy executor counts each group's rows once; COUNT(*) and every
non-DISTINCT aggregate whose argument holds no NULL read that count,
and every other aggregate counts its own rows.  One GROUP BY here holds
each kind side by side: COUNT(*), SUM / AVG over a NULL-free column,
SUM / AVG / COUNT over a NULL-holding one (a group of nothing but NULLs
among them), MIN / MAX over floats with NaN, and COUNT(DISTINCT).  Both
executors, through the service, must return what ``run_reference``
returns on the single-system image, at 1, 3 and 8 nodes.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.appliance.runner import run_reference
from repro.appliance.storage import Appliance
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import DOUBLE, INTEGER, varchar
from repro.service import ExecutionOptions, PdwService
from repro.vector import np_executor

from tests.conftest import canonical


def _rows():
    rng = random.Random(42)
    rows = []
    for i in range(240):
        k = i % 7
        # Group 3's x is all NULL; group 5's f holds a NaN.
        x = None if k == 3 or rng.random() < 0.3 else rng.randint(-50, 50)
        f = (math.nan if k == 5 and i % 3 == 0
             else None if rng.random() < 0.2
             else rng.uniform(-10.0, 10.0))
        s = None if rng.random() < 0.25 else f"s{rng.randint(0, 4)}"
        rows.append((i, k, rng.randint(0, 100), x, f, s))
    return rows


ROWS = _rows()

AGGREGATES = ("COUNT(*) AS n, SUM(a) AS sa, AVG(a) AS aa, SUM(x) AS sx, "
              "AVG(x) AS ax, COUNT(x) AS cx, MIN(f) AS mf, MAX(f) AS xf, "
              "COUNT(DISTINCT s) AS ds, COUNT(DISTINCT a) AS da")

QUERIES = [
    f"SELECT k, {AGGREGATES} FROM g GROUP BY k",
    f"SELECT k, s, {AGGREGATES} FROM g WHERE a > 20 GROUP BY k, s",
    f"SELECT {AGGREGATES} FROM g",
    f"SELECT {AGGREGATES} FROM g WHERE a > 1000",
    f"SELECT k, {AGGREGATES} FROM g WHERE a > 1000 GROUP BY k",
]


def _nan_aware(rows):
    return canonical([
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v
              for v in row) for row in rows])


@pytest.fixture(scope="module", params=[1, 3, 8])
def service(request):
    appliance = Appliance(request.param)
    appliance.create_table(TableDef(
        "g", [Column("id", INTEGER), Column("k", INTEGER),
              Column("a", INTEGER), Column("x", INTEGER),
              Column("f", DOUBLE), Column("s", varchar(4))],
        hash_distributed("id")))
    appliance.load_rows("g", ROWS)
    service = PdwService(appliance=appliance,
                         shell=appliance.compute_shell_database())
    yield service
    service.close()


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("executor", ["numpy", "reference"])
def test_shared_group_count_matches_the_reference(service, sql, executor):
    expected = _nan_aware(run_reference(service.appliance, sql).rows)
    for _ in range(2):  # a compile, then a plan-cache hit
        result = service.execute(sql, options=ExecutionOptions(
            executor=executor))
        assert _nan_aware(result.rows) == expected


@pytest.mark.parametrize("sql", QUERIES)
def test_the_numpy_oracle_agrees(service, sql):
    assert _nan_aware(run_reference(service.appliance, sql,
                                    executor="numpy").rows) \
        == _nan_aware(run_reference(service.appliance, sql).rows)


@pytest.mark.parametrize("sql, per_group_by", [
    ("SELECT k, COUNT(*) AS n, SUM(a) AS sa, AVG(a) AS aa, "
     "COUNT(a) AS ca, MIN(a) AS ma FROM g GROUP BY k", 1),
    # A string MIN / MAX reduces member lists: no aggregate reads the
    # shared count.
    ("SELECT k, MIN(s) AS ms, MAX(s) AS xs FROM g GROUP BY k", 0),
])
def test_one_group_count_per_group_by(service, monkeypatch, sql,
                                      per_group_by):
    """A GROUP BY over NULL-free arguments counts its rows once,
    however many aggregates read the count, and not at all when none
    reads it."""
    service.execute(sql)
    counted, grouped = [], []
    count = np_executor._group_counts
    monkeypatch.setattr(np_executor, "_group_counts",
                        lambda *args: counted.append(1) or count(*args))
    group_by = np_executor.NumpyInterpreter._run_group_by
    monkeypatch.setattr(np_executor.NumpyInterpreter, "_run_group_by",
                        lambda self, op: grouped.append(1)
                        or group_by(self, op))
    result = service.execute(sql)
    assert result.cache_hit and grouped
    assert len(counted) == per_group_by * len(grouped)
