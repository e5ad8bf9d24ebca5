"""No per-row Python and no narrowing copies inside a node-local step.

Through the front door (``PdwService``, default options), a cached
scan-heavy query — Q1 (string GROUP BY keys), Q6 (a five-conjunct
filter), Q12 (string ``IN``, a string CASE under SUM, a join) — runs its
node-local SQL on C loops only:

* strings are dictionary codes: the per-row dict probe
  (``_object_codes``) never runs, no expression takes the evaluator's
  row fallback, and no native-value conversion or sort sees more
  values than a column has *distinct* ones;
* filters select, they do not copy: the only columns gathered are the
  ones a later operator reads, counted per query and pinned;
* a step runs once for its whole node group: one interpreter per step
  per execution, and the gathers above are per step, not per node.

The templates whose strings do not repeat — names, phone numbers:
Q5, Q14, Q16, Q20 and Q22 (``SUBSTRING(c_phone, 1, 2)`` under ``IN``
and GROUP BY) — hold to the string half at eight nodes: their string
expressions are ``numpy.strings`` calls over dictionary entries.  Key
equality is codes too: Q5's and Q20's two-key joins read no native
value, and Q16's ``COUNT(DISTINCT …)`` reduces no member list.

ORDER BY is a ``np.lexsort`` over typed keys: a cached Q1, Q3, Q13 or
Q16 calls ``sort_key`` neither inside a step (each node's ORDER BY)
nor at the control node (the final ORDER BY / TOP).

Key codes are dense: a join, GROUP BY or DISTINCT indexes tables by
code, and a key with more than ``CODES_PER_ROW`` codes per row is
re-coded by one ``np.unique`` first.  On pdwbench's ``exec_shuffle``
set-up (scale 0.005, eight nodes) its JOIN and GRP keys are dense, and
DIST's sparsest one, ``l_suppkey × l_partkey × node`` at ``l_quantity
< 5`` (~167 codes per row), is re-coded once.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.appliance.runner as runner
import repro.vector.np_executor as np_executor
import repro.vector.np_kernels as np_kernels
from repro.service import PdwService
from repro.vector.np_batch import NumpyColumn
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES

#: More values than any string column these queries touch has distinct
#: ones (l_shipmode: 7), fewer than any node's lineitem fragment.
FEW = 16

#: Column gathers (``NumpyColumn.take`` + ``compress``) per cached
#: execution, whatever the node count: a step gathers once for its
#: whole node group.  Q6: the two columns its SUM reads (before
#: selection vectors: 23 per node, every column of the scan once per
#: conjunct).  Q1 keeps nearly every row and reads six columns of them,
#: then routes eleven output columns: its copies are its work.  Q12's
#: ``l_shipmode IN (…)`` reads the dictionary entries and gathers its
#: answer by code, with no per-distinct result to gather back (14
#: before).  Per node before node groups: 31 / 2 / 14 on each of four.
COPIES = {"Q1": 31, "Q6": 2, "Q12": 13}


def no_row_fallback(monkeypatch):
    """Make the evaluator's row fallback inside a kernel fail loudly."""

    def row_by_row(expr, env=None):
        raise AssertionError(f"row fallback over {expr}")

    monkeypatch.setattr(np_kernels, "evaluate", row_by_row)


def no_dict_probe(monkeypatch):
    def probe(values, bools_apart):
        raise AssertionError("per-row dict probe over a string key")

    monkeypatch.setattr(np_executor, "_object_codes", probe)


@pytest.fixture(scope="module")
def front_door(tpch):
    appliance, shell = tpch
    service = PdwService(appliance=appliance, shell=shell)
    yield service
    service.close()


@pytest.mark.parametrize("name", sorted(COPIES))
def test_cached_scan_query_runs_on_c_loops(name, front_door, monkeypatch):
    service = front_door
    assert service.options.executor == "numpy"
    sql = TPCH_QUERIES[name]
    first = service.execute(sql)  # compile, bind, warm the memos
    no_dict_probe(monkeypatch)
    no_row_fallback(monkeypatch)

    seen = Counter()
    copies = Counter()

    real_pylist = NumpyColumn.pylist

    def pylist(self):
        seen["native values"] = max(seen["native values"], len(self))
        return real_pylist(self)

    monkeypatch.setattr(NumpyColumn, "pylist", pylist)

    for method in ("take", "compress"):
        real = getattr(NumpyColumn, method)

        def counting(self, selector, real=real, method=method):
            copies[method] += 1
            return real(self, selector)

        monkeypatch.setattr(NumpyColumn, method, counting)

    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows and again.rows
    scanned = max(len(node.fragment("lineitem"))
                  for node in service.appliance.compute)
    assert FEW < scanned
    assert seen["native values"] <= FEW
    assert sum(copies.values()) == COPIES[name], dict(copies)


@pytest.fixture(scope="module")
def eight_nodes():
    appliance, shell = build_tpch_appliance(scale=0.002, node_count=8)
    service = PdwService(appliance=appliance, shell=shell)
    yield service
    service.close()


@pytest.mark.parametrize("nodes", [4, 8])
@pytest.mark.parametrize("name", ["Q1", "Q3", "Q13"])
def test_one_interpreter_per_step_per_cached_execution(
        name, nodes, front_door, eight_nodes, monkeypatch):
    service = front_door if nodes == 4 else eight_nodes
    assert service.appliance.node_count == nodes
    sql = TPCH_QUERIES[name]
    first = service.execute(sql)
    built = []
    real = np_executor.NumpyInterpreter.__init__

    def counting(self, tables, *args, **kwargs):
        built.append(len(tables))
        real(self, tables, *args, **kwargs)

    monkeypatch.setattr(np_executor.NumpyInterpreter, "__init__",
                        counting)
    again = service.execute(sql)
    assert again.cache_hit and again.rows == first.rows
    steps = again.plan.dsql_plan.steps
    assert len(built) == len(steps)
    # ... each over every source node of its step at once (sorted:
    # the DAG runtime may start independent steps in either order).
    assert sorted(built) == sorted(len(stats.node_rows)
                                   for stats in again.step_stats)
    assert max(built) == nodes


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q13", "Q16"])
def test_cached_order_by_calls_no_sort_key(name, eight_nodes,
                                           monkeypatch):
    service = eight_nodes
    sql = TPCH_QUERIES[name]
    first = service.execute(sql)
    calls = Counter()
    for where, module in (("step", np_executor), ("control", runner)):
        real = module.sort_key

        def counting(value, where=where, real=real):
            calls[where] += 1
            return real(value)

        monkeypatch.setattr(module, "sort_key", counting)
    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows and again.rows
    assert "ORDER BY" in sql
    assert calls == Counter(), dict(calls)


def _inside_a_kernel() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_globals.get("__name__") == np_kernels.__name__:
            return True
        frame = frame.f_back
    return False


@pytest.mark.parametrize("name", ["Q5", "Q14", "Q16", "Q20", "Q22"])
def test_cached_string_query_runs_no_row_fallback(name, eight_nodes,
                                                  monkeypatch):
    service = eight_nodes
    sql = TPCH_QUERIES[name]
    first = service.execute(sql)
    no_dict_probe(monkeypatch)
    no_row_fallback(monkeypatch)
    real_pylist = NumpyColumn.pylist

    def pylist(self):
        values = real_pylist(self)
        if _inside_a_kernel():
            assert len(values) <= len(set(values)), (
                "per-row Python over a column whose values repeat")
        return values

    monkeypatch.setattr(NumpyColumn, "pylist", pylist)
    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows


def _innermost_operator() -> str:
    """The ``NumpyInterpreter._run_*`` method whose own work the caller
    is part of (an operator runs its children inside its frame)."""
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_code.co_name
        if (name.startswith("_run_")
                and frame.f_globals.get("__name__") == np_executor.__name__):
            return name
        frame = frame.f_back
    return ""


@pytest.mark.parametrize("name", ["Q5", "Q20"])
def test_cached_multi_key_join_compares_codes_not_values(
        name, eight_nodes, monkeypatch):
    """Q5 and Q20 join on two keys: the join encodes them into int64
    codes, it never asks a column for its native values."""
    service = eight_nodes
    sql = TPCH_QUERIES[name]
    first = service.execute(sql)
    real_pylist = NumpyColumn.pylist

    def pylist(self):
        assert _innermost_operator() != "_run_join", (
            f"a join read {len(self)} native values")
        return real_pylist(self)

    monkeypatch.setattr(NumpyColumn, "pylist", pylist)
    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows


def test_cached_count_distinct_runs_on_the_typed_path(eight_nodes,
                                                      monkeypatch):
    """Q16's ``COUNT(DISTINCT ps_suppkey)`` keeps the first row of each
    (group, value) by code and counts with ``bincount``: no member
    lists."""
    service = eight_nodes
    sql = TPCH_QUERIES["Q16"]
    first = service.execute(sql)

    def fallback(*args):
        raise AssertionError("member-list aggregation")

    monkeypatch.setattr(np_executor.NumpyInterpreter,
                        "_np_aggregate_fallback", staticmethod(fallback))
    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows


@pytest.fixture(scope="module")
def shuffle_bench():
    """pdwbench's ``exec_shuffle`` appliance: scale 0.005, eight nodes."""
    appliance, shell = build_tpch_appliance(scale=0.005, node_count=8)
    service = PdwService(appliance=appliance, shell=shell)
    yield service
    service.close()


#: pdwbench's JOIN, GRP and DIST templates
#: (``benchmarks/pdwbench/templates.py``).
SHUFFLE_SHAPES = {
    "JOIN": """SELECT c_custkey, o_orderdate FROM orders, customer
               WHERE o_custkey = c_custkey AND o_totalprice > {}""",
    "GRP": """SELECT o_custkey, COUNT(*) AS order_count,
                     SUM(o_totalprice) AS total
              FROM orders WHERE o_orderdate >= DATE '{}-01-01'
              GROUP BY o_custkey""",
    "DIST": """SELECT DISTINCT l_suppkey, l_partkey FROM lineitem
               WHERE l_quantity < {}""",
}


@pytest.mark.parametrize("name,literal,recodes", [
    ("JOIN", 100, 0), ("JOIN", 200000, 0),
    ("GRP", 1993, 0), ("GRP", 1997, 0),
    ("DIST", 5, 1),
])
def test_benchmark_keys_fall_on_their_side_of_the_density_rule(
        name, literal, recodes, shuffle_bench, monkeypatch):
    service = shuffle_bench
    sql = SHUFFLE_SHAPES[name].format(literal)
    first = service.execute(sql)
    recoded = []
    real = np_executor._dense_recode

    def counting(codes):
        recoded.append(len(codes))
        return real(codes)

    monkeypatch.setattr(np_executor, "_dense_recode", counting)
    again = service.execute(sql)
    assert again.cache_hit
    assert again.rows == first.rows and again.rows
    assert len(recoded) == recodes, recoded
