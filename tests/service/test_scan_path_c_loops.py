"""No per-row Python and no narrowing copies inside a node-local step.

Through the front door (``PdwService``, default options), a cached
scan-heavy query — Q1 (string GROUP BY keys), Q6 (a five-conjunct
filter), Q12 (string ``IN``, a string CASE under SUM, a join) — runs its
node-local SQL on C loops only:

* strings are dictionary codes: the per-row dict probe
  (``_object_codes``) never runs, and no list kernel, native-value
  conversion or sort sees more values than a column has *distinct*
  ones;
* filters select, they do not copy: the only columns gathered are the
  ones a later operator reads, counted per query and pinned.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.vector.np_executor as np_executor
from repro.service import PdwService
from repro.vector.column_batch import ColumnBatch
from repro.vector.np_batch import NumpyColumn
from repro.workloads.tpch_queries import TPCH_QUERIES

#: More values than any string column these queries touch has distinct
#: ones (l_shipmode: 7), fewer than any node's lineitem fragment.
FEW = 16

#: Column gathers (``NumpyColumn.take`` + ``compress``) per cached
#: execution on the 4-node fixture.  Q6: the two columns its SUM reads,
#: on each node (before selection vectors: 23 per node, every column of
#: the scan once per conjunct).  Q1 keeps nearly every row and reads six
#: columns of them, then routes eleven output columns: its copies are
#: its work.  Before: 160 / 92 / 224.
COPIES = {"Q1": 124, "Q6": 8, "Q12": 56}


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

    def no_dict_probe(values):
        raise AssertionError("per-row dict probe over a string key")

    monkeypatch.setattr(np_executor, "_object_codes", no_dict_probe)

    seen = Counter()
    copies = Counter()

    real_batch = ColumnBatch.__init__

    def list_batch(self, columns, length):
        seen["list kernel rows"] = max(seen["list kernel rows"], length)
        real_batch(self, columns, length)

    monkeypatch.setattr(ColumnBatch, "__init__", list_batch)

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
    scanned = max(len(node.rows("lineitem"))
                  for node in service.appliance.compute)
    assert FEW < scanned
    # Strings were looked at (Q1, Q12) — a few values at a time.
    if name != "Q6":
        assert 0 < seen["list kernel rows"]
    assert seen["list kernel rows"] <= FEW
    assert seen["native values"] <= FEW
    assert sum(copies.values()) <= COPIES[name], dict(copies)
    if name == "Q6":
        assert sum(copies.values()) == 2 * service.appliance.node_count
