"""No tuples between steps.

Through the front door (``PdwService``, default options) a DMS step's
output stays typed columns from the kernels that made it to the scan of
the step that reads it: nothing sizes a value with ``value_bytes``,
nothing builds a row to route it, and nothing turns a column back into
Python values until the control node has ordered the Return step's
batch and assembles the client's rows.
"""

from __future__ import annotations

from collections import Counter

import repro.appliance.dms_runtime as dms_runtime
import repro.appliance.storage as storage
from repro.appliance.dms_runtime import DmsRuntime
from repro.appliance.runner import DsqlRunner
from repro.service import PdwService
from repro.vector.np_batch import ArrayBatch, NumpyColumn
from repro.workloads.tpch_queries import TPCH_QUERIES


def test_cached_q13_builds_rows_only_at_the_control_node(tpch,
                                                          monkeypatch):
    appliance, shell = tpch
    service = PdwService(appliance=appliance, shell=shell)
    try:
        sql = TPCH_QUERIES["Q13"]
        first = service.execute(sql)  # compile, bind, warm the memos
        steps = first.plan.dsql_plan.steps
        assert [step.kind.value for step in steps] == ["dms", "dms",
                                                       "return"]
        assert service.options.executor == "numpy"

        def trap(*_):
            raise AssertionError(
                "per-value byte accounting on the columnar path")

        monkeypatch.setattr(storage, "value_bytes", trap)
        monkeypatch.setattr(storage, "row_bytes", trap)
        # The runtime has no per-row sizing of its own to call.
        assert not hasattr(dms_runtime, "row_bytes")

        # Which runtime call a native-value conversion happens under.
        # (Q13's steps depend on each other, so even the DAG runtime
        # runs them one at a time.)
        current = []
        calls = Counter()

        def under(cls, name):
            real = getattr(cls, name)

            def wrapped(self, *args, **kwargs):
                current.append(name)
                try:
                    return real(self, *args, **kwargs)
                finally:
                    current.pop()

            monkeypatch.setattr(cls, name, wrapped)

        def counted(cls, method):
            real = getattr(cls, method)

            def counting(self, *args):
                calls[(method, current[-1] if current else None)] += 1
                return real(self, *args)

            monkeypatch.setattr(cls, method, counting)

        under(DmsRuntime, "execute_movement")
        under(DmsRuntime, "execute_return")
        under(DsqlRunner, "_finalize")
        counted(NumpyColumn, "pylist")
        counted(ArrayBatch, "rows")

        again = service.execute(sql)
        assert again.cache_hit
        assert again.rows == first.rows
        moved = sum(s.rows_moved for s in again.step_stats[:-1])
        assert moved > appliance.node_count  # real data moved
        # Every conversion happened in the control node's merge, after
        # its ORDER BY — none while a DMS step or the Return step ran,
        # none elsewhere (the temps were dropped as column fragments,
        # never viewed as rows).
        assert calls and {step for _, step in calls} == {"_finalize"}
        # ... and once: the Return step's node group is one batch.
        assert len(again.step_stats[-1].node_rows) > 1
        assert calls[("rows", "_finalize")] == 1
    finally:
        service.close()
