"""The service's lenses after a fixed request sequence, pinned byte for
byte.

A fixed sequence of requests runs through ``PdwService.execute`` at 3
and 8 nodes: cached templates re-bound with new literals and repeated
verbatim, a hinted plan of one shape, a shuffle, a GROUP BY with many
aggregates, one request that fails, one query over a control-node table
and one over the system views.  Every clock the service reads is a fake
that advances by a fixed step per read, so each wall time is a function
of the code path alone.  Afterwards ``metrics_text()``, the Query Store's
``query_store_flush`` events and every ``sys.dm_pdw_*`` /
``sys.query_store_*`` view must equal ``lens_pins/<nodes>.txt``.

A change that moves where a lens computes a fact (once per template
instead of once per call) must leave what it shows alone.  A change
meant to move a lens regenerates the pins::

    PYTHONPATH=src:. python -m tests.obs.test_lens_pins
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest

from repro.catalog.schema import ON_CONTROL, Column, TableDef
from repro.common.types import INTEGER, varchar
from repro.obs.system_views import SYSTEM_VIEW_NAMES
from repro.service import ExecutionOptions, PdwService
from repro.service.plan_cache import clear_shape_memo
from repro.workloads.tpch_datagen import build_tpch_appliance

PINS = Path(__file__).parent / "lens_pins"
NODE_COUNTS = (3, 8)

#: A clock read advances time by this much (an exact binary fraction,
#: so sums of reads are exact).
TICK = 1.0 / 1024

_Q1 = ("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
       "SUM(l_extendedprice) AS sum_base, AVG(l_discount) AS avg_disc, "
       "MIN(l_tax) AS min_tax, MAX(l_shipdate) AS last_ship, "
       "COUNT(*) AS count_order FROM lineitem "
       "WHERE l_shipdate <= DATE '{}' "
       "GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus")
_JOIN = ("SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS t "
         "FROM customer, orders WHERE c_custkey = o_custkey "
         "AND o_totalprice > {} GROUP BY c_mktsegment "
         "ORDER BY c_mktsegment")
_SHUFFLE = ("SELECT o_custkey, COUNT(*) AS n FROM orders "
            "WHERE o_orderstatus = '{}' GROUP BY o_custkey")
_DISTINCT = ("SELECT l_returnflag, COUNT(DISTINCT l_partkey) AS parts "
             "FROM lineitem WHERE l_quantity < {} GROUP BY l_returnflag")

SHUFFLE_HINT = ExecutionOptions(hints=(("customer", "shuffle"),))

#: (sql, options or None); every text after its template's first is a
#: plan-cache hit, re-bound or repeated verbatim.
REQUESTS = [
    (_Q1.format("1998-09-02"), None),
    (_JOIN.format(1000), None),
    (_Q1.format("1998-09-02"), None),
    (_SHUFFLE.format("F"), None),
    (_Q1.format("1995-01-01"), None),
    (_DISTINCT.format(10), None),
    ("SELECT n_name FROM no_such_table", None),
    (_JOIN.format(2000), None),
    (_JOIN.format(1000), SHUFFLE_HINT),
    ("SELECT c, COUNT(*) AS n, SUM(k) AS s FROM ctl GROUP BY c "
     "ORDER BY c", None),
    (_SHUFFLE.format("O"), None),
    (_DISTINCT.format(30), None),
    ("SELECT status, COUNT(*) AS n FROM sys.dm_pdw_exec_requests "
     "GROUP BY status ORDER BY status", None),
    (_Q1.format("1998-09-02"), None),
    (_JOIN.format(1000), SHUFFLE_HINT),
]


def lens_text(node_count: int, monkeypatch) -> str:
    """Run :data:`REQUESTS` on a fresh service over ``node_count``
    nodes, under the fake clock; return every lens, rendered."""
    appliance, shell = build_tpch_appliance(scale=0.001,
                                            node_count=node_count)
    appliance.create_table(TableDef(
        "ctl", [Column("k", INTEGER), Column("c", varchar(4))],
        ON_CONTROL))
    appliance.load_rows("ctl", [(k, "ab"[k % 2]) for k in range(7)])
    shell = appliance.compute_shell_database()
    clear_shape_memo()
    ticks = itertools.count(1)
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * TICK)
    monkeypatch.setattr(time, "time", lambda: next(ticks) * TICK)
    service = PdwService(appliance=appliance, shell=shell)
    try:
        for sql, options in REQUESTS:
            try:
                service.execute(sql, options=options)
            except Exception as exc:  # the one failing request
                assert "no_such_table" in sql, exc
        service.refresh_system_views()
        parts = ["# metrics_text()", service.metrics_text().rstrip("\n"),
                 "# query_store.to_events()"]
        parts += [json.dumps(event, sort_keys=True)
                  for event in service.query_store.to_events()]
        for view in SYSTEM_VIEW_NAMES:
            parts.append(f"# sys.{view}")
            parts += [repr(row)
                      for row in appliance.table_rows_everywhere(view)]
    finally:
        service.close()
        monkeypatch.undo()
        clear_shape_memo()
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("node_count", NODE_COUNTS)
def test_lenses_match_their_pins(node_count, monkeypatch):
    expected = (PINS / f"{node_count}.txt").read_text(encoding="utf-8")
    assert lens_text(node_count, monkeypatch) == expected


if __name__ == "__main__":
    PINS.mkdir(exist_ok=True)
    patcher = pytest.MonkeyPatch()
    for count in NODE_COUNTS:
        (PINS / f"{count}.txt").write_text(lens_text(count, patcher),
                                            encoding="utf-8")
