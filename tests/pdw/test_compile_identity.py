"""Every TPC-H compile is held to recorded digests.

For each TPC-H query, and one UNION ALL whose branches the union itself
moves, at 3 and 8 nodes (scale 0.002), ``compile_pins.json`` holds what
one cold ``PdwEngine.compile`` produced: the sha256 of the MEMO XML, of
the DSQL step texts and of the distributed plan tree (every node's
operator, rows and cost at full precision), the plan cost, the option
counts, the best serial plan's cost and tree, read after the compile
returned, and the sha256 of a second, traced compile's optimizer trace
(every group, prune and priced movement record).  A change to how the
compile pipeline computes its facts (when, how often, in which order)
must leave all of them alone.

The pins were recorded before the serial plan became lazy, the
enforcer's DMS prices were shared per movement kind, the MEMO reader
appended expressions directly and the join pairs were shared between
steps 04 and 05-06.  Regenerate them only for a change meant to move a
plan::

    PYTHONPATH=src:. python -m tests.pdw.test_compile_identity \\
        > tests/pdw/compile_pins.json
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.obs.opt_trace import OptimizerTrace
from repro.pdw.engine import PdwEngine
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES

PINS = pathlib.Path(__file__).with_name("compile_pins.json")
QUERIES = {
    **TPCH_QUERIES,
    "UNION_ALL": ("SELECT o_custkey AS k, o_totalprice AS v FROM orders "
                  "UNION ALL SELECT c_custkey, c_acctbal FROM customer, "
                  "nation WHERE c_nationkey = n_nationkey"),
}
NODE_COUNTS = (3, 8)
SCALE = 0.002


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _plan_lines(node, depth: int = 0):
    yield (f"{'  ' * depth}{node.op.describe()} "
           f"rows={node.cardinality!r} cost={node.cost!r}")
    for child in node.children:
        yield from _plan_lines(child, depth + 1)


def compile_digest(engine: PdwEngine, sql: str) -> dict:
    compiled = engine.compile(sql)
    serial = compiled.serial.best_serial_plan
    trace = OptimizerTrace()
    engine.compile(sql, opt_trace=trace)
    return {
        "memo_xml": _sha([compiled.memo_xml]),
        "dsql_steps": _sha([f"{step.label}: {step.sql}"
                            for step in compiled.dsql_plan.steps]),
        "pdw_plan": _sha(_plan_lines(compiled.pdw_plan.root)),
        "plan_cost": compiled.plan_cost,
        "options_considered": compiled.pdw_plan.options_considered,
        "options_retained": compiled.pdw_plan.options_retained,
        "serial_cost": compiled.serial.best_serial_cost,
        "serial_plan": _sha(_plan_lines(serial)),
        "opt_trace": _sha([repr(list(trace.groups.values())),
                           repr(trace.prunes), repr(trace.movements)]),
    }


def all_digests(node_count: int) -> dict:
    shell = build_tpch_appliance(scale=SCALE, node_count=node_count)[1]
    engine = PdwEngine(shell)
    return {name: compile_digest(engine, QUERIES[name])
            for name in sorted(QUERIES)}


@pytest.fixture(scope="module", params=NODE_COUNTS, ids=lambda n: f"{n}n")
def digests(request):
    return request.param, all_digests(request.param)


def test_every_tpch_compile_matches_its_pin(digests):
    node_count, found = digests
    pinned = json.loads(PINS.read_text())[str(node_count)]
    assert sorted(found) == sorted(pinned)
    for name in sorted(pinned):
        assert found[name] == pinned[name], (node_count, name)


if __name__ == "__main__":
    json.dump({str(n): all_digests(n) for n in NODE_COUNTS}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
