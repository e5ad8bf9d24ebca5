"""``repro stats`` counters are held to recorded values.

For each TPC-H query and one UNION ALL, at 3 and 8 nodes (scale 0.001),
``stats_counter_pins.json`` holds the counters ``repro stats --json``
printed when the tracer still kept a counter map beside the records.
Every one of them is now read off the record that owns it
(``repro stats`` compiles with the optimizer trace on and prints
``compile_counters()``): the memo, XML, alternative and step counts off
the compiled artifacts, the parsed bytes off the MEMO reader's result,
and the per-group, enforcer and prune counts off the optimizer trace.  The pins hold each figure to what the tracer counted.

``pdw.cost_model.invocations`` was left out when the pins were recorded:
no record holds it, and it is no longer reported.  Regenerate only for a
change meant to move a plan::

    PYTHONPATH=src:. python -m tests.pdw.test_stats_counter_pins \\
        > tests/pdw/stats_counter_pins.json
"""

import json
import pathlib
import sys

import pytest

from repro import PdwSession
from repro.workloads.tpch_datagen import build_tpch_appliance
from tests.pdw.test_compile_identity import QUERIES

PINS = pathlib.Path(__file__).with_name("stats_counter_pins.json")
NODE_COUNTS = (3, 8)
SCALE = 0.001


def _session(node_count: int) -> PdwSession:
    appliance, shell = build_tpch_appliance(scale=SCALE,
                                            node_count=node_count)
    return PdwSession(appliance=appliance, shell=shell)


@pytest.fixture(scope="module", params=NODE_COUNTS, ids=lambda n: f"{n}n")
def session(request):
    session = _session(request.param)
    yield request.param, session
    session.close()


def stats_counters(session: PdwSession, sql: str) -> dict:
    """The counters ``repro stats --json`` prints for ``sql``."""
    compiled, _trace = session.optimizer_trace(sql)
    return compiled.compile_counters()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_stats_counters_match_their_pin(session, name):
    node_count, live = session
    pinned = json.loads(PINS.read_text())[str(node_count)][name]
    assert stats_counters(live, QUERIES[name]) == pinned


if __name__ == "__main__":
    found = {}
    for count in NODE_COUNTS:
        live = _session(count)
        found[str(count)] = {name: stats_counters(live, QUERIES[name])
                             for name in sorted(QUERIES)}
        live.close()
    json.dump(found, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
