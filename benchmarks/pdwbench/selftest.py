"""``run.py --selftest``: determinism, the spec, and every workload tiny.

Runs in-process in about 20 s on 2 shared cores (less on a quiet box), so
CI can call it.
"""

from __future__ import annotations

import dataclasses
import itertools
import time

from layers import trace_layers
from measure import measure
from workloads import WORKLOADS, client_stream

EXACT = ("plan_cost_s", "sim_seconds", "dms_bytes", "rows_returned")
TINY_SCALE = 0.0005
TINY_SECONDS = 0.2


def _sql(workload, seed, client, count):
    return [op.sql for op in itertools.islice(
        client_stream(workload, seed, client), count)
        if op.template != "NOVEL"]


def selftest(spec: dict) -> int:
    started = time.perf_counter()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        clients = range(workload.clients)
        # Same seed, byte-identical SQL; another seed, another order of
        # the same counted multiset.
        for client in clients:
            assert (_sql(workload, 7, client, 3 * workload.prefix)
                    == _sql(workload, 7, client, 3 * workload.prefix))
        counted = {seed: sorted(sql for c in clients
                                for sql in _sql(workload, seed, c,
                                                workload.prefix))
                   for seed in (7, 8)}
        assert counted[7] == counted[8], workload.name
        assert (_sql(workload, 7, 0, workload.prefix)
                != _sql(workload, 8, 0, workload.prefix)), workload.name

        tiny = dataclasses.replace(workload, scale=TINY_SCALE)
        first, second = (measure(tiny, 7, TINY_SECONDS, setups=1)
                         for _ in range(2))
        traced = trace_layers(tiny, 7, TINY_SECONDS)
        for outcome in (first, second, traced):
            assert outcome["correct"], (workload.name, outcome["info"])
        for name in EXACT:
            assert first["metrics"][name] == second["metrics"][name], name
            assert first["metrics"][name] > 0, name
        assert set(first["metrics"]) == {m["name"]
                                         for m in spec["end_to_end"]}
        assert set(traced["metrics"]) == {m["name"]
                                          for m in spec["per_layer"]}
        print(f"selftest {workload.name}: ok "
              f"({first['info']['samples']} timed ops, "
              f"{traced['info']['traced_ops']} traced)")
    print(f"selftest passed in {time.perf_counter() - started:.1f} s")
    return 0
