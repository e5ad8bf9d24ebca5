"""Parallel appliance runtime vs. the serial walk.

Builds TPC-H appliances at several node counts, compiles Q1/Q5/Q12 once
per appliance, then executes each plan with the serial runtime
(``parallel=False``: one step at a time) and with the parallel runtime
(``parallel=True``: steps scheduled as a dependency DAG on a thread
pool, independent join subtrees overlapping).  Reports wall-clock per
query, DSQL steps per second, and the serial/parallel speedup, and
checks the two runtimes return identical rows.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_runtime.py
    PYTHONPATH=src python benchmarks/bench_parallel_runtime.py --quick
    PYTHONPATH=src python benchmarks/bench_parallel_runtime.py \
        --executor reference

``--executor`` selects the executor both runners use (default: the
front-door default, ``numpy``).  ``--quick`` shrinks the appliance
matrix for the CI smoke and exits non-zero if the runtimes disagree on
rows or the parallel runtime is catastrophically slower (>2x) — a
scheduling regression.  The full run archives its table under
``benchmarks/results/parallel_runtime_<executor>.txt``.

Interpreting the numbers: on a stock (GIL) CPython build step threads
interleave rather than overlap, so expect a speedup at or below 1.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Tuple

from repro.appliance.runner import DsqlRunner
from repro.appliance.scheduler import StepDag
from repro.common.executors import EXECUTORS, resolve_executor
from repro.pdw.engine import PdwEngine
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

QUERIES = ("Q1", "Q5", "Q12")
NODE_COUNTS = (2, 4, 8)
QUICK_NODE_COUNTS = (4,)


def time_runner(runner: DsqlRunner, plan, repeat: int
                ) -> Tuple[float, List[Tuple]]:
    """(best wall-clock seconds, canonical rows) over ``repeat`` runs."""
    best = float("inf")
    rows: List[Tuple] = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = runner.run(plan)
        best = min(best, time.perf_counter() - started)
        rows = result.sorted_rows()
    return best, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="parallel runtime vs serial reference walk")
    parser.add_argument("--quick", action="store_true",
                        help="one small appliance; exit 1 on row "
                             "mismatch or a >2x slowdown (CI smoke)")
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale (default 0.01, quick 0.002)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed runs per query, best kept "
                             "(default 3, quick 2)")
    parser.add_argument("--executor", default=None, choices=EXECUTORS,
                        help="executor for both runners (default: the "
                             "front-door default)")
    args = parser.parse_args(argv)
    executor = resolve_executor(args.executor)

    scale = args.scale if args.scale is not None else (
        0.002 if args.quick else 0.01)
    repeat = args.repeat if args.repeat is not None else (
        2 if args.quick else 3)
    node_counts = QUICK_NODE_COUNTS if args.quick else NODE_COUNTS

    header = (f"{'nodes':>5} {'query':<6} {'steps':>5} "
              f"{'serial s':>10} {'parallel s':>11} "
              f"{'serial st/s':>12} {'parallel st/s':>14} "
              f"{'speedup':>8} {'dag width':>9}")
    lines: List[str] = [header, "-" * len(header)]
    mismatches: List[str] = []
    worst_ratio = float("inf")  # serial/parallel; >1 = parallel faster

    for nodes in node_counts:
        print(f"building TPC-H appliance "
              f"(scale={scale}, nodes={nodes}) ...")
        appliance, shell = build_tpch_appliance(scale=scale,
                                                node_count=nodes)
        engine = PdwEngine(shell)
        plans = {name: engine.compile(TPCH_QUERIES[name]).dsql_plan
                 for name in QUERIES}
        serial_runner = DsqlRunner(appliance, parallel=False,
                                   executor=executor)
        parallel_runner = DsqlRunner(appliance, parallel=True,
                                     executor=executor)
        # warm caches (parse/bind, compiled kernels, thread pools)
        for plan in plans.values():
            serial_runner.run(plan)
            parallel_runner.run(plan)
        for name, plan in plans.items():
            serial_s, serial_rows = time_runner(serial_runner, plan,
                                                repeat)
            parallel_s, parallel_rows = time_runner(parallel_runner,
                                                    plan, repeat)
            if parallel_rows != serial_rows:
                mismatches.append(f"{name} at {nodes} nodes")
            steps = len(plan.steps)
            speedup = serial_s / parallel_s
            worst_ratio = min(worst_ratio, speedup)
            lines.append(
                f"{nodes:>5} {name:<6} {steps:>5} "
                f"{serial_s:>10.4f} {parallel_s:>11.4f} "
                f"{steps / serial_s:>12.1f} {steps / parallel_s:>14.1f} "
                f"{speedup:>7.2f}x {StepDag(plan).max_width:>9}")

    table = "\n".join(lines)
    print()
    print(table)

    if mismatches:
        print(f"\nFAIL: runtimes disagree on rows: {mismatches}")
        return 1

    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"parallel_runtime_{executor}.txt"
        path.write_text(table + "\n")
        print(f"\narchived to {path}")

    if args.quick and worst_ratio < 0.5:
        print(f"\nFAIL: parallel runtime is >2x slower than serial "
              f"(worst speedup {worst_ratio:.2f}x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
