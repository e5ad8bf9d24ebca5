"""Parallel appliance runtime: step DAG scheduling.

The paper's appliance is shared-nothing MPP (§2.1): steps whose inputs
are independent subtrees can overlap.  (Every compute node running a
step's fragment at once is what the production executor does by
running the step once over the whole node group.)  This module supplies
the scheduling layer the runner builds on:

* :func:`resolve_parallel` — the parallel/serial knob with an
  environment-variable override (``REPRO_PARALLEL_RUNTIME``), so CI can
  force either path over the whole test suite;
* :class:`WorkerPool` — a lazily created thread pool the steps run on;
* :class:`StepDag` — the data-dependency DAG over a DSQL plan's steps,
  derived from each step's input temp tables vs. every earlier step's
  ``destination_table``;
* :func:`run_dag` — executes a DAG on a pool, submitting each step the
  moment its inputs are materialized (no barrier between topological
  waves), so independent join subtrees — e.g. TPC-H Q5's bushy shape —
  overlap instead of running in index order.

Determinism contract: the scheduler never changes *what* is computed,
only *when*.  Results are always merged in step-index order, so rows,
stats and profiles are identical to the serial walk.

A note on the GIL: on a stock CPython build step threads interleave
rather than truly overlap, so the DAG runtime measures slower than the
serial walk (EXPERIMENTS.md, "Parallel runtime") and is opt-in; it is
the structural piece that scales on GIL-free builds.
"""

from __future__ import annotations

import os
import re
import threading
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError

#: Environment override for the runtime default: "1"/"true" forces the
#: parallel runtime on everywhere, "0"/"false" forces the serial path.
PARALLEL_ENV_VAR = "REPRO_PARALLEL_RUNTIME"

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off", "")


def resolve_parallel(explicit: Optional[bool], default: bool) -> bool:
    """Resolve a parallel/serial knob: explicit arg > env var > default."""
    if explicit is not None:
        return bool(explicit)
    value = os.environ.get(PARALLEL_ENV_VAR)
    if value is None:
        return default
    value = value.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ExecutionError(
        f"{PARALLEL_ENV_VAR}={value!r} is not a boolean "
        f"(use one of {_TRUTHY + _FALSY})")


class WorkerPool:
    """A lazily created thread pool.

    The pool is not created until the first :meth:`submit`, so serial
    runners never pay for a thread.  When the pool object is garbage
    collected its executor is shut down without joining, so short-lived
    runners (tests, benchmarks) do not accumulate idle threads.
    """

    def __init__(self, max_workers: int, name: str = "repro-worker"):
        self.max_workers = max(1, int(max_workers))
        self._name = name
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._finalizer: Optional[weakref.finalize] = None

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self._name)
                self._executor = executor
                self._finalizer = weakref.finalize(
                    self, executor.shutdown, wait=False)
            return self._executor

    def submit(self, fn: Callable, *args):
        return self._ensure().submit(fn, *args)

    def close(self) -> None:
        with self._lock:
            if self._executor is not None:
                if self._finalizer is not None:
                    self._finalizer.detach()
                    self._finalizer = None
                self._executor.shutdown(wait=True)
                self._executor = None


class StepDag:
    """Data-dependency DAG over a DSQL plan's steps.

    Step *j* depends on step *i* iff step *i*'s destination temp table
    is referenced by step *j*'s SQL.  Temp names are generator-issued
    (``TEMP_ID_k``) and unique per plan, so a word-boundary match on the
    SQL text is exact — ``TEMP_ID_1`` does not match ``TEMP_ID_10``.
    The Return step reads the last temps, so in any connected plan it
    transitively depends on every DMS step, preserving §2.4's "Return
    runs last" semantics without an artificial barrier.
    """

    def __init__(self, plan):
        steps = plan.steps
        self.step_count = len(steps)
        producers: List[Tuple[re.Pattern, int]] = []
        dependencies: Dict[int, Tuple[int, ...]] = {}
        dependents: Dict[int, List[int]] = {i: [] for i in range(len(steps))}
        for step in steps:
            deps = sorted(
                producer for pattern, producer in producers
                if pattern.search(step.sql)
            )
            dependencies[step.index] = tuple(deps)
            for producer in deps:
                dependents[producer].append(step.index)
            if step.destination_table is not None:
                producers.append((
                    re.compile(
                        r"\b" + re.escape(step.destination_table.name)
                        + r"\b", re.IGNORECASE),
                    step.index,
                ))
        self.dependencies = dependencies
        self.dependents = {i: tuple(v) for i, v in dependents.items()}

    def waves(self) -> List[List[int]]:
        """Topological waves: wave *k* holds the steps whose longest
        dependency chain has length *k*.  (Diagnostics and tests; the
        scheduler itself is event-driven, not wave-synchronized.)"""
        level: Dict[int, int] = {}
        for index in range(self.step_count):  # indexes are topo-ordered
            deps = self.dependencies[index]
            level[index] = (max(level[d] for d in deps) + 1) if deps else 0
        waves: List[List[int]] = [[] for _ in range(max(level.values(),
                                                        default=-1) + 1)]
        for index in range(self.step_count):
            waves[level[index]].append(index)
        return waves

    @property
    def max_width(self) -> int:
        """The widest wave — the plan's exploitable step parallelism."""
        return max((len(wave) for wave in self.waves()), default=0)


def run_dag(dag: StepDag, execute: Callable[[int], object],
            pool: WorkerPool,
            on_submit: Optional[Callable[[int], None]] = None
            ) -> Dict[int, object]:
    """Run ``execute(index)`` for every step, submitting each step as
    soon as all its dependencies have completed.  Returns results keyed
    by step index.  ``on_submit`` (when given) is called with each step
    index just before it is handed to the pool — the request-lifecycle
    hook that lets a concurrent DMV reader distinguish a scheduled step
    from one still waiting on its inputs.  On failure every in-flight
    step is drained before the earliest (by step index) exception is
    re-raised, so the caller's cleanup (temp-table drops) never races
    live workers."""
    if dag.step_count == 0:
        return {}
    pending = {i: len(dag.dependencies[i]) for i in range(dag.step_count)}
    results: Dict[int, object] = {}
    failures: List[Tuple[int, BaseException]] = []
    futures = {}
    for index in sorted(i for i, n in pending.items() if n == 0):
        if on_submit is not None:
            on_submit(index)
        futures[pool.submit(execute, index)] = index
    if not futures:
        raise ExecutionError("step DAG has no ready step (dependency cycle)")
    while futures:
        done, _ = wait(futures, return_when=FIRST_COMPLETED)
        ready: List[int] = []
        for future in done:
            index = futures.pop(future)
            error = future.exception()
            if error is not None:
                failures.append((index, error))
                continue
            results[index] = future.result()
            for dependent in dag.dependents[index]:
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    ready.append(dependent)
        if failures:
            wait(list(futures))
            for future, index in futures.items():
                error = future.exception()
                if error is not None:
                    failures.append((index, error))
            raise min(failures)[1]
        for index in sorted(ready):
            if on_submit is not None:
                on_submit(index)
            futures[pool.submit(execute, index)] = index
    if len(results) != dag.step_count:
        unreached = sorted(set(range(dag.step_count)) - set(results))
        raise ExecutionError(
            f"step DAG never scheduled steps {unreached} "
            f"(dependency cycle in plan)")
    return results
