"""Executor backend names, shared by options, runners and the CLI.

Four scalar/operator backends execute DSQL step SQL on the compute
nodes:

* ``"reference"`` — tree-walking evaluator, row at a time (ground
  truth; also bypasses the step bind cache so every node re-parses);
* ``"compiled"`` — closure-compiled expressions, row at a time;
* ``"vectorized"`` — columnar batch-at-a-time kernels over Python
  lists (:mod:`repro.vector`);
* ``"numpy"`` — dtype-aware array kernels over numpy ndarrays
  (:mod:`repro.vector.np_executor`), **the default**: the fastest
  backend on the pdwbench workloads (EXPERIMENTS.md, PR 17), and the
  only one whose DMS steps move typed columns instead of row tuples
  (PR 18).  numpy is a declared dependency of the package.

The legacy ``compiled=`` boolean only separates the reference
interpreter (``False``) from the default backend (``True``); helpers
here keep that mapping in one place so every layer derives it
identically.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ReproError

#: Valid ``executor=`` values, reference first.
EXECUTORS = ("reference", "compiled", "vectorized", "numpy")


def resolve_executor(executor: Optional[str],
                     compiled: bool = True) -> str:
    """Canonical executor name from the ``executor=`` knob plus the
    legacy ``compiled=`` flag (used only when ``executor`` is None:
    ``True`` is the default backend, ``"numpy"``; ``False`` the
    reference interpreter)."""
    if executor is None:
        return "numpy" if compiled else "reference"
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r} (use one of {EXECUTORS})")
    return executor
