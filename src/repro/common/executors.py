"""Executor backend names, shared by options, runners and the CLI.

Two backends execute DSQL step SQL on the compute nodes:

* ``"numpy"`` — **the default**, the production executor
  (:mod:`repro.vector.np_executor`): a step runs once over its whole
  node group, on typed ndarray kernels, and DMS steps move typed
  columns instead of row tuples.  numpy is a declared dependency of
  the package;
* ``"reference"`` — the tree-walking interpreter, row at a time, node
  by node (the oracle every differential test compares against; it
  parses and binds the step SQL on every node instead of running the
  prepared steps).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ReproError

#: Valid ``executor=`` values, reference first.
EXECUTORS = ("reference", "numpy")


def resolve_executor(executor: Optional[str]) -> str:
    """Canonical executor name: ``None`` is the default, ``"numpy"``."""
    if executor is None:
        return "numpy"
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r} (use one of {EXECUTORS})")
    return executor
