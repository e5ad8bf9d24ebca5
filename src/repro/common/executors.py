"""Executor backend names, shared by options, runners and the CLI.

Two backends execute DSQL step SQL on the compute nodes:

* ``"numpy"`` — **the default**, the production executor
  (:mod:`repro.vector.np_executor`): a step runs once over its whole
  node group, on typed ndarray kernels.  numpy is a declared
  dependency of the package;
* ``"reference"`` — the tree-walking interpreter, row at a time, node
  by node (the oracle every differential test compares against; it
  parses and binds the step SQL on every node instead of running the
  prepared steps).

The backends differ only in how a step's node SQL runs.  Either hands
the DMS runtime one column batch per step, one segment per source
node, and everything after that — routing, byte accounting, temp
storage, the Return step and the control node's ORDER BY / TOP — is
one path (:mod:`repro.appliance.dms_runtime`).
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
