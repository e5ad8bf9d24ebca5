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
  backend on the pdwbench workloads (EXPERIMENTS.md, PR 17).  Requires
  numpy; :func:`effective_executor` degrades it to ``"vectorized"``
  (with one warning) when the import fails.

The legacy ``compiled=`` boolean only separates the reference
interpreter (``False``) from the default backend (``True``); helpers
here keep that mapping in one place so every layer derives it
identically.
"""

from __future__ import annotations

import warnings
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


def numpy_available() -> bool:
    """Whether numpy imports in this environment.

    Deliberately *not* cached: the graceful-degradation tests install
    an import hook mid-process, and a long-lived service should notice
    an environment that changes under it no more stalely than the next
    resolution.  The import itself is cached by ``sys.modules``, so the
    common case costs one dict lookup.
    """
    try:
        import numpy  # noqa: F401
        return True
    except ImportError:
        return False


def effective_executor(executor: str) -> str:
    """The backend that will actually run: ``"numpy"`` degrades to
    ``"vectorized"`` (with a single warning) when numpy is absent;
    every other name passes through unchanged.

    Callers apply this exactly once per front door (options
    resolution, or runner construction for callers that bypass
    options), so the warning fires once per degraded run, not once
    per layer.
    """
    if executor == "numpy" and not numpy_available():
        warnings.warn(
            "executor='numpy' requested but numpy is not importable; "
            "falling back to the pure-Python 'vectorized' backend",
            RuntimeWarning, stacklevel=3)
        return "vectorized"
    return executor
