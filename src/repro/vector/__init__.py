"""Vectorized columnar execution backends (the third and fourth
executors).

DSQL step SQL runs batch-at-a-time over columnar fragments: a
:class:`~repro.vector.column_batch.ColumnBatch` holds one Python list
per column, scalar expressions compile into column kernels
(:mod:`repro.vector.kernels`) that evaluate a whole column per call with
selection-vector narrowing for short-circuit semantics, and
:class:`~repro.vector.executor.VectorInterpreter` mirrors the row
interpreters' operator semantics (including stats counters and the
profiler observer protocol) while touching rows only at the
storage boundary.

The numpy backend (:mod:`repro.vector.np_batch`,
:mod:`repro.vector.np_kernels`, :mod:`repro.vector.np_executor`) keeps
the same operator semantics but stores columns as typed ndarrays with
explicit NULL masks, so kernels and aggregates run inside numpy's C
loops — which release the GIL, letting the parallel node runtime
overlap real work.

Selected with ``ExecutionOptions(executor="vectorized")`` or
``executor="numpy"`` alongside the ``"reference"`` tree-walking
interpreter and the ``"compiled"`` closure backend.
"""

from repro.vector.column_batch import ColumnBatch
from repro.vector.executor import VectorInterpreter
from repro.vector.kernels import (
    clear_kernel_cache,
    compile_kernel,
    compile_selection,
)
from repro.vector.np_batch import ArrayBatch, ColumnFragment, NumpyColumn
from repro.vector.np_executor import NumpyInterpreter
from repro.vector.np_kernels import (
    clear_np_kernel_cache,
    compile_np_kernel,
    compile_np_selection,
)

__all__ = [
    "ArrayBatch",
    "ColumnBatch",
    "ColumnFragment",
    "NumpyColumn",
    "NumpyInterpreter",
    "VectorInterpreter",
    "clear_kernel_cache",
    "clear_np_kernel_cache",
    "compile_kernel",
    "compile_np_kernel",
    "compile_np_selection",
    "compile_selection",
]
