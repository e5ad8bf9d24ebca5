"""Columnar execution: the production executor and the list backend
it grew from.

DSQL step SQL runs batch-at-a-time over columnar fragments.  The
production executor — ``executor="numpy"``, the default
(:mod:`repro.vector.np_batch`, :mod:`repro.vector.np_kernels`,
:mod:`repro.vector.np_executor`) — stores a column as a typed ndarray
with an explicit NULL mask, a repeating string column as int64 codes
into a dictionary, and only what is left as Python objects; kernels,
filters, joins and aggregates run inside numpy's C loops, a filter
carries a selection vector instead of copying, and the columns move
through DMS as they are.

The list backend (``executor="vectorized"``) is the same operator
semantics over plain Python lists: a
:class:`~repro.vector.column_batch.ColumnBatch` holds one list per
column, scalar expressions compile into column kernels
(:mod:`repro.vector.kernels`) that evaluate a whole column per call
with selection-vector narrowing for short-circuit semantics, and
:class:`~repro.vector.executor.VectorInterpreter` mirrors the row
interpreters' operator semantics (including stats counters and the
profiler observer protocol).  The numpy executor inherits from it and
falls back on its kernels wherever an array form would not be
bit-identical.

Both stand beside the ``"reference"`` tree-walking interpreter (the
oracle every differential test compares against) and the
``"compiled"`` closure backend; ``ExecutionOptions(executor=...)``
selects one.
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
