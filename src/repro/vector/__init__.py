"""Columnar execution: the production executor and its object-column
fallback.

DSQL step SQL runs batch-at-a-time over columnar fragments, once per
step for the step's whole node group.  The production executor —
``executor="numpy"``, the default (:mod:`repro.vector.np_batch`,
:mod:`repro.vector.np_kernels`, :mod:`repro.vector.np_executor`) —
stores a column as a typed ndarray with an explicit NULL mask, a
repeating string column as int64 codes into a dictionary, and only what
is left as Python objects; kernels, filters, joins and aggregates run
inside numpy's C loops, a filter carries a selection vector instead of
copying, and the columns move through DMS as they are.

Where an array form would not be bit-identical, the numpy kernels fall
back on the list kernels (:mod:`repro.vector.kernels`) over a
:class:`~repro.vector.column_batch.ColumnBatch` of native Python
values.  Both stand beside the ``"reference"`` tree-walking interpreter
(:mod:`repro.appliance.interpreter`), the oracle every differential
test compares against.
"""

from repro.vector.column_batch import ColumnBatch
from repro.vector.kernels import clear_kernel_cache, compile_kernel
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
    "clear_kernel_cache",
    "clear_np_kernel_cache",
    "compile_kernel",
    "compile_np_kernel",
    "compile_np_selection",
]
