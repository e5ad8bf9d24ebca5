"""Columnar execution: the production executor.

DSQL step SQL runs batch-at-a-time over columnar fragments, once per
step for the step's whole node group.  The production executor —
``executor="numpy"``, the default (:mod:`repro.vector.np_batch`,
:mod:`repro.vector.np_kernels`, :mod:`repro.vector.np_executor`) —
stores a column as a typed ndarray with an explicit NULL mask, a
string column as int64 codes into a dictionary of ``StringDType``
entries, and only what is left as Python objects; kernels, filters,
joins and aggregates run inside numpy's C loops, a filter carries a
selection vector instead of copying, and the columns move through DMS
as they are.  Node storage holds every table in the same form
(``ColumnFragment``): a load encodes each column once.

Where an array form would not be bit-identical, a kernel runs the
evaluator (:func:`repro.algebra.evaluator.evaluate`) row by row over
native Python values.  The executor stands beside the ``"reference"``
tree-walking interpreter (:mod:`repro.appliance.interpreter`), the
oracle every differential test compares against.
"""

from repro.vector.np_batch import ArrayBatch, ColumnFragment, NumpyColumn
from repro.vector.np_executor import NumpyInterpreter
from repro.vector.np_kernels import (
    clear_np_kernel_cache,
    compile_np_kernel,
    compile_np_selection,
)

__all__ = [
    "ArrayBatch",
    "ColumnFragment",
    "NumpyColumn",
    "NumpyInterpreter",
    "clear_np_kernel_cache",
    "compile_np_kernel",
    "compile_np_selection",
]
