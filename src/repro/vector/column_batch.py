"""Columnar fragments of native Python values — the object-column
fallback's batch.

A :class:`ColumnBatch` is what the list kernels
(:mod:`repro.vector.kernels`) evaluate over: a mapping from bound
column-variable id to one Python sequence per column, plus the row
count.  The production executor hands one over wherever an array form
would not be bit-identical (:meth:`repro.vector.np_batch.ArrayBatch.
native`).  Columns may be lists *or* tuples, and batches are treated as
immutable — operators that keep rows build new batches (or alias whole
columns: nothing downstream mutates them).

Row order is meaningful: position ``i`` across all columns is row
``i``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

#: A column: one value per row, ``None`` for NULL.  Lists and tuples
#: both appear; consumers only index and iterate.
Column = Sequence


class ColumnBatch:
    """One columnar fragment: ``columns[var_id][i]`` is row ``i``'s value.

    ``length`` is authoritative — a batch can have zero columns but a
    positive row count (e.g. a scan that feeds only ``COUNT(*)``), which
    mirrors the reference interpreter's empty per-row env dicts.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[int, Column], length: int):
        self.columns = columns
        self.length = length

    def take(self, indices: List[int],
             ids: Optional[Iterable[int]] = None) -> "ColumnBatch":
        """Gather rows ``indices`` (a selection vector) into a new batch.

        ``ids`` restricts the gather to those column ids — the kernel
        narrowing paths use it so a short-circuited sub-expression pays
        only for the columns it actually reads.  Ids absent from the
        batch are skipped, preserving the reference interpreter's
        "unbound column raises at reference time" behaviour.
        """
        columns = self.columns
        if ids is None:
            items = columns.items()
        else:
            items = [(cid, columns[cid]) for cid in ids if cid in columns]
        return ColumnBatch(
            {cid: [col[i] for i in indices] for cid, col in items},
            len(indices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnBatch(rows={self.length}, "
                f"columns={sorted(self.columns)})")
