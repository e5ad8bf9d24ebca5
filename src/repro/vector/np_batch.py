"""Dtype-aware numpy columns: what node storage holds and what the
numpy executor computes over.

An :class:`ArrayBatch` is the numpy counterpart of
:class:`~repro.vector.column_batch.ColumnBatch`: a mapping from bound
column-variable id to one :class:`NumpyColumn` per column, plus the row
count.  A :class:`NumpyColumn` pairs a typed ndarray with an explicit
NULL mask:

======  ===============  =========================================
kind    values dtype     notes
======  ===============  =========================================
``i``   int64            Python ints (int64-range; wider ints stay
                         object columns)
``f``   float64          Python floats
``b``   bool             Python bools
``d``   int64            ``datetime.date`` as proleptic ordinals
                         (``date.toordinal()`` — a bijection, so
                         comparisons vectorize and values round-trip
                         exactly)
``s``   int64            ``str`` values that repeat (distinct ≤ half
                         the rows), as codes into the column's
                         :class:`StringDictionary`
``o``   object           everything else; NULLs inline as ``None``
======  ===============  =========================================

``mask`` is a boolean array with ``True`` marking NULL rows (``None``
when the column has no NULLs); object columns keep ``None`` inline and
never carry a mask.  The typed kinds are what make the executor go:
ufuncs, gathers and ``bincount`` over int64/float64/bool arrays are C
loops, where an object column costs a Python-level step per value.

A dictionary-encoded column (``s``) is a string column to everything
that reads it through :meth:`NumpyColumn.pylist` — which is every path
that does not know about codes — and an int64 column to the paths that
do: grouping uses the codes as group codes, a single-column expression
is evaluated once per distinct value *present* and gathered by code,
byte widths and distribution hashes are computed per dictionary entry.
``take`` / ``compress`` / ``slice`` share the parent's dictionary, so
after a filter it may hold **stale** entries no row has; nothing may
evaluate an entry without first checking that a row carries its code
(unless the evaluation is total over ``str``), and nothing may read an
order into the codes — they are positions of first occurrence, and
merged dictionaries (:func:`concat_columns`) are merely duplicate-free.

The **native-value boundary** is load-bearing for bit-identical
equivalence: every value that leaves a batch — materialized result
rows, the row view of a stored fragment, group keys, fallback-kernel
inputs, non-integer distribution keys, the values statistics are built
from — goes through :meth:`NumpyColumn.pylist`, which produces native
Python ``int``/``float``/``bool`` objects (via ``ndarray.tolist``) and
restores ``None``, ``datetime.date`` and the dictionary's ``str``
objects.  numpy scalars must never escape: ``np.int64`` is not an
``int`` subclass (``row_bytes`` would size it differently) and
``repr(np.float64(x))`` is not ``repr(x)`` under numpy 2 (``pdw_hash``
hashes the repr), so a leaked scalar silently changes byte accounting
and row routing.  Loads and DMS steps do *not* cross the boundary: a
table's rows are encoded once when they are loaded, a step's output
leaves the interpreter as an :class:`ArrayBatch` of positional
columns, and both are sized, hashed and split column-wise and land on
their nodes as :class:`ColumnFragment` s the next step scans directly.

Columns and batches are immutable by convention, exactly like
``ColumnBatch`` — operators that keep rows build new arrays, and a
batch that is *some rows of* another (:meth:`ArrayBatch.take`) carries
the index vector and gathers a column the first time something reads
it, so a filter or a join copies only the columns its consumers use.

A batch belongs to a **node group** (DESIGN §5c): ``bounds`` is an
int64 vector of ``n + 1`` offsets — rows ``bounds[i]:bounds[i + 1]``
are node ``i``'s, in exactly the order that node's own run would have
produced them — or ``None`` when the batch is *node-invariant*: every
node of the group holds exactly these rows (a replicated input, or a
group of one).
"""

from __future__ import annotations

import datetime
import zlib
from collections.abc import Mapping
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.vector.column_batch import ColumnBatch

#: Kinds whose ``values`` array is numeric (int64/float64/bool) and
#: whose NULLs live in ``mask``.
MASKED_KINDS = frozenset("ifbds")

_KIND_DTYPE = {
    "i": np.int64,
    "f": np.float64,
    "b": np.bool_,
}

_KIND_FILL = {"i": 0, "f": 0.0, "b": False, "d": datetime.date.min}

#: Day number (``date.toordinal``) of the datetime64 epoch, 1970-01-01.
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


class StringDictionary:
    """The distinct ``str`` values of dictionary-encoded columns.

    ``entries`` is an object array of exact ``str`` objects, duplicate-
    free and in no meaningful order.  Every column derived from another
    by ``take`` / ``compress`` / ``slice`` shares its dictionary, so
    :meth:`derived` computes a per-entry result (byte widths,
    distribution hashes) once for all of them.
    """

    __slots__ = ("entries", "_derived")

    def __init__(self, entries: np.ndarray):
        self.entries = entries
        self._derived: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def derived(self, key: str, build: Callable[[np.ndarray], object]):
        """``build(entries)``, computed once per dictionary.  ``build``
        sees stale entries too, so it must be total over ``str``."""
        try:
            return self._derived[key]
        except KeyError:
            # Benign race under the parallel runtime: two readers may
            # both build; the results are equivalent.
            result = self._derived[key] = build(self.entries)
            return result


class NumpyColumn:
    """One typed column: ``values[i]`` is row ``i``, ``mask[i]`` its
    NULL flag (``mask is None`` ⇒ no NULLs; object kind keeps ``None``
    inline instead).  Kind ``s`` holds codes into ``dictionary``, which
    is never empty while the column has a row."""

    __slots__ = ("kind", "values", "mask", "dictionary", "_pylist")

    def __init__(self, kind: str, values: np.ndarray,
                 mask: Optional[np.ndarray] = None,
                 dictionary: Optional[StringDictionary] = None):
        self.kind = kind
        self.values = values
        self.mask = mask
        self.dictionary = dictionary
        self._pylist: Optional[List] = None

    def __len__(self) -> int:
        return len(self.values)

    def pylist(self) -> List:
        """The column as native Python values (the only exit point for
        values leaving the numpy world).  Cached per column."""
        out = self._pylist
        if out is None:
            if self.kind == "d":
                # One C pass: day numbers → datetime64 → date objects.
                out = (self.values - _EPOCH_ORDINAL).astype(
                    "datetime64[D]").astype(object).tolist()
            elif self.kind == "s":
                out = self.dictionary.entries[self.values].tolist()
            else:
                out = self.values.tolist()
            if self.mask is not None:
                for i in np.flatnonzero(self.mask).tolist():
                    out[i] = None
            self._pylist = out
        return out

    def null_mask(self) -> np.ndarray:
        """Boolean array marking NULL rows (always a fresh view-safe
        answer: callers may combine it with ``|``/``&`` freely)."""
        if self.kind == "o":
            return np.fromiter((v is None for v in self.values),
                               np.bool_, len(self.values))
        if self.mask is None:
            return np.zeros(len(self.values), dtype=np.bool_)
        return self.mask

    def is_true_mask(self) -> np.ndarray:
        """Rows whose value ``is True`` — the reference filter and
        join-residual test (NULL and non-bool values count as False)."""
        if self.kind == "b":
            if self.mask is None:
                return self.values
            return self.values & ~self.mask
        if self.kind == "o":
            return np.fromiter((v is True for v in self.values),
                               np.bool_, len(self.values))
        return np.zeros(len(self.values), dtype=np.bool_)

    def take(self, indices: np.ndarray) -> "NumpyColumn":
        return NumpyColumn(
            self.kind, self.values[indices],
            None if self.mask is None else self.mask[indices],
            self.dictionary)

    def pad_take(self, indices: np.ndarray) -> "NumpyColumn":
        """Gather with ``-1`` meaning NULL (LEFT JOIN padding)."""
        pad = indices < 0
        count = len(indices)
        kind = self.kind
        if not len(self.values):
            # Nothing to gather from (and an ``s`` column without rows
            # may have no dictionary entry for a fill code to name).
            return null_column(count)
        safe = np.where(pad, 0, indices)
        values = self.values[safe]
        if kind == "o":
            values[pad] = None
            return NumpyColumn("o", values)
        mask = pad if self.mask is None else self.mask[safe] | pad
        return NumpyColumn(kind, values, mask, self.dictionary)

    def compress(self, keep: np.ndarray) -> "NumpyColumn":
        return NumpyColumn(
            self.kind, self.values[keep],
            None if self.mask is None else self.mask[keep],
            self.dictionary)

    def slice(self, start: int, stop: int) -> "NumpyColumn":
        """Rows ``start:stop`` as views — no copy."""
        return NumpyColumn(
            self.kind, self.values[start:stop],
            None if self.mask is None else self.mask[start:stop],
            self.dictionary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nulls = int(self.null_mask().sum())
        return (f"NumpyColumn(kind={self.kind!r}, rows={len(self)}, "
                f"nulls={nulls})")


def null_column(length: int) -> NumpyColumn:
    """``length`` NULLs (an object column: no type to carry)."""
    arr = np.empty(length, dtype=object)
    arr[:] = None
    return NumpyColumn("o", arr)


def column_from_list(values: Sequence) -> NumpyColumn:
    """Sniff a Python column into the narrowest :class:`NumpyColumn`.

    Type-exact on purpose: ``bool`` is an ``int`` subclass and
    ``datetime.datetime`` quacks like ``date`` but does not round-trip
    through ordinals, so mixed or subclassed columns land in the object
    kind, where semantics are the evaluator's by construction.
    """
    n = len(values)
    if not isinstance(values, list):
        values = list(values)
    kinds = set(map(type, values))
    nullable = type(None) in kinds
    kinds.discard(type(None))
    if len(kinds) == 1:
        vtype = next(iter(kinds))
        kind = None
        if vtype is int:
            kind = "i"
        elif vtype is float:
            kind = "f"
        elif vtype is bool:
            kind = "b"
        elif vtype is datetime.date:
            kind = "d"
        if kind is not None:
            try:
                return _typed_column(kind, values, nullable, n)
            except OverflowError:
                pass  # ints beyond int64: keep the object column
        elif vtype is str:
            encoded = _string_column(values, nullable, n)
            if encoded is not None:
                return encoded
    return NumpyColumn("o", _object_array(values))


def _object_array(values: Sequence) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _typed_column(kind: str, values: List, nullable: bool,
                  n: int) -> NumpyColumn:
    if nullable:
        fill = _KIND_FILL[kind]
        mask = np.fromiter((v is None for v in values), np.bool_, n)
        values = [fill if v is None else v for v in values]
    else:
        mask = None
    if kind == "d":
        arr = np.fromiter((v.toordinal() for v in values), np.int64, n)
    else:
        arr = np.array(values, dtype=_KIND_DTYPE[kind])
    return NumpyColumn(kind, arr, mask)


def _string_column(values: List, nullable: bool,
                   n: int) -> Optional[NumpyColumn]:
    """``values`` (exact ``str`` or ``None``) dictionary-encoded, or
    ``None`` when they do not repeat: more distinct values than half
    the rows.  Entries are in first-occurrence order; every loop here
    is a C loop over the list (``dict.fromkeys``, ``map``)."""
    distinct = dict.fromkeys(values)
    if nullable:
        del distinct[None]
    if 2 * len(distinct) > n:
        return None
    entries = list(distinct)
    code_of = dict(zip(entries, range(len(entries))))
    if nullable:
        code_of[None] = -1
    codes = np.fromiter(map(code_of.__getitem__, values), np.int64, n)
    mask = None
    if nullable:
        mask = codes < 0
        codes[mask] = 0
    return NumpyColumn("s", codes, mask,
                       StringDictionary(_object_array(entries)))


def const_column(value, length: int) -> NumpyColumn:
    """A constant broadcast to ``length`` rows, typed like
    :func:`column_from_list` would type it."""
    vtype = type(value)
    if vtype is int:
        try:
            return NumpyColumn("i", np.full(length, value, np.int64))
        except OverflowError:
            pass
    elif vtype is float:
        return NumpyColumn("f", np.full(length, value, np.float64))
    elif vtype is bool:
        return NumpyColumn("b", np.full(length, value, np.bool_))
    elif vtype is datetime.date:
        return NumpyColumn("d", np.full(length, value.toordinal(),
                                        np.int64))
    elif vtype is str and length >= 2:
        return NumpyColumn("s", np.zeros(length, np.int64), None,
                           StringDictionary(_object_array([value])))
    arr = np.empty(length, dtype=object)
    arr[:] = value
    return NumpyColumn("o", arr)


class _GatheredColumns(Mapping):
    """The columns of a batch that is *some rows of* other columns:
    ``id -> (source column, index vector, padded)``, each gathered the
    first time it is read and kept.  Reads like the ``dict`` a plain
    batch has — a missing id raises ``KeyError`` — so nothing
    downstream can tell the two apart; only the copies nobody asked
    for are missing."""

    __slots__ = ("pending", "ready")

    def __init__(self, pending: Dict[int, Tuple[NumpyColumn, np.ndarray,
                                                bool]]):
        self.pending = pending
        self.ready: Dict[int, NumpyColumn] = {}

    def __getitem__(self, cid: int) -> NumpyColumn:
        column = self.ready.get(cid)
        if column is None:
            source, indices, padded = self.pending[cid]
            column = self.ready[cid] = (
                source.pad_take(indices) if padded
                else source.take(indices))
        return column

    def __contains__(self, cid) -> bool:
        return cid in self.pending

    def __iter__(self):
        return iter(self.pending)

    def __len__(self) -> int:
        return len(self.pending)


def _rows_of(columns: Mapping, indices: np.ndarray, padded: bool = False
             ) -> Dict[int, Tuple[NumpyColumn, np.ndarray, bool]]:
    """Pending gathers for rows ``indices`` of ``columns`` (``-1`` =
    a NULL row when ``padded``).  Over columns that are pending
    themselves the index vectors compose — once per distinct inner
    vector — so a filter over a filter or a join still gathers each
    column once, from its original; a column already gathered is read
    from that copy."""
    if not isinstance(columns, _GatheredColumns) or padded:
        return {cid: (column, indices, padded)
                for cid, column in columns.items()}
    ready = columns.ready
    composed: Dict[int, np.ndarray] = {}
    pending = {}
    for cid, (source, inner, inner_padded) in columns.pending.items():
        column = ready.get(cid)
        if column is not None:
            pending[cid] = (column, indices, False)
            continue
        vector = composed.get(id(inner))
        if vector is None:
            vector = composed[id(inner)] = inner[indices]
        pending[cid] = (source, vector, inner_padded)
    return pending


class ArrayBatch:
    """One columnar fragment over :class:`NumpyColumn` columns.

    ``length`` is authoritative (zero-column batches with positive row
    counts exist, as for :class:`ColumnBatch`).  ``columns`` is a
    ``dict``, or for a batch :meth:`take` / :func:`join_batches` made a
    mapping that gathers each column on first read.

    Inside an interpreter the keys are bound column-variable ids; a
    batch that has left one (:meth:`NumpyInterpreter.run_columns`, DMS
    deliveries, :class:`ColumnFragment` pieces) is keyed by output
    position ``0..k-1`` in order, holds every column outright, and
    :meth:`rows` is its row view.

    ``bounds`` places the rows on the nodes of the group the batch was
    computed for: ``n + 1`` non-decreasing offsets, node ``i`` owning
    rows ``bounds[i]:bounds[i + 1]``; ``None`` means every node holds
    the whole batch.
    """

    __slots__ = ("columns", "length", "bounds", "_rows")

    def __init__(self, columns: Mapping, length: int,
                 bounds: Optional[np.ndarray] = None):
        self.columns = columns
        self.length = length
        self.bounds = bounds
        self._rows: Optional[List[Tuple]] = None

    def __len__(self) -> int:
        return self.length

    def rows(self) -> List[Tuple]:
        """The batch as native row tuples, columns in key order — where
        a positional batch crosses the native-value boundary.  Built
        once: a broadcast piece shared by every node shares its row
        view too, so callers must treat the list as read-only."""
        rows = self._rows
        if rows is None:
            if self.columns:
                rows = list(zip(*[col.pylist()
                                  for col in self.columns.values()]))
            else:
                rows = [()] * self.length
            self._rows = rows
        return rows

    def native(self, ids: Iterable[int]) -> ColumnBatch:
        """The native-value view of columns ``ids`` — what a list-path
        fallback reads, and no column more.  An id the batch lacks
        stays missing, so a list kernel raises ``UnboundColumn`` where
        it reads it."""
        columns = self.columns
        return ColumnBatch(
            {cid: columns[cid].pylist() for cid in ids if cid in columns},
            self.length)

    def take(self, indices: np.ndarray,
             bounds: Optional[np.ndarray] = None) -> "ArrayBatch":
        """Rows ``indices`` of this batch, each column gathered when
        first read; ``bounds`` places the result on the group's nodes
        (a kernel's narrowed sub-batch has no use for any)."""
        return ArrayBatch(
            _GatheredColumns(_rows_of(self.columns, indices)),
            len(indices), bounds)

    def select(self, indices: np.ndarray) -> "ArrayBatch":
        """:meth:`take` for an operator that keeps rows in place:
        ``indices`` is non-decreasing, so every row stays on its node
        and the new bounds are one ``searchsorted``."""
        return self.take(indices, rebound(self.bounds, indices))

    def compress(self, keep: np.ndarray) -> "ArrayBatch":
        """Keep the rows where boolean ``keep`` is True."""
        return self.select(np.flatnonzero(keep))

    def segmented(self, node_count: int) -> "ArrayBatch":
        """This batch with one segment per node of the group: itself
        when it carries bounds; a node-invariant batch repeated once
        per node — what every node holding it means, spelled out for an
        operator (or the router) about to treat nodes differently."""
        if self.bounds is not None:
            return self
        length = self.length
        bounds = np.arange(node_count + 1, dtype=np.int64) * length
        if node_count == 1:
            return ArrayBatch(self.columns, length, bounds)
        return self.take(
            np.tile(np.arange(length, dtype=np.int64), node_count),
            bounds)

    def node_rows(self, node_count: int) -> List[int]:
        """How many of the rows each node of the group holds."""
        if self.bounds is None:
            return [self.length] * node_count
        return np.diff(self.bounds).tolist()

    def slice(self, start: int, stop: int) -> "ArrayBatch":
        """Rows ``start:stop`` (``0 <= start <= stop <= length``) as
        views of this batch's arrays."""
        return ArrayBatch(
            {cid: col.slice(start, stop)
             for cid, col in self.columns.items()},
            stop - start)

    def gathered(self) -> "ArrayBatch":
        """This batch holding every column outright — what a batch
        that outlives its step (a DMS delivery) must be, so it neither
        pins the batch it was taken from nor leaves its reader the
        copying."""
        if isinstance(self.columns, _GatheredColumns):
            self.columns = dict(self.columns)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArrayBatch(rows={self.length}, "
                f"columns={sorted(self.columns)})")


def rebound(bounds: Optional[np.ndarray],
            indices: np.ndarray) -> Optional[np.ndarray]:
    """The bounds of rows ``indices`` (non-decreasing) of a batch with
    ``bounds``: node ``i`` keeps those below its old upper bound."""
    if bounds is None:
        return None
    return np.searchsorted(indices, bounds).astype(np.int64, copy=False)


def offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, …]`` as int64: the bounds of segments of
    ``counts`` rows each (or a running sum to read at bounds)."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def segment_ids(bounds: np.ndarray) -> np.ndarray:
    """The node index of every row of a batch with ``bounds``."""
    return np.repeat(np.arange(len(bounds) - 1, dtype=np.int64),
                     np.diff(bounds))


def join_batches(left: ArrayBatch, right: ArrayBatch,
                 left_idx: np.ndarray, right_idx: np.ndarray,
                 pad: bool = False) -> ArrayBatch:
    """Rows ``left_idx`` of ``left`` beside rows ``right_idx`` of
    ``right`` — a join's output, gathered column by column as read.
    With ``pad`` a ``-1`` right index is a row of NULLs (LEFT JOIN).
    Joins are left-major (``left_idx`` is non-decreasing), so the
    output sits on the nodes its left rows sat on."""
    pending = _rows_of(left.columns, left_idx)
    pending.update(_rows_of(right.columns, right_idx, pad))
    return ArrayBatch(_GatheredColumns(pending), len(left_idx),
                      rebound(left.bounds, left_idx))


def from_column_batch(batch: ColumnBatch) -> ArrayBatch:
    """Sniff every column of a list batch into typed arrays."""
    return ArrayBatch(
        {cid: column_from_list(col)
         for cid, col in batch.columns.items()},
        batch.length)


def concat_columns(pieces: List[Tuple[Optional[NumpyColumn], int]]
                   ) -> NumpyColumn:
    """Concatenate ``(column, length)`` pieces into one column
    (``None`` = missing column = all NULL).  Same-kind typed pieces
    concatenate arrays — dictionary-encoded ones after re-coding into
    one merged dictionary; anything mixed rebuilds through native
    values, which types the result exactly as :func:`column_from_list`
    would have typed the concatenated values."""
    present = [col for col, _ in pieces if col is not None]
    if len(present) == len(pieces) and present:
        kinds = {col.kind for col in present}
        if len(kinds) == 1:
            kind = kinds.pop()
            dictionary = None
            if kind == "s":
                dictionary, codes = _merge_dictionaries(present)
                values = np.concatenate(codes)
            else:
                values = np.concatenate([col.values for col in present])
            if kind == "o":
                return NumpyColumn("o", values)
            if any(col.mask is not None for col in present):
                mask = np.concatenate([
                    col.mask if col.mask is not None
                    else np.zeros(len(col.values), dtype=np.bool_)
                    for col in present])
            else:
                mask = None
            return NumpyColumn(kind, values, mask, dictionary)
    merged: List = []
    for col, length in pieces:
        if col is None:
            merged.extend([None] * length)
        else:
            merged.extend(col.pylist())
    return column_from_list(merged)


def _merge_dictionaries(columns: List[NumpyColumn]
                        ) -> Tuple[StringDictionary, List[np.ndarray]]:
    """One dictionary for all ``columns`` and each column's codes in
    it.  Pieces cut from one column (a shuffle's slices, UNION ALL over
    one table) share theirs and keep their codes; otherwise the entries
    are unioned — a piece with fewer rows than entries contributes its
    rows' values instead, so the work is bounded by the rows, not by
    what an upstream filter left behind in the dictionary — and the
    codes re-mapped by one gather per piece."""
    first = columns[0].dictionary
    if all(column.dictionary is first for column in columns):
        return first, [column.values for column in columns]
    sources: List[Tuple[List[str], Optional[np.ndarray]]] = []
    for column in columns:
        entries, codes = column.dictionary.entries, column.values
        if len(codes) < len(entries):
            sources.append((entries[codes].tolist(), None))
        else:
            sources.append((entries.tolist(), codes))
    merged = list(dict.fromkeys(
        chain.from_iterable(values for values, _ in sources)))
    code_of = dict(zip(merged, range(len(merged))))
    recoded = []
    for values, codes in sources:
        new_codes = np.fromiter(map(code_of.__getitem__, values),
                                np.int64, len(values))
        recoded.append(new_codes if codes is None else new_codes[codes])
    return StringDictionary(_object_array(merged)), recoded


class ColumnFragment:
    """What one node holds of one table — a base table or a temp — as
    typed columns.  The only thing node storage holds.

    A fragment is one of three shapes:

    * **pieces** — positional :class:`ArrayBatch` pieces in order: a
      replicated or control-node table's one batch, or what a move that
      hands every target the same rows (broadcast, partition) shares
      between them;
    * **a node's view of a stacked batch** (:meth:`of_node`) — rows that
      belong to different nodes are stored **once**, gathered into node
      order with the nodes as the batch's ``bounds`` (a hash-distributed
      table at load, a shuffle's or trim's output), and node ``i`` holds
      rows ``bounds[i]:bounds[i + 1]``, sliced only when something asks
      this node for its own rows.  A group scan over every node reads
      ``stacked`` itself;
    * **rows** (:meth:`from_rows`) — row-born data (the oracle's
      deliveries, system views, the reference image): the given rows
      are the row view, and a column is encoded the first time it is
      read.

    The numpy executor scans :meth:`column`; everything that wants rows
    (the oracle, tests) reads :meth:`rows`, derived on demand in node
    order.  The row view and every encoded or concatenated column are
    built at most once; a view's column slices are not kept, so a
    reader that asks one for Python values leaves nothing behind.
    Immutable: storing a fragment replaces whatever the node held, so a
    fragment shared between nodes or held by a running scan never
    changes under its readers.
    """

    __slots__ = ("stacked", "node", "length", "pieces", "_columns",
                 "_rows")

    def __init__(self, pieces: Optional[List[ArrayBatch]],
                 stacked: Optional[ArrayBatch] = None, node: int = 0,
                 rows: Optional[List[Tuple]] = None):
        self.stacked = stacked
        self.node = node
        self.pieces = pieces
        if stacked is not None:
            self.length = int(stacked.bounds[node + 1]
                              - stacked.bounds[node])
        elif pieces is not None:
            self.length = sum(piece.length for piece in pieces)
        else:
            self.length = len(rows)
        self._columns: Dict[int, NumpyColumn] = {}
        self._rows = rows

    @classmethod
    def of_node(cls, stacked: ArrayBatch, node: int) -> "ColumnFragment":
        """Node ``node``'s rows of ``stacked`` (a batch with bounds)."""
        return cls(None, stacked, node)

    @classmethod
    def from_rows(cls, rows: List[Tuple]) -> "ColumnFragment":
        """Row tuples as a fragment: ``rows`` is its row view (the
        caller must not mutate it), each column encoded when first
        read."""
        return cls(None, rows=rows)

    def __len__(self) -> int:
        return self.length

    def _own_slice(self) -> ArrayBatch:
        bounds = self.stacked.bounds
        return self.stacked.slice(int(bounds[self.node]),
                                  int(bounds[self.node + 1]))

    def column(self, index: int) -> NumpyColumn:
        """Column ``index`` over the whole fragment."""
        if self.stacked is not None:
            return self._own_slice().columns[index]
        pieces = self.pieces
        if pieces is not None and len(pieces) == 1:
            return pieces[0].columns[index]
        column = self._columns.get(index)
        if column is None:
            # Benign race under the parallel runtime, here and in
            # rows(): two readers may both build; the results are
            # equivalent.
            column = self._columns[index] = (
                column_from_list([row[index] for row in self._rows])
                if pieces is None else concat_columns(
                    [(piece.columns[index], piece.length)
                     for piece in pieces]))
        return column

    def rows(self) -> List[Tuple]:
        rows = self._rows
        if rows is None:
            pieces = ([self._own_slice()] if self.stacked is not None
                      else self.pieces)
            if len(pieces) == 1:
                rows = pieces[0].rows()
            else:
                rows = [row for piece in pieces for row in piece.rows()]
            self._rows = rows
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnFragment(rows={self.length})"


def stacked_fragments(fragments: Sequence[ColumnFragment]
                      ) -> Optional[ArrayBatch]:
    """The batch ``fragments`` are the per-node views of, when they are
    exactly that — every node of one stacked table, in node order — so a
    group scan can read it whole; else ``None``."""
    stacked = fragments[0].stacked
    if stacked is None or len(stacked.bounds) != len(fragments) + 1:
        return None
    for node, fragment in enumerate(fragments):
        if fragment.stacked is not stacked or fragment.node != node:
            return None
    return stacked


# -- vectorized pdw_hash ---------------------------------------------------------
#
# CRC-32 is affine over GF(2) in the message: for messages of one
# length, crc(a ^ b) == crc(a) ^ crc(b) ^ crc(0).  A 16-byte message is
# the XOR of its sixteen single-byte messages, so its CRC is the XOR of
# one table entry per byte position — table[position][byte] ==
# crc(that byte alone) ^ crc(0) — and crc(0).  An int64's upper eight
# bytes are its sign extension, all 0x00 or all 0xFF: their entries fold
# into one constant per sign, leaving eight lookups per value.

_MESSAGE_BYTES = 16


def _crc32_int64_tables() -> Tuple[np.ndarray, int, int]:
    zero = zlib.crc32(bytes(_MESSAGE_BYTES))
    tables = np.zeros((8, 256), dtype=np.uint32)
    message = bytearray(_MESSAGE_BYTES)
    for position in range(8):
        for byte in range(256):
            message[position] = byte
            tables[position, byte] = zlib.crc32(message) ^ zero
        message[position] = 0
    negative = zlib.crc32(bytes(8) + b"\xff" * 8)
    return tables, zero, negative


_CRC32_TABLES, _CRC32_NON_NEGATIVE, _CRC32_NEGATIVE = _crc32_int64_tables()


def crc32_int64(values: np.ndarray) -> np.ndarray:
    """``zlib.crc32(v.to_bytes(16, "little", signed=True))`` for a whole
    int64 column at once, as uint32 — bit-identical to
    :func:`repro.appliance.storage.pdw_hash` on ints.  Eight table
    lookups per value (one per low byte, vectorized across the rows)
    XORed onto the constant its sign contributes."""
    v = np.ascontiguousarray(values, dtype="<i8")
    data = v.view(np.uint8).reshape(-1, 8)
    crc = np.where(v < 0, np.uint32(_CRC32_NEGATIVE),
                   np.uint32(_CRC32_NON_NEGATIVE))
    for position in range(8):
        crc ^= _CRC32_TABLES[position][data[:, position]]
    return crc
