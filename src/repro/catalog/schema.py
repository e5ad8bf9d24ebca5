"""Table schema and distribution metadata.

In PDW a user table is either **hash-partitioned** on a column across the
compute nodes or **replicated** on every compute node (paper §2.1).  The
control node additionally holds small tables of its own (e.g. final result
staging), which we model with the ``CONTROL`` distribution.  Temp tables
produced by DMS operations take whatever distribution the move created.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import CatalogError
from repro.common.types import SqlType


class DistributionKind(enum.Enum):
    """How a table's rows are placed on the appliance."""

    HASH = "hash"            # hash-partitioned on distribution columns
    REPLICATED = "replicated"  # full copy on every compute node
    CONTROL = "control"      # single copy on the control node


@dataclass(frozen=True)
class TableDistribution:
    """A table's physical placement: kind plus hash columns when HASH."""

    kind: DistributionKind
    columns: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is DistributionKind.HASH and not self.columns:
            raise CatalogError("hash distribution requires column(s)")
        if self.kind is not DistributionKind.HASH and self.columns:
            raise CatalogError(f"{self.kind.value} distribution takes no columns")

    def __str__(self) -> str:
        if self.kind is DistributionKind.HASH:
            return f"HASH({', '.join(self.columns)})"
        return self.kind.value.upper()


def hash_distributed(*columns: str) -> TableDistribution:
    """Distribution spec for a table hash-partitioned on ``columns``."""
    return TableDistribution(DistributionKind.HASH, tuple(columns))


REPLICATED = TableDistribution(DistributionKind.REPLICATED)
ON_CONTROL = TableDistribution(DistributionKind.CONTROL)


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    sql_type: SqlType
    nullable: bool = True

    def __str__(self) -> str:
        return f"{self.name} {self.sql_type}"


@dataclass
class TableDef:
    """A table definition as stored in the shell database.

    ``row_count`` is the *global* cardinality across the appliance; the
    shell database keeps it alongside merged statistics so the optimizer
    sees the single-system image (paper §2.2).
    """

    name: str
    columns: List[Column]
    distribution: TableDistribution
    row_count: int = 0
    is_temp: bool = False
    # System (DMV) pseudo-tables: snapshot-materialized observability
    # views whose contents churn on every refresh.  They live in the
    # catalog like any table but never count as a schema change — the
    # plan cache must survive a DMV refresh — and they are excluded
    # from the statistics pipeline and temp-table cleanup alike.
    is_system: bool = False
    primary_key: Tuple[str, ...] = ()
    _by_name: Dict[str, Column] = field(default_factory=dict, repr=False)
    _index_of: Dict[str, int] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def __post_init__(self):
        for index, column in enumerate(self.columns):
            key = column.name.lower()
            if key in self._index_of:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}")
            self._by_name[key] = column
            self._index_of[key] = index
        for dist_col in self.distribution.columns:
            if dist_col.lower() not in self._by_name:
                raise CatalogError(
                    f"distribution column {dist_col!r} not in table {self.name!r}")
        for pk_col in self.primary_key:
            if pk_col.lower() not in self._by_name:
                raise CatalogError(
                    f"primary key column {pk_col!r} not in table {self.name!r}")

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    @property
    def row_width(self) -> int:
        """Declared raw byte width of a row (cost-model input)."""
        return sum(c.sql_type.width for c in self.columns)


class Catalog:
    """A named collection of table definitions.

    The same class backs both the shell database on the control node and
    each compute node's local catalog (where every table appears with its
    local fragment's row count).
    """

    def __init__(self, tables: Optional[Sequence[TableDef]] = None):
        self._tables: Dict[str, TableDef] = {}
        for table in tables or ():
            self.add_table(table)

    def add_table(self, table: TableDef) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[TableDef]:
        return list(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __len__(self) -> int:
        return len(self._tables)
