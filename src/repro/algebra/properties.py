"""Physical properties: data distribution and column equivalence.

The PDW optimizer's *interesting properties* (paper §3.2) are distributions
— "results hashed on column c" — extending System R's interesting orders.
:class:`Distribution` describes how an intermediate result is placed across
the appliance; :class:`ColumnEquivalence` tracks which column variables are
known equal (from equality predicates), so a result hashed on ``o_custkey``
also satisfies a requirement for ``c_custkey`` after the join predicate
``o_custkey = c_custkey`` has been applied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.algebra.expressions import ColumnVar, Comparison, ScalarExpr, conjuncts


class DistKind(enum.Enum):
    """Placement of an intermediate result."""

    HASHED = "hashed"          # hash-partitioned across compute nodes
    REPLICATED = "replicated"  # full copy on every compute node
    ON_CONTROL = "control"     # single copy on the control node
    SINGLE_NODE = "single"     # single copy on one compute node


@dataclass(frozen=True)
class Distribution:
    """A delivered or required distribution property.

    ``columns`` holds the hash-column variable ids (HASHED only).  The
    paper's DSQL examples always shuffle on a single column, but the type
    supports compound keys.
    """

    kind: DistKind
    columns: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind is DistKind.HASHED and not self.columns:
            raise ValueError("HASHED distribution requires columns")
        if self.kind is not DistKind.HASHED and self.columns:
            raise ValueError(f"{self.kind.value} takes no columns")

    @property
    def is_partitioned(self) -> bool:
        return self.kind is DistKind.HASHED

    @property
    def is_on_single_node(self) -> bool:
        return self.kind in (DistKind.ON_CONTROL, DistKind.SINGLE_NODE)

    def describe(self, names: Optional[Dict[int, str]] = None) -> str:
        if self.kind is DistKind.HASHED:
            cols = ", ".join(
                names.get(c, f"#{c}") if names else f"#{c}" for c in self.columns
            )
            return f"hashed({cols})"
        return self.kind.value

    def __str__(self) -> str:
        return self.describe()


REPLICATED_DIST = Distribution(DistKind.REPLICATED)
ON_CONTROL_DIST = Distribution(DistKind.ON_CONTROL)
SINGLE_NODE_DIST = Distribution(DistKind.SINGLE_NODE)


def hashed_on(*column_ids: int) -> Distribution:
    return Distribution(DistKind.HASHED, tuple(column_ids))


class ColumnEquivalence:
    """Union-find over column variable ids.

    Built from equality predicates; answers "does a result hashed on X
    satisfy a requirement hashed on Y?"  This is how join transitivity
    closure (paper §4, Q20 discussion) feeds distribution matching.
    """

    def __init__(self):
        self._parent: Dict[int, int] = {}
        # id -> representative, filled by lookups; a union clears it.
        self._representatives: Dict[int, int] = {}

    def _find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            root = self._find(parent)
            self._parent[x] = root
            return root
        return x

    def add_equality(self, a: int, b: int) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a
            self._representatives.clear()

    def add_from_predicate(self, predicate: Optional[ScalarExpr]) -> None:
        """Record every ``col = col`` conjunct of ``predicate``."""
        for conj in conjuncts(predicate):
            if (isinstance(conj, Comparison) and conj.op == "="
                    and isinstance(conj.left, ColumnVar)
                    and isinstance(conj.right, ColumnVar)):
                self.add_equality(conj.left.id, conj.right.id)

    def are_equivalent(self, a: int, b: int) -> bool:
        return self.representative(a) == self.representative(b)

    def representative(self, x: int) -> int:
        rep = self._representatives.get(x)
        if rep is None:
            rep = self._representatives[x] = self._find(x)
        return rep

    def equivalence_class(self, x: int) -> FrozenSet[int]:
        root = self._find(x)
        return frozenset(
            member for member in self._parent if self._find(member) == root
        ) or frozenset((x,))

    def copy(self) -> "ColumnEquivalence":
        clone = ColumnEquivalence()
        clone._parent = dict(self._parent)
        return clone


def distribution_satisfies(delivered: Distribution,
                           required: Distribution,
                           equivalence: Optional[ColumnEquivalence] = None) -> bool:
    """Does ``delivered`` satisfy ``required``?

    * Exact kind/column match always satisfies.
    * HASHED requirements are satisfied by a hashing on *equivalent*
      columns (same equivalence classes, in order).
    * A replicated result satisfies any single-compute-node requirement is
      NOT assumed — replication is its own property.
    """
    if delivered == required:
        return True
    if (delivered.kind is DistKind.HASHED and required.kind is DistKind.HASHED
            and len(delivered.columns) == len(required.columns)
            and equivalence is not None):
        return all(
            equivalence.are_equivalent(d, r)
            for d, r in zip(delivered.columns, required.columns)
        )
    return False


def distributions_collocated_for_join(
        left: Distribution, right: Distribution,
        join_pairs: Iterable[Tuple[ColumnVar, ColumnVar]],
        equivalence: Optional[ColumnEquivalence] = None) -> bool:
    """Can a join with equi-columns ``join_pairs`` run without data movement?

    True when:

    * either side is replicated (the other side stays put),
    * both sides sit on the same single node class (both on control), or
    * both are hash-partitioned on a pairing of join-equivalent columns.
    """
    if left.kind is DistKind.REPLICATED or right.kind is DistKind.REPLICATED:
        return True
    if left.kind is DistKind.ON_CONTROL and right.kind is DistKind.ON_CONTROL:
        return True
    if left.kind is DistKind.HASHED and right.kind is DistKind.HASHED:
        pairs = list(join_pairs)
        if len(left.columns) != len(right.columns):
            return False

        def columns_match(left_col: int, right_col: int) -> bool:
            for left_var, right_var in pairs:
                left_ok = left_col == left_var.id or (
                    equivalence is not None
                    and equivalence.are_equivalent(left_col, left_var.id))
                right_ok = right_col == right_var.id or (
                    equivalence is not None
                    and equivalence.are_equivalent(right_col, right_var.id))
                if left_ok and right_ok:
                    return True
            return False

        return all(
            columns_match(lc, rc)
            for lc, rc in zip(left.columns, right.columns)
        )
    return False
