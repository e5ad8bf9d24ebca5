"""Interesting distribution properties (paper §3.2, Figure 4 step 04).

*"Interesting properties in the PDW query optimizer represent an extension
of the notion of interesting orders introduced in System R ... the PDW
query optimizer considers the following columns to be interesting with
respect to data movements: (a) columns referenced in equality join
predicates, and (b) group-by columns."*

A property is identified by a hashable key:

* ``("hash", rep)`` — hash-distributed on (a column equivalent to) the
  equivalence-class representative ``rep``;
* ``("replicated",)`` — replicated on every compute node; interesting for
  any group that feeds a join, because replication always makes the join
  collocatable (the "Replicate" alternatives of Figure 3's move groups);
* ``("control",)`` — single copy on the control node; interesting for the
  root group and inputs of key-less (scalar) global aggregations.

Derivation is top-down (Figure 4 step 04): a group inherits the parent's
interesting columns that its output still carries, plus what its own
expressions introduce (join equi-columns routed per side, group-by keys
routed to the aggregation input).

The per-group option bound of step 06.ii —
``#options ≤ #interesting properties + 1`` — is stated in terms of these
keys.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    AggPhase,
    LogicalGroupBy,
    LogicalJoin,
)
from repro.algebra.properties import ColumnEquivalence, DistKind, Distribution
from repro.optimizer.memo import GroupExpression, Memo, topological_order

PropertyKey = Tuple
REPLICATED_KEY: PropertyKey = ("replicated",)
CONTROL_KEY: PropertyKey = ("control",)


def hash_key(equivalence: ColumnEquivalence, column_id: int) -> PropertyKey:
    return ("hash", equivalence.representative(column_id))


def property_key_of(distribution: Distribution,
                    equivalence: ColumnEquivalence) -> PropertyKey:
    """The property key a delivered distribution satisfies."""
    if distribution.kind is DistKind.HASHED:
        reps = tuple(sorted(
            equivalence.representative(c) for c in distribution.columns))
        if len(reps) == 1:
            return ("hash", reps[0])
        return ("hash-multi", reps)
    if distribution.kind is DistKind.REPLICATED:
        return REPLICATED_KEY
    if distribution.kind is DistKind.ON_CONTROL:
        return CONTROL_KEY
    return ("single",)


def build_equivalence(memo: Memo, root_group: int) -> ColumnEquivalence:
    """Reconstruct column equivalences from the memo's predicates.

    The PDW side receives only the XML search space, so it re-derives the
    equality closure from the join/select predicates it finds there.
    """
    equivalence = ColumnEquivalence()
    for group_id in topological_order(memo, root_group):
        for expr in memo.group(group_id).logical_expressions:
            predicate = getattr(expr.op, "predicate", None)
            if predicate is not None:
                equivalence.add_from_predicate(predicate)
    return equivalence


class GroupFacts:
    """What step 04 and steps 05-07 both read off the MEMO, computed once
    per compilation: each group's output column ids and, per equivalence
    class, its lowest-id output column (the concrete shuffle target of an
    enforced hash property; the keys are the classes the group carries),
    and each join expression's equi-join pairs.  The MEMO's groups and
    expressions do not change while the PDW optimizer walks them."""

    def __init__(self, memo: Memo, equivalence: ColumnEquivalence):
        self.memo = memo
        self.equivalence = equivalence
        self._outputs: Dict[int, Tuple[FrozenSet[int],
                                       Dict[int, ex.ColumnVar]]] = {}
        self._pairs: Dict[GroupExpression,
                          List[Tuple[ex.ColumnVar, ex.ColumnVar]]] = {}

    def outputs(self, group_id: int
                ) -> Tuple[FrozenSet[int], Dict[int, ex.ColumnVar]]:
        """(output column ids, class -> lowest-id output column)."""
        facts = self._outputs.get(group_id)
        if facts is None:
            representative = self.equivalence.representative
            lowest: Dict[int, ex.ColumnVar] = {}
            output_vars = self.memo.group(group_id).output_vars
            for var in output_vars:
                rep = representative(var.id)
                current = lowest.get(rep)
                if current is None or var.id < current.id:
                    lowest[rep] = var
            facts = self._outputs[group_id] = (
                frozenset([var.id for var in output_vars]), lowest)
        return facts

    def join_pairs(self, expr: GroupExpression, children: Sequence[int]
                   ) -> List[Tuple[ex.ColumnVar, ex.ColumnVar]]:
        """``equi_join_pairs`` of a join expression over its canonical
        ``children``."""
        pairs = self._pairs.get(expr)
        if pairs is None:
            pairs = self._pairs[expr] = ex.equi_join_pairs(
                expr.op.predicate, self.outputs(children[0])[0],
                self.outputs(children[1])[0])
        return pairs


def derive_interesting_properties(memo: Memo, root_group: int,
                                  equivalence: ColumnEquivalence,
                                  facts: GroupFacts
                                  ) -> Dict[int, Set[PropertyKey]]:
    """Figure 4 step 04: map canonical group id → interesting properties.

    ``facts`` is the compilation's :class:`GroupFacts`, so steps 05-07
    reuse what this walk computed."""
    order = topological_order(memo, root_group)
    interesting: Dict[int, Set[PropertyKey]] = {gid: set() for gid in order}
    interesting[memo.find(root_group)].add(CONTROL_KEY)

    for group_id in reversed(order):
        group = memo.group(group_id)
        inherited = interesting[group_id]
        for expr in group.logical_expressions:
            children = [memo.find(c) for c in expr.children]
            if group_id in children:
                continue
            op = expr.op

            if isinstance(op, LogicalJoin):
                for child_id in children:
                    interesting.setdefault(child_id, set()).add(
                        REPLICATED_KEY)
                if op.predicate is not None:
                    for left_var, right_var in facts.join_pairs(expr,
                                                                children):
                        interesting[children[0]].add(
                            hash_key(equivalence, left_var.id))
                        interesting[children[1]].add(
                            hash_key(equivalence, right_var.id))

            if isinstance(op, LogicalGroupBy):
                child_set = interesting.setdefault(children[0], set())
                if op.keys:
                    for key in op.keys:
                        child_set.add(hash_key(equivalence, key.id))
                elif op.phase in (AggPhase.GLOBAL, AggPhase.COMPLETE):
                    # Scalar aggregation: the input is either gathered on
                    # the control node or replicated (broadcasting a
                    # handful of partials lets every node hold the global
                    # value — ideal when the scalar feeds a join).
                    child_set.add(CONTROL_KEY)
                    child_set.add(REPLICATED_KEY)

            # Inheritance: pass down hash-column interest the child's
            # output still carries.
            for child_id in children:
                child_reps = facts.outputs(child_id)[1]
                child_set = interesting.setdefault(child_id, set())
                for key in inherited:
                    if key[0] == "hash" and key[1] in child_reps:
                        child_set.add(key)

    return interesting


def concrete_hash_column(memo: Memo, group_id: int, rep: int,
                         equivalence: ColumnEquivalence
                         ) -> ex.ColumnVar:
    """The lowest-id output column of the group in equivalence class
    ``rep`` (the concrete shuffle target for an enforced hash property)."""
    group = memo.group(group_id)
    candidates = [
        var for var in group.output_vars
        if equivalence.representative(var.id) == rep
    ]
    if not candidates:
        raise KeyError(
            f"group {group_id} has no output column in class {rep}")
    return min(candidates, key=lambda v: v.id)
