"""The PDW optimizer's per-compilation caches agree with fresh answers.

``PdwOptimizer`` reads four derived facts once and keeps them: each
option's property key and hash classes (on the option), each group's
output ids and class -> lowest-id column map (``PdwOptimizer.facts``,
shared with step 04, for the join pairs and the enforcer's shuffle
target), and each movement's DMS price per group and pair of source
and target kinds.  Every TPC-H query and pdwbench shape is compiled through the
MEMO hand-off, as the engine does, at 1, 3 and 8 nodes; every kept fact
must equal what ``property_key_of``, ``_hash_classes`` and a linear scan
of the group's outputs (``concrete_hash_column``) say now, and the
enforcer must add what pricing every option on its own adds.
"""

from typing import List, Optional

import pytest

from repro.obs.opt_trace import (
    MovementRecord,
    OptimizerTrace,
    format_property_key,
)
from repro.optimizer.memo import topological_order
from repro.optimizer.memo_xml import memo_from_xml, memo_to_xml
from repro.optimizer.search import SerialOptimizer
from repro.pdw.dms import classify_movement
from repro.pdw.enumerator import _UNSET, PdwOption, PdwOptimizer
from repro.pdw.interesting import concrete_hash_column, property_key_of
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.optimizer.test_search import BENCH_SHAPES

QUERIES = {**TPCH_QUERIES, **BENCH_SHAPES}


@pytest.fixture(scope="module", params=[1, 3, 8], ids=lambda n: f"{n}n")
def shell(request):
    return build_tpch_appliance(scale=0.002, node_count=request.param)[1]


def _optimized(shell, sql, optimizer_class=PdwOptimizer, opt_trace=None):
    serial = SerialOptimizer(shell).optimize_sql(sql)
    parsed = memo_from_xml(
        memo_to_xml(serial.memo, serial.root_group, serial.stats), shell)
    optimizer = optimizer_class(parsed.memo, parsed.root_group,
                                node_count=shell.node_count,
                                opt_trace=opt_trace)
    optimizer.optimize()
    return optimizer


class PerOptionEnforcer(PdwOptimizer):
    """Step 07 as it was before prices were shared: every option that
    does not deliver the key is classified and priced on its own, and
    every candidate gets its own movement and option."""

    def _enforce(self, group_id: int,
                 options: List[PdwOption]) -> List[PdwOption]:
        if not options:
            return options
        group = self.memo.group(group_id)
        opt_trace = self.opt_trace
        interesting = self.interesting.get(group_id, set())
        additions: List[PdwOption] = []
        for key in sorted(interesting, key=repr):
            target, hash_columns = self._target_for_key(group_id, key)
            if target is None:
                continue
            best: Optional[PdwOption] = None
            best_index = -1
            candidates = [] if opt_trace is not None else None
            for option in options:
                if self._key_of(option) == key:
                    continue
                movement = classify_movement(option.distribution, target,
                                             hash_columns)
                if movement is None:
                    continue
                breakdown = self.cost_model.cost_breakdown(
                    movement, group.cardinality, group.row_width)
                move_cost = breakdown.total
                total = option.cost + move_cost
                if best is None or total < best.cost:
                    best = PdwOption(movement, (option,), group_id, target,
                                     total)
                    if candidates is not None:
                        best_index = len(candidates)
                if candidates is not None:
                    candidates.append((movement, breakdown, move_cost,
                                       total))
            if best is not None:
                additions.append(best)
                self.options_considered += 1
            for index, (movement, breakdown, move_cost,
                        total) in enumerate(candidates or ()):
                opt_trace.record_movement(MovementRecord(
                    group=group_id,
                    operation=movement.operation.value,
                    movement=movement.describe(),
                    property_key=format_property_key(key),
                    source=str(movement.source),
                    target=str(movement.target),
                    rows=group.cardinality,
                    row_width=group.row_width,
                    reader=breakdown.reader,
                    network=breakdown.network,
                    writer=breakdown.writer,
                    bulk_copy=breakdown.bulk_copy,
                    move_cost=move_cost,
                    total_cost=total,
                    chosen=index == best_index,
                ))
        if not additions:
            return options
        return self._prune(group_id, options + additions)


def _option_tree(option: PdwOption) -> tuple:
    op = option.op
    movement = (op.local_key() if hasattr(op, "hash_columns")
                else op.describe())
    return (movement, option.group_id, option.distribution, option.cost,
            tuple(_option_tree(child) for child in option.children))


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_enforcer_prices_per_kind_as_per_option(name, shell):
    shared, per_option = OptimizerTrace(), OptimizerTrace()
    optimizer = _optimized(shell, QUERIES[name], opt_trace=shared)
    reference = _optimized(shell, QUERIES[name], PerOptionEnforcer,
                           opt_trace=per_option)
    assert optimizer.options_considered == reference.options_considered
    assert {group: [_option_tree(o) for o in options]
            for group, options in optimizer.options.items()} == {
        group: [_option_tree(o) for o in options]
        for group, options in reference.options.items()}
    assert shared.movements == per_option.movements
    assert shared.prunes == per_option.prunes


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_cached_option_facts_match_a_fresh_derivation(name, shell):
    optimizer = _optimized(shell, QUERIES[name])
    equivalence = optimizer.equivalence
    classes_checked = 0
    for options in optimizer.options.values():
        for option in options:
            # Pruning read every retained option's key.
            assert option.key == property_key_of(option.distribution,
                                                 equivalence)
            if option.hash_classes is not _UNSET:  # read by a join
                assert option.hash_classes == optimizer._hash_classes(
                    option.distribution)
                classes_checked += 1
    if name not in ("Q1", "Q6", "GRP", "DIST"):  # single-table: no join
        assert classes_checked


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_group_facts_match_a_scan_of_the_outputs(name, shell):
    optimizer = _optimized(shell, QUERIES[name])
    memo, equivalence = optimizer.memo, optimizer.equivalence
    for group_id in topological_order(memo, optimizer.root_group):
        output_ids, lowest = optimizer.facts.outputs(group_id)
        output_vars = memo.group(group_id).output_vars
        assert output_ids == frozenset(v.id for v in output_vars)
        assert set(lowest) == {equivalence.representative(v.id)
                               for v in output_vars}
        for rep, var in lowest.items():
            assert var is concrete_hash_column(memo, group_id, rep,
                                               equivalence)

