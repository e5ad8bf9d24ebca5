"""The PDW optimizer's per-compilation caches agree with fresh answers.

``PdwOptimizer`` reads three derived facts once and keeps them: each
option's property key and hash classes (on the option), and each group's
output ids and class -> lowest-id column map (for the enforcer's
shuffle target).  Every TPC-H query and pdwbench shape is compiled
through the MEMO hand-off, as the engine does, at 1, 3 and 8 nodes; every
kept fact must equal what ``property_key_of``, ``_hash_classes`` and a
linear scan of the group's outputs (``concrete_hash_column``) say now.
"""

import pytest

from repro.optimizer.memo import topological_order
from repro.optimizer.memo_xml import memo_from_xml, memo_to_xml
from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import _UNSET, PdwOptimizer
from repro.pdw.interesting import concrete_hash_column, property_key_of
from repro.workloads.tpch_datagen import build_tpch_appliance
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.optimizer.test_search import BENCH_SHAPES

QUERIES = {**TPCH_QUERIES, **BENCH_SHAPES}


@pytest.fixture(scope="module", params=[1, 3, 8], ids=lambda n: f"{n}n")
def shell(request):
    return build_tpch_appliance(scale=0.002, node_count=request.param)[1]


def _optimized(shell, sql):
    serial = SerialOptimizer(shell).optimize_sql(sql, extract_serial=False)
    parsed = memo_from_xml(
        memo_to_xml(serial.memo, serial.root_group, serial.stats), shell)
    optimizer = PdwOptimizer(parsed.memo, parsed.root_group,
                             node_count=shell.node_count)
    optimizer.optimize()
    return optimizer


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
        output_ids, lowest = optimizer._facts_of(group_id)
        output_vars = memo.group(group_id).output_vars
        assert output_ids == frozenset(v.id for v in output_vars)
        assert set(lowest) == {equivalence.representative(v.id)
                               for v in output_vars}
        for rep, var in lowest.items():
            assert var is concrete_hash_column(memo, group_id, rep,
                                               equivalence)

