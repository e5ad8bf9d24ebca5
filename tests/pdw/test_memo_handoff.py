"""The MEMO hand-off changes nothing but its cost (ROADMAP item 2's
ablation, as a test instead of a knob).

The PDW optimizer only ever sees the serial optimizer's search space as
XML.  Here it also runs over the serial optimizer's own ``Memo`` object —
no text in between — and must pick the same plan at the same cost from the
same number of alternatives.  What the XML architecture costs is then a
pure timing question (EXPERIMENTS "PR 19").
"""

import xml.etree.ElementTree as ET

import pytest

from repro.appliance.runner import DsqlRunner, run_reference
from repro.optimizer.memo_xml import memo_from_xml, memo_to_xml
from repro.optimizer.search import SerialOptimizer
from repro.pdw.dsql import DsqlGenerator
from repro.pdw.enumerator import PdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES

from tests.appliance.test_columnar_dms import SHAPES
from tests.conftest import canonical

#: pdwbench's synthetic shapes (JOIN / GRP / DIST, a cross-join COUNT and
#: an empty GRP) plus one of ``serve_mix``'s never-seen projections.
NOVEL = ("SELECT o_orderkey AS c0_lap0, o_orderstatus, o_clerk "
         "FROM orders WHERE o_totalprice > 350000")
QUERIES = {**TPCH_QUERIES, **SHAPES, "NOVEL": NOVEL}


def serial_memo(shell, sql):
    return SerialOptimizer(shell).optimize_sql(sql)


def document(serial):
    return memo_to_xml(serial.memo, serial.root_group, serial.stats)


def distributed_plan(shell, serial, memo, root_group):
    """``(PdwPlan, DSQL step texts)`` of the PDW side run over ``memo``."""
    plan = PdwOptimizer(memo, root_group,
                        node_count=shell.node_count).optimize()
    query = serial.query
    dsql = DsqlGenerator().generate(
        plan.root, output_names=query.output_names,
        output_vars=query.output_columns(),
        order_by=query.order_by or None, limit=query.limit,
        final_distribution=plan.distribution, total_cost=plan.cost)
    return plan, [step.sql for step in dsql.steps]


@pytest.mark.parametrize("name", QUERIES)
def test_plan_over_xml_equals_plan_over_the_serial_memo(name, tpch_shell):
    sql = QUERIES[name]
    # Two fresh serial compiles: PDW pre-processing (Figure 4 step 02)
    # adjusts the memo it is given in place.
    in_process = serial_memo(tpch_shell, sql)
    shipped = serial_memo(tpch_shell, sql)
    parsed = memo_from_xml(document(shipped), tpch_shell)

    direct, direct_steps = distributed_plan(
        tpch_shell, in_process, in_process.memo, in_process.root_group)
    via_xml, xml_steps = distributed_plan(
        tpch_shell, shipped, parsed.memo, parsed.root_group)

    assert via_xml.tree_string() == direct.tree_string()
    assert via_xml.cost == direct.cost
    assert via_xml.options_considered == direct.options_considered
    assert via_xml.options_retained == direct.options_retained
    assert xml_steps == direct_steps


@pytest.mark.parametrize("name", QUERIES)
def test_document_is_a_fixed_point_after_one_round_trip(name, tpch_shell):
    """The first document carries the serial memo's group numbering
    (merged groups leave gaps); from the second on nothing moves."""
    parsed = memo_from_xml(document(serial_memo(tpch_shell, QUERIES[name])),
                           tpch_shell)
    second = memo_to_xml(parsed.memo, parsed.root_group, parsed.stats)
    reparsed = memo_from_xml(second, tpch_shell)
    third = memo_to_xml(reparsed.memo, reparsed.root_group, reparsed.stats)
    assert third == second


@pytest.mark.parametrize("name", QUERIES)
def test_every_distinct_expression_is_in_the_table_once(name, tpch_shell):
    root = ET.fromstring(document(serial_memo(tpch_shell, QUERIES[name])))
    texts = [ET.tostring(entry[0], encoding="unicode")
             for entry in root.find("exprs")]
    assert len(set(texts)) == len(texts)
    ids = [entry.get("id") for entry in root.find("exprs")]
    referenced = {element.get(attribute)
                  for element in root.iter()
                  for attribute in ("pred", "e")
                  if element.get(attribute) is not None}
    assert referenced == set(ids)


def test_q5_bytes_per_group_expression(tpch_shell):
    """The hand-off costs per distinct expression, not per occurrence:
    174 bytes per group expression before the ``<exprs>`` table, 78
    with it.  The count repeats exactly, so it can gate."""
    serial = serial_memo(tpch_shell, TPCH_QUERIES["Q5"])
    xml = document(serial)
    expressions = memo_from_xml(xml, tpch_shell).memo.expression_count()
    assert expressions > 1000
    assert len(xml.encode("utf-8")) / expressions <= 120


# ---------------------------------------------------------------------------
# bug guard: interning must not merge 1, 1.0 and TRUE
# ---------------------------------------------------------------------------

TYPED_LITERALS = [
    # The two outputs are ``==`` as dataclasses (Constant(1) ==
    # Constant(1.0)); one shared table entry would make both columns
    # the same expression.
    "SELECT l_quantity * 1 AS a, l_quantity * 1.0 AS b FROM lineitem",
    # The same on an INTEGER column, where the value types differ too.
    "SELECT l_linenumber * 1 AS a, l_linenumber * 1.0 AS b, "
    "l_linenumber * TRUE AS c FROM lineitem",
    "SELECT l_linenumber, COUNT(*) AS n FROM lineitem "
    "WHERE l_linenumber = 1 GROUP BY l_linenumber "
    "HAVING l_linenumber = 1.0",
    "SELECT CASE WHEN l_linenumber = 1 THEN 1 ELSE 0 END AS a, "
    "CASE WHEN l_linenumber = 1.0 THEN 1.0 ELSE 0.0 END AS b, "
    "CASE WHEN l_linenumber = TRUE THEN TRUE ELSE FALSE END AS c "
    "FROM lineitem",
]


@pytest.mark.parametrize("sql", TYPED_LITERALS)
def test_equal_literals_of_different_types_keep_their_types(sql, tpch,
                                                            tpch_engine):
    appliance, _ = tpch
    result = DsqlRunner(appliance).run(tpch_engine.compile(sql).dsql_plan)
    reference = run_reference(appliance, sql, executor="reference")
    assert canonical(result.rows) == canonical(reference.rows)

    def value_types(rows):
        return sorted({tuple(type(value) for value in row) for row in rows},
                      key=repr)

    assert value_types(result.rows) == value_types(reference.rows)
