"""Property: the bottom-up and top-down PDW enumerators agree on the
optimal plan cost for arbitrary query shapes (paper §3.2, "equally
applicable").

A disagreement means one strategy's pruning/strategy set lost an optimal
option — this suite is the regression net for exactly that class of bug
(it caught one: scalar-aggregate inputs missing the REPLICATED property).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.optimizer.search import SerialOptimizer
from repro.pdw.enumerator import PdwOptimizer
from repro.pdw.topdown import TopDownPdwOptimizer
from repro.workloads.tpch_queries import TPCH_QUERIES, query_names


def agree(shell, sql):
    serial = SerialOptimizer(shell).optimize_sql(sql)
    bottom_up = PdwOptimizer(
        serial.memo, serial.root_group, shell.node_count,
        equivalence=serial.equivalence).optimize()
    top_down = TopDownPdwOptimizer(
        serial.memo, serial.root_group, shell.node_count,
        equivalence=serial.equivalence).optimize()
    return bottom_up.cost, top_down.cost


@pytest.mark.parametrize("name", query_names())
def test_tpch_suite_agreement(name, tpch_shell):
    bottom_up, top_down = agree(tpch_shell, TPCH_QUERIES[name])
    assert top_down == pytest.approx(bottom_up, rel=1e-9, abs=1e-15)


FILTERS = ["", "WHERE c_custkey < 500", "WHERE c_nationkey = 3"]
AGGS = ["c_nationkey, COUNT(*) AS n", "c_nationkey, MIN(c_name) AS m"]


@st.composite
def random_queries(draw):
    shape = draw(st.sampled_from(["scan", "join", "agg", "join_agg",
                                  "semi", "scalar_sub"]))
    where = draw(st.sampled_from(FILTERS))
    if shape == "scan":
        return f"SELECT c_name FROM customer {where}"
    if shape == "join":
        extra = draw(st.sampled_from(
            ["", "AND o_totalprice > 100"]))
        return (f"SELECT c_name FROM customer, orders "
                f"WHERE c_custkey = o_custkey {extra}")
    if shape == "agg":
        select = draw(st.sampled_from(AGGS))
        return f"SELECT {select} FROM customer {where} GROUP BY c_nationkey"
    if shape == "join_agg":
        return ("SELECT c_nationkey, SUM(o_totalprice) AS t "
                "FROM customer, orders WHERE c_custkey = o_custkey "
                "GROUP BY c_nationkey")
    if shape == "semi":
        negated = draw(st.booleans())
        op = "NOT IN" if negated else "IN"
        return (f"SELECT c_name FROM customer WHERE c_custkey {op} "
                f"(SELECT o_custkey FROM orders)")
    return ("SELECT o_orderkey FROM orders WHERE o_totalprice > "
            "(SELECT SUM(l_quantity) FROM lineitem "
            "WHERE l_orderkey = o_orderkey)")


@given(sql=random_queries())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_query_agreement(mini_shell, sql):
    bottom_up, top_down = agree(mini_shell, sql)
    assert top_down == pytest.approx(bottom_up, rel=1e-9, abs=1e-15), sql
