"""String SQL under dictionary-encoded columns ⇄ the reference executor.

The default executor stores a repeating string column as codes into a
dictionary, evaluates string operators once per distinct value present,
groups by the codes and moves the codes through DMS.  None of that may
be observable: on the same appliance the default runner and the
``executor="reference"`` runner agree on result rows, on every number in
``StepExecutionStats`` (transfer matrix and per-node operator actuals
included) and on the rows of every temp table on every node, in order —
over the TPC-H tables and over a generated table with NULLs, skew,
``''``, non-ASCII and two normalizations of one letter.

The second half pins the bugs the representation invites, each against
``run_reference(executor="reference")`` at 1, 3 and 8 nodes.
"""

from __future__ import annotations

import datetime
import random
import unicodedata

import pytest

from repro import PdwEngine, run_reference
from repro.appliance.runner import DsqlRunner
from repro.appliance.storage import Appliance
from repro.catalog.schema import (
    Column,
    REPLICATED,
    TableDef,
    hash_distributed,
)
from repro.common.types import INTEGER, varchar
from repro.workloads.tpch_datagen import build_tpch_appliance

from tests.appliance.test_columnar_dms import assert_same_execution

TPCH_STRING_QUERIES = {
    "compare": (
        "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
        "WHERE l_shipmode >= 'MAIL' AND l_returnflag <> 'A' "
        "AND l_linestatus = 'O' AND l_shipinstruct < 'NONE' "
        "GROUP BY l_shipmode"),
    "in-like": (
        "SELECT l_shipmode, l_returnflag, COUNT(*) AS n, "
        "SUM(l_quantity) AS q FROM lineitem "
        "WHERE l_shipmode IN ('MAIL', 'SHIP', 'AIR') "
        "AND l_shipinstruct LIKE 'DELIVER%' AND l_linestatus <> 'F' "
        "GROUP BY l_shipmode, l_returnflag "
        "ORDER BY l_shipmode, l_returnflag"),
    "not-in-not-like": (
        "SELECT p_brand, p_container, COUNT(*) AS n FROM part "
        "WHERE p_container NOT IN ('SM CASE', 'LG BOX', 'MED BAG') "
        "AND p_type NOT LIKE '%BRASS' AND p_mfgr NOT LIKE '%#1' "
        "GROUP BY p_brand, p_container"),
    "substring": (
        "SELECT head, COUNT(*) AS n, MIN(p_type) AS lo, "
        "MAX(p_brand) AS hi FROM ("
        "SELECT SUBSTRING(p_type, 1, 5) AS head, p_type, p_brand "
        "FROM part WHERE SUBSTRING(p_container, 1, 2) IN ('SM', 'LG')"
        ") AS x GROUP BY head"),
    "case-arms": (
        "SELECT bucket, COUNT(*) AS n, COUNT(o_clerk) AS clerks FROM ("
        "SELECT CASE WHEN o_orderpriority = '1-URGENT' "
        "OR o_orderpriority = '2-HIGH' THEN 'high' "
        "WHEN o_orderstatus = 'F' THEN o_orderstatus "
        "ELSE 'low' END AS bucket, o_clerk FROM orders"
        ") AS x GROUP BY bucket"),
    "distinct": (
        "SELECT DISTINCT l_shipmode, l_shipinstruct FROM lineitem "
        "WHERE l_quantity < 10"),
    "shuffle-on-string": (
        "SELECT o_clerk, o_orderpriority, COUNT(*) AS n, "
        "SUM(o_totalprice) AS total FROM orders "
        "WHERE o_orderstatus IN ('F', 'O') "
        "GROUP BY o_clerk, o_orderpriority"),
    "join-on-string": (
        "SELECT c_mktsegment, n_name, COUNT(*) AS n "
        "FROM customer, nation, region "
        "WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND r_name <> 'ASIA' AND c_mktsegment IN ('BUILDING', "
        "'MACHINERY') GROUP BY c_mktsegment, n_name"),
    "string-column-pair": (
        "SELECT COUNT(*) AS n FROM lineitem "
        "WHERE l_returnflag < l_linestatus AND l_shipmode <> 'RAIL'"),
    "is-null": (
        "SELECT COUNT(*) AS n FROM customer LEFT OUTER JOIN orders "
        "ON c_custkey = o_custkey AND o_orderstatus = 'P' "
        "WHERE o_orderpriority IS NULL OR o_orderpriority LIKE '1%'"),
    "order-by-string": (
        "SELECT l_shipmode, l_linestatus, MAX(l_shipinstruct) AS last "
        "FROM lineitem GROUP BY l_shipmode, l_linestatus "
        "ORDER BY l_shipmode DESC, l_linestatus LIMIT 5"),
}

NODE_COUNTS = (1, 2, 3, 8)


@pytest.fixture(scope="module", params=NODE_COUNTS)
def tpch_rig(request):
    appliance, shell = build_tpch_appliance(scale=0.002,
                                            node_count=request.param)
    return appliance, PdwEngine(shell)


@pytest.mark.parametrize("name", sorted(TPCH_STRING_QUERIES))
def test_tpch_string_queries_match_the_reference(name, tpch_rig):
    appliance, engine = tpch_rig
    plan = engine.compile(TPCH_STRING_QUERIES[name]).dsql_plan
    result, _ = assert_same_execution(appliance, plan)
    assert result.rows


# -- a generated table: NULLs, skew, '', non-ASCII, NFC/NFD ------------------------------

NFC = unicodedata.normalize("NFC", "é")
NFD = unicodedata.normalize("NFD", "é")
WORDS = ["alpha", "beta", "", NFC, NFD, "日本語", "gamma delta", "Beta"]


def generated_appliance(node_count, rows=600, seed=20):
    """``g(id, k, tag, word, num)`` hashed on ``id``: ``tag`` is heavily
    skewed (one value on 80 % of the rows) with NULLs, ``word`` draws
    from :data:`WORDS` with NULLs, ``num`` holds numeric strings, ``k``
    is a string join key into replicated ``labels(word, rank)``."""
    rng = random.Random(seed)
    appliance = Appliance(node_count)
    appliance.create_table(TableDef("g", [
        Column("id", INTEGER), Column("k", varchar(8)),
        Column("tag", varchar(8)), Column("word", varchar(12)),
        Column("num", varchar(4))], hash_distributed("id")))
    appliance.create_table(TableDef("labels", [
        Column("word", varchar(12)), Column("rank", INTEGER)], REPLICATED))
    data = []
    for i in range(rows):
        tag = (None if rng.random() < 0.1
               else "hot" if rng.random() < 0.8
               else rng.choice(["cold", "warm", ""]))
        word = None if rng.random() < 0.15 else rng.choice(WORDS)
        data.append((i, f"k{rng.randrange(12)}", tag, word,
                     str(rng.randrange(-3, 40))))
    appliance.load_rows("g", data)
    appliance.load_rows("labels", [
        (word, rank) for rank, word in enumerate(
            WORDS[:6] + [f"k{i}" for i in range(0, 12, 2)] * 2)])
    return appliance, PdwEngine(appliance.compute_shell_database())


GENERATED_QUERIES = {
    "group-skewed": "SELECT tag, word, COUNT(*) AS n, COUNT(word) AS w "
                    "FROM g GROUP BY tag, word",
    "distinct": "SELECT DISTINCT word, tag FROM g WHERE id < 400",
    "compare": "SELECT id, word FROM g WHERE word >= 'b' AND tag <> 'hot'",
    "equal-nfc": f"SELECT COUNT(*) AS n FROM g WHERE word = '{NFC}'",
    "equal-nfd": f"SELECT COUNT(*) AS n FROM g WHERE word = '{NFD}'",
    "empty-string": "SELECT COUNT(*) AS n, COUNT(tag) AS t FROM g "
                    "WHERE word = '' OR tag = ''",
    "in-not-in": "SELECT tag, COUNT(*) AS n FROM g WHERE word IN "
                 "('alpha', '', '日本語') AND tag NOT IN ('cold') "
                 "GROUP BY tag",
    "like": "SELECT word, COUNT(*) AS n FROM g WHERE word LIKE '%a%' "
            "AND word NOT LIKE 'g%' GROUP BY word",
    "substring": "SELECT head, COUNT(*) AS n FROM (SELECT "
                 "SUBSTRING(word, 1, 2) AS head FROM g) AS x "
                 "GROUP BY head",
    "is-null": "SELECT COUNT(*) AS n FROM g WHERE tag IS NULL "
               "OR (word IS NOT NULL AND tag = 'warm')",
    "case-arms": "SELECT c, COUNT(*) AS n FROM (SELECT CASE WHEN "
                 "tag = 'hot' THEN 'H' WHEN tag IS NULL THEN word "
                 "ELSE tag END AS c FROM g) AS x GROUP BY c",
    "cast": "SELECT tag, SUM(CAST(num AS INTEGER)) AS total FROM g "
            "GROUP BY tag",
    "shuffle-on-string": "SELECT k, COUNT(*) AS n, MIN(word) AS lo "
                         "FROM g GROUP BY k",
    "join-on-string": "SELECT g.word, rank, COUNT(*) AS n FROM g, labels "
                      "WHERE g.word = labels.word GROUP BY g.word, rank",
    "join-then-filter": "SELECT g.id, labels.rank FROM g, labels "
                        "WHERE g.k = labels.word AND g.tag = 'cold' "
                        "AND labels.rank > 7",
    "union": "SELECT word FROM g WHERE id < 50 UNION ALL "
             "SELECT tag FROM g WHERE id >= 550",
}


@pytest.fixture(scope="module", params=NODE_COUNTS)
def generated_rig(request):
    return generated_appliance(request.param)


@pytest.mark.parametrize("name", sorted(GENERATED_QUERIES))
def test_generated_string_queries_match_the_reference(name, generated_rig):
    appliance, engine = generated_rig
    sql = GENERATED_QUERIES[name]
    plan = engine.compile(sql).dsql_plan
    result, _ = assert_same_execution(appliance, plan)
    want = run_reference(appliance, sql, executor="reference")
    assert sorted(map(repr, result.rows)) == sorted(map(repr, want.rows))


# -- bug guards ------------------------------------------------------------------------------

GUARD_NODES = (1, 3, 8)


def typed(rows):
    """Rows with every value's exact type beside it, order-free."""
    return sorted(repr([(type(v).__name__, v) for v in row])
                  for row in rows)


def assert_matches_reference(appliance, engine, sql):
    plan = engine.compile(sql).dsql_plan
    result, _ = assert_same_execution(appliance, plan)
    want = run_reference(appliance, sql, executor="reference")
    assert typed(result.rows) == typed(want.rows)
    return result


def numeric_strings(node_count):
    """``t(a, s)`` whose ``s`` holds numbers, words, a date and '0' —
    all repeating, so the column is dictionary-encoded."""
    appliance = Appliance(node_count)
    appliance.create_table(TableDef(
        "t", [Column("a", INTEGER), Column("s", varchar(12))],
        hash_distributed("a")))
    values = ["12", "abc", "1", None, "0", "15", "2001-03-05", "x1", ""]
    appliance.load_rows("t", [(i, values[i % len(values)])
                              for i in range(180)])
    return appliance, PdwEngine(appliance.compute_shell_database())


@pytest.mark.parametrize("node_count", GUARD_NODES)
@pytest.mark.parametrize("sql, rows", [
    ("SELECT CAST(s AS INTEGER) AS v FROM "
     "(SELECT s FROM t WHERE s LIKE '1%') AS x", 60),
    ("SELECT CAST(s AS DATE) AS v FROM "
     "(SELECT s FROM t WHERE s LIKE '2001%') AS x", 20),
    ("SELECT 10 / CAST(s AS INTEGER) AS v FROM "
     "(SELECT s FROM t WHERE s LIKE '1%') AS x", 60),
    ("SELECT v, COUNT(*) AS n FROM (SELECT CAST(s AS INTEGER) AS v "
     "FROM t WHERE s IN ('12', '15', '0')) AS x GROUP BY v", 3),
])
def test_stale_dictionary_entries_are_never_evaluated(sql, rows,
                                                      node_count):
    """After the filter the dictionary still holds 'abc', '0', ''…; no
    remaining row has them, so they may neither raise nor be counted."""
    appliance, engine = numeric_strings(node_count)
    result = assert_matches_reference(appliance, engine, sql)
    assert len(result.rows) == rows


@pytest.mark.parametrize("node_count", GUARD_NODES)
def test_a_value_some_row_has_still_raises(node_count):
    appliance, engine = numeric_strings(node_count)
    plan = engine.compile(
        "SELECT CAST(s AS INTEGER) AS v FROM "
        "(SELECT s FROM t WHERE s LIKE '%1%') AS x").dsql_plan  # 'x1'
    for executor in (None, "reference"):
        with pytest.raises(ValueError):
            DsqlRunner(appliance, executor=executor).run(plan)
        appliance.drop_temp_tables()


class Str(str):
    """Equal to its ``str`` value, not of its type."""


def exact_types(node_count):
    """``t(a, s, m)``: ``s`` is all ``str`` but spells one letter two
    ways and holds ``''`` and non-ASCII; ``m`` mixes ``str`` with a
    ``str`` subclass, ``int`` and ``date``."""
    appliance = Appliance(node_count)
    appliance.create_table(TableDef(
        "t", [Column("a", INTEGER), Column("s", varchar(12)),
              Column("m", varchar(12))], hash_distributed("a")))
    strings = ["", NFC, NFD, "日本語", None, "plain"]
    mixed = ["x", Str("x"), 5, datetime.date(1994, 1, 1), "x", "y", None]
    appliance.load_rows("t", [
        (i, strings[i % len(strings)], mixed[i % len(mixed)])
        for i in range(210)])
    return appliance, PdwEngine(appliance.compute_shell_database())


@pytest.mark.parametrize("node_count", GUARD_NODES)
@pytest.mark.parametrize("sql", [
    "SELECT s, COUNT(*) AS n FROM t GROUP BY s",
    "SELECT m, COUNT(*) AS n FROM t GROUP BY m",
    "SELECT DISTINCT s, m FROM t",
    "SELECT a, s, m FROM t WHERE s = '' OR m = 'x'",
    f"SELECT a, s FROM t WHERE s IN ('{NFC}', '日本語')",
    f"SELECT a FROM t WHERE s <> '{NFD}' AND s IS NOT NULL",
    "SELECT x.s AS s, y.m AS m, COUNT(*) AS n FROM t AS x, t AS y "
    "WHERE x.s = y.s AND x.a < 12 AND y.a < 24 GROUP BY x.s, y.m",
])
def test_type_exactness_survives_the_encoding(sql, node_count):
    """Rows, value types, ``dms_bytes`` and node ownership (the temp
    rows per node) exactly as the row path has them."""
    appliance, engine = exact_types(node_count)
    result = assert_matches_reference(appliance, engine, sql)
    assert result.rows


@pytest.mark.parametrize("node_count", GUARD_NODES)
def test_codes_carry_no_order(node_count):
    """First-occurrence codes are not collation order ('b' is seen
    before 'a'); ``<``, MIN/MAX and ORDER BY must read the strings."""
    appliance = Appliance(node_count)
    appliance.create_table(TableDef(
        "t", [Column("a", INTEGER), Column("s", varchar(4))],
        hash_distributed("a")))
    appliance.load_rows("t", [(i, "bcad"[i % 4]) for i in range(80)])
    engine = PdwEngine(appliance.compute_shell_database())
    for sql, expected in [
        ("SELECT COUNT(*) AS n FROM t WHERE s < 'c'", [(40,)]),
        ("SELECT MIN(s) AS lo, MAX(s) AS hi FROM t", [("a", "d")]),
        ("SELECT s, COUNT(*) AS n FROM t WHERE s >= 'b' GROUP BY s "
         "ORDER BY s DESC", [("d", 20), ("c", 20), ("b", 20)]),
    ]:
        result = assert_matches_reference(appliance, engine, sql)
        assert result.rows == expected
