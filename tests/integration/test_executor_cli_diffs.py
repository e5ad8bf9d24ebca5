"""The default (numpy) executor prints what the reference executor
prints, through the CLI, on hand-picked SQL that once found a bug.

Each case runs ``python -m repro --scale 0.001 --nodes 3 <command>``
with the default executor and with ``--executor reference`` and compares the two outputs byte for byte, then
checks the row count (or, for ``profile``, a plan line) the case was
written for:

* ``strings`` — dictionary-encoded strings end to end: IN, LIKE, <>
  and a GROUP BY on string keys;
* ``phones`` — strings that do not repeat (Q22's shape): SUBSTRING in
  the select list, under IN and as a GROUP BY key, a %-chain LIKE and
  ``||`` as ``numpy.strings`` calls;
* ``grouped`` — node-group execution: broadcast + shuffle + return at
  an odd node count print the same per-step and per-operator node rows;
* ``pairs`` — one key encoder: two shuffles on a string key, a join on
  a string key plus an int key, and COUNT(DISTINCT);
* ``lines`` — dense key codes: a LEFT JOIN against a build side
  holding each key several times, and COUNT(DISTINCT);
* ``ordered`` — ORDER BY as a lexsort: a DESC key with NULLs (they
  sort last) and ties on both keys, broken by the rows' arrival order.
"""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main

CASES = {
    "strings": (
        "run",
        "SELECT l_shipmode, l_returnflag, COUNT(*) AS n, "
        "SUM(l_quantity) AS q FROM lineitem "
        "WHERE l_shipmode IN ('MAIL', 'SHIP', 'AIR') "
        "AND l_shipinstruct LIKE 'DELIVER%' AND l_linestatus <> 'F' "
        "GROUP BY l_shipmode, l_returnflag "
        "ORDER BY l_shipmode, l_returnflag",
        r"^-- 3 rows"),
    "phones": (
        "run",
        "SELECT cntrycode, COUNT(*) AS n, MIN(tag) AS lo FROM "
        "(SELECT SUBSTRING(c_phone, 1, 2) AS cntrycode, "
        "c_name || c_phone AS tag FROM customer "
        "WHERE SUBSTRING(c_phone, 1, 2) IN "
        "('13', '31', '23', '29', '30', '18', '17') "
        "AND c_name LIKE '%u%e%') AS x "
        "GROUP BY cntrycode ORDER BY cntrycode",
        r"^-- 7 rows"),
    "grouped": (
        "profile",
        "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS t "
        "FROM customer, orders WHERE c_custkey = o_custkey "
        "AND o_orderstatus <> 'P' GROUP BY c_mktsegment "
        "ORDER BY c_mktsegment",
        r"^   1  ShuffleMove"),
    "pairs": (
        "run",
        "SELECT a.c_mktsegment, COUNT(*) AS pairs, "
        "COUNT(DISTINCT b.c_custkey) AS partners "
        "FROM customer a, customer b "
        "WHERE a.c_mktsegment = b.c_mktsegment "
        "AND a.c_nationkey = b.c_nationkey "
        "GROUP BY a.c_mktsegment ORDER BY a.c_mktsegment",
        r"^-- 5 rows"),
    "lines": (
        "run",
        "SELECT o_orderpriority, COUNT(*) AS n, "
        "COUNT(l_orderkey) AS lines, COUNT(DISTINCT l_partkey) AS parts "
        "FROM orders LEFT JOIN lineitem "
        "ON o_orderkey = l_orderkey AND l_quantity < 10 "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        r"^-- 5 rows"),
    "ordered": (
        "run",
        "SELECT o_orderpriority AS k, c_mktsegment AS v, c_custkey AS c "
        "FROM customer LEFT JOIN orders "
        "ON c_custkey = o_custkey AND o_totalprice > 400000 "
        "WHERE c_custkey < 14 ORDER BY k DESC, v",
        r"^-- 20 rows"),
}


def cli_output(capsys, command, sql, *executor):
    code = main(["--scale", "0.001", "--nodes", "3", *executor,
                 command, sql])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_numpy_prints_what_the_reference_prints(name, capsys):
    command, sql, expected = CASES[name]
    default = cli_output(capsys, command, sql)
    assert default == cli_output(capsys, command, sql,
                                 "--executor", "reference")
    assert re.search(expected, default, re.MULTILINE), default


def test_ordered_case_has_nulls_last_and_ties(capsys):
    """What the ``ordered`` case is for: its DESC key holds NULLs and
    its (k, v) pairs repeat, so the output pins both."""
    command, sql, _ = CASES["ordered"]
    lines = cli_output(capsys, command, sql).splitlines()
    keys = [tuple(line.split(" | ")[:2]) for line in lines[1:-1]]
    assert keys[0][0] != "None" and keys[-1][0] == "None"
    assert len(set(keys)) < len(keys)
